"""Descriptor fitting: least-squares curves over every zone range.

A descriptor is one prototype fitted to one contiguous zone range
[i, j] together with its per-zone RMSE.  The pool holds the fits for
all kinds over all n*(n+1)/2 ranges; ranges with fewer samples than
the kind's parameter count are skipped and only counted.

One fitter per kind, in ``_FITTERS``: line (closed-form least squares),
bilinear (a continuous polyline, each sample a breakpoint candidate),
tooth (three segment means, the plateau edges on zone boundaries and,
in narrow ranges, samples) and sinusoid (a frequency grid refined by
golden section).  Each fitter's docstring gives its design.  All take
``(xs, ys, first, n, span_i, span_j, nz)``: the series' samples, and
each range's first sample, sample count and zones, and the zone count.
They return the params as columns in field order, with a mask of the
ranges that admit a fit, and do their own batching.

The ranges come in (start, end) order, ``_fit_ranges``' one
precondition, so a fitter cuts its runs, and a start's groups of
ranges, as slices.

Every candidate scan is whole-array numpy work, and the fits are
bit-identical to fitting one range at a time.  Elementwise steps are
batched freely, over ranges of any length.  A pairwise sum (``sum``,
``mean``) is batched only over rows of equal length, unpadded, each
reduced on its own, so it rounds as the range's own sum would: the line
sums, the bilinear ``syy`` and the per-zone errors, a row per (range,
zone) segment evaluated with its range's params, are summed by
``_row_sums``.  ``np.cumsum`` adds in sequence, so each start's prefix
sums are taken once, over its longest range (``_start_prefix``): their
first n + 1 entries are exactly those of each range of n samples from
there.  One budget of ``_CHUNK_CELLS`` floats bounds memory on dense
input: bilinear candidates, summed samples, tooth cells and the plateau
edges of a tooth run are taken ``_CHUNK_CELLS // 32`` at a time, a
candidate peaking at some 32 floats and a sample, a cell or an edge at
fewer.

The pool holds its descriptors as columns: kind, zone range, params
(the kind's fields in field order, NaN after them) and an (m, n_zones)
zone-error matrix, 0.0 outside each range.  A descriptor's id is its
row; ``DescriptorPool.get`` makes a ``Descriptor`` for the few ids that
details, narration and render read.  ``total``, the cost the cover ranks
on, adds the matrix's columns in sequence from 0.0, not by ``np.sum``'s
pairwise sums, so each row sums as Python's left-to-right ``sum`` of its
zone errors does, bit for bit.  The per-zone error of any set of
descriptors is a row minimum (``zone_errs``).
``write_atomic`` is the package's one file writer: ``dump_pool`` and
every CLI artifact go through it.

A saved pool is a header line and one json line per descriptor, its
bytes those of ``json.dumps(record, sort_keys=True)`` and fixed by the
pools' sha256 pins.  ``dump_pool`` fills each line from one template per
kind, so only float ``repr`` runs per value, a block of records at a
time, so only the file's text is held whole.  ``load_pool`` decodes it
back a block of lines at a time, each line by the C json scanner mapped
over the block, and checks the records' fields, and each kind's params
rules (``params_ok``), on whole columns; only its lines are held whole.
``pool_zones`` reads a saved pool's zone count from its header line
alone.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import chain, islice, repeat
from json.scanner import make_scanner
from operator import itemgetter, le, sub
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FitError, OutputError
from .ingest import TimeSeries
from .prototypes import (
    PARAM_COUNTS,
    PARAM_FIELDS,
    PARAMS_CLASS,
    CurveKind,
    CurveParams,
    evaluate,
    params_ok,
)

DEFAULT_KINDS = (CurveKind.LINE, CurveKind.BILINEAR, CurveKind.TOOTH)

_SIN_GRID = np.geomspace(0.5, 8.0, 32)  # cycles per range width
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CHUNK_CELLS = 1 << 18  # floats of a batch's temporaries, or samples summed, at once
_COND_MAX = 2.0 ** 32  # bilinear systems past this tr^3 / det bound go to LAPACK
_N_PARAMS = max(map(len, PARAM_FIELDS.values()))  # columns of a pool's params


@dataclass(frozen=True)
class Descriptor:
    """One fitted curve over zones [zone_start, zone_end] inclusive."""

    id: int
    kind: CurveKind
    params: CurveParams
    zone_start: int
    zone_end: int
    zone_errs: tuple[float, ...]
    n_zones: int

    def __post_init__(self):
        if not (0 <= self.zone_start <= self.zone_end < self.n_zones):
            raise ValueError(
                f"bad zone range [{self.zone_start}, {self.zone_end}] "
                f"for {self.n_zones} zones"
            )
        if len(self.zone_errs) != self.zone_end - self.zone_start + 1:
            raise ValueError("zone_errs length does not match the zone range")

    @property
    def zones(self) -> range:
        return range(self.zone_start, self.zone_end + 1)

    @property
    def width(self) -> int:
        return self.zone_end - self.zone_start + 1

    @property
    def x_lo(self) -> float:
        return self.zone_start / self.n_zones

    @property
    def x_hi(self) -> float:
        return (self.zone_end + 1) / self.n_zones

    def err(self, zone: int) -> float:
        """Per-zone RMSE; zone must lie inside the descriptor's range."""
        return self.zone_errs[zone - self.zone_start]


@dataclass(frozen=True, eq=False)
class DescriptorPool:
    """All feasible descriptors for a series, as columns in (kind, i, j)
    order (module docstring); a descriptor's id is its row."""

    kind: np.ndarray  # (m,) CurveKind values
    zone_start: np.ndarray  # (m,)
    zone_end: np.ndarray  # (m,)
    params: np.ndarray  # (m, _N_PARAMS)
    errs: np.ndarray  # (m, n_zones)
    n_zones: int
    kinds: tuple[CurveKind, ...]
    n_infeasible: int = 0

    def __len__(self) -> int:
        return len(self.kind)

    def __iter__(self) -> Iterator[Descriptor]:
        return map(self.get, range(len(self)))

    def get(self, id: int) -> Descriptor:
        """The descriptor of row ``id``, made on demand."""
        if not 0 <= id < len(self):
            raise KeyError(f"no descriptor with id {id}")
        kind = CurveKind(int(self.kind[id]))
        i, j = int(self.zone_start[id]), int(self.zone_end[id])
        params = PARAMS_CLASS[kind](*self.params[id, : len(PARAM_FIELDS[kind])].tolist())
        return Descriptor(id, kind, params, i, j, tuple(self.errs[id, i : j + 1].tolist()),
                          self.n_zones)

    @cached_property
    def total(self) -> np.ndarray:
        """Each descriptor's summed zone errors, as Python's ``sum`` adds them."""
        return reduce(np.add, self.errs.T, np.zeros(len(self)))

    def zone_errs(self, ids: Iterable[int]) -> list[float]:
        """Per-zone minimum error over the given descriptors, which must
        cover every zone (a tiling alone does), else ``ValueError``."""
        rows = np.fromiter(ids, int)
        z = np.arange(self.n_zones)
        inside = (self.zone_start[rows, None] <= z) & (z <= self.zone_end[rows, None])
        covered = inside.any(axis=0)
        if not covered.all():
            raise ValueError(f"zone {covered.argmin()} is not covered")
        return np.where(inside, self.errs[rows], np.inf).min(axis=0).tolist()

    @property
    def expected_size(self) -> int:
        n = self.n_zones
        return len(self.kinds) * n * (n + 1) // 2


# ----------------------------------------------------------------------
# batch fitters, one signature for every kind (module docstring)
# ----------------------------------------------------------------------


def _ravel(first: np.ndarray, n: np.ndarray):
    """Blocks of ``n`` consecutive indices from ``first`` on, laid end to
    end as cells: each block's first cell, each cell's block and each
    cell's index."""
    start = np.cumsum(n) - n
    row = np.repeat(np.arange(len(n)), n)
    return start, row, np.arange(len(row)) + np.repeat(first - start, n)


def _chunks(cost: np.ndarray, budget: int) -> list[slice]:
    """Cut items of the given ``cost``, in order, into consecutive chunks,
    each starting a new multiple of ``budget`` of the running cost: a
    chunk costs less than ``budget`` plus its last item."""
    key = (np.cumsum(cost) - cost) // max(1, budget)
    cut = [0] + (np.flatnonzero(np.diff(key)) + 1).tolist() + [len(cost)]
    return [slice(a, b) for a, b in zip(cut, cut[1:]) if b > a]


def _start_prefix(vals, first: np.ndarray, n: np.ndarray):
    """Each start's prefix sums of each array of ``vals``, for ranges of
    ``n`` samples from ``first`` on in (start, end) order: a (len(vals),
    starts, w + 1) array whose rows hold, from 0.0, the sums over the
    samples of the start's longest range, its last sample repeated up to
    w.  ``np.cumsum`` adds in sequence, so entry p is exactly the sum of
    the first p samples of every range from that start.  Also returns
    each range's start row and the rows' (starts, w) sample indices."""
    new = np.r_[True, first[1:] != first[:-1]]
    at = np.flatnonzero(new)
    longest = np.maximum.reduceat(n, at)
    idx = first[at, None] + np.minimum(np.arange(longest.max()), longest[:, None] - 1)
    sums = np.zeros((len(vals), len(at), idx.shape[1] + 1))
    np.cumsum(np.stack([v[idx] for v in vals]), axis=-1, out=sums[..., 1:])
    return sums, np.cumsum(new) - 1, idx


def _row_sums(first: np.ndarray, n: np.ndarray, f, count: int = 1) -> np.ndarray:
    """Each range's sums of the ``count`` (rows, k) arrays ``f(idx, rows)``
    returns for the ranges ``rows`` of ``k`` samples from ``first`` on,
    ``idx`` being their sample indices.  Ranges of one length are summed
    together, at most ``_CHUNK_CELLS // 32`` samples at a time, each row
    on its own, so it rounds as the range's own pairwise sum does."""
    out = np.empty((count, len(n)))
    for k in np.unique(n).tolist():
        rows = np.flatnonzero(n == k)
        step = max(1, _CHUNK_CELLS // 32 // k)
        for sel in (rows[at : at + step] for at in range(0, len(rows), step)):
            for o, v in zip(out, f(first[sel, None] + np.arange(k), sel)):
                o[sel] = v.sum(axis=1)
    return out


def _fit_lines(xs, ys, first, n, span_i, span_j, nz):
    """Closed-form ordinary least squares, all ranges in one batch."""
    xx, xy = xs * xs, xs * ys
    sx, sy, sxx, sxy = _row_sums(first, n, lambda idx, _: (v[idx] for v in (xs, ys, xx, xy)), 4)
    denom = n * sxx - sx * sx
    with np.errstate(invalid="ignore", divide="ignore"):
        b = (n * sxy - sx * sy) / denom
    a = (sy - b * sx) / n
    return (a, b), denom > 0


def _bilinear_bound(a, b, c, d, e, r0, r1, r2, syy):
    """Closed-form estimate ``q`` of the least SSE of each bilinear system
    M theta = r, M = [[a, b, 0], [b, c, d], [0, d, e]] and r = (r0, r1, r2)
    elementwise, and a lower bound ``low`` on the SSE that ``_bilinear_sse``
    scores for it; ``low`` is -inf where the bound is not certified.

    ``q = syy - r.adj(M).r / det``.  A cell is guarded when M is certified
    positive definite and well conditioned: ``a > 0``, and ``ac - b^2``
    and ``det`` each exceed their rounding bound (gamma_2 and gamma_4 of
    their terms' magnitudes, times 4), and ``tr^3 <= _COND_MAX det``,
    tr = a + c + e.  Below, M, r and syy are the float inputs taken as
    exact, R = r.M^-1.r, the least SSE is q* = syy - R, u = 2^-53 (and no
    underflow), and kappa = tr^3 / det, which is at least 27.  A guarded M
    has eigenvalues in [4 det / tr^2, tr], so |r|^2 <= tr R and
    |M^-1 r|^2 <= kappa R / (4 tr) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3 and 9, for the rounding lemmas):

    * closed form: each of the 12 terms of r.adj(M).r takes at most 7
      roundings and their magnitudes sum to at most 1.5 tr^2 |r|^2, so to
      1.5 kappa det R; those of det sum to at most tr^3 / 9.  With the
      division and the subtraction, |q - q*| <= u (11 kappa R + |R^| +
      |q|), R^ the computed r.adj(M).r / det (``rmr``);
    * LU solve: LAPACK's theta solves (M + dM) theta = r with
      |dM| <= gamma_9 |L||U| and growth at most 4, so
      |theta - M^-1 r| <= 81 u kappa |theta|, at most 2^-14 |theta| here.
      The exact q(theta) = syy - 2 theta.r + theta.M.theta is at least q*
      for every theta, since M is positive definite, so this error
      enters only through the size of theta below;
    * evaluation: ``syy - 2 t1 + t2``, t1 a 3-term and t2 a 9-term einsum,
      is off q(theta) by at most u (10 |theta||r| + 11 tr |theta|^2 +
      2 syy) <= u (5 sqrt(kappa) R + 2.75 kappa R + 2 syy).

    With sqrt(kappa) <= kappa / 5, R <= 1.01 |R^|, and the rounding of
    ``q - B`` itself, the LAPACK SSE is at least q - u (16 kappa |R^| +
    4 syy).  B takes a safety factor of 4 over that: B = 2^-47 (kappa
    |R^| + syy).  The max(sse, 0) LAPACK's score takes only raises it."""
    with np.errstate(all="ignore"):  # degenerate cells overflow; unguarded
        bb, dd, ce = b * b, d * d, c * e
        c00 = ce - dd
        c22 = a * c - bb
        det = a * c00 - bb * e
        ur = e * r1 - d * r2
        rmr = (r0 * (c00 * r0 - b * ur) + r1 * (a * ur - b * e * r0)
               + r2 * (d * (b * r0 - a * r1) + c22 * r2)) / det
        q = syy - rmr
        tr = a + c + e
        kappa = tr * tr * tr / det
        guard = ((a > 0) & (c22 > 2.0 ** -50 * (a * np.abs(c) + bb))
                 & (det > 2.0 ** -49 * (a * (np.abs(ce) + dd) + bb * np.abs(e)))
                 & (kappa <= _COND_MAX) & np.isfinite(q))
        low = np.where(guard, q - 2.0 ** -47 * (kappa * np.abs(rmr) + syy), -np.inf)
    return q, low


def _bilinear_sse(a, b, c, d, e, r0, r1, r2, syy):
    """LAPACK's least squares of the k systems ``_bilinear_bound`` takes, as
    length-k entry arrays stacked into (k, 3, 3): the SSE, inf where it is
    singular, and theta as (3, k).  Each system scores the same in any stack."""
    zero = np.zeros_like(a)
    mat = np.stack([a, b, zero, b, c, d, zero, d, e], axis=1).reshape(-1, 3, 3)
    rhs = np.stack([r0, r1, r2], axis=1)
    ok = np.abs(np.linalg.det(mat)) > 1e-12
    theta = np.full(rhs.shape, np.nan)
    theta[ok] = np.linalg.solve(mat[ok], rhs[ok][..., None])[..., 0]
    sse = syy - 2 * np.einsum("ki,ki->k", theta, rhs) + np.einsum(
        "ki,kij,kj->k", theta, mat, theta)
    return np.where(ok, np.maximum(sse, 0.0), np.inf), theta.T


def _bilinear_entries(xs, ys, first, n, x_lo, x_hi, row, idx):
    """The system entries (a, b, c, d, e, r0, r1, r2) of the raveled
    candidate cells of ranges of ``n`` samples from ``first`` on, in
    (start, end) order, each cell's range ``row`` and sample ``idx`` being
    its breakpoint ``xb``, and the mask of the cells to score.  The left
    segment's entries depend on the start and ``xb`` only, so they are
    computed once per start and sample, from the start's prefix sums
    (``_start_prefix``), and each cell adds its right segment's terms."""
    sums, start, pad = _start_prefix((xs, xs * xs, ys, xs * ys), first, n)
    x = xs[pad]
    lo = np.empty((len(pad), 1))
    lo[start, 0] = x_lo
    # left segment: y_l weight (xb - x)/dl, y_b weight (x - x_lo)/dl.  A
    # gap that squares to 0 is masked, and divided as 1.
    sx_l, sxx_l, sy_l, sxy_l = sums[:, :, 1:]
    n_l = np.arange(1.0, x.shape[1] + 1)
    dl = x - lo
    keep_l = (dl > 0) & (dl * dl > 0)
    dl = np.where(keep_l, dl, 1.0)
    dl2 = dl * dl
    left = (keep_l, (x * x * n_l - 2 * x * sx_l + sxx_l) / dl2,
            ((x + lo) * sx_l - x * lo * n_l - sxx_l) / dl2,
            (sxx_l - 2 * lo * sx_l + lo * lo * n_l) / dl2,
            (x * sy_l - sxy_l) / dl, (sxy_l - lo * sy_l) / dl)

    # Each cell's left entries and sums, at its start and sample p, and
    # the right segment's sums, its range's less its left ones.
    start, p = start[row], idx - first[row]
    cell = start * x.shape[1] + p
    keep, a, b, c, r0, r1 = (v.ravel()[cell] for v in left)
    whole = sums[:, start, n[row]]
    sx_r, sxx_r, sy_r, sxy_r = (v_w - v[:, 1:].ravel()[cell] for v_w, v in zip(whole, sums))
    xb, hi = xs[idx], x_hi[row]
    n_r = n[row] - (p + 1.0)

    # right segment: y_b weight (x_hi - x)/dr, y_r weight (x - xb)/dr
    dr = hi - xb
    keep &= (dr > 0) & (dr * dr > 0)
    dr = np.where(keep, dr, 1.0)
    dr2 = dr * dr
    c += (hi * hi * n_r - 2 * hi * sx_r + sxx_r) / dr2
    d = ((hi + xb) * sx_r - hi * xb * n_r - sxx_r) / dr2
    e = (sxx_r - 2 * xb * sx_r + xb * xb * n_r) / dr2
    r1 += (hi * sy_r - sxy_r) / dr
    r2 = (sxy_r - xb * sy_r) / dr
    # d = e = 0 (an empty right segment, or one all at xb) zeroes M's
    # last row, so LAPACK's det would be 0 or nan.
    keep &= (d != 0) | (e != 0)
    return (a, b, c, d, e, r0, r1, r2), keep


def _fit_bilinears(xs, ys, first, n, span_i, span_j, nz):
    """Bilinear fits: a polyline from ``x_lo`` to ``x_hi``, continuous at
    its breakpoint, whose three y values solve a tridiagonal system
    (``_bilinear_entries``).  Every sample of a range is a breakpoint
    candidate, with the samples up to it on the left; those strictly
    inside the range whose edge gaps square above 0, and whose system has
    a nonzero last row (the last sample's does not), are scored.  Ties
    prefer the smaller breakpoint.  ``syy`` is each range's own sum
    (``_row_sums``); the ranges are cut into runs of about
    ``_CHUNK_CELLS // 32`` candidate cells (``_bilinear_run``), a
    candidate peaking at some 32 floats: its entries, the bound's
    temporaries, its score and its theta."""
    syy = _row_sums(first, n, lambda idx, _: [np.square(ys[idx])])[0]
    cols = np.full((6, len(n)), np.nan)  # x_b, y_l, y_b, y_r, x_lo, x_hi
    cols[4], cols[5] = span_i / nz, (span_j + 1) / nz
    for k in _chunks(n, _CHUNK_CELLS // 32):
        cols[:4, k] = _bilinear_run(xs, ys, first[k], n[k], syy[k], cols[4, k], cols[5, k])
    return cols, ~np.isnan(cols[0])


def _bilinear_run(xs, ys, first, n, syy, x_lo, x_hi):
    """x_b, y_l, y_b and y_r of a run of ranges, NaN where a range has no
    fit.  The ranges are raveled end to end, the cell of a range's sample
    p taking it as the breakpoint; all is elementwise on the cell vector,
    and the per-range minima are segmented reductions over it.

    LAPACK scores the cells in rounds (``_bilinear_bound`` has a
    closed-form estimate of each cell's least SSE and a proven lower
    bound on LAPACK's score): first every cell whose lower bound is at
    most its range's least estimate, the unguarded cells included, then
    every cell left whose bound is at most its range's least score so
    far.  An unscored cell scores above its range's least, so it neither
    wins nor ties, and each range's first least score is the one scoring
    every cell gives.  A range whose least score is not finite gets no
    fit."""
    start, row, idx = _ravel(first, n)
    entries, keep = _bilinear_entries(xs, ys, first, n, x_lo, x_hi, row, idx)
    est, low = _bilinear_bound(*entries, syy[row])
    least = np.minimum.reduceat(np.where(keep & (low > -np.inf), est, np.inf), start)
    todo = keep & (low <= least[row])
    scored = todo
    sse = np.full(len(row), np.inf)
    theta = np.full((3, len(row)), np.nan)
    while todo.any():
        k = np.flatnonzero(todo)
        sse[k], theta[:, k] = _bilinear_sse(*(v[k] for v in entries), syy[row[k]])
        todo = keep & ~scored & (low <= np.minimum.reduceat(sse, start)[row])
        scored = scored | todo
    hit = np.flatnonzero(sse == np.minimum.reduceat(sse, start)[row])
    hit = hit[np.diff(row[hit], prepend=-1) != 0]
    hit = hit[np.isfinite(sse[hit])]
    out = np.full((4, len(n)), np.nan)
    out[:, row[hit]] = np.vstack([xs[idx[hit]], theta[:, hit]])
    return out


def _tooth_edges(xs, first, n, span_i, span_j, nz):
    """Every range's sorted plateau edges, raveled in range order: the
    zone boundaries ``k / nz`` of zones ``span_i..span_j``, plus the ``n``
    samples from ``first`` on when the range spans at most 4 zones,
    repeats dropped, as a per-range ``np.unique`` gives them.  Returns
    the edges and each one's range."""
    _, row, k = _ravel(span_i, span_j - span_i + 2)
    narrow = np.flatnonzero(span_j - span_i < 4)
    _, at, idx = _ravel(first[narrow], n[narrow])
    row = np.concatenate([row, narrow[at]])
    edge = np.concatenate([k / nz, xs[idx]])
    order = np.lexsort((edge, row))
    row, edge = row[order], edge[order]
    new = np.ones(len(row), bool)
    new[1:] = (row[1:] != row[:-1]) | (edge[1:] != edge[:-1])
    return edge[new], row[new]


def _seg_sse(cnt: np.ndarray, s: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Squared error of a segment mean from its count, sum and sum of
    squares; an empty segment costs nothing."""
    out = ss - np.where(cnt > 0, s * s / np.where(cnt > 0, cnt, 1.0), 0.0)
    return np.maximum(out, 0.0)


def _tooth_cells(t, row, col):
    """``fl(left + plateau)`` of the cells from start edge ``row`` to end
    edge ``col``, indices of the per-edge arrays ``t``: the samples of a
    range before (``lo``) and up to (``hi``) an edge, their y and y^2
    sums, and the left segment's SSE.  inf where the plateau holds no
    sample.  Elementwise, so a cell scores the same in any pass."""
    lo, s_lo, ss_lo, left, hi, s_hi, ss_hi = t
    cnt = hi[col] - lo[row]
    s = s_hi[col] - s_lo[row]
    s *= s
    with np.errstate(invalid="ignore", divide="ignore"):
        s /= cnt
    sse = ss_hi[col] - ss_lo[row]
    sse -= s
    np.maximum(sse, 0.0, out=sse)
    sse += left[row]
    sse[cnt <= 0] = np.inf
    return sse


def _tooth_columns(t, col, r0, r1):
    """The cells of the table columns ``col``, end edges of the per-edge
    arrays ``t``, each over the start rows [r0, r1), in chunks of about
    ``_CHUNK_CELLS // 32`` cells, a cell peaking at some 10 values.  Yields
    each chunk's slice of the columns, the offset of each column's cells
    and each cell's column and row, and the cells' ``_tooth_cells``."""
    for k in _chunks(r1 - r0, _CHUNK_CELLS // 32):
        at, c, row = _ravel(r0[k], r1[k] - r0[k])
        yield k, at, c, row, _tooth_cells(t, row, col[k][c])


def _fit_teeth(xs, ys, first, n, span_i, span_j, nz):
    """Tooth fits: a plateau between two edges and a level on each side,
    the three levels being segment means.  The edges are searched over the
    zone boundaries of the range, plus its samples when it spans at most
    4 zones (``_tooth_edges``), every (start, end) edge pair a cell scored
    from y and y^2 prefix sums.

    A start's ranges of at most 4 zones are one group, sharing one table
    (``_fit_tooth_groups``), and its wider ones another; in (start, end)
    order its narrow ones come first, so each group is a slice.  The
    groups are fitted in runs of whole groups holding about
    ``_CHUNK_CELLS // 32`` plateau edges of their ranges, a range's edges
    being at most its zone boundaries plus, when narrow, its samples.
    Each group's widest range adds its samples over 32, so a run's prefix
    sums (``_start_prefix``) hold about ``_CHUNK_CELLS`` samples at most."""
    if not len(n):
        return np.empty((5, 0)), np.ones(0, bool)
    wide = span_j - span_i >= 4
    lead = np.flatnonzero(np.r_[True, (np.diff(span_i) != 0) | (np.diff(wide) != 0)])
    bounds = np.r_[lead, len(n)]
    size = (np.add.reduceat(np.where(wide, 0, n) + span_j - span_i + 2, lead)
            + n[bounds[1:] - 1] // 32)
    cols = np.empty((5, len(n)))
    for k in _chunks(size, _CHUNK_CELLS // 32):
        g = slice(bounds[k.start], bounds[k.stop])
        cols[:, g] = _fit_tooth_groups(xs, ys, first[g], n[g], span_i[g], span_j[g], nz,
                                       lead[k] - lead[k.start])
    return cols, np.ones(len(n), bool)


def _fit_tooth_groups(xs, ys, first, n, span_i, span_j, nz, lead):
    """The tooth params, as five columns, of ranges of whole groups in
    (start, end) order, ``lead`` being each group's first.

    Zone k holds the samples in [k/nz, (k+1)/nz), so in a group each
    range's plateau edges are the first ``count`` of its widest range's,
    the group's table edges.  A cell is ``fl(fl(left[s] + plateau(s, e))
    + right[e])``: ``left`` and the plateau depend on the start only, so
    the table holds ``fl(left + plateau)`` once for the group and is
    reduced to column minima, and a range's least cell is ``min_e
    fl(colmin[e] + right[e])`` over its columns, as addition rounds
    monotonically.  The plateau of a range's last edge holds only its own
    samples, not one on the next zone's left boundary, so that column is
    scored per range, with the range's own sample count.

    Every term is >= 0, so a cell is at least its row's ``left``: a row
    whose ``left`` is above every range's incumbent (its least cell over
    row 0 and its last column) holds no least cell nor a tie of one, and
    only the rows up to a group's last other row are scored.  Ties prefer
    the wider plateau, then the earlier start: they are rescored on the
    tied columns only, where the first tied row is the widest."""
    m = len(n)
    group = np.repeat(np.arange(len(lead)), np.diff(np.r_[lead, m]))
    top = np.r_[lead[1:], m] - 1  # each group's widest range
    pos, geid = _tooth_edges(xs, first[top], n[top], span_i[top], span_j[top], nz)
    n_edges, size = len(pos), np.bincount(geid, minlength=len(top))
    gbase = np.cumsum(size) - size
    # A range's edges are its group's up to its last zone boundary, the
    # (span_j + 1 - span_i)-th of the group's boundaries k / nz, which the
    # group's edges hold in zone order.
    bound = np.flatnonzero(np.rint(pos * nz) / nz == pos)
    n_bounds = span_j[top] - span_i[top] + 2
    base = gbase[group]  # each range's first edge, and its last:
    last = bound[(np.cumsum(n_bounds) - n_bounds)[group] + span_j - span_i + 1]
    count = last - base + 1
    # The samples of a group before (lo) and up to (hi) each edge, and
    # their y and y^2 sums, from each start's prefix sums; past the widest
    # range's last edge only the next zone's samples lie.
    gfirst, gn = first[top][geid], n[top][geid]
    lo = np.minimum(np.searchsorted(xs, pos, side="left") - gfirst, gn)
    hi = np.minimum(np.searchsorted(xs, pos, side="right") - gfirst, gn)
    sums, start, _ = _start_prefix((ys, ys * ys), first, n)
    gstart = start[top][geid]
    (s_lo, ss_lo), (s_hi, ss_hi), (py_n, pyy_n) = (
        sums[:, gstart, lo], sums[:, gstart, hi], sums[:, start, n])
    del sums  # the table pass below holds no start's prefix sums
    left = _seg_sse(lo.astype(float), s_lo, ss_lo)
    # Range r's own last column is column n_edges + r, past the tables':
    # at the range's last edge, with its own sample count.
    t = lo, s_lo, ss_lo, left, np.r_[hi, n], np.r_[s_hi, py_n], np.r_[ss_hi, pyy_n]
    pos = np.r_[pos, pos[last]]

    # Each range's columns e before its last, raveled: ``seg`` each
    # range's first, ``rr`` each column's range.  The cells of its own
    # last column are raveled alike: row e of that column.
    seg, rr, e = _ravel(base, count - 1)
    right = _seg_sse((n[rr] - hi[e]).astype(float), py_n[rr] - s_hi[e], pyy_n[rr] - ss_hi[e])
    own = _tooth_cells(t, e, n_edges + rr)
    own_least = np.minimum.reduceat(own, seg)
    colmin = _tooth_cells(t, gbase[geid], np.arange(n_edges))  # row 0
    colmin[gbase] = np.inf  # no plateau from an edge to itself
    inc = np.minimum(np.minimum.reduceat(colmin[e] + right, seg), own_least)

    # Each column's rows [r0, r1): from row 1 to the column, or past the
    # group's last row whose left is at most an incumbent.  A group's
    # widest range's last column is its own.
    local = np.arange(n_edges) - gbase[geid]
    rows = np.where(left <= np.maximum.reduceat(inc, lead)[geid], local, 0)
    r0 = gbase[geid] + 1
    r1 = np.minimum(np.arange(n_edges), r0 + np.maximum.reduceat(rows, gbase)[geid])
    col = np.flatnonzero((r1 > r0) & (local < size[geid] - 1))
    for k, at, _, _, sse in _tooth_columns(t, col, r0[col], r1[col]):
        colmin[col[k]] = np.minimum(colmin[col[k]], np.minimum.reduceat(sse, at))
    cell = colmin[e] + right
    least = np.minimum(np.minimum.reduceat(cell, seg), own_least)[rr]

    # The tied cells: of the own last columns, and each tied column's
    # first tied row; then one per range by (-width, x_s).
    hit = np.flatnonzero(own == least)
    tied = [(rr[hit], e[hit], n_edges + rr[hit])]
    tc = np.flatnonzero(cell == least)
    for k, _, c, row, sse in _tooth_columns(t, e[tc], r0[e[tc]] - 1, r1[e[tc]]):
        hit = np.flatnonzero(sse + right[tc[k]][c] == least[tc[k]][c])
        hit = hit[np.diff(c[hit], prepend=-1) != 0]
        tied.append((rr[tc[k]][c[hit]], row[hit], e[tc[k]][c[hit]]))
    r, s, end = map(np.concatenate, zip(*tied))
    x_s = pos[s]
    best = np.lexsort((x_s, x_s - pos[end], r))
    best = best[np.diff(r[best], prepend=-1) != 0]  # one per range, in range order
    s, end = s[best], end[best]

    s_i, e_i, p_s, p_e = lo[s], t[4][end], s_lo[s], t[5][end]
    y_in = (p_e - p_s) / (e_i - s_i)
    y_out_l = np.where(s_i > 0, p_s / np.maximum(s_i, 1), y_in)
    y_out_r = np.where(e_i < n, (py_n - p_e) / np.maximum(n - e_i, 1), y_in)
    return y_out_l, y_out_r, pos[s], pos[end], y_in


def _sin_solve(x, r, freq, rr):
    """Least squares of r against sin/cos at one frequency, ``rr`` being
    ``float((r * r).sum())``: (a, b, sse), sse inf where it is degenerate."""
    arg = 2 * math.pi * freq * x
    s = np.sin(arg)
    co = np.cos(arg)
    m00 = float((s * s).sum())
    m01 = float((s * co).sum())
    m11 = float((co * co).sum())
    b0 = float((s * r).sum())
    b1 = float((co * r).sum())
    det = m00 * m11 - m01 * m01
    if abs(det) < 1e-14:
        return math.nan, math.nan, math.inf
    a = (m11 * b0 - m01 * b1) / det
    b = (m00 * b1 - m01 * b0) / det
    return a, b, max(rr - (a * b0 + b * b1), 0.0)


def _sin_basis(x: np.ndarray, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of 2 pi f x at every (frequency, sample)."""
    arg = (2 * math.pi * freqs)[:, None] * x
    return np.sin(arg), np.cos(arg, out=arg)


def _sin_grid(s: np.ndarray, co: np.ndarray, r: np.ndarray, rr: float):
    """``_sin_solve``'s (a, b, sse) at each frequency row of the basis
    ``s``, ``co``, as three arrays; each row is reduced on its own, in the
    one-frequency solve's order."""
    m00 = (s * s).sum(axis=1)
    m01 = (s * co).sum(axis=1)
    m11 = (co * co).sum(axis=1)
    b0 = (s * r).sum(axis=1)
    b1 = (co * r).sum(axis=1)
    det = m00 * m11 - m01 * m01
    with np.errstate(invalid="ignore", divide="ignore"):
        a = (m11 * b0 - m01 * b1) / det
        b = (m00 * b1 - m01 * b0) / det
    sse = np.maximum(rr - (a * b0 + b * b1), 0.0)
    return a, b, np.where(np.abs(det) < 1e-14, np.inf, sse)


def _fit_sinusoid(x: np.ndarray, y: np.ndarray, width: float, basis):
    """(amp, freq, phase, mean) of the range's sinusoid fit, or None."""
    mean = float(y.mean())
    r = y - mean
    rr = float((r * r).sum())  # fixed per range: one sum for every solve

    a, b, sse = _sin_grid(*basis, r, rr)
    k = int(np.argmin(sse))
    if not np.isfinite(sse[k]):
        return None
    a, b, sse = a[k], b[k], sse[k]
    freq = _SIN_GRID[k] / width

    lo = _SIN_GRID[max(k - 1, 0)]
    hi = _SIN_GRID[min(k + 1, len(_SIN_GRID) - 1)]
    # golden section on the bracket around the best grid frequency
    c1 = hi - _GOLDEN * (hi - lo)
    c2 = lo + _GOLDEN * (hi - lo)

    def sse_at(f_range):
        return _sin_solve(x, r, f_range / width, rr)[2]

    f1, f2 = sse_at(c1), sse_at(c2)
    while (hi - lo) > 1e-3 * (0.5 * (hi + lo)):
        if f1 <= f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - _GOLDEN * (hi - lo)
            f1 = sse_at(c1)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + _GOLDEN * (hi - lo)
            f2 = sse_at(c2)

    # The refined frequency replaces the grid winner only if strictly better.
    mid = 0.5 * (lo + hi) / width
    a_mid, b_mid, sse_mid = _sin_solve(x, r, mid, rr)
    if sse_mid < sse:
        a, b, freq = a_mid, b_mid, mid
    amp = math.hypot(a, b)
    phase = math.atan2(b, a) % (2 * math.pi)
    if phase >= 2 * math.pi:
        phase = 0.0
    return amp, freq, phase, mean


def _fit_sinusoids(xs, ys, first, n, span_i, span_j, nz):
    """Sinusoid fits, one range at a time (``_fit_sinusoid``): the offset
    is pinned to the range's sample mean, the frequency is scanned over a
    geometric grid of 0.5..8 cycles per range width (32 steps), with
    amplitude and phase by a linear solve in the sin/cos basis, and the
    best grid frequency is refined by golden section search to relative
    tolerance 1e-3.  Ranges of one zone count have bit-equal widths, so
    they share a grid and one basis over the whole series, each range
    reading its own columns.  A basis over only some of the series would
    not lower the peak: the widest range needs the whole series'."""
    width = (span_j + 1 - span_i) / nz
    fits = [None] * len(first)
    for w in np.unique(width):
        basis = _sin_basis(xs, _SIN_GRID / w)
        for k in np.flatnonzero(width == w):
            f, e = first[k], first[k] + n[k]
            fits[k] = _fit_sinusoid(xs[f:e], ys[f:e], float(w), [b[:, f:e] for b in basis])
        del basis  # freed before the next width's is built
    cols = [p or (math.nan,) * 4 for p in fits]
    return np.array(cols).T, np.array([p is not None for p in fits])


# ----------------------------------------------------------------------
# public fitting entry points
# ----------------------------------------------------------------------


_FITTERS = {CurveKind.LINE: _fit_lines, CurveKind.BILINEAR: _fit_bilinears,
            CurveKind.TOOTH: _fit_teeth, CurveKind.SINUSOID: _fit_sinusoids}


def _fit_ranges(series: TimeSeries, kind: CurveKind, ranges: Sequence[tuple[int, int]]):
    """Fit one prototype over every zone range (i, j) in ``ranges``,
    skipping those with fewer samples than the kind has free parameters or
    no fit.  Returns the fitted ranges' indices, and their params and
    per-zone RMSE as rows, as ``DescriptorPool`` holds them.

    ``ranges`` must be in (start, end) order: ``build_pool`` passes
    ``np.triu_indices``, the feasibility filter keeps its order, and
    ``fit_one`` passes one range.  The fitters cut the ranges into runs
    and start groups as slices, and share each start's prefix sums among
    its ranges."""
    xs, ys, nz, edges = series.xs, series.ys, series.n_zones, series.zone_edges
    span_i, span_j = np.array(ranges).reshape(-1, 2).T
    first = edges[span_i]
    sizes = edges[span_j + 1] - first
    feasible = np.flatnonzero(sizes >= PARAM_COUNTS[kind])
    names = PARAM_FIELDS[kind]
    params = np.full((_N_PARAMS, len(ranges)), np.nan)
    vals = params[: len(names)]  # the kind's fields, a view
    ok = np.zeros(len(ranges), bool)
    vals[:, feasible], ok[feasible] = _FITTERS[kind](
        xs, ys, first[feasible], sizes[feasible], span_i[feasible], span_j[feasible], nz)

    # Per-zone RMSE: every fitted range's (range, zone) segments, raveled,
    # each a row of its zone's samples evaluated with its range's params.
    fit = np.flatnonzero(ok)
    _, seg, zone = _ravel(span_i[fit], span_j[fit] - span_i[fit] + 1)
    lo, size = edges[zone], edges[zone + 1] - edges[zone]
    cols = vals[:, fit]

    def res_sq(idx, segs):
        params = {name: v[seg[segs], None] for name, v in zip(names, cols)}
        return [np.square(ys[idx] - evaluate(kind, params, xs[idx]))]

    errs = np.zeros((len(fit), nz))
    errs[seg, zone] = np.sqrt(_row_sums(lo, size, res_sq)[0] / size)
    return fit, params[:, fit].T, errs


def _fit_pool(series: TimeSeries, kinds: tuple[CurveKind, ...], ranges: np.ndarray):
    """The pool of every kind's fits over the (i, j) zone ``ranges``, in that order."""
    parts = []
    for kind in kinds:
        fit, params, errs = _fit_ranges(series, kind, ranges)
        parts.append((np.full(len(fit), int(kind)), ranges[fit], params, errs))
    kind, spans, params, errs = map(np.concatenate, zip(*parts))
    return DescriptorPool(kind, spans[:, 0], spans[:, 1], params, errs, series.n_zones, kinds,
                          n_infeasible=len(kinds) * len(ranges) - len(kind))


def fit_one(series: TimeSeries, kind: CurveKind, i: int, j: int) -> Descriptor | None:
    """Fit one prototype over zones [i, j].

    Returns None when the range holds fewer samples than the kind has
    free parameters.  The returned descriptor carries id -1; ids are
    assigned when a pool is assembled.
    """
    if not (0 <= i <= j < series.n_zones):
        raise FitError(f"bad zone range [{i}, {j}] for {series.n_zones} zones")
    pool = _fit_pool(series, (kind,), np.array([(i, j)]))
    return replace(pool.get(0), id=-1) if len(pool) else None


def build_pool(
    series: TimeSeries,
    kinds: tuple[CurveKind, ...] = DEFAULT_KINDS,
) -> DescriptorPool:
    """Fit every kind over every contiguous zone range.

    Ids are assigned in (kind, zone_start, zone_end) order over the
    feasible fits, so the pool is deterministic.
    """
    if not kinds:
        raise FitError("at least one curve kind is required")
    try:
        pool = _fit_pool(series, tuple(sorted(set(kinds))),
                         np.stack(np.triu_indices(series.n_zones), axis=1))
    except MemoryError:
        raise FitError(f"out of memory fitting {len(series.xs)} samples") from None
    if not len(pool):
        raise FitError("no feasible descriptors; series too sparse for the zone grid")
    return pool


# ----------------------------------------------------------------------
# file writing, pool dump / reload
# ----------------------------------------------------------------------


def write_atomic(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see
    a half-written artifact.  The one place the package writes a file.

    The file gets ``0o666 & ~umask``, as ``open(path, "w")`` would give
    it, not the temp file's 0o600."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise OutputError(f"cannot write {path}: {exc}") from None


def _record_template(kind: CurveKind) -> tuple[str, int, list[int]]:
    """A kind's pool line, ``json.dumps(record, sort_keys=True)`` and a
    newline, spelled out with %-slots for the id, the params in sorted
    name order, the zone end, the ", "-joined zone errors and the zone
    start; its params count; and the params columns, those first sorted."""
    names = sorted(PARAM_FIELDS[kind])
    params = ", ".join(f"{json.dumps(name)}: %r" for name in names)
    template = (f'{{"id": %d, "kind": {json.dumps(kind.label)}, "params": {{{params}}}, '
                '"zone_end": %d, "zone_errs": [%s], "zone_start": %d}\n')
    order = list(map(PARAM_FIELDS[kind].index, names))
    return template, len(names), order + list(range(len(names), _N_PARAMS))


_RECORD_TEMPLATES = {kind: _record_template(kind) for kind in CurveKind}
_SORTED_PARAMS = np.array([order for _, _, order in _RECORD_TEMPLATES.values()])
# A bare value after a space or "[" in a record is a number (keys and
# labels are quoted); repr spells the non-finite ones as json does not.
_NON_FINITE = re.compile(r"(?<=[ \[])(?:-?inf|nan)\b")
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dump_pool(pool: DescriptorPool, path: str | Path) -> None:
    """Write a header record, then one json record per descriptor, line
    delimited.

    The sha256 pins of saved pools fix the line format: each line is
    ``json.dumps(record, sort_keys=True)``.  The header is written so; a
    descriptor's line is filled into its kind's template, its params and
    zone errors as floats in ``repr``, the non-finite ones then respelled
    as json's ``NaN`` and ``Infinity``.
    """
    header = {"n_zones": pool.n_zones, "kinds": [k.label for k in pool.kinds],
              "n_infeasible": pool.n_infeasible}
    params = np.take_along_axis(pool.params, _SORTED_PARAMS[pool.kind], axis=1)
    width = pool.zone_end - pool.zone_start + 1
    errs = pool.errs[_ravel(pool.zone_start, width)[1:]]  # row by row, each range's zones
    end = np.cumsum(width)
    # Blocks of about _CHUNK_CELLS // 32 zone errors are made Python floats
    # and text at a time, so only the file's text is held whole.
    parts = [json.dumps(header, sort_keys=True) + "\n"]
    for k in _chunks(width, _CHUNK_CELLS // 32):
        vals = map(repr, errs[end[k.start] - width[k.start] : end[k.stop - 1]].tolist())
        rows = zip(range(k.start, k.stop), pool.kind[k].tolist(), pool.zone_start[k].tolist(),
                   pool.zone_end[k].tolist(), params[k].tolist())
        lines = []
        for id_, kind, i, j, p in rows:
            template, n_params, _ = _RECORD_TEMPLATES[kind]
            zone_errs = ", ".join(islice(vals, j - i + 1))
            lines.append(template % (id_, *p[:n_params], j, zone_errs, i))
        text = "".join(lines)
        if "nan" in text or "inf" in text:
            text = _NON_FINITE.sub(lambda m: _JSON_NON_FINITE[m[0]], text)
        parts.append(text)
    text = "".join(parts)
    del parts  # the text is held once while it is written
    write_atomic(Path(path), text)


def _pool_header(line: str, path) -> tuple[int, int, tuple[CurveKind, ...]]:
    """A saved pool's zone count, infeasible count and kinds, from its
    header line; ``ValueError`` when it is missing, when its counts are
    not json ints or its infeasible count is negative, or when its kinds
    are not distinct and in ``CurveKind`` order, as ``build_pool`` keeps them."""
    if not line:
        raise ValueError(f"empty pool dump {path}")
    header = json.loads(line)
    n_zones, n_infeasible = header["n_zones"], header.get("n_infeasible", 0)
    if not (type(n_zones) is type(n_infeasible) is int and n_infeasible >= 0):
        raise ValueError(f"pool header counts must be json ints, none negative: {line}")
    kinds = tuple(CurveKind.from_label(k) for k in header["kinds"])
    if list(kinds) != sorted(set(kinds)):
        raise ValueError(f"pool header kinds must be distinct and in kind order: {line}")
    return n_zones, n_infeasible, kinds


def pool_zones(path: str | Path) -> int:
    """The zone count of a saved pool, read from its header line alone, so
    a pool of the wrong grid is told apart before any record is decoded."""
    with open(path) as fh:
        return _pool_header(fh.readline().rstrip("\n"), path)[0]


# A record's kind value by its exact label (others go through from_label),
# its params in field order, and its other fields.
_KIND_OF_LABEL = {kind.label: int(kind) for kind in CurveKind}
_PARAMS_OF = {kind: itemgetter(*PARAM_FIELDS[kind]) for kind in CurveKind}
_RECORD_FIELDS = itemgetter("params", "zone_errs", "zone_start", "zone_end", "id")


def _decode(lines: list[str], scan) -> list:
    """The json value of each line, by the json scanner ``scan``;
    ``ValueError`` when a line stripped of json whitespace is not one json
    value, as ``json.loads`` raises it."""
    texts = list(map(str.strip, lines, repeat(" \t\n\r", len(lines))))
    found = list(map(scan, texts, repeat(0, len(texts))))  # StopIteration ends the map
    if len(found) < len(texts):
        raise ValueError("a pool line holds no json value")
    values, ends = zip(*found)
    if list(ends) != list(map(len, texts)):
        raise ValueError("a pool line holds more than one json value")
    return list(values)


def _check_records(recs: list, first: int, n_zones: int):
    """The kind column of decoded pool records, the first one's id
    ``first``, their zone starts, zone ends and zone error lists, and each
    kind's rows with their params in field order.  Each rule is checked on
    whole columns, in the order a loop over the records checks one record,
    so one record raises what that loop raises."""
    labels = list(map(itemgetter("kind"), recs))
    try:
        kinds = list(map(_KIND_OF_LABEL.__getitem__, labels))
    except (KeyError, TypeError):  # another spelling, or no label
        kinds = list(map(CurveKind.from_label, labels))
    params, errs, starts, ends, ids = zip(*map(_RECORD_FIELDS, recs))
    if not (set(map(type, ids + starts + ends)) == {int}
            and ids == tuple(range(first, first + len(ids)))
            and min(starts) >= 0 and max(ends) < n_zones and all(map(le, starts, ends))
            and set(map(type, errs)) == {list}
            and list(map(sub, ends, starts)) == list(map(sub, map(len, errs), repeat(1)))
            and set(map(type, params)) == {dict}
            and list(map(len, params)) == list(map(len, map(PARAM_FIELDS.get, kinds)))):
        raise ValueError(f"record {first} is not one dump_pool writes")
    kind = np.array(kinds, int)
    by_kind = []
    for k in dict.fromkeys(kinds):
        rows = np.flatnonzero(kind == k)
        by_kind.append((rows, list(map(_PARAMS_OF[k], map(params.__getitem__, rows.tolist())))))
    return kind, starts, ends, errs, by_kind


def _load_block(lines: list[str], first: int, n_zones: int, scan):
    """``_check_records`` of the records on ``lines``.  On any fault the
    lines are taken again one at a time, so the first faulty line raises
    its own error, as a loader that decodes and checks line by line does."""
    try:
        return _check_records(_decode(lines, scan), first, n_zones)
    except (ValueError, KeyError, TypeError, RecursionError):  # RecursionError: deep nesting
        if len(lines) == 1:
            raise
        for k, line in enumerate(lines):
            _load_block([line], first + k, n_zones, scan)
        raise


def _block_arrays(kind, starts, ends, errs, by_kind):
    """The arrays of one block's checked columns: kind, zone start, zone
    end, the (records, _N_PARAMS) params and the zone errors laid end to
    end.  ``ValueError`` when a param or zone error is not a json number
    (bool is not one here) or lies past float64."""
    errs = list(chain.from_iterable(errs))
    types = set(map(type, errs)).union(*(map(type, chain.from_iterable(vals))
                                         for _, vals in by_kind))
    if not types <= {int, float}:
        raise ValueError("params and zone errors must be json numbers")
    params = np.full((len(kind), _N_PARAMS), np.nan)
    try:
        for rows, vals in by_kind:
            params[rows, : len(vals[0])] = np.array(vals, float)
        return kind, np.array(starts, int), np.array(ends, int), params, np.array(errs, float)
    except OverflowError:
        raise ValueError("a number lies out of range") from None


def load_pool(path: str | Path) -> DescriptorPool:
    """Inverse of ``dump_pool``: blank lines after the header are skipped,
    and the records are decoded by the json decoder's scanner and checked
    as columns (``_load_block``), blocks of ``_CHUNK_CELLS // 32`` zone
    errors' worth of records at a time.  An empty file, a line that is not
    one json value, or a value that ``dump_pool`` would not write raises
    ``ValueError``: zones and counts must be json ints, the k-th record's
    id k (``build_pool`` numbers them so), its kind one of the header's,
    its zone range in the grid with a zone error per zone, params and zone
    errors json numbers, params that keep their kind's rules, a
    bilinear's range its zones', and every zone some record's.  A record
    that is not a json object, or lacks a field, raises the ``TypeError``
    or ``KeyError`` that indexing it raises."""
    lines = Path(path).read_text().splitlines()
    n_zones, n_infeasible, kinds = _pool_header(lines[0] if lines else "", path)
    scan = make_scanner(json.JSONDecoder())
    size = max(1, _CHUNK_CELLS // 32 // max(n_zones, 1))
    blocks = [(np.zeros(0, int),) * 3 + (np.zeros((0, _N_PARAMS)), np.zeros(0))]
    fault, m = None, 0
    for at in range(1, len(lines), size):
        block = list(filter(str.strip, lines[at : at + size]))
        if not block:
            continue
        columns = _load_block(block, m, n_zones, scan)
        m += len(block)
        try:
            if fault is None:
                blocks.append(_block_arrays(*columns))
        except ValueError as exc:  # raised once every record has passed its own checks
            fault = exc
    if fault is not None:
        raise ValueError(f"{path}: {fault}")
    kind, start, end, params, errs = map(np.concatenate, zip(*blocks))
    if not np.isin(kind, kinds).all():
        raise ValueError(f"{path} holds records of kinds its header does not name")
    _, row, zone = _ravel(start, end - start + 1)
    # Every zone holds some record's error, as the whole range's do in a
    # built pool, so the (m, n_zones) matrix is no wider than the file's.
    if m and (n_zones > len(errs) or not np.bincount(zone, minlength=n_zones).all()):
        raise ValueError(f"{path} holds zones that no record holds")
    for k in CurveKind:
        at = kind == k
        p = SimpleNamespace(**dict(zip(PARAM_FIELDS[k], params[at].T)))
        ok = params_ok(k, p)
        if k is CurveKind.BILINEAR:
            ok &= (p.x_lo == start[at] / n_zones) & (p.x_hi == (end[at] + 1) / n_zones)
        if not np.all(ok):
            raise ValueError(f"{k.label} params of {path} break their rules or range")
    matrix = np.zeros((m, n_zones))
    matrix[row, zone] = errs
    return DescriptorPool(kind, start, end, params, matrix, n_zones, kinds, n_infeasible)
