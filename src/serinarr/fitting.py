"""Descriptor fitting: least-squares curves over every zone range.

A descriptor is one prototype fitted to one contiguous zone range
[i, j] together with its per-zone RMSE.  The pool holds the fits for
all kinds over all n*(n+1)/2 ranges; ranges with fewer samples than
the kind's parameter count are skipped and only counted.

Fitting strategy per kind:

* line: closed-form ordinary least squares.
* bilinear: every sample of the range is a breakpoint candidate, with
  the samples up to it on the left; those strictly inside the range
  whose edge gaps square above 0, and whose system has a nonzero last
  row (the last sample's does not), are scored.  The three y values solve
  a tridiagonal system, held as eight grids of its entries, that keeps
  the polyline continuous.  Ties prefer the smaller breakpoint.  A
  closed-form estimate of each candidate's least SSE, less a proven
  rounding bound, is a lower bound on the SSE LAPACK scores for it, so
  LAPACK scores only the candidates whose bound reaches their row's
  least score, plus those the bound does not certify; the rest can
  neither win nor tie.
* tooth: plateau edges are searched over the zone boundaries inside
  the range, plus the sample positions when the range spans at most 4
  zones; the three levels are segment means.  Every (start, end) edge
  pair is a cell of one start x end table, scored from y and y^2 prefix
  sums.  No cell is below its row's left-segment SSE or its column's
  right-segment SSE, in floats too, so tables padded to n_pos >= 64
  edges are first scored on a sub-table of every (n_pos // 32)-th edge,
  and then only where those are at most the sub-table's least cell.
  Ties prefer the wider plateau, then the earlier start.
* sinusoid: frequency scanned over a geometric grid of 0.5..8 cycles
  per range width (32 steps), amplitude and phase by a linear solve in
  the sin/cos basis, then the best frequency is refined by golden
  section search to relative tolerance 1e-3.  Ranges of one zone count
  have bit-equal widths, so they share the grid's sin/cos basis, computed
  once over the samples they span.  The offset is pinned to the sample
  mean of the range.

Every candidate scan is whole-array numpy work, and the fits are
bit-identical to fitting one range at a time.  Elementwise steps are
batched freely, over ranges of any length.  A pairwise sum (``sum``,
``mean``) is batched only over rows of equal length, unpadded, each
reduced on its own, so it rounds as the range's own sum would: the line
sums, the bilinear ``syy`` and the per-zone errors, a row per (range,
zone) segment evaluated with its range's params, are summed by
``_row_sums``.  ``np.cumsum(axis=1)`` adds in sequence, so prefix sums
are taken on samples padded to a common length (``_padded``): the first
n + 1 entries of a row are exactly the range's own.  So ``_fit_ranges``
batches ranges of different sample counts.  Bilinear ranges, in
ascending sample count, are cut into runs whose candidates are raveled
into one vector of real cells, the per-range minima being segmented
reductions over it.  Every tooth range's plateau edges are built in one
raveled pass (``_tooth_edges``), and the tables, in ascending edge
count, are scored in runs each padded to its largest table, a run
holding at most 1.5 times its real cells (``_even_runs``).  Line and
sinusoid ranges are fitted in one batch each.  One budget of
``_CHUNK_CELLS`` floats bounds memory on dense input: bilinear
candidates and summed samples are taken ``_CHUNK_CELLS // 32`` at a
time, a candidate peaking at some 32 floats and a sample at fewer, and
tooth tables scored in (range, start row) blocks of ``_CHUNK_CELLS //
8`` cells, a cell peaking at some 5 floats.

The pool owns the per-zone error of any set of its descriptors
(``DescriptorPool.zone_errs``): the cover keeps each tiling's errors
from it, and the details chart reads the selected set's.
``write_atomic`` is the package's one file writer: ``dump_pool`` and
every CLI artifact go through it.

A saved pool is a header line and one json line per descriptor, its
bytes those of ``json.dumps(record, sort_keys=True)`` and fixed by the
pools' sha256 pins.  ``dump_pool`` fills each line from one template per
kind, so only float ``repr`` runs per value; ``load_pool`` decodes it
back line by line with one shared json decoder.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import operator
import os
import re
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FitError, OutputError
from .ingest import TimeSeries
from .prototypes import (
    PARAM_COUNTS,
    PARAMS_CLASS,
    CurveKind,
    CurveParams,
    evaluate,
    params_from_dict,
)

DEFAULT_KINDS = (CurveKind.LINE, CurveKind.BILINEAR, CurveKind.TOOTH)

_SIN_GRID = np.geomspace(0.5, 8.0, 32)  # cycles per range width
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CHUNK_CELLS = 1 << 18  # floats of a batch's temporaries, or samples summed, at once
_COND_MAX = 2.0 ** 32  # bilinear systems past this tr^3 / det bound go to LAPACK


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

    @property
    def total_err(self) -> float:
        return float(sum(self.zone_errs))


@dataclass(frozen=True)
class DescriptorPool:
    """All feasible descriptors for a series, in (kind, i, j) id order."""

    descriptors: tuple[Descriptor, ...]
    n_zones: int
    kinds: tuple[CurveKind, ...]
    n_infeasible: int = 0

    def __len__(self) -> int:
        return len(self.descriptors)

    def __iter__(self):
        return iter(self.descriptors)

    def get(self, id: int) -> Descriptor:
        d = self._by_id.get(id)
        if d is None:
            raise KeyError(f"no descriptor with id {id}")
        return d

    @cached_property
    def _by_id(self) -> dict[int, Descriptor]:
        return {d.id: d for d in self.descriptors}

    def zone_errs(self, ids: Iterable[int]) -> list[float]:
        """Per-zone minimum error over the given descriptors.

        The descriptors must cover every zone (a tiling alone does);
        an uncovered zone raises ``ValueError``.
        """
        errs: list[float | None] = [None] * self.n_zones
        for d in map(self.get, ids):
            for z, e in zip(d.zones, d.zone_errs):
                if errs[z] is None or e < errs[z]:
                    errs[z] = e
        if None in errs:
            raise ValueError(f"zone {errs.index(None)} is not covered")
        return errs

    @property
    def expected_size(self) -> int:
        n = self.n_zones
        return len(self.kinds) * n * (n + 1) // 2


# ----------------------------------------------------------------------
# batch fitters: the series' samples and each range's first sample and
# sample count in, the params as columns in field order out, with a mask
# of the ranges that admit a fit
# ----------------------------------------------------------------------


def _prefix(a: np.ndarray) -> np.ndarray:
    """Per-row prefix sums with a leading 0.0.  They add in sequence, so
    entry k of a padded row is exactly the sum of its first k samples."""
    out = np.zeros((a.shape[0], a.shape[1] + 1))
    np.cumsum(a, axis=1, out=out[:, 1:])
    return out


def _ravel(first: np.ndarray, n: np.ndarray):
    """Blocks of ``n`` consecutive indices from ``first`` on, laid end to
    end as cells: each block's first cell, each cell's block and each
    cell's index."""
    start = np.cumsum(n) - n
    row = np.repeat(np.arange(len(n)), n)
    return start, row, np.arange(len(row)) + np.repeat(first - start, n)


def _padded(first: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The (m, max n) sample indices whose row k holds the ``n[k]``
    indices from ``first[k]`` on, then repeats its last one."""
    return first[:, None] + np.minimum(np.arange(n.max()), n[:, None] - 1)


def _runs(rows: np.ndarray, n: np.ndarray, budget: int) -> list[np.ndarray]:
    """Cut ``rows``, in ascending sample count ``n[rows]``, into runs of
    whole rows whose padded (rows, max n) block holds at most ``budget``
    cells, or of one row."""
    runs, s0 = [], 0
    for k, nk in enumerate(n[rows].tolist()):
        if (k + 1 - s0) * nk > budget and k > s0:
            runs.append(rows[s0:k])
            s0 = k
    return runs + [rows[s0:]] if len(rows) else runs


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


def _fit_lines(xs, ys, first, n):
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
    candidate cells of ranges of ``n`` samples from ``first`` on, each
    cell's range ``row`` and sample ``idx`` being its breakpoint ``xb``,
    and the mask of the cells to score.  The segment sums are read from
    per-range prefix sums of the samples padded to one length."""
    pad = _padded(first, n)
    x, y = xs[pad], ys[pad]
    sums = [_prefix(v).ravel() for v in (x, x * x, y, x * y)]
    p = idx - first[row]
    xb, lo, hi = xs[idx], np.repeat(x_lo, n), np.repeat(x_hi, n)
    n_l = p + 1.0
    n_r = np.repeat(n, n) - n_l
    # Each cell's left sums, and its range's whole sums, in the raveled
    # (m, w) prefix sums.
    w = x.shape[1] + 1
    at, end = row * w + p + 1, np.repeat(np.arange(len(n)) * w + n, n)
    sx_l, sxx_l, sy_l, sxy_l = (v[at] for v in sums)
    sx_r, sxx_r, sy_r, sxy_r = (v[end] - v[at] for v in sums)

    # Masked cells divide by 1, not by a gap that squares to 0.
    dl, dr = xb - lo, hi - xb
    gap = np.minimum(dl, dr)
    keep = (gap > 0) & (gap * gap > 0)
    dl, dr = np.where(keep, dl, 1.0), np.where(keep, dr, 1.0)

    # left segment: y_l weight (xb - x)/dl, y_b weight (x - x_lo)/dl
    a = (xb * xb * n_l - 2 * xb * sx_l + sxx_l) / (dl * dl)
    b = ((xb + lo) * sx_l - xb * lo * n_l - sxx_l) / (dl * dl)
    c = (sxx_l - 2 * lo * sx_l + lo * lo * n_l) / (dl * dl)
    r0 = (xb * sy_l - sxy_l) / dl
    r1 = (sxy_l - lo * sy_l) / dl
    # right segment: y_b weight (x_hi - x)/dr, y_r weight (x - xb)/dr
    c += (hi * hi * n_r - 2 * hi * sx_r + sxx_r) / (dr * dr)
    d = ((hi + xb) * sx_r - hi * xb * n_r - sxx_r) / (dr * dr)
    e = (sxx_r - 2 * xb * sx_r + xb * xb * n_r) / (dr * dr)
    r1 += (hi * sy_r - sxy_r) / dr
    r2 = (sxy_r - xb * sy_r) / dr
    # d = e = 0 (an empty right segment, or one all at xb) zeroes M's
    # last row, so LAPACK's det would be 0 or nan.
    keep &= (d != 0) | (e != 0)
    return (a, b, c, d, e, r0, r1, r2), keep


def _fit_bilinears(xs, ys, first, n, syy, x_lo, x_hi):
    """Every sample of a run of ranges is a candidate cell, the ranges
    raveled end to end: the cell of a range's sample p takes it as the
    breakpoint, samples 0..p on the left.  ``syy`` is each range's own
    sum (``_row_sums``); all else is elementwise on the cell vector, and
    the per-range minima are segmented reductions over it.  A candidate
    peaks at some 32 floats: its entries, the bound's temporaries, its
    score and its theta.

    LAPACK scores the cells in rounds (``_bilinear_bound`` has the
    estimate and the bound): first every cell whose lower bound is at most
    its range's least estimate, the unguarded cells included, then every
    cell left whose bound is at most its range's least score so far.  An
    unscored cell scores above its range's least, so it neither wins nor
    ties, and each range's first least score is the one scoring every cell
    gives."""
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

    # Each range's first least sse: the smallest breakpoint.  A range
    # whose least sse is not finite gets no fit.
    hit = np.flatnonzero(sse == np.minimum.reduceat(sse, start)[row])
    hit = hit[np.diff(row[hit], prepend=-1) != 0]
    hit = hit[np.isfinite(sse[hit])]
    cols = np.full((6, len(n)), np.nan)  # x_b, y_l, y_b, y_r, x_lo, x_hi
    cols[4], cols[5] = x_lo, x_hi
    cols[:4, row[hit]] = np.vstack([xs[idx[hit]], theta[:, hit]])
    return cols, ~np.isnan(cols[0])


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


def _even_runs(count: np.ndarray) -> list[np.ndarray]:
    """The indices of ``count``, in ascending count, cut into runs whose
    (rows, max count^2) padded tables hold at most 1.5 times their real
    count^2 cells."""
    order = np.argsort(count, kind="stable")
    runs, s0, real = [], 0, 0
    for k, c in enumerate(count[order].tolist()):
        real += c * c
        if (k + 1 - s0) * c * c > 1.5 * real:
            runs.append(order[s0:k])
            s0, real = k, c * c
    return runs + [order[s0:]] if len(order) else runs


def _seg_sse(cnt: np.ndarray, s: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Squared error of a segment mean from its count, sum and sum of
    squares; an empty segment costs nothing."""
    out = ss - np.where(cnt > 0, s * s / np.where(cnt > 0, cnt, 1.0), 0.0)
    return np.maximum(out, 0.0)


def _tooth_cells(t, rs, ss, cs):
    """SSE of tables ``rs``' cells, start rows ``ss`` by end columns ``cs``,
    from the per-edge arrays ``t``; inf where end <= start or the plateau
    holds no sample, as on a padded end edge.  Elementwise, so a cell
    scores the same in any block."""
    lo_idx, hi_idx, s_lo, s_hi, ss_lo, ss_hi, left, right = t
    cnt = hi_idx[rs, None, cs] - lo_idx[rs, ss, None]
    s = s_hi[rs, None, cs] - s_lo[rs, ss, None]
    s *= s
    with np.errstate(invalid="ignore", divide="ignore"):
        s /= cnt
    sse = ss_hi[rs, None, cs] - ss_lo[rs, ss, None]
    sse -= s
    np.maximum(sse, 0.0, out=sse)
    sse = left[rs, ss, None] + sse
    sse += right[rs, None, cs]
    edge = np.arange(lo_idx.shape[1])
    sse[(edge[cs] <= edge[ss][:, None]) | (cnt <= 0)] = np.inf
    return sse


def _fit_teeth(xs, ys, first, n, positions, count):
    """Tooth fits of the ranges of ``n`` samples from ``first`` on, each
    over the first ``count`` of its sorted plateau edge ``positions``; a
    row is padded to the longest with its last edge.  Each zone of a
    range holds a sample, so every (start, end) cell of real edges with
    end > start counts at least one; a padded edge holds no sample as an
    end (``hi_idx`` 0), so no cell ending on one can win or tie."""
    m, n_pos = positions.shape
    at = np.arange(m)
    # The number of a range's samples before (lo_idx) and up to (hi_idx)
    # each edge: samples before a range lie below its first edge, and
    # those after it at or past its last, so they follow from the whole
    # series' counts.
    lo_idx = np.minimum(np.searchsorted(xs, positions, side="left") - first[:, None],
                        n[:, None])
    hi_idx = np.minimum(np.searchsorted(xs, positions, side="right") - first[:, None],
                        n[:, None])
    hi_idx[np.arange(n_pos) >= count[:, None]] = 0
    y = ys[_padded(first, n)]
    py, pyy = _prefix(y), _prefix(y * y)
    s_lo, s_hi = np.take_along_axis(py, lo_idx, 1), np.take_along_axis(py, hi_idx, 1)
    ss_lo, ss_hi = np.take_along_axis(pyy, lo_idx, 1), np.take_along_axis(pyy, hi_idx, 1)
    # Outer segments per edge position; py[:, 0] and pyy[:, 0] are 0.0,
    # so these equal the per-pair differences exactly.
    left = _seg_sse(lo_idx.astype(float), s_lo, ss_lo)
    right = _seg_sse((n[:, None] - hi_idx).astype(float), py[at, n, None] - s_hi,
                     pyy[at, n, None] - ss_hi)
    t = lo_idx, hi_idx, s_lo, s_hi, ss_lo, ss_hi, left, right

    # A cell is fl(fl(left + plateau) + right), all three >= 0, so it is at
    # least its row's left and its column's right.  A large table's least
    # cell is at most ``inc``, its sub-table's least cell, so rows with
    # left > inc and columns with right > inc hold no least cell nor a tie
    # of one: only rows [0, rmax) by columns [cmin, n_pos) are scored.
    # Rows past a table's real edges hold no cell.
    n_rows, budget = n_pos - 1, _CHUNK_CELLS // 8  # a cell peaks at some 5 floats
    rmax, cmin = count - 1, np.zeros(m, int)
    if n_pos >= 64:
        sub = np.unique(np.r_[0:n_pos:n_pos // 32, n_rows])
        step = max(1, budget // len(sub) ** 2)
        inc = np.concatenate([_tooth_cells(t, slice(r, r + step), sub, sub).min(axis=(1, 2))
                              for r in range(0, m, step)])[:, None]
        rmax = np.minimum(n_pos - (left <= inc)[:, ::-1].argmax(axis=1), rmax)
        cmin = (right <= inc).argmax(axis=1)

    # The plateau spans start rows by end columns.  Cells are scored in
    # blocks of at most ``budget``: whole tables while they fit, else
    # runs of one table's start rows; a block scores the union of its
    # tables' boxes.  Ties prefer the wider plateau, then the earlier
    # start: a table's blocks run in start order, and a later block
    # replaces its best only with a smaller (sse, -width).
    per_block = max(1, budget // n_pos)  # start rows
    step = max(1, per_block // n_rows)  # tables
    blocks = [(r, min(r + step, m), s, min(s + per_block, n_rows))
              for r in range(0, m, step) for s in range(0, n_rows, per_block)]
    best = np.full((4, m), np.inf)  # sse, -width, start row, end column
    for r0, r1, s0, s1 in blocks:
        rs = slice(r0, r1)
        s1, c0 = min(s1, rmax[rs].max()), cmin[rs].min()
        if s0 >= s1:
            continue
        sse = _tooth_cells(t, rs, slice(s0, s1), slice(c0, n_pos))
        # Only the cells tied at their table's least sse are ranked.
        low = sse.min(axis=(1, 2))
        tk, tr, tc = np.nonzero(sse == low[:, None, None])
        tr += s0
        tc += c0
        x_s = positions[tk + r0, tr]
        width = positions[tk + r0, tc] - x_s
        order = np.lexsort((x_s, -width, tk))
        top = order[np.diff(tk[order], prepend=-1) != 0]  # one per table
        new = np.stack([low, -width[top], tr[top], tc[top]])
        win = (new[0] < best[0, rs]) | ((new[0] == best[0, rs]) & (new[1] < best[1, rs]))
        best[:, rs] = np.where(win, new, best[:, rs])

    row, col = best[2].astype(int), best[3].astype(int)
    s_i, e_i = lo_idx[at, row], hi_idx[at, col]
    p_s, p_e = py[at, s_i], py[at, e_i]
    y_in = (p_e - p_s) / (e_i - s_i)
    y_out_l = np.where(s_i > 0, p_s / np.maximum(s_i, 1), y_in)
    y_out_r = np.where(e_i < n, (py[at, n] - p_e) / np.maximum(n - e_i, 1), y_in)
    return (y_out_l, y_out_r, positions[at, row], positions[at, col], y_in), np.ones(m, bool)


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


def _fit_sinusoids(xs, ys, first, n, width):
    """Sinusoid fits of the ranges of ``n`` samples of ``xs`` and ``ys``
    from each one's ``first`` on.  Ranges of one ``width`` share a grid,
    so a run of them spanning at most ``_CHUNK_CELLS`` (frequency, sample)
    cells shares one basis, and each range reads its own columns."""
    span, last = _CHUNK_CELLS // len(_SIN_GRID), first + n
    fits = [None] * len(first)
    for w in np.unique(width):
        rows, f0, end = np.flatnonzero(width == w), 0, -1
        for k in rows:
            f, e = first[k], last[k]
            if f < f0 or e > end:  # a new basis: this range and those ending within span of it
                f0 = f
                end = last[rows][last[rows] <= f0 + span].max(initial=e)
                basis = _sin_basis(xs[f0:end], _SIN_GRID / w)
            fits[k] = _fit_sinusoid(xs[f:e], ys[f:e], float(w),
                                    [b[:, f - f0 : e - f0] for b in basis])
    cols = [p or (math.nan,) * 4 for p in fits]
    return np.array(cols).T, np.array([p is not None for p in fits])


# ----------------------------------------------------------------------
# public fitting entry points
# ----------------------------------------------------------------------


def _fit_ranges(series: TimeSeries, kind: CurveKind, ranges: Sequence[tuple[int, int]],
                ids: Iterator[int] = itertools.repeat(-1)) -> list[Descriptor | None]:
    """Fit one prototype over every zone range (i, j) in ``ranges``: the
    descriptor per range, or None where the range holds fewer samples
    than the kind has free parameters or admits no fit.  Descriptors
    take their ids from ``ids`` in ``ranges`` order."""
    xs, ys, nz = series.xs, series.ys, series.n_zones
    bounds = np.array(series.zone_bounds)
    span_i, span_j = np.array(ranges).reshape(-1, 2).T
    first = bounds[span_i, 0]
    sizes = bounds[span_j, 1] - first
    feasible = np.flatnonzero(sizes >= PARAM_COUNTS[kind])
    names = [f.name for f in dataclasses.fields(PARAMS_CLASS[kind])]
    vals = np.full((len(names), len(ranges)), np.nan)
    ok = np.zeros(len(ranges), bool)
    n = sizes[feasible]
    if kind is CurveKind.LINE:
        vals[:, feasible], ok[feasible] = _fit_lines(xs, ys, first[feasible], n)
    elif kind is CurveKind.BILINEAR:  # runs of ascending sample count
        syy = _row_sums(first[feasible], n, lambda idx, _: [np.square(ys[idx])])[0]
        for k in _runs(np.argsort(n, kind="stable"), n, _CHUNK_CELLS // 32):
            g = feasible[k]
            vals[:, g], ok[g] = _fit_bilinears(xs, ys, first[g], n[k], syy[k],
                                               span_i[g] / nz, (span_j[g] + 1) / nz)
    elif kind is CurveKind.TOOTH:  # runs of ascending plateau edge count
        edges, row = _tooth_edges(xs, first[feasible], n, span_i[feasible],
                                  span_j[feasible], nz)
        count = np.bincount(row, minlength=len(feasible))
        at = np.cumsum(count) - count
        for k in _even_runs(count):
            g = feasible[k]
            vals[:, g], ok[g] = _fit_teeth(xs, ys, first[g], sizes[g],
                                           edges[_padded(at[k], count[k])], count[k])
    else:
        width = (span_j[feasible] + 1 - span_i[feasible]) / nz
        vals[:, feasible], ok[feasible] = _fit_sinusoids(xs, ys, first[feasible], n, width)

    # Per-zone RMSE: every fitted range's (range, zone) segments, raveled,
    # each a row of its zone's samples evaluated with its range's params.
    fit = np.flatnonzero(ok)
    start, seg, zone = _ravel(span_i[fit], span_j[fit] - span_i[fit] + 1)
    lo, size = bounds[zone, 0], bounds[zone, 1] - bounds[zone, 0]
    cols = vals[:, fit]

    def res_sq(idx, segs):
        params = {name: v[seg[segs], None] for name, v in zip(names, cols)}
        return [np.square(ys[idx] - evaluate(kind, params, xs[idx]))]

    errs = np.sqrt(_row_sums(lo, size, res_sq)[0] / size).tolist()
    del seg, zone, lo, size  # each as long as errs: freed before the descriptors are made

    out: list[Descriptor | None] = [None] * len(ranges)
    params, i, j = vals.T.tolist(), span_i.tolist(), span_j.tolist()
    for r, s in zip(fit.tolist(), start.tolist()):
        out[r] = Descriptor(next(ids), kind, PARAMS_CLASS[kind](*params[r]), i[r], j[r],
                            tuple(errs[s : s + j[r] - i[r] + 1]), nz)
    return out


def fit_one(series: TimeSeries, kind: CurveKind, i: int, j: int) -> Descriptor | None:
    """Fit one prototype over zones [i, j].

    Returns None when the range holds fewer samples than the kind has
    free parameters.  The returned descriptor carries id -1; ids are
    assigned when a pool is assembled.
    """
    if not (0 <= i <= j < series.n_zones):
        raise FitError(f"bad zone range [{i}, {j}] for {series.n_zones} zones")
    return _fit_ranges(series, kind, [(i, j)])[0]


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
    kinds = tuple(sorted(set(kinds)))
    n = series.n_zones
    ranges = [(i, j) for i in range(n) for j in range(i, n)]
    descriptors = []
    n_infeasible = 0
    ids = itertools.count()
    try:
        for kind in kinds:
            fits = _fit_ranges(series, kind, ranges, ids)
            kept = [d for d in fits if d is not None]
            descriptors += kept
            n_infeasible += len(fits) - len(kept)
    except MemoryError:
        raise FitError(f"out of memory fitting {len(series.xs)} samples") from None
    if not descriptors:
        raise FitError("no feasible descriptors; series too sparse for the zone grid")
    return DescriptorPool(
        descriptors=tuple(descriptors),
        n_zones=n,
        kinds=kinds,
        n_infeasible=n_infeasible,
    )


# ----------------------------------------------------------------------
# file writing, pool dump / reload
# ----------------------------------------------------------------------


def write_atomic(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see
    a half-written artifact.  The one place the package writes a file."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise OutputError(f"cannot write {path}: {exc}") from None


def _record_template(kind: CurveKind) -> tuple[str, operator.attrgetter]:
    """A kind's pool line, ``json.dumps(record, sort_keys=True)`` and a
    newline, spelled out with %-slots for the id, the params in sorted
    name order, the zone end, the ", "-joined zone errors and the zone
    start; and the getter of those params."""
    names = sorted(f.name for f in dataclasses.fields(PARAMS_CLASS[kind]))
    params = ", ".join(f"{json.dumps(name)}: %r" for name in names)
    template = (f'{{"id": %d, "kind": {json.dumps(kind.label)}, "params": {{{params}}}, '
                '"zone_end": %d, "zone_errs": [%s], "zone_start": %d}\n')
    return template, operator.attrgetter(*names)


_RECORD_TEMPLATES = {kind: _record_template(kind) for kind in CurveKind}
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
    lines = []
    for d in pool:
        template, params = _RECORD_TEMPLATES[d.kind]
        lines.append(template % (d.id, *map(float, params(d.params)), d.zone_end,
                                 ", ".join(map(repr, map(float, d.zone_errs))),
                                 d.zone_start))
    body = "".join(lines)
    if "nan" in body or "inf" in body:
        body = _NON_FINITE.sub(lambda m: _JSON_NON_FINITE[m[0]], body)
    write_atomic(Path(path), json.dumps(header, sort_keys=True) + "\n" + body)


def load_pool(path: str | Path) -> DescriptorPool:
    """Inverse of ``dump_pool``: each line is decoded on its own by one
    shared json decoder, and blank lines after the header are skipped.
    An empty file, or a line that is not one json value, raises
    ``ValueError``."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty pool dump {path}")
    decode = json.JSONDecoder().decode
    header = decode(lines[0])
    descriptors = []
    for line in lines[1:]:
        if not line.strip():
            continue
        rec = decode(line)
        kind = CurveKind.from_label(rec["kind"])
        descriptors.append(
            Descriptor(
                id=rec["id"],
                kind=kind,
                params=params_from_dict(kind, rec["params"]),
                zone_start=rec["zone_start"],
                zone_end=rec["zone_end"],
                zone_errs=tuple(rec["zone_errs"]),
                n_zones=header["n_zones"],
            )
        )
    return DescriptorPool(
        descriptors=tuple(descriptors),
        n_zones=header["n_zones"],
        kinds=tuple(CurveKind.from_label(k) for k in header["kinds"]),
        n_infeasible=header.get("n_infeasible", 0),
    )
