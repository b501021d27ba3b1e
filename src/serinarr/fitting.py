"""Descriptor fitting: least-squares curves over every zone range.

A descriptor is one prototype fitted to one contiguous zone range
[i, j] together with its per-zone RMSE.  The pool holds the fits for
all kinds over all n*(n+1)/2 ranges; ranges with fewer samples than
the kind's parameter count are skipped and only counted.

Fitting strategy per kind:

* line: closed-form ordinary least squares.
* bilinear: the breakpoint is searched over the sample x positions
  strictly inside the range; the three y values follow from a linear
  solve that keeps the polyline continuous.  Ties prefer the smaller
  breakpoint.  The candidates of every range that shares a start zone
  are solved as one batch.
* tooth: plateau edges are searched over the zone boundaries inside
  the range, plus the sample positions when the range spans at most 4
  zones; the three levels are segment means.  Every (start, end) edge
  pair is scored from the start zone's shared y and y^2 prefix sums as
  one start x end table, evaluated in blocks of start rows of at most
  ``_TOOTH_BLOCK_CELLS`` cells, so memory stays bounded on dense
  ranges.  Ties prefer the wider plateau, then the earlier start.
* sinusoid: frequency scanned over a geometric grid of 0.5..8 cycles
  per range width (32 steps), amplitude and phase by a linear solve in
  the sin/cos basis, then the best frequency is refined by golden
  section search to relative tolerance 1e-3.  The grid is one
  (frequency, sample) pass.  The offset is pinned to the sample mean
  of the range.

Every candidate scan is whole-array numpy work.  Elementwise steps are
batched freely, but a sum is batched only over rows of equal length,
each reduced on its own: numpy sums pairwise, so each row then rounds
exactly as the one-candidate-at-a-time sum would, and the fits are
bit-identical to it.  A prefix sum is shared across the ranges that
share a start: ``np.cumsum`` adds in sequence, so a range's prefix sums
are exactly a prefix of the longest range's.  So ``_fit_from`` takes
all ranges [i, j] of one start zone i at once, and scores their
per-zone errors in one pass, one row per (range, zone) segment, batched
by segment length.

The pool owns the per-zone error of any set of its descriptors
(``DescriptorPool.zone_errs``): the cover keeps each tiling's errors
from it, and the details chart reads the selected set's.
``write_atomic`` is the package's one file writer: ``dump_pool`` and
every CLI artifact go through it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
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
    BilinearParams,
    CurveKind,
    CurveParams,
    LineParams,
    SinusoidParams,
    ToothParams,
    evaluate,
    params_from_dict,
    params_to_dict,
)

DEFAULT_KINDS = (CurveKind.LINE, CurveKind.BILINEAR, CurveKind.TOOTH)

_SIN_GRID = np.geomspace(0.5, 8.0, 32)  # cycles per range width
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_TOOTH_BLOCK_CELLS = 1 << 20  # plateau (start, end) cells scored at once


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
# per-kind fitters; each returns the fitted params, or None when the
# range admits no fit (``_fit_from`` evaluates the curve)
# ----------------------------------------------------------------------


def _fit_line(x: np.ndarray, y: np.ndarray, x_lo: float, x_hi: float):
    n = len(x)
    sx = float(x.sum())
    sy = float(y.sum())
    sxx = float((x * x).sum())
    sxy = float((x * y).sum())
    denom = n * sxx - sx * sx
    if denom <= 0:
        return None
    b = (n * sxy - sx * sy) / denom
    a = (sy - b * sx) / n
    return LineParams(a=a, b=b)


def _fit_bilinears(x: np.ndarray, y: np.ndarray, x_lo: float,
                   ranges: list[tuple[int, float]]) -> list[BilinearParams | None]:
    """Bilinear fits of the ranges ``x[:n]``, one per ``(n, x_hi)`` in
    ``ranges``, all starting at ``x_lo``: the params per range, or None
    where no breakpoint gives a regular system.

    Every range's breakpoint candidates go through one batch of 3x3
    solves; the prefix sums of a range are a prefix of the shared ones.
    A range's candidates are the samples strictly inside (x_lo, x_hi),
    one run of ``x``: the samples past the range lie at or beyond x_hi.
    """
    first = int(np.searchsorted(x, x_lo, side="right"))
    stops = np.searchsorted(x, [x_end for _, x_end in ranges], side="left")
    n_cands = np.maximum(stops - first, 0)
    # samples 0..k-1 have x <= c = x[k-1]
    k = np.concatenate([np.arange(first + 1, stop + 1) for stop in stops])
    c = x[k - 1]
    n = np.repeat([size for size, _ in ranges], n_cands)
    x_hi = np.repeat([x_end for _, x_end in ranges], n_cands)

    # prefix sums over the sorted samples; np.cumsum adds in sequence
    px = np.concatenate(([0.0], np.cumsum(x)))
    pxx = np.concatenate(([0.0], np.cumsum(x * x)))
    py = np.concatenate(([0.0], np.cumsum(y)))
    pxy = np.concatenate(([0.0], np.cumsum(x * y)))
    yy = y * y
    syy = np.repeat([yy[:size].sum() for size, _ in ranges], n_cands)

    n_l, sx_l, sxx_l = k.astype(float), px[k], pxx[k]
    sy_l, sxy_l = py[k], pxy[k]
    n_r, sx_r, sxx_r = n - n_l, px[n] - sx_l, pxx[n] - sxx_l
    sy_r, sxy_r = py[n] - sy_l, pxy[n] - sxy_l

    dl = c - x_lo
    dr = x_hi - c

    m = np.zeros((len(c), 3, 3))
    rhs = np.zeros((len(c), 3))
    # left segment: y_l weight (c - x)/dl, y_b weight (x - x_lo)/dl
    m[:, 0, 0] = (c * c * n_l - 2 * c * sx_l + sxx_l) / (dl * dl)
    m[:, 0, 1] = ((c + x_lo) * sx_l - c * x_lo * n_l - sxx_l) / (dl * dl)
    m[:, 1, 1] = (sxx_l - 2 * x_lo * sx_l + x_lo * x_lo * n_l) / (dl * dl)
    rhs[:, 0] = (c * sy_l - sxy_l) / dl
    rhs[:, 1] = (sxy_l - x_lo * sy_l) / dl
    # right segment: y_b weight (x_hi - x)/dr, y_r weight (x - c)/dr
    m[:, 1, 1] += (x_hi * x_hi * n_r - 2 * x_hi * sx_r + sxx_r) / (dr * dr)
    m[:, 1, 2] = ((x_hi + c) * sx_r - x_hi * c * n_r - sxx_r) / (dr * dr)
    m[:, 2, 2] = (sxx_r - 2 * c * sx_r + c * c * n_r) / (dr * dr)
    rhs[:, 1] += (x_hi * sy_r - sxy_r) / dr
    rhs[:, 2] = (sxy_r - c * sy_r) / dr
    m[:, 1, 0] = m[:, 0, 1]
    m[:, 2, 1] = m[:, 1, 2]

    ok = np.abs(np.linalg.det(m)) > 1e-12
    theta = np.full((len(c), 3), np.nan)
    theta[ok] = np.linalg.solve(m[ok], rhs[ok][..., None])[..., 0]
    sse = syy - 2 * np.einsum("ki,ki->k", theta, rhs) + np.einsum(
        "ki,kij,kj->k", theta, m, theta
    )
    sse = np.where(ok, np.maximum(sse, 0.0), np.inf)

    out = []
    lo = 0
    for (_, x_end), count in zip(ranges, n_cands):
        # first index wins ties: smallest breakpoint
        best = lo + int(np.argmin(sse[lo : lo + count])) if count else None
        lo += count
        if best is None or not np.isfinite(sse[best]):
            out.append(None)
            continue
        y_l, y_b, y_r = (float(v) for v in theta[best])
        out.append(BilinearParams(
            x_b=float(c[best]), y_l=y_l, y_b=y_b, y_r=y_r, x_lo=x_lo, x_hi=x_end
        ))
    return out


def _tooth_positions(x: np.ndarray, boundaries: np.ndarray,
                     add_samples: bool) -> np.ndarray:
    """Candidate plateau edges: the range's zone boundaries, plus the
    sample positions when ``add_samples`` is set."""
    if add_samples:
        return np.unique(np.concatenate([boundaries, x]))
    return boundaries


def _seg_sse(cnt: np.ndarray, s: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Squared error of a segment mean from its count, sum and sum of
    squares; an empty segment costs nothing."""
    out = ss - np.where(cnt > 0, s * s / np.where(cnt > 0, cnt, 1.0), 0.0)
    return np.maximum(out, 0.0)


def _fit_tooth(
    x: np.ndarray,
    py: np.ndarray,
    pyy: np.ndarray,
    boundaries: np.ndarray,
    add_samples: bool,
):
    """Tooth fit of the range ``x`` from prefix sums of y and y^2 that
    may run past it.  Each zone of the range holds a sample, so every
    (start, end) cell with end > start counts at least one."""
    n = len(x)
    positions = _tooth_positions(x, boundaries, add_samples)
    n_pos = len(positions)

    lo_idx = np.searchsorted(x, positions, side="left")
    hi_idx = np.searchsorted(x, positions, side="right")

    s_lo, s_hi = py[lo_idx], py[hi_idx]
    ss_lo, ss_hi = pyy[lo_idx], pyy[hi_idx]
    # Outer segments per edge position; py[0] and pyy[0] are 0.0, so
    # these equal the per-pair differences exactly.
    left = _seg_sse(lo_idx.astype(float), s_lo, ss_lo)
    right = _seg_sse((n - hi_idx).astype(float), py[n] - s_hi, pyy[n] - ss_hi)

    # The plateau spans rows (start edge) by columns (end edge).  Rows
    # are scored in blocks of at most _TOOTH_BLOCK_CELLS cells, so memory
    # stays bounded.  Ties prefer the wider plateau, then the earlier
    # start: blocks run in start order, and a later block replaces the
    # best only with a strictly smaller (sse, -width).
    cols = np.arange(n_pos)
    step = max(1, _TOOTH_BLOCK_CELLS // n_pos)
    best_key = best_cell = None  # (sse, -width), (row, col)
    for r0 in range(0, n_pos - 1, step):
        rows = np.arange(r0, min(r0 + step, n_pos - 1))
        cnt = hi_idx[None, :] - lo_idx[rows, None]
        # _seg_sse's arithmetic in place; cells with cnt <= 0 are masked below.
        s = s_hi[None, :] - s_lo[rows, None]
        s *= s
        with np.errstate(invalid="ignore", divide="ignore"):
            s /= cnt
        sse = ss_hi[None, :] - ss_lo[rows, None]
        sse -= s
        np.maximum(sse, 0.0, out=sse)
        sse = left[rows, None] + sse
        sse += right[None, :]
        sse[(cols[None, :] <= rows[:, None]) | (cnt <= 0)] = np.inf
        m = float(sse.min())
        tr, tc = np.nonzero(sse == m)
        tr = rows[tr]
        width = positions[tc] - positions[tr]
        k = int(np.lexsort((positions[tr], -width))[0])
        key = (m, float(-width[k]))
        if best_key is None or key < best_key:
            best_key, best_cell = key, (int(tr[k]), int(tc[k]))

    row, col = best_cell
    s_i, e_i = int(lo_idx[row]), int(hi_idx[col])
    y_in = float((py[e_i] - py[s_i]) / (e_i - s_i))
    y_out_l = float(py[s_i] / s_i) if s_i > 0 else y_in
    y_out_r = float((py[n] - py[e_i]) / (n - e_i)) if e_i < n else y_in
    return ToothParams(
        y_out_l=y_out_l,
        y_out_r=y_out_r,
        x_s=float(positions[row]),
        x_e=float(positions[col]),
        y_in=y_in,
    )


def _sin_solve(x, r, freq):
    """Least squares of r against sin/cos at one frequency."""
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
        return None
    a = (m11 * b0 - m01 * b1) / det
    b = (m00 * b1 - m01 * b0) / det
    sse = float((r * r).sum()) - (a * b0 + b * b1)
    return a, b, max(sse, 0.0)


def _sin_grid(x: np.ndarray, r: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``_sin_solve``'s (a, b, sse) at every frequency, one row each, in
    one (freqs, samples) pass; the sse is inf where the basis is
    degenerate.  Each row is reduced on its own, in the same order as the
    one-frequency solve."""
    arg = (2 * math.pi * freqs)[:, None] * x
    s = np.sin(arg)
    co = np.cos(arg)
    m00 = (s * s).sum(axis=1)
    m01 = (s * co).sum(axis=1)
    m11 = (co * co).sum(axis=1)
    b0 = (s * r).sum(axis=1)
    b1 = (co * r).sum(axis=1)
    det = m00 * m11 - m01 * m01
    with np.errstate(invalid="ignore", divide="ignore"):
        a = (m11 * b0 - m01 * b1) / det
        b = (m00 * b1 - m01 * b0) / det
    sse = np.maximum(float((r * r).sum()) - (a * b0 + b * b1), 0.0)
    return np.stack([a, b, np.where(np.abs(det) < 1e-14, np.inf, sse)], axis=1)


def _fit_sinusoid(x: np.ndarray, y: np.ndarray, x_lo: float, x_hi: float):
    width = x_hi - x_lo
    mean = float(y.mean())
    r = y - mean

    rows = _sin_grid(x, r, _SIN_GRID / width)
    if not np.isfinite(rows[:, 2]).any():
        return None
    k = int(np.argmin(rows[:, 2]))
    a, b, sse = rows[k]
    freq = _SIN_GRID[k] / width

    lo = _SIN_GRID[max(k - 1, 0)]
    hi = _SIN_GRID[min(k + 1, len(_SIN_GRID) - 1)]
    # golden section on the bracket around the best grid frequency
    c1 = hi - _GOLDEN * (hi - lo)
    c2 = lo + _GOLDEN * (hi - lo)

    def sse_at(f_range):
        sol = _sin_solve(x, r, f_range / width)
        return sol[2] if sol is not None else np.inf

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
    sol = _sin_solve(x, r, mid)
    if sol is not None and sol[2] < sse:
        a, b, _ = sol
        freq = mid
    amp = math.hypot(a, b)
    phase = math.atan2(b, a) % (2 * math.pi)
    if phase >= 2 * math.pi:
        phase = 0.0
    return SinusoidParams(amp=amp, freq=freq, phase=phase, mean=mean)


# ----------------------------------------------------------------------
# public fitting entry points
# ----------------------------------------------------------------------


def _fit_from(
    series: TimeSeries,
    kind: CurveKind,
    i: int,
    ends: Sequence[int],
    ids: Iterator[int] = itertools.repeat(-1),
) -> list[Descriptor | None]:
    """Fit one prototype over every range [i, j] with j in ``ends``
    (ascending): the descriptor per end, or None where the range holds
    fewer samples than the kind has free parameters or admits no fit.

    The ranges share zone i's first sample, so they are slices of one
    array, fitted and scored together.  Descriptors take their ids from
    ``ids`` in end order.
    """
    sl = series.zone_slice(i, ends[-1])
    first = sl.start
    x, y = series.xs[sl], series.ys[sl]
    x_lo = series.zone_x_range(i, i)[0]
    todo = [
        (j, n, series.zone_x_range(i, j)[1])
        for j in ends
        if (n := series.zone_bounds[j][1] - first) >= PARAM_COUNTS[kind]
    ]
    if not todo:
        return [None] * len(ends)
    if kind is CurveKind.BILINEAR:
        params = _fit_bilinears(x, y, x_lo, [(n, x_hi) for _, n, x_hi in todo])
    elif kind is CurveKind.TOOTH:
        py = np.concatenate(([0.0], np.cumsum(y)))
        pyy = np.concatenate(([0.0], np.cumsum(y * y)))
        params = [
            _fit_tooth(x[:n], py, pyy,
                       np.arange(i, j + 2, dtype=float) / series.n_zones,
                       add_samples=(j - i + 1) <= 4)
            for j, n, _ in todo
        ]
    else:
        fitter = _fit_line if kind is CurveKind.LINE else _fit_sinusoid
        params = [fitter(x[:n], y[:n], x_lo, x_hi) for _, n, x_hi in todo]
    fits = [(j, n, p) for (j, n, _), p in zip(todo, params) if p is not None]
    if not fits:
        return [None] * len(ends)

    # Per-zone RMSE: every fit's squared residuals in one array, and each
    # (fit, zone) segment of it averaged as one row of the segments of
    # its sample count, so each row sums as the segment alone would.
    res = np.concatenate(
        [np.square(y[:n] - evaluate(kind, p, x[:n])) for _, n, p in fits]
    )
    bounds = np.array(series.zone_bounds[i : fits[-1][0] + 1]) - first
    zone_lo, zone_len = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    widths = [j - i + 1 for j, _, _ in fits]
    offsets = np.cumsum([0] + [n for _, n, _ in fits[:-1]])
    seg_lo = np.concatenate([off + zone_lo[:w] for off, w in zip(offsets, widths)])
    seg_len = np.concatenate([zone_len[:w] for w in widths])
    errs = np.empty(len(seg_lo))
    for count in np.unique(seg_len):
        rows = np.flatnonzero(seg_len == count)
        errs[rows] = np.sqrt(res[seg_lo[rows, None] + np.arange(count)].mean(axis=1))

    by_end = {}
    at = 0
    for (j, _, p), width in zip(fits, widths):
        by_end[j] = Descriptor(
            id=next(ids),
            kind=kind,
            params=p,
            zone_start=i,
            zone_end=j,
            zone_errs=tuple(errs[at : at + width].tolist()),
            n_zones=series.n_zones,
        )
        at += width
    return [by_end.get(j) for j in ends]


def fit_one(
    series: TimeSeries, kind: CurveKind, i: int, j: int
) -> Descriptor | None:
    """Fit one prototype over zones [i, j].

    Returns None when the range holds fewer samples than the kind has
    free parameters.  The returned descriptor carries id -1; ids are
    assigned when a pool is assembled.
    """
    if not (0 <= i <= j < series.n_zones):
        raise FitError(f"bad zone range [{i}, {j}] for {series.n_zones} zones")
    return _fit_from(series, kind, i, (j,))[0]


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
    descriptors = []
    n_infeasible = 0
    ids = itertools.count()
    for kind in kinds:
        for i in range(n):
            fits = _fit_from(series, kind, i, range(i, n), ids)
            kept = [d for d in fits if d is not None]
            descriptors += kept
            n_infeasible += len(fits) - len(kept)
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


def dump_pool(pool: DescriptorPool, path: str | Path) -> None:
    """Write one json record per descriptor, line delimited."""
    lines = []
    for d in pool:
        lines.append(
            json.dumps(
                {
                    "id": d.id,
                    "kind": d.kind.label,
                    "zone_start": d.zone_start,
                    "zone_end": d.zone_end,
                    "params": params_to_dict(d.params),
                    "zone_errs": list(d.zone_errs),
                },
                sort_keys=True,
            )
        )
    header = json.dumps(
        {
            "n_zones": pool.n_zones,
            "kinds": [k.label for k in pool.kinds],
            "n_infeasible": pool.n_infeasible,
        },
        sort_keys=True,
    )
    write_atomic(Path(path), "\n".join([header] + lines) + "\n")


def load_pool(path: str | Path) -> DescriptorPool:
    """Inverse of ``dump_pool``.  An empty file raises ``ValueError``,
    as a line that is not json does."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty pool dump {path}")
    header = json.loads(lines[0])
    descriptors = []
    for line in lines[1:]:
        if not line.strip():
            continue
        rec = json.loads(line)
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
