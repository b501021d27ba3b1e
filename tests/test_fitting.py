import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_descriptor, make_series, series_exact
from serinarr import fitting
from serinarr.errors import FitError
from serinarr.fitting import (
    _SIN_GRID,
    _TOOTH_BLOCK_CELLS,
    DEFAULT_KINDS,
    Descriptor,
    DescriptorPool,
    _fit_from,
    _fit_line,
    _fit_sinusoid,
    _fit_tooth,
    _sin_grid,
    _sin_solve,
    build_pool,
    dump_pool,
    fit_one,
    load_pool,
)
from serinarr.ingest import TimeSeries
from serinarr.prototypes import (
    PARAM_COUNTS,
    BilinearParams,
    CurveKind,
    LineParams,
    SinusoidParams,
    ToothParams,
    evaluate,
)


def overall_rmse(series, d):
    sl = series.zone_slice(d.zone_start, d.zone_end)
    res = series.ys[sl] - evaluate(d.kind, d.params, series.xs[sl])
    return float(np.sqrt(np.mean(res ** 2)))


# ------------------------------------------------------------- recovery


def test_line_exact_recovery():
    x = np.arange(65) / 64.0
    s = series_exact(0.3 + 0.2 * x, levels=2)
    d = fit_one(s, CurveKind.LINE, 0, 3)
    assert d is not None
    assert d.params.a == pytest.approx(0.3, abs=1e-9)
    assert d.params.b == pytest.approx(0.2, abs=1e-9)
    assert all(e < 1e-9 for e in d.zone_errs)
    assert overall_rmse(s, d) < 1e-6


def test_bilinear_v_recovery():
    truth = BilinearParams(x_b=0.5, y_l=1.0, y_b=0.0, y_r=1.0, x_lo=0.0, x_hi=1.0)
    x = np.arange(129) / 128.0
    s = series_exact(evaluate(CurveKind.BILINEAR, truth, x), levels=2)
    d = fit_one(s, CurveKind.BILINEAR, 0, 3)
    assert d is not None
    assert abs(d.params.x_b - 0.5) < 1e-2
    assert overall_rmse(s, d) < 1e-3
    assert d.params.y_b == pytest.approx(0.0, abs=1e-6)


def test_tooth_exact_recovery():
    truth = ToothParams(y_out_l=0.8, y_out_r=0.8, x_s=0.25, x_e=0.5, y_in=0.2)
    x = np.arange(129) / 128.0
    s = series_exact(evaluate(CurveKind.TOOTH, truth, x), levels=2)
    d = fit_one(s, CurveKind.TOOTH, 0, 3)
    assert d is not None
    assert d.params.x_s == pytest.approx(0.25)
    assert d.params.x_e == pytest.approx(0.5)
    assert d.params.y_in == pytest.approx(0.2, abs=1e-9)
    assert overall_rmse(s, d) < 1e-3


def test_sinusoid_recovery():
    x = np.arange(257) / 256.0
    s = series_exact(0.5 + 0.3 * np.sin(2 * np.pi * 3.0 * x), levels=2)
    d = fit_one(s, CurveKind.SINUSOID, 0, 3)
    assert d is not None
    assert abs(d.params.amp - 0.3) < 0.02
    assert abs(d.params.freq - 3.0) < 0.1
    assert d.params.mean == pytest.approx(float(s.ys.mean()))
    assert overall_rmse(s, d) < 1e-3


def test_bilinear_breakpoint_tie_prefers_smaller():
    # perfectly flat data: every breakpoint fits equally well
    s = series_exact(np.full(33, 0.4), levels=1)
    d = fit_one(s, CurveKind.BILINEAR, 0, 1)
    assert d is not None
    inside = s.xs[(s.xs > 0.0) & (s.xs < 1.0)]
    assert d.params.x_b == pytest.approx(float(inside[0]))


def test_tooth_tie_prefers_wider_plateau():
    # flat data again: all plateau placements tie on error
    s = series_exact(np.full(33, 0.4), levels=1)
    d = fit_one(s, CurveKind.TOOTH, 0, 1)
    assert d is not None
    assert d.params.x_s == pytest.approx(0.0)
    assert d.params.x_e == pytest.approx(1.0)


# ------------------------------------------------------------- pool


def test_pool_count_16_zones():
    s = make_series([math.sin(k / 7.0) for k in range(160)], levels=4)
    pool = build_pool(s, kinds=DEFAULT_KINDS)
    assert len(pool) == 408
    assert pool.expected_size == 408
    assert pool.n_infeasible == 0


def test_pool_minimal_two_zones_one_kind():
    s = make_series([1.0, 3.0, 2.0, 4.0], levels=1)
    pool = build_pool(s, kinds=(CurveKind.LINE,))
    assert len(pool) == 3
    ranges = sorted((d.zone_start, d.zone_end) for d in pool)
    assert ranges == [(0, 0), (0, 1), (1, 1)]


def test_pool_ids_contiguous_and_ordered():
    s = make_series([math.sin(k / 5.0) for k in range(64)], levels=3)
    pool = build_pool(s, kinds=(CurveKind.LINE, CurveKind.TOOTH))
    ids = [d.id for d in pool]
    assert ids == list(range(len(pool)))
    keys = [(int(d.kind), d.zone_start, d.zone_end) for d in pool]
    assert keys == sorted(keys)


def test_pool_excludes_infeasible_ranges():
    # one sample per zone: single-zone ranges cannot carry a 2-param fit
    s = make_series(list(range(16)), levels=4)
    pool = build_pool(s, kinds=(CurveKind.LINE,))
    assert pool.n_infeasible == 16
    assert len(pool) == 136 - 16
    assert all(d.width >= 2 for d in pool)


def test_pool_raises_when_nothing_fits():
    s = make_series([1.0, 2.0], levels=1)
    with pytest.raises(FitError):
        build_pool(s, kinds=(CurveKind.TOOTH,))


def test_per_zone_rmse_recomputed_independently():
    rnd = random.Random(7)
    s = make_series([rnd.uniform(0, 1) for _ in range(96)], levels=3)
    pool = build_pool(s, kinds=DEFAULT_KINDS)
    for d in [pool.get(0), pool.get(len(pool) // 2), pool.get(len(pool) - 1)]:
        for z in d.zones:
            lo, hi = s.zone_bounds[z]
            res = s.ys[lo:hi] - evaluate(d.kind, d.params, s.xs[lo:hi])
            want = math.sqrt(float(np.mean(res ** 2)))
            assert d.err(z) == pytest.approx(want, abs=1e-12)


def test_dump_load_round_trip(tmp_path):
    rnd = random.Random(3)
    s = make_series([rnd.uniform(0, 1) for _ in range(48)], levels=2)
    pool = build_pool(s, kinds=DEFAULT_KINDS)
    path = tmp_path / "pool.jsonl"
    dump_pool(pool, path)
    again = load_pool(path)
    assert again.n_zones == pool.n_zones
    assert again.kinds == pool.kinds
    assert again.n_infeasible == pool.n_infeasible
    assert again.descriptors == pool.descriptors
    # the dump is line-delimited records
    lines = path.read_text().splitlines()
    assert len(lines) == len(pool) + 1
    json.loads(lines[0])
    json.loads(lines[1])


def test_descriptor_accessors():
    s = make_series([1.0, 2.0, 1.0, 3.0, 2.0, 4.0, 1.0, 5.0], levels=2)
    pool = build_pool(s, kinds=(CurveKind.LINE,))
    (d,) = [d for d in pool if (d.zone_start, d.zone_end) == (1, 2)]
    assert d.zones == range(1, 3)
    assert d.width == 2
    assert [z for z in range(4) if d.zone_start <= z <= d.zone_end] == [1, 2]
    assert d.x_lo == pytest.approx(0.25)
    assert d.x_hi == pytest.approx(0.75)
    assert d.total_err == pytest.approx(sum(d.zone_errs))
    with pytest.raises(KeyError):
        pool.get(10 ** 9)


def test_zone_errs_takes_best_covering_descriptor():
    pool = DescriptorPool(
        descriptors=(
            make_descriptor(0, 0, 3, [0.4, 0.3, 0.2, 0.1], 4),
            make_descriptor(1, 1, 2, [0.5, 0.05], 4),
            make_descriptor(2, 3, 3, [0.1], 4),
        ),
        n_zones=4,
        kinds=(CurveKind.LINE,),
    )
    assert pool.zone_errs([0]) == [0.4, 0.3, 0.2, 0.1]
    assert pool.zone_errs([0, 1, 2]) == [0.4, 0.3, 0.05, 0.1]
    with pytest.raises(ValueError):
        pool.zone_errs([1])  # zones 0 and 3 uncovered


def test_descriptor_rejects_bad_ranges():
    with pytest.raises(ValueError):
        Descriptor(
            id=0, kind=CurveKind.LINE, params=LineParams(0.0, 0.0),
            zone_start=3, zone_end=2, zone_errs=(), n_zones=4,
        )
    with pytest.raises(ValueError):
        Descriptor(
            id=0, kind=CurveKind.LINE, params=LineParams(0.0, 0.0),
            zone_start=0, zone_end=1, zone_errs=(0.1,), n_zones=4,
        )


# ------------------------------------------------- local optimality smoke


def _perturb(rnd, kind, p, scale=0.08):
    j = lambda: rnd.uniform(-scale, scale)
    if kind is CurveKind.LINE:
        return LineParams(a=p.a + j(), b=p.b + j())
    if kind is CurveKind.BILINEAR:
        lo, hi = p.x_lo, p.x_hi
        x_b = min(max(p.x_b + j() * (hi - lo), lo + 1e-6), hi - 1e-6)
        return BilinearParams(
            x_b=x_b, y_l=p.y_l + j(), y_b=p.y_b + j(), y_r=p.y_r + j(),
            x_lo=lo, x_hi=hi,
        )
    if kind is CurveKind.TOOTH:
        x_s = p.x_s + j() * 0.5
        x_e = p.x_e + j() * 0.5
        if x_s >= x_e:
            x_s, x_e = p.x_s, p.x_e
        return ToothParams(
            y_out_l=p.y_out_l + j(), y_out_r=p.y_out_r + j(),
            x_s=x_s, x_e=x_e, y_in=p.y_in + j(),
        )
    return SinusoidParams(
        amp=max(p.amp + j(), 0.0) + 1e-9,
        freq=max(p.freq + j(), 0.1),
        phase=(p.phase + j()) % (2 * math.pi),
        mean=p.mean,
    )


def _sse(series, kind, params, sl):
    res = series.ys[sl] - evaluate(kind, params, series.xs[sl])
    return float(np.sum(res ** 2))


@pytest.mark.parametrize("kind", list(CurveKind))
def test_fit_beats_64_random_perturbations(kind):
    x = np.arange(129) / 128.0
    sources = {
        CurveKind.LINE: 0.2 + 0.6 * x,
        CurveKind.BILINEAR: evaluate(
            CurveKind.BILINEAR,
            BilinearParams(x_b=0.5, y_l=0.9, y_b=0.1, y_r=0.8, x_lo=0.0, x_hi=1.0),
            x,
        ),
        CurveKind.TOOTH: evaluate(
            CurveKind.TOOTH,
            ToothParams(y_out_l=0.7, y_out_r=0.7, x_s=0.25, x_e=0.75, y_in=0.2),
            x,
        ),
        CurveKind.SINUSOID: 0.5 + 0.3 * np.sin(2 * np.pi * 2.0 * x),
    }
    s = series_exact(sources[kind], levels=2)
    d = fit_one(s, kind, 0, 3)
    assert d is not None
    sl = s.zone_slice(0, 3)
    fitted = _sse(s, kind, d.params, sl)
    rnd = random.Random(1000 + int(kind))
    for _ in range(64):
        q = _perturb(rnd, kind, d.params)
        assert fitted <= _sse(s, kind, q, sl) + 1e-12


# ------------------------------------------ batched scans against loops


def _prefix_sums(y):
    """One range's own y and y^2 prefix sums, for ``_fit_tooth``, which
    is given its start zone's shared ones inside ``_fit_from``."""
    return (np.concatenate(([0.0], np.cumsum(y))),
            np.concatenate(([0.0], np.cumsum(y * y))))


def _reference_tooth(x, y, x_lo, x_hi, boundaries, add_samples):
    """The tooth search as one pass over every (x_s, x_e) pair: prefix
    sums gathered per pair, then a full (sse, -width, x_s) lexsort."""
    n = len(x)
    positions = boundaries
    if add_samples:
        positions = np.unique(np.concatenate([boundaries, x]))
    positions = positions[(positions >= x_lo) & (positions <= x_hi)]
    if len(positions) < 2:
        return None
    lo_idx = np.searchsorted(x, positions, side="left")
    hi_idx = np.searchsorted(x, positions, side="right")
    py = np.concatenate(([0.0], np.cumsum(y)))
    pyy = np.concatenate(([0.0], np.cumsum(y * y)))
    a, b = np.triu_indices(len(positions), k=1)
    start, stop = lo_idx[a], hi_idx[b]
    valid = (stop - start) > 0
    if not valid.any():
        return None

    def seg_sse(lo, hi):
        cnt = (hi - lo).astype(float)
        s = py[hi] - py[lo]
        ss = pyy[hi] - pyy[lo]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = ss - np.where(cnt > 0, s * s / np.where(cnt > 0, cnt, 1.0), 0.0)
        return np.maximum(out, 0.0)

    sse = (seg_sse(np.zeros_like(start), start) + seg_sse(start, stop)
           + seg_sse(stop, np.full_like(start, n)))
    sse = np.where(valid, sse, np.inf)
    width = positions[b] - positions[a]
    best = int(np.lexsort((positions[a], -width, sse))[0])
    if not np.isfinite(sse[best]):
        return None
    s_i, e_i = int(start[best]), int(stop[best])
    y_in = float((py[e_i] - py[s_i]) / (e_i - s_i))
    return ToothParams(
        y_out_l=float(py[s_i] / s_i) if s_i > 0 else y_in,
        y_out_r=float((py[n] - py[e_i]) / (n - e_i)) if e_i < n else y_in,
        x_s=float(positions[a[best]]),
        x_e=float(positions[b[best]]),
        y_in=y_in,
    )


def _random_ranges(rnd, count):
    """(series, i, j) over random series with many exact ties: constant,
    integer-rounded and noisy values, at 2..4 zone levels."""
    for case in range(count):
        levels = rnd.randint(1, 3)
        n = rnd.randint(2 ** levels, 90)
        shape = case % 3
        if shape == 0:
            ys = [0.375] * n
        elif shape == 1:
            ys = [float(rnd.randint(0, 2)) for _ in range(n)]
        else:
            ys = [rnd.gauss(0.5, 0.2) for _ in range(n)]
        s = series_exact(ys, levels)
        i = rnd.randrange(s.n_zones)
        yield s, i, rnd.randrange(i, s.n_zones)


@pytest.mark.parametrize("cells", [1, 7, 64, _TOOTH_BLOCK_CELLS])
def test_tooth_blocks_match_pair_lexsort(monkeypatch, cells):
    """The blocked start x end table picks the plateau the full pair
    lexsort picks, ties included, whatever the block size."""
    monkeypatch.setattr(fitting, "_TOOTH_BLOCK_CELLS", cells)
    rnd = random.Random(6100)
    for s, i, j in _random_ranges(rnd, 240):
        sl = s.zone_slice(i, j)
        x, y = s.xs[sl], s.ys[sl]
        x_lo, x_hi = s.zone_x_range(i, j)
        boundaries = np.arange(i, j + 2, dtype=float) / s.n_zones
        add = rnd.random() < 0.7
        want = _reference_tooth(x, y, x_lo, x_hi, boundaries, add)
        got = _fit_tooth(x, *_prefix_sums(y), boundaries, add)
        assert got == want, (i, j, add)


def test_sinusoid_grid_matches_per_frequency_solve():
    """One (frequency, sample) pass gives bit-identical grid rows: the
    same a, b and SSE as the one-frequency solve."""
    rnd = random.Random(6200)
    grid = _SIN_GRID
    for s, i, j in _random_ranges(rnd, 120):
        sl = s.zone_slice(i, j)
        x, y = s.xs[sl], s.ys[sl]
        x_lo, x_hi = s.zone_x_range(i, j)
        r = y - float(y.mean())
        width = x_hi - x_lo
        rows = _sin_grid(x, r, grid / width)
        for f, (a, b, sse) in zip(grid, rows):
            sol = _sin_solve(x, r, f / width)
            if sol is None:
                assert sse == np.inf, (i, j, f)
            else:
                assert (a, b, sse) == sol, (i, j, f)


def _reference_bilinear(x, y, x_lo, x_hi, seen):
    """The bilinear fit of one range on its own: its own prefix sums and
    its own batch of candidate solves.  Adds "midpoint" to ``seen`` when
    no sample lies strictly inside the range, "singular" when a
    candidate's system is rejected."""
    n = len(x)
    inside = np.nonzero((x > x_lo) & (x < x_hi))[0]
    if inside.size == 0:
        seen.add("midpoint")
        cands = np.array([0.5 * (x_lo + x_hi)])
        left_counts = np.array([int(np.searchsorted(x, cands[0], side="right"))])
    else:
        cands = x[inside]
        left_counts = inside + 1  # samples 0..k have x <= x[k]

    p1 = np.arange(n + 1, dtype=float)
    px = np.concatenate(([0.0], np.cumsum(x)))
    pxx = np.concatenate(([0.0], np.cumsum(x * x)))
    py = np.concatenate(([0.0], np.cumsum(y)))
    pxy = np.concatenate(([0.0], np.cumsum(x * y)))
    syy = float((y * y).sum())

    k = left_counts
    c = cands
    n_l, sx_l, sxx_l = p1[k], px[k], pxx[k]
    sy_l, sxy_l = py[k], pxy[k]
    n_r, sx_r, sxx_r = n - n_l, px[n] - sx_l, pxx[n] - sxx_l
    sy_r, sxy_r = py[n] - sy_l, pxy[n] - sxy_l

    dl = c - x_lo
    dr = x_hi - c

    m = np.zeros((len(c), 3, 3))
    rhs = np.zeros((len(c), 3))
    m[:, 0, 0] = (c * c * n_l - 2 * c * sx_l + sxx_l) / (dl * dl)
    m[:, 0, 1] = ((c + x_lo) * sx_l - c * x_lo * n_l - sxx_l) / (dl * dl)
    m[:, 1, 1] = (sxx_l - 2 * x_lo * sx_l + x_lo * x_lo * n_l) / (dl * dl)
    rhs[:, 0] = (c * sy_l - sxy_l) / dl
    rhs[:, 1] = (sxy_l - x_lo * sy_l) / dl
    m[:, 1, 1] += (x_hi * x_hi * n_r - 2 * x_hi * sx_r + sxx_r) / (dr * dr)
    m[:, 1, 2] = ((x_hi + c) * sx_r - x_hi * c * n_r - sxx_r) / (dr * dr)
    m[:, 2, 2] = (sxx_r - 2 * c * sx_r + c * c * n_r) / (dr * dr)
    rhs[:, 1] += (x_hi * sy_r - sxy_r) / dr
    rhs[:, 2] = (sxy_r - c * sy_r) / dr
    m[:, 1, 0] = m[:, 0, 1]
    m[:, 2, 1] = m[:, 1, 2]

    dets = np.linalg.det(m)
    ok = np.abs(dets) > 1e-12
    if not ok.all():
        seen.add("singular")
    if not ok.any():
        return None
    theta = np.full((len(c), 3), np.nan)
    theta[ok] = np.linalg.solve(m[ok], rhs[ok][..., None])[..., 0]
    sse = syy - 2 * np.einsum("ki,ki->k", theta, rhs) + np.einsum(
        "ki,kij,kj->k", theta, m, theta
    )
    sse = np.where(ok, np.maximum(sse, 0.0), np.inf)

    best = int(np.argmin(sse))
    if not np.isfinite(sse[best]):
        return None
    y_l, y_b, y_r = (float(v) for v in theta[best])
    return BilinearParams(
        x_b=float(c[best]), y_l=y_l, y_b=y_b, y_r=y_r, x_lo=x_lo, x_hi=x_hi
    )


def _edge_series(ys, n_zones):
    """Every sample on its zone's left edge, the same count per zone: no
    sample lies strictly inside a one-zone range."""
    per = len(ys) // n_zones
    xs = np.repeat(np.arange(n_zones) / n_zones, per)
    bounds = tuple((z * per, (z + 1) * per) for z in range(n_zones))
    return TimeSeries(xs=xs, ys=np.asarray(ys, dtype=float)[: len(xs)],
                      n_zones=n_zones, zone_bounds=bounds)


def _oracle_series(rng, count):
    """Random walks, integer-rounded walks and noisy sines at levels 1..5,
    from one sample per zone up to a few, plus two edge-sampled series."""
    for case in range(count):
        levels = 1 + case % 5
        n_zones = 2 ** levels
        n = int(rng.integers(n_zones + 1, 4 * n_zones + 2))
        shape = case % 3
        if shape == 0:
            ys = np.cumsum(rng.standard_normal(n))
        elif shape == 1:
            ys = np.round(np.cumsum(rng.standard_normal(n)))
        else:
            ys = np.sin(np.linspace(0.0, 9.0, n)) + 0.2 * rng.standard_normal(n)
        yield series_exact(ys, levels)
    yield _edge_series(rng.standard_normal(32), 4)
    yield _edge_series(np.round(rng.standard_normal(40)), 8)


def test_bilinear_batch_matches_per_range_fit():
    """The fits of all ranges that share a start, solved as one batch,
    equal each range fitted on its own, bit for bit."""
    seen = set()
    for s in _oracle_series(np.random.default_rng(6300), 45):
        for i in range(s.n_zones):
            ends = range(i, s.n_zones)
            for j, d in zip(ends, _fit_from(s, CurveKind.BILINEAR, i, ends)):
                sl = s.zone_slice(i, j)
                x, y = s.xs[sl], s.ys[sl]
                want = None
                if len(x) >= PARAM_COUNTS[CurveKind.BILINEAR]:
                    want = _reference_bilinear(x, y, *s.zone_x_range(i, j), seen)
                assert (d and d.params) == want, (i, j)
    assert seen == {"midpoint", "singular"}


def _reference_pool(series, kinds):
    """``build_pool`` one range at a time, with one mean per zone."""
    kinds = tuple(sorted(set(kinds)))
    n = series.n_zones
    descriptors = []
    n_infeasible = 0
    for kind in kinds:
        for i in range(n):
            for j in range(i, n):
                sl = series.zone_slice(i, j)
                x, y = series.xs[sl], series.ys[sl]
                x_lo, x_hi = series.zone_x_range(i, j)
                params = None
                if len(x) < PARAM_COUNTS[kind]:
                    pass
                elif kind is CurveKind.BILINEAR:
                    params = _reference_bilinear(x, y, x_lo, x_hi, set())
                elif kind is CurveKind.TOOTH:
                    boundaries = np.arange(i, j + 2, dtype=float) / n
                    params = _fit_tooth(x, *_prefix_sums(y), boundaries, (j - i + 1) <= 4)
                elif kind is CurveKind.LINE:
                    params = _fit_line(x, y, x_lo, x_hi)
                else:
                    params = _fit_sinusoid(x, y, x_lo, x_hi)
                if params is None:
                    n_infeasible += 1
                    continue
                res_sq = np.square(y - evaluate(kind, params, x))
                errs = tuple(
                    float(np.sqrt(res_sq[lo - sl.start : hi - sl.start].mean()))
                    for lo, hi in series.zone_bounds[i : j + 1]
                )
                descriptors.append(
                    Descriptor(len(descriptors), kind, params, i, j, errs, n))
    return DescriptorPool(tuple(descriptors), n, kinds, n_infeasible)


def test_pool_matches_per_range_reference():
    """Pools built a start zone at a time equal the per-range build, ids,
    zone errors and infeasible count included, for every kind; and
    ``fit_one`` returns each descriptor with id -1."""
    rng = np.random.default_rng(6400)
    n_infeasible = 0
    for case, s in enumerate(_oracle_series(rng, 12)):
        if s.n_zones > 16:
            continue
        # The sin/cos basis is degenerate on repeated sample positions.
        distinct = len(np.unique(s.xs)) == len(s.xs)
        kinds = tuple(CurveKind) if case % 2 and distinct else DEFAULT_KINDS
        pool = build_pool(s, kinds)
        assert pool == _reference_pool(s, kinds), case
        n_infeasible += pool.n_infeasible
        for d in pool:
            assert fit_one(s, d.kind, d.zone_start, d.zone_end) == replace(d, id=-1)
    assert n_infeasible > 0
