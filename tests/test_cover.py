import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    full_random_descriptors,
    full_random_pool,
    make_descriptor,
    make_pool,
    series_exact,
)
from serinarr.cover import (
    VerbosityLevel,
    min_segment_zones,
    segment_table,
    solve_cover,
)
from serinarr.errors import SolveError
from serinarr.fitting import build_pool
from serinarr.prototypes import BilinearParams, CurveKind, evaluate


# --------------------------------------------------------------- oracle

_INF = float("inf")


def total_err(d):
    """A descriptor's cost: Python's left-to-right ``sum`` of its zone errors."""
    return float(sum(d.zone_errs))


def reference_segment_table(pool):
    """Cheapest descriptor per zone range, as a dict loop over the
    descriptors: ``{(i, j): (cost, id)}``.  Ties go to the smaller kind,
    then the smaller id."""
    table: dict[tuple[int, int], tuple[float, int, int]] = {}
    for d in pool:
        key = (d.zone_start, d.zone_end)
        entry = (total_err(d), int(d.kind), d.id)
        cur = table.get(key)
        if cur is None or entry < cur:
            table[key] = entry
    return {k: (cost, id_) for k, (cost, _, id_) in table.items()}


def reference_zone_errs(pool, ids):
    """Per-zone minimum error over the given descriptors, one at a time."""
    errs: list[float | None] = [None] * pool.n_zones
    for d in map(pool.get, ids):
        for z, e in zip(d.zones, d.zone_errs):
            if errs[z] is None or e < errs[z]:
                errs[z] = e
    if None in errs:
        raise ValueError(f"zone {errs.index(None)} is not covered")
    return errs


def best_descriptor(descriptors, i, j):
    cands = [d for d in descriptors if (d.zone_start, d.zone_end) == (i, j)]
    if not cands:
        return None
    return min(cands, key=lambda d: (total_err(d), int(d.kind), d.id))


def brute_force_cover(pool, v):
    """All ways to cut [0, n) into v contiguous runs of length >= L."""
    n = pool.n_zones
    descriptors = list(pool)
    best = {(lo, hi): best_descriptor(descriptors, lo, hi)
            for lo in range(n) for hi in range(lo, n)}
    min_len = math.ceil(n / 2 ** v)
    best_cost, best_ids = None, None
    for cuts in itertools.combinations(range(1, n), v - 1):
        bounds = (0,) + cuts + (n,)
        segs = [(bounds[k], bounds[k + 1] - 1) for k in range(v)]
        if any(hi - lo + 1 < min_len for lo, hi in segs):
            continue
        ds = [best[seg] for seg in segs]
        if any(d is None for d in ds):
            continue
        cost = 0.0
        for d in ds:
            cost = cost + total_err(d)
        if best_cost is None or cost < best_cost:
            best_cost, best_ids = cost, tuple(d.id for d in ds)
    return best_cost, best_ids


def _reference_cover(pool, v_max):
    """``solve_cover`` as a triple loop over (segments, prefix end, cut)."""
    if v_max < 1:
        raise SolveError(f"verbosity bound must be >= 1, got {v_max}")
    n = pool.n_zones
    table = reference_segment_table(pool)

    levels = []
    for v in range(1, v_max + 1):
        min_len = min_segment_zones(n, v)
        # dp[p][k]: best cost covering zones [0, k) with p segments
        dp = [[_INF] * (n + 1) for _ in range(v + 1)]
        cut = [[-1] * (n + 1) for _ in range(v + 1)]
        dp[0][0] = 0.0
        for p in range(1, v + 1):
            for k in range(p * min_len, n + 1):
                best, best_m = _INF, -1
                for m in range((p - 1) * min_len, k - min_len + 1):
                    if dp[p - 1][m] == _INF:
                        continue
                    seg = table.get((m, k - 1))
                    if seg is None:
                        continue
                    cand = dp[p - 1][m] + seg[0]
                    if cand < best:
                        best, best_m = cand, m
                dp[p][k] = best
                cut[p][k] = best_m

        if dp[v][n] == _INF:
            levels.append(
                VerbosityLevel(v=v, chosen=(), cost=_INF, feasible=False,
                               zone_errs=())
            )
            continue

        segments = []
        k = n
        for p in range(v, 0, -1):
            m = cut[p][k]
            segments.append((m, k - 1))
            k = m
        segments.reverse()
        ids = tuple(table[seg][1] for seg in segments)
        levels.append(
            VerbosityLevel(
                v=v, chosen=ids, cost=dp[v][n], feasible=True,
                zone_errs=tuple(reference_zone_errs(pool, ids)),
            )
        )
    return levels


def check_tiling(pool, level, n):
    min_len = min_segment_zones(n, level.v)
    ds = [pool.get(i) for i in level.chosen]
    assert [d.zone_start for d in ds] == sorted(d.zone_start for d in ds)
    covered = []
    for d in ds:
        assert d.width >= min_len
        covered.extend(d.zones)
    assert covered == list(range(n))


# --------------------------------------------------------------- tests


def test_min_segment_zones():
    assert min_segment_zones(16, 1) == 8
    assert min_segment_zones(16, 2) == 4
    assert min_segment_zones(16, 5) == 1
    assert min_segment_zones(8, 3) == 1


def test_matches_brute_force_on_50_random_pools():
    for case in range(50):
        rnd = random.Random(9000 + case)
        kinds = (CurveKind.LINE,) if case % 2 == 0 else (
            CurveKind.LINE, CurveKind.TOOTH)
        pool = full_random_pool(rnd, 8, kinds=kinds)
        levels = solve_cover(pool, 5)
        for level in levels:
            want_cost, want_ids = brute_force_cover(pool, level.v)
            assert level.feasible
            assert level.cost == want_cost
            assert level.chosen == want_ids
            check_tiling(pool, level, 8)


def test_single_segment_level_is_best_full_range():
    rnd = random.Random(5)
    pool = full_random_pool(rnd, 4)
    level = solve_cover(pool, 1)[0]
    best = best_descriptor(pool, 0, 3)
    assert level.chosen == (best.id,)
    assert level.cost == total_err(best)


def test_best_segment_prefers_lower_total():
    a = make_descriptor(0, 0, 1, [0.1, 0.1], 2, kind=CurveKind.TOOTH)
    b = make_descriptor(1, 0, 1, [0.05, 0.2], 2, kind=CurveKind.LINE)
    pool = make_pool([a, b], 2, kinds=(CurveKind.LINE, CurveKind.TOOTH))
    cost, ids = segment_table(pool)
    assert ids[0, 2] == 0  # 0.2 beats 0.25 regardless of kind order
    assert cost[0, 2] == pytest.approx(0.2)
    assert (ids == -1).sum() == ids.size - 1 and np.isinf(cost).sum() == cost.size - 1


def test_best_segment_tie_prefers_line_over_tooth():
    a = make_descriptor(0, 0, 1, [0.1, 0.1], 2, kind=CurveKind.TOOTH)
    b = make_descriptor(1, 0, 1, [0.1, 0.1], 2, kind=CurveKind.LINE)
    pool = make_pool([a, b], 2, kinds=(CurveKind.LINE, CurveKind.TOOTH))
    assert segment_table(pool)[1][0, 2] == 1


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=0.5),
    st.sampled_from([None, 1 / 8, 1 / 64]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_column_pool_matches_the_descriptor_loops(n, drop, quantum, permute, rnd):
    """Pools of random descriptors, with ranges missing, ties on a coarse
    error grid and rows in any order: the ``total`` column equals Python's
    ``sum`` of each descriptor's zone errors bit for bit, the segment table
    the dict loop's, ``zone_errs`` the per-descriptor minimum, and
    ``solve_cover`` the loop DP, at every level."""
    kinds = (CurveKind.LINE, CurveKind.TOOTH)
    descs = [d for d in full_random_descriptors(rnd, n, kinds, quantum=quantum)
             if rnd.random() >= drop]
    if permute:
        rnd.shuffle(descs)
    pool = make_pool(descs, n, kinds)
    assert [t.hex() for t in pool.total.tolist()] == [total_err(d).hex() for d in pool]

    want_cost, want_ids = np.full((n + 1, n + 1), _INF), np.full((n + 1, n + 1), -1)
    for (i, j), (c, id_) in reference_segment_table(pool).items():
        want_cost[i, j + 1], want_ids[i, j + 1] = c, id_
    cost, ids = segment_table(pool)
    assert np.array_equal(cost, want_cost) and np.array_equal(ids, want_ids)

    for _ in range(4):
        some = rnd.sample(range(len(pool)), rnd.randint(0, len(pool)))
        try:
            want = reference_zone_errs(pool, some)
        except ValueError:
            with pytest.raises(ValueError):
                pool.zone_errs(some)
        else:
            assert pool.zone_errs(some) == want

    v = rnd.randint(1, 6)
    for got, want in zip(solve_cover(pool, v), _reference_cover(pool, v), strict=True):
        assert (got.v, got.chosen, got.cost, got.feasible, got.zone_errs) == (
            want.v, want.chosen, want.cost, want.feasible, want.zone_errs)


def test_v_shape_never_narrated_as_line():
    truth = BilinearParams(x_b=0.5, y_l=1.0, y_b=0.0, y_r=1.0, x_lo=0.0, x_hi=1.0)
    x = np.arange(129) / 128.0
    s = series_exact(evaluate(CurveKind.BILINEAR, truth, x), levels=2)
    pool = build_pool(
        s, kinds=(CurveKind.LINE, CurveKind.BILINEAR, CurveKind.TOOTH))
    level = solve_cover(pool, 1)[0]
    chosen = pool.get(level.chosen[0])
    assert chosen.kind in (CurveKind.BILINEAR, CurveKind.TOOTH)


def test_infeasible_verbosity_reported():
    rnd = random.Random(3)
    pool = full_random_pool(rnd, 2)
    levels = solve_cover(pool, 3)
    assert [lv.feasible for lv in levels] == [True, True, False]
    bad = levels[2]
    assert bad.chosen == ()
    assert bad.cost == float("inf")


def test_missing_ranges_make_level_infeasible():
    # no full-range descriptor: v=1 has no tiling, v=2 does
    a = make_descriptor(0, 0, 0, [0.1], 2)
    b = make_descriptor(1, 1, 1, [0.2], 2)
    pool = make_pool([a, b], 2)
    levels = solve_cover(pool, 2)
    assert not levels[0].feasible
    assert levels[1].feasible
    assert levels[1].chosen == (0, 1)


def test_rejects_bad_v_max():
    rnd = random.Random(1)
    pool = full_random_pool(rnd, 2)
    with pytest.raises(SolveError):
        solve_cover(pool, 0)


def test_feasible_level_holds_v_descriptors():
    with pytest.raises(ValueError, match="holds 1 descriptors"):
        VerbosityLevel(v=2, chosen=(0,), cost=0.0, feasible=True, zone_errs=(0.0,))


def test_max_zone_err_matches_chosen():
    rnd = random.Random(11)
    pool = full_random_pool(rnd, 8)
    for level in solve_cover(pool, 4):
        want = max(max(pool.get(i).zone_errs) for i in level.chosen)
        assert level.max_zone_err == want
        assert level.zone_errs == tuple(pool.zone_errs(level.chosen))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=0.7),
    st.sampled_from([None, 1 / 8, 1 / 64]),
    st.randoms(use_true_random=False),
)
def test_feasible_levels_tile_every_zone_once(zone_levels, v, drop, quantum, rnd):
    """Pools with ranges missing and, on a coarse error grid, tied costs:
    every feasible level's ranges run in zone_start order, each starting
    where the last ended, from zone 0 to the last zone, and its zone
    errors are that tiling's."""
    n = 2 ** zone_levels
    full = full_random_pool(
        rnd, n, kinds=(CurveKind.LINE, CurveKind.TOOTH), quantum=quantum)
    kept = [d for d in full if rnd.random() >= drop]
    pool = make_pool(kept, n, full.kinds, n_infeasible=len(full) - len(kept))
    for level in solve_cover(pool, v):
        if not level.feasible:
            assert level.chosen == () and level.zone_errs == ()
            continue
        ds = [pool.get(i) for i in level.chosen]
        assert ds[0].zone_start == 0 and ds[-1].zone_end == n - 1
        for a, b in zip(ds, ds[1:]):
            assert b.zone_start == a.zone_end + 1
        check_tiling(pool, level, n)
        assert list(level.zone_errs) == pool.zone_errs(level.chosen)
        assert level.zone_errs == tuple(e for d in ds for e in d.zone_errs)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=0.4),
    st.sampled_from([1 / 8, 1 / 64]),
    st.randoms(use_true_random=False),
)
def test_matches_reference_dp_on_tied_pools(n, v, drop, quantum, rnd):
    """On a coarse error grid many partitions tie; with ranges missing,
    the solver picks the tiling, cost and zone errors of the loop DP at
    every level, infeasible ones included."""
    full = full_random_pool(
        rnd, n, kinds=(CurveKind.LINE, CurveKind.TOOTH), quantum=quantum)
    kept = [d for d in full if rnd.random() >= drop]
    pool = make_pool(kept, n, full.kinds, n_infeasible=len(full) - len(kept))
    for got, want in zip(solve_cover(pool, v), _reference_cover(pool, v), strict=True):
        assert (got.v, got.chosen, got.cost, got.feasible, got.zone_errs) == (
            want.v, want.chosen, want.cost, want.feasible, want.zone_errs)


def test_tie_keeps_the_earliest_last_cut():
    """Two partitions of 5 zones into 3 cost 0.625 each; every other
    costs more.  The solver keeps the earliest last cut, (0-1)(2)(3-4),
    not the lexicographically first partition, (0)(1-3)(4), that the
    brute force keeps."""
    cheap = {(0, 0), (1, 3), (4, 4), (0, 1), (2, 2), (3, 4)}
    ranges = [(i, j) for i in range(5) for j in range(i, 5)]
    pool = make_pool(
        [make_descriptor(k, i, j, [0.125 if (i, j) in cheap else 1.0] * (j - i + 1), 5)
         for k, (i, j) in enumerate(ranges)], 5)
    ids = {r: k for k, r in enumerate(ranges)}
    level = solve_cover(pool, 3)[2]
    assert level.cost == 0.625
    assert level.chosen == (ids[0, 1], ids[2, 2], ids[3, 4])
    assert brute_force_cover(pool, 3) == (0.625, (ids[0, 0], ids[1, 3], ids[4, 4]))
