import itertools
import json
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_random_pool, make_descriptor, make_pool
from serinarr.cover import VerbosityLevel, solve_cover
from serinarr.details import (
    SelectionConfig,
    SelectionResult,
    coexist,
    pick_summary,
    solve_details,
)
from serinarr.errors import SolveError
from serinarr.fitting import DescriptorPool
from serinarr.prototypes import CurveKind


def level_of(v, ids, pool):
    ds = [pool.get(i) for i in ids]
    cost = sum(e for d in ds for e in d.zone_errs)
    return VerbosityLevel(
        v=v, chosen=tuple(ids), cost=cost, feasible=True,
        zone_errs=tuple(e for d in ds for e in d.zone_errs),
    )


# ------------------------------------------------------ naive enumerator


def _ok_pair(a, lv_a, b, lv_b, min_thr):
    if lv_a == lv_b:
        return True
    coarse, fine = (a, b) if lv_a < lv_b else (b, a)
    lo = max(coarse.zone_start, fine.zone_start)
    hi = min(coarse.zone_end, fine.zone_end)
    if lo > hi:
        return True
    return any(coarse.err(z) - fine.err(z) > min_thr for z in range(lo, hi + 1))


def _no_redundancy(combo):
    for d, lv in combo:
        higher = set()
        for other, lv_o in combo:
            if lv_o > lv:
                higher.update(other.zones)
        if set(d.zones) <= higher:
            return False
    return True


def _score(summary_err, combo, eps):
    total = 0.0
    covers = 0
    for z in range(len(summary_err)):
        errs = [d.err(z) for d, _ in combo if d.zone_start <= z <= d.zone_end]
        if not errs:
            continue
        errs.append(summary_err[z])
        total += max(errs) - min(errs)
        covers += len(errs) - 1
    return total - eps * covers


def naive_details(pool, levels, s, cfg):
    by_v = {lv.v: lv for lv in levels if lv.feasible}
    summary_ids = set(by_v[s].chosen)
    summary = [pool.get(i) for i in by_v[s].chosen]
    summary_err = [0.0] * pool.n_zones
    for d in summary:
        for z in d.zones:
            summary_err[z] = d.err(z)

    source = {}
    for v in range(1, cfg.v + 1):
        if v in by_v:
            for id_ in by_v[v].chosen:
                if id_ not in summary_ids and id_ not in source:
                    source[id_] = v
    cands = [(pool.get(i), lv) for i, lv in sorted(source.items())]
    cands = [
        (d, lv) for d, lv in cands
        if all(_ok_pair(d, lv, sd, s, cfg.min_thr) for sd in summary)
    ]

    best_key, best = None, None
    for r in range(0, cfg.v + 1):
        for combo in itertools.combinations(cands, r):
            pairs = itertools.combinations(combo, 2)
            if not all(_ok_pair(a, la, b, lb, cfg.min_thr)
                       for (a, la), (b, lb) in pairs):
                continue
            if not _no_redundancy(combo):
                continue
            obj = _score(summary_err, combo, cfg.penalty_eps)
            ids = tuple(sorted(d.id for d, _ in combo))
            key = (-obj, len(combo), ids)
            if best_key is None or key < best_key:
                best_key = key
                best = (obj, tuple(sorted((d.id, lv) for d, lv in combo)))
    return best


# ------------------------------------------------------- unbounded search


def _reference_solve_details(
    pool: DescriptorPool,
    levels: list[VerbosityLevel],
    s: int,
    cfg: SelectionConfig,
    threshold_met: bool = True,
) -> SelectionResult:
    """The detail search with no bound: every admissible set up to
    ``cfg.v`` details is scored.  The oracle for the bounded search."""
    cfg.check_penalty(pool.n_zones)
    by_v = {lv.v: lv for lv in levels if lv.feasible}
    if s not in by_v:
        raise SolveError(f"summary level {s} is not a feasible verbosity")
    summary_ids = by_v[s].chosen
    summary = [pool.get(i) for i in summary_ids]

    # Candidates: every tiling member up to the bound, minus the summary.
    # A descriptor appearing at several levels keeps its lowest level:
    # levels run downward, so the lowest one is written last.
    source_level = {
        id_: v
        for v in sorted(by_v, reverse=True) if v <= cfg.v
        for id_ in by_v[v].chosen if id_ not in summary_ids
    }
    # In id order; one that cannot coexist with the summary never enters a set.
    candidates = []
    for id_, lv in sorted(source_level.items()):
        d = pool.get(id_)
        if all(_ok_pair(d, lv, sd, s, cfg.min_thr) for sd in summary):
            candidates.append((d, lv))

    # Each candidate fact is computed once: its zones as a bitmask, and a
    # bitmask of the candidates it may coexist with (_ok_pair is symmetric).
    zones = [((1 << d.width) - 1) << d.zone_start for d, _ in candidates]
    levels_of = [lv for _, lv in candidates]
    compat = [0] * len(candidates)
    for k, m in combinations(range(len(candidates)), 2):
        if _ok_pair(*candidates[k], *candidates[m], cfg.min_thr):
            compat[k] |= 1 << m
            compat[m] |= 1 << k

    def grow(chosen: tuple[int, ...], resid: tuple[int, ...], idx: int):
        """Residues after adding ``idx``, or None if one empties.  Only
        the added detail and the members below its level change."""
        level = levels_of[idx]
        own = zones[idx]
        out = []
        for m, r in zip(chosen, resid):
            if levels_of[m] > level:
                own &= ~zones[m]
            elif levels_of[m] < level:
                r &= ~zones[idx]
                if not r:
                    return None
            out.append(r)
        if not own:
            return None
        out.append(own)
        return tuple(out)

    all_zones = range(pool.n_zones)
    best: tuple | None = None  # (tie-break key, lo, per-zone gains)

    def search(chosen: tuple[int, ...], resid: tuple[int, ...], bits: int,
               lo: list[float], hi: list[float], covered: int, count: int):
        """``bits`` has bit k set for each chosen candidate index k;
        ``resid`` holds the chosen members' residues, as ``grow`` keeps them."""
        nonlocal best
        # Covered zones ascending, left to right, as the gains are reported.
        total = 0.0
        for z in all_zones:
            if covered >> z & 1:
                total += hi[z] - lo[z]
        obj = total - cfg.penalty_eps * count
        # Candidates are in id order and indices ascend, so the ids do too.
        key = (-obj, len(chosen), chosen)
        if best is None or key < best[0]:
            gains = {z: hi[z] - lo[z] for z in all_zones if covered >> z & 1}
            best = key, lo, gains
        if len(chosen) >= cfg.v:
            return
        for idx in range(chosen[-1] + 1 if chosen else 0, len(candidates)):
            if compat[idx] & bits != bits:
                continue
            resid2 = grow(chosen, resid, idx)
            if resid2 is None:
                continue
            d = candidates[idx][0]
            lo2, hi2 = lo[:], hi[:]
            for z, e in zip(d.zones, d.zone_errs):
                if e < lo2[z]:
                    lo2[z] = e
                if e > hi2[z]:
                    hi2[z] = e
            search(chosen + (idx,), resid2, bits | 1 << idx, lo2, hi2,
                   covered | zones[idx], count + d.width)

    summary_err = list(by_v[s].zone_errs)
    search((), (), 0, summary_err, summary_err, 0, 0)
    (neg_obj, _, chosen), lo, gains = best
    # lo is the selected set's per-zone error: the summary tiles each zone once.
    # Left-to-right float sum: fsum, numpy and Python 3.12's compensated
    # sum() round differently and would change selection.json.
    total = 0.0
    for e in lo:
        total += e
    return SelectionResult(
        s=s,
        summary=tuple(summary_ids),
        details=tuple((candidates[k][0].id, candidates[k][1]) for k in chosen),
        objective=-neg_obj,
        per_zone_gain=gains,
        global_rmse=total / pool.n_zones,
        threshold_met=threshold_met,
    )


# ------------------------------------------------------------ pick_summary


def fake_levels(maxima):
    return [
        VerbosityLevel(v=k + 1, chosen=tuple(range(k + 1)), cost=1.0,
                       feasible=True, zone_errs=(m,))
        for k, m in enumerate(maxima)
    ]


def test_pick_summary_minimal_qualifying_level():
    s, met = pick_summary(fake_levels([0.2, 0.16, 0.14]), 0.15)
    assert (s, met) == (3, True)


def test_pick_summary_first_level_qualifies():
    s, met = pick_summary(fake_levels([0.12, 0.08]), 0.15)
    assert (s, met) == (1, True)


def test_pick_summary_strict_inequality():
    s, met = pick_summary(fake_levels([0.15, 0.13]), 0.15)
    assert (s, met) == (2, True)


def test_pick_summary_fallback_flags_miss():
    s, met = pick_summary(fake_levels([0.3, 0.2, 0.18, 0.16]), 0.15)
    assert (s, met) == (4, False)


def test_pick_summary_skips_infeasible():
    levels = fake_levels([0.2, 0.1])
    levels.insert(0, VerbosityLevel(
        v=0, chosen=(), cost=float("inf"), feasible=False,
        zone_errs=()))
    with pytest.raises(SolveError):
        pick_summary([levels[0]], 0.15)


# ---------------------------------------------------------------- coexist


def _coexist_pair(coarse, fine, min_thr):
    """``coexist``'s verdict on a coarser and a finer descriptor."""
    ok, _ = coexist(make_pool((coarse, fine), coarse.n_zones), [0, 1], [1, 2], min_thr)
    assert ok[0, 1] == ok[1, 0]
    return ok[0, 1]


def test_disjoint_pairs_always_pass():
    a = make_descriptor(0, 0, 1, [0.5, 0.5], 8)
    b = make_descriptor(1, 4, 5, [0.1, 0.1], 8)
    assert _coexist_pair(a, b, 0.02)


def test_improvement_below_threshold_fails():
    a = make_descriptor(0, 0, 1, [0.5, 0.5], 4)
    b = make_descriptor(1, 0, 1, [0.49, 0.485], 4)
    assert not _coexist_pair(a, b, 0.02)


def test_improvement_needs_strict_excess():
    # dyadic values keep the difference exact in floating point
    a = make_descriptor(0, 0, 0, [0.5], 4)
    at_thr = make_descriptor(1, 0, 0, [0.46875], 4)
    over = make_descriptor(2, 0, 0, [0.46875 - 1e-6], 4)
    min_thr = 0.03125
    assert (a.err(0) - at_thr.err(0)) == min_thr
    assert not _coexist_pair(a, at_thr, min_thr)
    assert _coexist_pair(a, over, min_thr)


@settings(max_examples=80)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
    st.floats(min_value=0.001, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_raising_min_thr_only_removes_pairs(errs_a, errs_b, thr, bump):
    a = make_descriptor(0, 0, 2, errs_a, 4)
    b = make_descriptor(1, 1, 2, errs_b[:2], 4)
    if _coexist_pair(a, b, thr + bump):
        assert _coexist_pair(a, b, thr)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 16), st.integers(2, 24))
def test_coexist_matches_pair_rule(seed, n_zones, m):
    """On random rows of a random pool at random levels, ``coexist`` is
    symmetric, agrees with ``_ok_pair`` on every pair, and returns each
    row's zone errors, NaN outside its range.  Errors on a dyadic grid
    and a dyadic ``min_thr`` make some improvements equal it exactly."""
    rnd = random.Random(seed)
    quantum = rnd.choice((None, 1 / 8, 1 / 32))
    pool = full_random_pool(rnd, n_zones, quantum=quantum)
    rows = [rnd.randrange(len(pool)) for _ in range(m)]
    levels = [rnd.randint(1, 4) for _ in range(m)]
    min_thr = rnd.choice((1 / 8, 1 / 32, rnd.uniform(0.0, 0.3)))
    ok, errs = coexist(pool, rows, levels, min_thr)
    assert ok.shape == (m, m) and (ok == ok.T).all()
    descs = [pool.get(r) for r in rows]
    for a, b in itertools.product(range(m), repeat=2):
        assert ok[a, b] == _ok_pair(descs[a], levels[a], descs[b], levels[b], min_thr)
    for d, row in zip(descs, errs):
        inside = np.isin(np.arange(n_zones), d.zones)
        assert row[inside].tolist() == list(d.zone_errs)
        assert np.isnan(row[~inside]).all()


# ------------------------------------------------------------ solve_details


def build_instance():
    """Summary misses everywhere; finer levels carve it up."""
    n = 8
    descs = [
        make_descriptor(0, 0, 7, [0.5] * 8, n),
        make_descriptor(1, 0, 3, [0.1, 0.005, 0.02, 0.1], n),
        make_descriptor(2, 4, 7, [0.49] * 4, n),
        make_descriptor(3, 0, 1, [0.05, 0.01], n),
        make_descriptor(4, 2, 3, [0.01, 0.05], n),
        make_descriptor(5, 4, 7, [0.49] * 4, n),
    ]
    pool = make_pool(tuple(descs), n)
    levels = [
        level_of(1, (0,), pool),
        level_of(2, (1, 2), pool),
        level_of(3, (3, 4, 5), pool),
    ]
    return pool, levels


def test_redundancy_rule_excludes_covered_detail():
    pool, levels = build_instance()
    cfg = SelectionConfig(max_thr=0.6, min_thr=0.02, v=3, penalty_eps=1e-4)
    res = solve_details(pool, levels, 1, cfg)
    assert res.details == ((3, 3), (4, 3))
    # the forbidden superset would have scored higher, so the rule bit
    summary_err = [0.5] * 8
    allowed = _score(summary_err, [(pool.get(3), 3), (pool.get(4), 3)], 1e-4)
    forbidden = _score(
        summary_err,
        [(pool.get(1), 2), (pool.get(3), 3), (pool.get(4), 3)],
        1e-4,
    )
    assert forbidden > allowed
    assert res.objective == allowed


@pytest.mark.parametrize("coarse, fine", [(1, (3, 5)), (3, (1, 5)), (5, (1, 3))])
def test_redundancy_rule_in_any_id_order(coarse, fine):
    """build_instance with relabelled ids.  The level-2 detail over zones
    0-3 turns redundant once both level-3 details over 0-1 and 2-3 join.
    The search adds candidates in id order, so its id decides whether it
    joins first (its residue empties when the second level-3 detail
    joins), between them, or last (it arrives already covered)."""
    n = 8
    descs = [
        make_descriptor(0, 0, 7, [0.5] * 8, n),
        make_descriptor(coarse, 0, 3, [0.1, 0.005, 0.02, 0.1], n),
        make_descriptor(2, 4, 7, [0.49] * 4, n),
        make_descriptor(fine[0], 0, 1, [0.05, 0.01], n),
        make_descriptor(fine[1], 2, 3, [0.01, 0.05], n),
        make_descriptor(4, 4, 7, [0.49] * 4, n),
    ]
    pool = make_pool(tuple(sorted(descs, key=lambda d: d.id)), n)
    levels = [
        level_of(1, (0,), pool),
        level_of(2, (coarse, 2), pool),
        level_of(3, fine + (4,), pool),
    ]
    cfg = SelectionConfig(max_thr=0.6, min_thr=0.02, v=3, penalty_eps=1e-4)
    res = solve_details(pool, levels, 1, cfg)
    assert res.details == ((fine[0], 3), (fine[1], 3))
    assert (res.objective, res.details) == naive_details(pool, levels, 1, cfg)


def test_empty_selection_when_nothing_improves():
    n = 4
    descs = [
        make_descriptor(0, 0, 3, [0.0] * 4, n),
        make_descriptor(1, 0, 1, [0.0, 0.0], n),
        make_descriptor(2, 2, 3, [0.0, 0.0], n),
    ]
    pool = make_pool(tuple(descs), n)
    levels = [level_of(1, (0,), pool), level_of(2, (1, 2), pool)]
    cfg = SelectionConfig(max_thr=0.15, min_thr=0.02, v=2, penalty_eps=1e-4)
    res = solve_details(pool, levels, 1, cfg)
    assert res.details == ()
    assert res.objective == 0.0


def test_hand_computed_single_detail_objective():
    n = 8
    descs = [
        make_descriptor(0, 0, 7, [0.25] * 8, n),
        make_descriptor(1, 0, 3, [0.125] * 4, n),
        make_descriptor(2, 4, 7, [0.25] * 4, n),
    ]
    pool = make_pool(tuple(descs), n)
    levels = [level_of(1, (0,), pool), level_of(2, (1, 2), pool)]
    cfg = SelectionConfig(max_thr=0.3, min_thr=0.02, v=2, penalty_eps=1e-4)
    res = solve_details(pool, levels, 1, cfg)
    # one detail, 0.125 better on each of its 4 zones, alone on them
    assert res.details == ((1, 2),)
    assert res.objective == 0.5 - 1e-4 * 4
    assert res.per_zone_gain == {0: 0.125, 1: 0.125, 2: 0.125, 3: 0.125}


def test_min_thr_strictness_through_solver():
    n = 4
    min_thr = 0.03125
    descs = [
        make_descriptor(0, 0, 3, [0.5] * 4, n),
        make_descriptor(1, 0, 1, [0.46875, 0.46875], n),
        make_descriptor(2, 2, 3, [0.5, 0.5], n),
    ]
    pool = make_pool(tuple(descs), n)
    levels = [level_of(1, (0,), pool), level_of(2, (1, 2), pool)]
    cfg = SelectionConfig(max_thr=0.6, min_thr=min_thr, v=2, penalty_eps=1e-4)
    res = solve_details(pool, levels, 1, cfg)
    assert res.details == ()  # improvement is exactly min_thr: rejected

    better = make_descriptor(1, 0, 1, [0.46875 - 1e-6, 0.46875], n)
    pool2 = make_pool((descs[0], better, descs[2]), n)
    levels2 = [level_of(1, (0,), pool2), level_of(2, (1, 2), pool2)]
    res2 = solve_details(pool2, levels2, 1, cfg)
    assert res2.details == ((1, 2),)


@pytest.mark.parametrize(
    "n_zones, v, cases, seed0, min_nonempty",
    [(8, 5, 50, 4000, 10), (16, 8, 30, 9000, 20)],
    ids=["8-zones-v5", "16-zones-v8"],
)
def test_matches_naive_enumerator(n_zones, v, cases, seed0, min_nonempty):
    checked_nonempty = 0
    for case in range(cases):
        rnd = random.Random(seed0 + case)
        pool = full_random_pool(rnd, n_zones)
        levels = solve_cover(pool, v)
        max_thr = rnd.uniform(0.15, 0.45)
        min_thr = rnd.uniform(0.02, 0.08)
        s, met = pick_summary(levels, max_thr)
        cfg = SelectionConfig(
            max_thr=max_thr, min_thr=min_thr, v=v, penalty_eps=1e-5)
        res = solve_details(pool, levels, s, cfg, threshold_met=met)
        want_obj, want_details = naive_details(pool, levels, s, cfg)
        assert res.objective == want_obj
        assert tuple(res.details) == want_details
        if res.details:
            checked_nonempty += 1

        # post-hoc constraint audit on the solver's own output
        chosen = [(pool.get(i), lv) for i, lv in res.details]
        summary = [(pool.get(i), s) for i in res.summary]
        for (a, la), (b, lb) in itertools.combinations(chosen + summary, 2):
            assert _ok_pair(a, la, b, lb, cfg.min_thr)
        assert _no_redundancy(chosen)
        assert len(res.details) <= cfg.v

        # adding details can only help the selected-error accounting
        summary_only = sum(
            pool.get(i).err(z) for i in res.summary
            for z in pool.get(i).zones) / pool.n_zones
        assert res.global_rmse <= summary_only + 1e-15
        total = 0.0
        for e in pool.zone_errs(res.selected_ids):
            total += e
        assert res.global_rmse == total / pool.n_zones
    assert checked_nonempty >= min_nonempty


def test_global_rmse_uses_best_cover():
    pool, levels = build_instance()
    cfg = SelectionConfig(max_thr=0.6, min_thr=0.02, v=3, penalty_eps=1e-4)
    res = solve_details(pool, levels, 1, cfg)
    picked = [pool.get(i) for i in res.summary]
    picked += [pool.get(i) for i, _ in res.details]
    want = sum(
        min(d.err(z) for d in picked if d.zone_start <= z <= d.zone_end)
        for z in range(pool.n_zones)
    ) / pool.n_zones
    assert res.global_rmse == pytest.approx(want, abs=0)


def test_selection_result_as_dict():
    pool, levels = build_instance()
    cfg = SelectionConfig(max_thr=0.6, min_thr=0.02, v=3, penalty_eps=1e-4)
    res = solve_details(pool, levels, 1, cfg)
    doc = res.as_dict()
    assert doc["summary_level"] == 1
    assert doc["summary_ids"] == [0]
    assert doc["details"] == [{"id": 3, "level": 3}, {"id": 4, "level": 3}]
    assert doc["threshold_met"] is True
    assert set(doc["per_zone_gain"]) <= {str(z) for z in range(8)}


def test_selection_result_from_dict_inverts_as_dict():
    pool, levels = build_instance()
    cfg = SelectionConfig(max_thr=0.6, min_thr=0.02, v=3, penalty_eps=1e-4)
    res = solve_details(pool, levels, 1, cfg)
    doc = json.loads(json.dumps(res.as_dict()))
    assert SelectionResult.from_dict(doc) == res


def test_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(max_thr=0.02, min_thr=0.15)
    with pytest.raises(ValueError):
        SelectionConfig(penalty_eps=0.0)
    with pytest.raises(ValueError):
        SelectionConfig(v=0)
    cfg = SelectionConfig(max_thr=0.15, min_thr=0.02, v=5, penalty_eps=1e-3)
    with pytest.raises(ValueError, match="penalty"):
        cfg.check_penalty(n_zones=16)


def test_unknown_summary_level_rejected():
    pool, levels = build_instance()
    cfg = SelectionConfig(max_thr=0.6, min_thr=0.02, v=3, penalty_eps=1e-4)
    with pytest.raises(SolveError):
        solve_details(pool, levels, 9, cfg)


@pytest.mark.parametrize("n_zones, v, cases", [
    (8, 3, 60), (8, 5, 60), (8, 8, 40),
    (16, 3, 30), (16, 5, 30), (16, 8, 20),
    (32, 3, 10), (32, 5, 8), (32, 8, 6),
])
def test_bound_matches_unbounded_search(n_zones, v, cases):
    """The bounded search returns what scoring every admissible set
    returns.  Errors on a coarse dyadic grid make objectives tie, so the
    tie-break is exercised, and a penalty of 1e-300 leaves the bound no
    float slack."""
    pruned = 0
    for case in range(cases):
        rnd = random.Random(n_zones * 1000 + v * 100 + case)
        quantum = rnd.choice((1 / 8, 1 / 16, 1 / 32, 1 / 64))
        pool = full_random_pool(rnd, n_zones, quantum=quantum)
        levels = solve_cover(pool, v)
        max_thr = rnd.uniform(0.15, 0.45)
        s, met = pick_summary(levels, max_thr)
        cfg = SelectionConfig(
            max_thr=max_thr, min_thr=rnd.uniform(0.02, 0.08), v=v,
            penalty_eps=rnd.choice((1e-5, 1e-9, 1e-300)))
        got = solve_details(pool, levels, s, cfg, threshold_met=met)
        want = _reference_solve_details(pool, levels, s, cfg, threshold_met=met)
        assert got == want, case
        pruned += got.nodes_pruned
    assert pruned > 0
