"""A declarative optimality oracle for the detail search.

The detail choice is written as a 0/1 MILP and solved by HiGHS through
``scipy.optimize.milp``, with no code shared with the branch-and-bound
search but the candidates and the pair rule (``details.coexist``).  On
the candidates ``solve_details`` builds (the tiling members of the
feasible levels up to ``v``, minus the summary, each kept at its lowest
level, and only where it may coexist with every summary descriptor):

* binary ``x_c`` selects candidate c: ``sum x_c <= v``, and
  ``x_a + x_b <= 1`` for each pair ``coexist`` rejects;
* per zone z, binary ``w+_cz, w-_cz <= x_c``, at most one per zone and
  side, pick the candidate whose error raises the zone's greatest error
  ``hi_z`` above the summary's ``s_z`` and the one that lowers its least
  error ``lo_z``:
  ``hi_z <= s_z + sum w+_cz (e_cz - s_z)`` and
  ``lo_z >= s_z - sum w-_cz (s_z - e_cz)``;
* a chosen candidate keeps a zone that no chosen candidate of a higher
  level covers: ``u_cz >= x_d`` for each such d covering z, and
  ``sum_z u_cz + x_c <= |Z_c|``;
* maximize ``sum_z (hi_z - lo_z) - penalty_eps * sum_c width_c x_c``.

The search must score at least the MILP's set, both summed as the
search sums (an exact float comparison), and HiGHS's dual bound may
exceed the search's objective only by HiGHS's own gap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_perfbench, make_series
from serinarr.cover import solve_cover
from serinarr.details import DEFAULT_MAX_THR, SelectionConfig, coexist, pick_summary, solve_details
from serinarr.fitting import build_pool
from serinarr.ingest import load_series

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")
workloads = load_perfbench("workloads")

WAVE_EPS = 1e-5  # the deep-details workload's penalty_eps


def _candidates(pool, levels, s, cfg):
    """(ids, levels, coexist matrix) of the detail candidates, in id order."""
    by_v = {lv.v: lv for lv in levels if lv.feasible}
    summary = by_v[s].chosen
    lowest = {}
    for v in sorted(by_v):
        if v <= cfg.v:
            for i in by_v[v].chosen:
                if i not in summary:
                    lowest.setdefault(i, v)
    ids = sorted(lowest)
    ok, _ = coexist(pool, ids + list(summary), [lowest[i] for i in ids] + [s] * len(summary),
                    cfg.min_thr)
    keep = ok[: len(ids), len(ids):].all(axis=1)
    ids = [i for i, k in zip(ids, keep) if k]
    return ids, [lowest[i] for i in ids], ok[np.ix_(keep, keep)]


def _zone_errs(pool, i):
    """{zone: error} over descriptor i's range."""
    a, b = int(pool.zone_start[i]), int(pool.zone_end[i])
    return dict(zip(range(a, b + 1), pool.errs[i, a : b + 1].tolist()))


def _objective(pool, summary_err, ids, eps):
    """The search's objective of the detail set ``ids``: each zone's
    greatest minus least selected error, summed from left to right, less
    the penalty of the summed width."""
    hi, lo, width = list(summary_err), list(summary_err), 0
    for i in ids:
        for z, e in _zone_errs(pool, i).items():
            hi[z], lo[z] = max(hi[z], e), min(lo[z], e)
        width += int(pool.zone_end[i] - pool.zone_start[i]) + 1
    total = 0.0
    for h, l in zip(hi, lo):
        total += h - l
    return total - eps * width


def _solve_milp(pool, summary_err, ids, levels_of, ok, cfg):
    """The MILP's chosen ids and HiGHS's result."""
    k, n_zones = len(ids), pool.n_zones
    errs = [_zone_errs(pool, i) for i in ids]
    n = k + 2 * n_zones  # x, then hi and lo
    cols = {}  # (name, c, z) -> column of w+, w- and u
    for c, ze in enumerate(errs):
        for z in ze:
            for name in ("w+", "w-", "u"):
                cols[name, c, z] = n
                n += 1
    hi, lo = k, k + n_zones
    rows, lb, ub = [], [], []

    def row(terms, low=-np.inf, high=np.inf):
        rows.append(terms)
        lb.append(low)
        ub.append(high)

    row([(c, 1.0) for c in range(k)], high=cfg.v)
    for a in range(k):
        for b in range(a + 1, k):
            if not ok[a, b]:
                row([(a, 1.0), (b, 1.0)], high=1.0)
    for z in range(n_zones):
        s = summary_err[z]
        covering = [c for c in range(k) if z in errs[c]]
        for name in ("w+", "w-"):
            row([(cols[name, c, z], 1.0) for c in covering], high=1.0)
            for c in covering:
                row([(cols[name, c, z], 1.0), (c, -1.0)], high=0.0)
        row([(hi + z, 1.0)] + [(cols["w+", c, z], s - errs[c][z]) for c in covering], high=s)
        row([(lo + z, 1.0)] + [(cols["w-", c, z], s - errs[c][z]) for c in covering], low=s)
    for c in range(k):
        for z in errs[c]:
            for d in range(k):
                if levels_of[d] > levels_of[c] and z in errs[d]:
                    row([(cols["u", c, z], 1.0), (d, -1.0)], low=0.0)
        row([(cols["u", c, z], 1.0) for z in errs[c]] + [(c, 1.0)], high=len(errs[c]))

    r, col, val = zip(*[(i, j, v) for i, terms in enumerate(rows) for j, v in terms])
    a = sparse.coo_array((val, (r, col)), shape=(len(rows), n)).tocsr()
    cost = np.zeros(n)
    cost[:k] = [cfg.penalty_eps * len(e) for e in errs]
    cost[hi : hi + n_zones], cost[lo : lo + n_zones] = -1.0, 1.0
    integral = np.zeros(n)
    integral[:k] = 1
    low, high = np.zeros(n), np.ones(n)
    low[hi : lo + n_zones], high[hi : lo + n_zones] = -np.inf, np.inf
    for (name, _, _), j in cols.items():
        integral[j] = name != "u"
    res = optimize.milp(cost, integrality=integral, bounds=optimize.Bounds(low, high),
                        constraints=optimize.LinearConstraint(a, lb, ub),
                        options={"mip_rel_gap": 0})
    assert res.status == 0, res.message
    return [ids[c] for c in range(k) if res.x[c] > 0.5], res


def _check(pool, levels, cfg):
    """The search against the MILP on one pool."""
    s, met = pick_summary(levels, cfg.max_thr)
    found = solve_details(pool, levels, s, cfg, met)
    summary_err = next(lv.zone_errs for lv in levels if lv.v == s)
    ids, levels_of, ok = _candidates(pool, levels, s, cfg)
    assert set(dict(found.details)) <= set(ids)
    if not ids:  # the empty set is the only one
        assert found.details == ()
        return
    assert _objective(pool, summary_err, [i for i, _ in found.details],
                      cfg.penalty_eps) == found.objective
    chosen, res = _solve_milp(pool, summary_err, ids, levels_of, ok, cfg)
    assert found.objective >= _objective(pool, summary_err, chosen, cfg.penalty_eps), chosen
    gap = res.mip_gap * abs(res.fun) + 1e-9
    assert -res.mip_dual_bound <= found.objective + gap, (chosen, found.details)


def test_search_is_optimal_on_every_deep_details_wave(tmp_path):
    """All 12 waves of the deep-details workload's held-out seed, as the
    benchmark writes them: level 5, verbosity 8, penalty_eps 1e-5."""
    plan = workloads.plan("deep-details", 7919, tmp_path)
    workloads.write_inputs(plan)
    cfg = SelectionConfig(v=8, penalty_eps=WAVE_EPS)
    waves = sorted(tmp_path.glob("inputs/wave-*.csv"))
    assert len(waves) == 12
    for path in waves:
        pool = build_pool(load_series(path, "csv", 5))
        _check(pool, solve_cover(pool, cfg.v), cfg)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), walk=st.booleans(), levels=st.integers(4, 5),
       v=st.integers(2, 8), min_thr=st.sampled_from([0.01, 0.02, 0.05]))
def test_search_matches_the_milp_bound(seed, walk, levels, v, min_thr):
    """Random walks and two-sine series at L4-L5 with v 2-8."""
    rng = np.random.default_rng(seed)
    if walk:
        values = workloads.random_walk(rng, n=256)
    else:
        shape = (rng.uniform(0.5, 3.0), rng.uniform(3.0, 8.0), rng.uniform(0.0, 6.3))
        values = workloads.two_sine(rng, shape, n=256)
    pool = build_pool(make_series(values, levels))
    cfg = SelectionConfig(max_thr=DEFAULT_MAX_THR, min_thr=min_thr, v=v, penalty_eps=WAVE_EPS)
    _check(pool, solve_cover(pool, v), cfg)
