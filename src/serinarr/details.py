"""Second optimization: pick the detail descriptors worth narrating.

Given the per-verbosity tilings, the summary is the smallest verbosity
whose worst per-zone error stays under ``max_thr``.  Detail candidates
are every descriptor appearing in any tiling up to the verbosity
bound, minus the summary's own descriptors.  A feasible detail set

* improves on every coarser selected descriptor it overlaps by more
  than ``min_thr`` on at least one shared zone (pairs with disjoint
  ranges are always fine), and
* contains no descriptor whose range is fully covered by selected
  details from strictly higher verbosity levels.

Among feasible sets of at most ``v`` details the solver maximizes the
summed per-zone spread between the worst and best selected error,
minus a tiny penalty per covered zone that discourages redundant
overlap.  A depth-first branch-and-bound search (Land & Doig 1960)
keeps the choice exact.  The pair rule has one owner, ``coexist``: an
(m, m) matrix, read from the pool's columns, of which candidates and
summary descriptors may be selected together.  A candidate whose row
rejects a summary descriptor never enters a set.  Each other candidate
fact is computed once, before the search: its zones as an int bitmask,
and its row of the matrix as a bitmask of the candidates it may
coexist with.  A search node extends its parent's per-zone least and
greatest error, covered-zone mask and summed width by one descriptor.
A new set must pass one AND and the redundancy test: each chosen
member carries its residue, its zones minus those of members from
strictly higher levels, and a set with an empty residue is redundant.
It is neither scored nor extended, as all its supersets are redundant too.

The bound reads suffix tables: for each candidate index t, every
zone's greatest and least error among candidates t and later.  Before
a node adds candidate t, it sums, zone by zone from left to right,
``max(hi, suffix max) - min(lo, suffix min)`` and subtracts the
penalty of one more zone.  No set that adds only candidates t.. can
score more: ``max`` and ``min`` are exact, and IEEE ``+``, ``-`` and
``*`` round monotonically, so the float bound is never below such a
set's float objective, for any ``penalty_eps > 0`` and with no slack
constant.  When the bound is strictly below the best objective so
far, the node stops extending.  Ties are never pruned, so the
``(-objective, size, ids)`` tie-break picks the set an exhaustive
search would.

The selection's ``global_rmse`` is the mean of ``pool.zone_errs`` over
the summary and the chosen details: each zone's least selected error,
summed from left to right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cover import VerbosityLevel
from .errors import SolveError
from .fitting import DescriptorPool

DEFAULT_MAX_THR = 0.15
DEFAULT_MIN_THR = 0.02
DEFAULT_PENALTY_EPS = 1e-4


@dataclass(frozen=True)
class SelectionConfig:
    max_thr: float = DEFAULT_MAX_THR
    min_thr: float = DEFAULT_MIN_THR
    v: int = 5
    penalty_eps: float = DEFAULT_PENALTY_EPS

    def __post_init__(self):
        if not (self.max_thr > self.min_thr > 0):
            raise ValueError(
                f"need max_thr > min_thr > 0, got {self.max_thr}, {self.min_thr}"
            )
        if not self.penalty_eps > 0:
            raise ValueError(f"penalty_eps must be > 0, got {self.penalty_eps}")
        if self.v < 1:
            raise ValueError(f"verbosity bound must be >= 1, got {self.v}")

    def check_penalty(self, n_zones: int) -> None:
        """The overlap penalty must stay below the improvement threshold."""
        bound = self.penalty_eps * self.v * n_zones
        if bound >= self.min_thr:
            raise ValueError(
                f"penalty_eps * v * n_zones = {bound:g} must stay under "
                f"min_thr = {self.min_thr:g}; lower penalty_eps"
            )


def _typed(value, *types):
    """``value``, unless its type is none of ``types``: then ``ValueError``."""
    if type(value) not in types:
        raise ValueError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


@dataclass(frozen=True)
class SelectionResult:
    s: int  # summary verbosity level
    summary: tuple[int, ...]  # descriptor ids of the summary tiling
    details: tuple[tuple[int, int], ...]  # (descriptor id, source level)
    objective: float
    per_zone_gain: dict[int, float] = field(repr=False)
    global_rmse: float = 0.0
    threshold_met: bool = True
    # Search work: sets scored, and sets whose extensions the bound cut
    # off.  Not part of the saved selection.
    nodes_expanded: int = field(default=0, compare=False, repr=False)
    nodes_pruned: int = field(default=0, compare=False, repr=False)

    def as_dict(self) -> dict:
        return {
            "summary_level": self.s,
            "summary_ids": list(self.summary),
            "details": [{"id": i, "level": lv} for i, lv in self.details],
            "objective": self.objective,
            "per_zone_gain": {str(z): g for z, g in sorted(self.per_zone_gain.items())},
            "global_rmse": self.global_rmse,
            "threshold_met": self.threshold_met,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> SelectionResult:
        """Inverse of ``as_dict``.  A value of another json type than
        ``as_dict`` writes raises ``ValueError``; ``bool`` is no number."""
        return cls(
            s=_typed(doc["summary_level"], int),
            summary=tuple(_typed(i, int) for i in _typed(doc["summary_ids"], list)),
            details=tuple((_typed(d["id"], int), _typed(d["level"], int))
                          for d in _typed(doc["details"], list)),
            objective=_typed(doc["objective"], int, float),
            per_zone_gain={int(z): _typed(g, int, float)
                           for z, g in _typed(doc["per_zone_gain"], dict).items()},
            global_rmse=_typed(doc["global_rmse"], int, float),
            threshold_met=_typed(doc["threshold_met"], bool),
        )

    @property
    def selected_ids(self) -> list[int]:
        """Summary ids followed by detail ids."""
        return list(self.summary) + [i for i, _ in self.details]


def pick_summary(levels: list[VerbosityLevel], max_thr: float) -> tuple[int, bool]:
    """Smallest verbosity whose worst zone error is under max_thr.

    When no level passes, fall back to the level with the smallest
    worst-zone error and flag the miss so narration can hedge.
    """
    feasible = [lv for lv in levels if lv.feasible]
    if not feasible:
        raise SolveError("no feasible verbosity level to summarize")
    for lv in feasible:
        if lv.max_zone_err < max_thr:
            return lv.v, True
    best = min(feasible, key=lambda lv: lv.max_zone_err)
    return best.v, False


def coexist(pool: DescriptorPool, rows, levels, min_thr: float):
    """Which pairs of the pool's ``rows``, taken at verbosity ``levels``,
    may be selected together: an (m, m) bool matrix, and the rows' (m,
    n_zones) zone errors, NaN outside each range.

    Two rows may coexist when they share a level (one tiling holds
    both), when their ranges are disjoint, or when the finer one beats
    the coarser one by strictly more than ``min_thr`` on a zone both
    cover.  The matrix is symmetric.
    """
    rows, levels = np.asarray(rows, int), np.asarray(levels)
    z = np.arange(pool.n_zones)
    inside = (pool.zone_start[rows, None] <= z) & (z <= pool.zone_end[rows, None])
    errs = np.where(inside, pool.errs[rows], np.nan)
    # beats[a, b]: a's error exceeds b's by more than min_thr on a shared
    # zone; NaN, outside either range, compares False.
    beats = (errs[:, None] - errs[None] > min_thr).any(axis=2)
    shared = (inside[:, None] & inside[None]).any(axis=2)
    coarser = levels[:, None] < levels[None]
    ok = (levels[:, None] == levels[None]) | ~shared | np.where(coarser, beats, beats.T)
    return ok, errs


def solve_details(
    pool: DescriptorPool,
    levels: list[VerbosityLevel],
    s: int,
    cfg: SelectionConfig,
    threshold_met: bool = True,
) -> SelectionResult:
    """Exact search for the best admissible detail set."""
    cfg.check_penalty(pool.n_zones)
    by_v = {lv.v: lv for lv in levels if lv.feasible}
    if s not in by_v:
        raise SolveError(f"summary level {s} is not a feasible verbosity")
    summary_ids = by_v[s].chosen

    # Candidates: every tiling member up to the bound, minus the summary.
    # A descriptor appearing at several levels keeps its lowest level:
    # levels run downward, so the lowest one is written last.
    source_level = {
        id_: v
        for v in sorted(by_v, reverse=True) if v <= cfg.v
        for id_ in by_v[v].chosen if id_ not in summary_ids
    }
    # In id order, then the summary; a candidate that cannot coexist with
    # the summary never enters a set.
    ids = sorted(source_level)
    ok, errs = coexist(pool, ids + list(summary_ids),
                       [source_level[i] for i in ids] + [s] * len(summary_ids), cfg.min_thr)
    keep = np.flatnonzero(ok[: len(ids), len(ids) :].all(axis=1))
    ok, errs = ok[np.ix_(keep, keep)], errs[keep]
    cand_ids = [ids[i] for i in keep.tolist()]
    levels_of = [source_level[i] for i in cand_ids]

    # Each candidate fact is computed once: its first zone and zone errors,
    # its zones as a bitmask, and a bitmask of the candidates it may coexist with.
    first = pool.zone_start[cand_ids].tolist()
    zone_errs = [pool.errs[i, f : j + 1].tolist()
                 for i, f, j in zip(cand_ids, first, pool.zone_end[cand_ids].tolist())]
    zones = [((1 << len(e)) - 1) << f for f, e in zip(first, zone_errs)]
    compat = [sum(1 << m for m in np.flatnonzero(row).tolist()) for row in ok]

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

    # Suffix tables for the bound: suf_hi[t][z] and suf_lo[t][z] are the
    # greatest and least error on zone z of candidates t.. (-inf and inf
    # where none of them covers z): fmax and fmin skip the NaN outside
    # each range.
    all_zones = range(pool.n_zones)
    pad = np.full((1, pool.n_zones), np.inf)
    suf_hi = np.fmax.accumulate(np.vstack([errs, -pad])[::-1])[::-1].tolist()
    suf_lo = np.fmin.accumulate(np.vstack([errs, pad])[::-1])[::-1].tolist()

    best: tuple | None = None  # (tie-break key, per-zone gains)
    expanded = pruned = 0

    def search(chosen: tuple[int, ...], resid: tuple[int, ...], bits: int,
               lo: list[float], hi: list[float], covered: int, count: int):
        """``bits`` has bit k set for each chosen candidate index k;
        ``resid`` holds the chosen members' residues, as ``grow`` keeps them."""
        nonlocal best, expanded, pruned
        expanded += 1
        # Zones ascending, left to right, as the gains are reported; an
        # uncovered zone has hi == lo and adds an exact 0.0.
        total = 0.0
        for h, l in zip(hi, lo):
            total += h - l
        obj = total - cfg.penalty_eps * count
        # Candidates are in id order and indices ascend, so the ids do too.
        key = (-obj, len(chosen), chosen)
        if best is None or key < best[0]:
            gains = {z: hi[z] - lo[z] for z in all_zones if covered >> z & 1}
            best = key, gains
        if len(chosen) >= cfg.v:
            return
        # Child idx, later children and their descendants add candidates
        # idx.. only, to a summed width of at least count + 1: ub - pen
        # bounds their float objectives (module docstring).  Strictly
        # below the best, none of them can win or tie.
        pen = cfg.penalty_eps * (count + 1)
        for idx in range(chosen[-1] + 1 if chosen else 0, len(cand_ids)):
            if compat[idx] & bits != bits:
                continue
            resid2 = grow(chosen, resid, idx)
            if resid2 is None:
                continue
            ub = 0.0
            for h, l, sh, sl in zip(hi, lo, suf_hi[idx], suf_lo[idx]):
                ub += (h if h > sh else sh) - (l if l < sl else sl)
            if ub - pen < -best[0][0]:
                pruned += 1
                return
            lo2, hi2 = lo[:], hi[:]
            for z, e in enumerate(zone_errs[idx], first[idx]):
                if e < lo2[z]:
                    lo2[z] = e
                if e > hi2[z]:
                    hi2[z] = e
            search(chosen + (idx,), resid2, bits | 1 << idx, lo2, hi2,
                   covered | zones[idx], count + len(zone_errs[idx]))

    summary_err = list(by_v[s].zone_errs)
    search((), (), 0, summary_err, summary_err, 0, 0)
    (neg_obj, _, chosen), gains = best
    details = tuple((cand_ids[k], levels_of[k]) for k in chosen)
    # Left-to-right float sum of each zone's least selected error: fsum,
    # numpy and Python 3.12's compensated sum() round differently and
    # would change selection.json.
    total = 0.0
    for e in pool.zone_errs(list(summary_ids) + [i for i, _ in details]):
        total += e
    return SelectionResult(
        s=s,
        summary=tuple(summary_ids),
        details=details,
        objective=-neg_obj,
        per_zone_gain=gains,
        global_rmse=total / pool.n_zones,
        threshold_met=threshold_met,
        nodes_expanded=expanded,
        nodes_pruned=pruned,
    )
