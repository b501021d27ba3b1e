"""First optimization: tile the zone axis with descriptors.

For each verbosity v the solver picks exactly v non-overlapping
descriptors whose ranges cover all zones, each spanning at least
ceil(n / 2**v) zones, minimizing the summed per-zone error.  The
search is an exact dynamic program over cut positions, so the result
is provably optimal.  With ``cost[m, k]`` the cheapest descriptor over
zones m..k-1 (inf where there is none or the span is too short), the
least cost of every prefix [0, k) in p segments is the column minimum
of ``best[:, None] + cost``, ``best`` being that of p - 1 segments.
Tie-breaks are fixed, so the output does not depend on pool order:
the cheapest segment goes first by kind order, then id; each prefix
keeps the earliest start of its last segment, and the tiling is read
back from the last zone.  So among equal-cost partitions the last cut
is the earliest, then the one before it, and so on, which is not
always the lexicographically first partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolveError
from .fitting import DescriptorPool

_INF = float("inf")


@dataclass(frozen=True)
class VerbosityLevel:
    """Optimal tiling of the zone axis by exactly ``v`` descriptors.

    ``zone_errs`` holds each zone's error under the tiling, computed
    once by ``solve_cover``; the summary choice, the detail search and
    the heatmap all read it.  An infeasible level chooses none and has none.
    """

    v: int
    chosen: tuple[int, ...]  # descriptor ids ordered by zone_start
    cost: float
    zone_errs: tuple[float, ...]  # per-zone error of the covering fit

    def __post_init__(self):
        if self.chosen and len(self.chosen) != self.v:
            raise ValueError(f"level v={self.v} holds {len(self.chosen)} descriptors")

    @property
    def feasible(self) -> bool:
        """Whether some tiling exists, so the level chose descriptors."""
        return bool(self.chosen)

    @property
    def max_zone_err(self) -> float:
        """Largest per-zone error among the chosen fits."""
        return max(self.zone_errs, default=_INF)


def min_segment_zones(n_zones: int, v: int) -> int:
    """Minimum zone span of a segment at verbosity v."""
    return math.ceil(n_zones / 2 ** v)


def segment_table(pool: DescriptorPool) -> tuple[np.ndarray, np.ndarray]:
    """Cheapest descriptor per zone range, its ``total`` the cost:
    ``cost[m, k]`` and ``ids[m, k]`` over zones m..k-1, inf and -1 where
    there is none.  Ties go to the smaller kind (line < bilinear < tooth <
    sinusoid), then the smaller id: a stable lexsort on (range, total,
    kind) puts each range's pick first, whatever the pool's row order."""
    n = pool.n_zones
    cell = pool.zone_start * (n + 1) + pool.zone_end + 1  # in a raveled (n + 1, n + 1) table
    order = np.lexsort((pool.kind, pool.total, cell))
    pick = order[np.unique(cell[order], return_index=True)[1]]
    cost, ids = np.full((n + 1) ** 2, _INF), np.full((n + 1) ** 2, -1)
    cost[cell[pick]], ids[cell[pick]] = pool.total[pick], pick
    return cost.reshape(n + 1, n + 1), ids.reshape(n + 1, n + 1)


def solve_cover(pool: DescriptorPool, v_max: int) -> list[VerbosityLevel]:
    """Optimal tilings for every verbosity 1..v_max.

    A verbosity whose segment count or minimum length cannot be met by
    any partition is returned with an empty choice, so not ``feasible``,
    and later stages skip it.
    """
    if v_max < 1:
        raise SolveError(f"verbosity bound must be >= 1, got {v_max}")
    n = pool.n_zones
    cost, ids = segment_table(pool)
    span = np.arange(n + 1) - np.arange(n + 1)[:, None]

    levels = []
    for v in range(1, v_max + 1):
        seg_cost = np.where(span >= min_segment_zones(n, v), cost, _INF)
        # best[k]: least cost of zones [0, k) in p segments; cuts[p - 1][k]:
        # the first start of the last segment that reaches it
        best = np.full(n + 1, _INF)
        best[0] = 0.0
        cuts = []
        for _ in range(v):
            total = best[:, None] + seg_cost
            cuts.append(total.argmin(axis=0))
            best = total.min(axis=0)

        if best[n] == _INF:
            levels.append(VerbosityLevel(v=v, chosen=(), cost=_INF, zone_errs=()))
            continue
        chosen, k = [], n
        for cut in reversed(cuts):
            chosen.insert(0, int(ids[cut[k], k]))
            k = cut[k]
        levels.append(VerbosityLevel(v=v, chosen=tuple(chosen), cost=float(best[n]),
                                     zone_errs=tuple(pool.zone_errs(chosen))))
    return levels

