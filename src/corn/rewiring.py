"""Rewiring a visit log to respect a bubble clustering, plus its cost report.

Visits by non-substitutable HCPs and visits to non-substitutable locations
are pinned first: they keep their original HCP no matter what, so their
time intervals are claimed before any reassignment happens. Remaining
visits are processed in chronological order; each is handed to a uniformly
random same-group HCP of the room's bubble whose schedule so far leaves
the interval free. A visit with no free candidate is dropped and later
surfaces as unmet demand.

Conflict rule: HCP p is free for visit v when p's latest unpinned claim
ends at or before v starts, and the last of p's pinned intervals that
starts before v ends also ends at or before v starts. Two preconditions
make these two checks exact. The graph's visits are in chronological
order, as VisitGraph.build sorts them, so unpinned claims arrive in start
order. And each HCP's own visits are disjoint, as validate() enforces, so
p's pinned intervals, taken in graph order, are sorted and disjoint.
"""

from __future__ import annotations

import bisect
from itertools import combinations
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import BubbleClustering, canonicalize
from .errors import ClusteringMismatchError
from .model import HcpRoster, Visit, VisitGraph
from .optimizer.model import check_k
from .spatial import DistanceMatrix


@dataclass(frozen=True)
class RewiredGraph:
    source: VisitGraph
    graph: VisitGraph
    clustering: BubbleClustering
    assigned: tuple[str | None, ...]  # per source visit; None means dropped

    @property
    def dropped_count(self) -> int:
        return sum(1 for h in self.assigned if h is None)


def check_coverage(g: VisitGraph, c: BubbleClustering) -> None:
    """ClusteringMismatchError unless c places exactly the substitutable rooms and HCPs of g."""
    want_locs = set(g.locations.substitutable)
    if set(c.location_bubble) != want_locs:
        raise ClusteringMismatchError(
            "clustering covers different locations than the graph's substitutable set")
    want_hcps = set(g.hcps.substitutable)
    if set(c.hcp_bubble) != want_hcps:
        raise ClusteringMismatchError(
            "clustering covers different HCPs than the graph's substitutable set")


def rewire(
    g: VisitGraph,
    clustering: BubbleClustering,
    seed: int,
    keep_same_bubble_hcp: bool = False,
) -> RewiredGraph:
    check_coverage(g, clustering)
    rng = np.random.default_rng(seed)
    ns_hcps = set(g.hcps.non_substitutable)
    ns_locs = set(g.locations.non_substitutable)
    hcp_bubble, location_bubble = clustering.hcp_bubble, clustering.location_bubble
    assigned: list[str | None] = [None] * len(g.visits)
    fixed: dict[str, list[tuple[int, int]]] = {}  # pinned intervals per HCP, in start order
    for i, v in enumerate(g.visits):
        if (v.hcp in ns_hcps or v.location in ns_locs or keep_same_bubble_hcp
                and hcp_bubble[v.hcp] == location_bubble[v.location]):
            assigned[i] = v.hcp
            fixed.setdefault(v.hcp, []).append((v.start_s, v.end_s))

    members = {(lab, b): tuple(sorted(p for p in g.hcps.members(lab) if hcp_bubble[p] == b))
               for lab in g.hcps.group_labels for b in range(1, clustering.k + 1)}

    last_end: dict[str, int] = {}  # end of each HCP's latest unpinned claim

    def is_free(p: str, start: int, end: int) -> bool:
        if last_end.get(p, start) > start:
            return False
        iv = fixed.get(p, ())
        j = bisect.bisect_left(iv, (end,))
        return j == 0 or iv[j - 1][1] <= start

    for i, v in enumerate(g.visits):
        if assigned[i] is not None:
            continue
        group = g.hcps.types[v.hcp]
        free = [p for p in members[(group, location_bubble[v.location])]
                if is_free(p, v.start_s, v.end_s)]
        if not free:
            continue
        pick = free[int(rng.integers(len(free)))]
        assigned[i] = pick
        last_end[pick] = v.end_s

    kept = [
        Visit(v.start_s, v.end_s, h, v.location)
        for v, h in zip(g.visits, assigned)
        if h is not None
    ]
    return RewiredGraph(
        source=g,
        graph=VisitGraph.build(g.hcps, g.locations, kept),
        clustering=clustering,
        assigned=tuple(assigned),
    )


def random_clustering(
    hcps: HcpRoster,
    locations: tuple[str, ...],
    k: int,
    seed: int,
) -> BubbleClustering:
    """Uniform balanced baseline clustering (sizes differ by at most one)."""
    check_k(k, len(locations), [(lab, len(hcps.members(lab))) for lab in hcps.group_labels])
    rng = np.random.default_rng(seed)

    def deal(items: tuple[str, ...]) -> dict[str, int]:
        pool = list(items)
        rng.shuffle(pool)
        flr, extra = len(pool) // k, len(pool) % k
        out: dict[str, int] = {}
        pos = 0
        for b in range(1, k + 1):
            take = flr + (1 if b <= extra else 0)
            for item in pool[pos:pos + take]:
                out[item] = b
            pos += take
        return out

    c = BubbleClustering(
        k=k,
        location_bubble=deal(tuple(sorted(locations))),
        hcp_bubble={
            p: b
            for lab in hcps.group_labels
            for p, b in deal(tuple(sorted(hcps.members(lab)))).items()
        },
    )
    return canonicalize(c)


@dataclass(frozen=True)
class CostReport:
    """Rewiring costs, all normalized over the source log's day span."""

    excess_load: dict[str, float]
    unmet_demand: dict[str, float]
    footsteps: dict[str, float]
    excess_footsteps: dict[str, float]
    bubble_diameters: dict[int, float]


def compute_costs(rw: RewiredGraph, dist: DistanceMatrix) -> CostReport:
    """Costs of rw.graph against rw.source, per day of the source log.

    One pass over rw.source and rw.assigned. Exact because rewiring keeps
    each visit's interval and location and each HCP's visits are disjoint
    in both logs: the source log's chronological order walks every HCP's
    base and rewired visits in time order, and footsteps are the distances
    between consecutive locations.
    """
    src, c, days = rw.source, rw.clustering, rw.source.day_count
    # per log: seconds per HCP, seconds per location, metres per HCP, last location per HCP
    base, new = ((dict.fromkeys(src.hcps.ids, 0), dict.fromkeys(src.locations.ids, 0),
                  dict.fromkeys(src.hcps.ids, 0.0), {}) for _ in range(2))
    for v, h in zip(src.visits, rw.assigned):
        loc, s = v.location, v.duration_s
        for p, (hcp_s, loc_s, metres, last) in ((v.hcp, base), (h, new)):
            if p is not None:
                hcp_s[p] += s
                loc_s[loc] += s
                if p in last:
                    metres[p] += dist.get(last[p], loc)
                last[p] = loc
    (hcp_b, loc_b, m_b, _), (hcp_r, loc_r, m_r, _) = base, new
    to_h = 1.0 / (3600.0 * days)
    fs_r = {p: m / days for p, m in m_r.items()}
    return CostReport(
        excess_load={p: max(0.0, hcp_r[p] * to_h - hcp_b[p] * to_h) for p in src.hcps.ids},
        unmet_demand={l: max(0.0, loc_b[l] * to_h - loc_r[l] * to_h) for l in src.locations.ids},
        footsteps=fs_r,
        excess_footsteps={p: max(0.0, fs_r[p] - m_b[p] / days) for p in src.hcps.ids},
        bubble_diameters={
            b: max([0.0, *(dist.get(x, y) for x, y in combinations(c.locations_in(b), 2))])
            for b in range(1, c.k + 1)},
    )


def write_cost_csv(report: CostReport, hcp_path: str | Path, loc_path: str | Path) -> None:
    with open(hcp_path, "w") as f:
        f.write("hcp_id,excess_load_h_per_day,footsteps_m_per_day,excess_footsteps_m_per_day\n")
        for h in sorted(report.excess_load):
            f.write(f"{h},{report.excess_load[h]!r},{report.footsteps.get(h, 0.0)!r},"
                    f"{report.excess_footsteps[h]!r}\n")
    with open(loc_path, "w") as f:
        f.write("location_id,unmet_demand_h_per_day\n")
        for l in sorted(report.unmet_demand):
            f.write(f"{l},{report.unmet_demand[l]!r}\n")
