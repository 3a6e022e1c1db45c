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

The pinned check depends on no earlier pick, so rewire makes it for all
unpinned visits at once from g.columns: per substitutable HCP, one
searchsorted of the visits' ends into its pinned starts. That gives a
boolean candidate x visit table, true where the HCP is of the visit's
HCP's group and its room's bubble and its pinned intervals leave the
visit free. The walk over the unpinned visits in graph order then checks
only each candidate's latest claim, candidates in name order.

Draws: before the walk, rng.random(len(vis)) gives each unpinned visit
one uniform u, used also when it has one free candidate or none. Of n
free candidates it takes the int(u * n)-th, which is below n as u <=
1 - 2**-53; each candidate's chance is off 1/n by at most n/2**53.

A rewiring is its source log plus assigned, the int64 column that the
walk fills: per source visit, its new HCP's index into hcps.ids, or -1
where it was dropped. Contact schedules and cost reports both read the
source log's columns with assigned, and a rewiring spans its source's
days; none of them builds the rewired log or turns the column into HCP
names.
"""

from __future__ import annotations

import math
from itertools import combinations
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import BubbleClustering, canonicalize
from .errors import ClusteringMismatchError
from .model import HcpRoster, LocationRoster, VisitGraph
from .optimizer.model import check_k
from .spatial import DistanceMatrix


@dataclass(frozen=True, eq=False)
class RewiredGraph:
    """A rewiring of source: the HCP each source visit goes to, if any.

    Rewiring keeps every visit's interval and location, so the source log's
    columns and assigned describe the rewired log, over the source's days.
    Like a VisitGraph it gives hcps, locations and day_count.
    """

    source: VisitGraph
    clustering: BubbleClustering
    assigned: np.ndarray  # int64 per source visit: index into hcps.ids, -1 where dropped

    @property
    def hcps(self) -> HcpRoster:
        return self.source.hcps

    @property
    def locations(self) -> LocationRoster:
        return self.source.locations

    @property
    def dropped_count(self) -> int:
        return int(np.count_nonzero(self.assigned < 0))

    @property
    def day_count(self) -> int:
        return self.source.day_count


def check_coverage(g: VisitGraph | RewiredGraph, c: BubbleClustering) -> None:
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
    hcp_ids, loc_ids = g.hcps.ids, g.locations.ids
    start, end, hcp, loc = g.columns
    ns_hcps, ns_locs = set(g.hcps.non_substitutable), set(g.locations.non_substitutable)
    pinned = (np.array([h in ns_hcps for h in hcp_ids], dtype=bool)[hcp]
              | np.array([l in ns_locs for l in loc_ids], dtype=bool)[loc])
    # the non-substitutable side gets bubble 0 and group 0: its visits are pinned anyway
    hcp_b = np.array([clustering.hcp_bubble.get(h, 0) for h in hcp_ids], dtype=np.int64)
    loc_b = np.array([clustering.location_bubble.get(l, 0) for l in loc_ids], dtype=np.int64)
    if keep_same_bubble_hcp:
        pinned |= hcp_b[hcp] == loc_b[loc]
    group = {lab: i for i, lab in enumerate(g.hcps.group_labels)}
    hcp_g = np.array([group.get(t, 0) for t in g.hcps.types.values()], dtype=np.int64)

    # candidates: each unpinned visit's substitutable HCPs in name order, of its own
    # HCP's group and its room's bubble, whose pinned intervals leave it free
    vis = (~pinned).nonzero()[0]
    v_start, v_end = start[vis], end[vis]
    cand = sorted((i for i, h in enumerate(hcp_ids) if h not in ns_hcps), key=hcp_ids.__getitem__)
    k1 = clustering.k + 1
    free = ((hcp_g[cand] * k1 + hcp_b[cand])[:, None]
            == (hcp_g[hcp[vis]] * k1 + loc_b[loc[vis]])[None, :])  # candidate x visit
    pv = pinned.nonzero()[0]
    pv = pv[np.argsort(hcp[pv], kind="stable")]  # by HCP, each HCP's in start order
    first = np.searchsorted(hcp[pv], np.arange(len(hcp_ids) + 1)).tolist()  # p's from first[p]
    pin_start, pin_end = start[pv], np.concatenate(([0], end[pv]))  # pin_end[i + 1] ends pv[i]
    for j, p in enumerate(cand):
        # at: p's pinned intervals that start before the visit ends; the last must end by its start
        at = np.searchsorted(pin_start[first[p]:first[p + 1]], v_end)
        free[j] &= (at == 0) | (pin_end[first[p] + at] <= v_start)
    pairs = np.flatnonzero(free.T)  # visit-major, candidates in name order

    # the walk: a candidate is free once its latest unpinned claim ends by the start
    bounds = np.searchsorted(pairs, np.arange(len(vis) + 1) * len(cand)).tolist()
    col = (pairs % len(cand)).tolist()
    u = np.random.default_rng(seed).random(len(vis))
    last_end = [-math.inf] * len(cand)  # end of each candidate's latest unpinned claim
    picks = [-1] * len(vis)
    for i, (s, e, lo, hi) in enumerate(zip(v_start.tolist(), v_end.tolist(), bounds, bounds[1:])):
        ok = [c for c in col[lo:hi] if last_end[c] <= s]
        if ok:
            c = ok[int(u[i] * len(ok))]
            picks[i] = cand[c]
            last_end[c] = e

    assigned = np.where(pinned, hcp, -1)
    assigned[vis] = picks
    assigned.flags.writeable = False
    return RewiredGraph(source=g, clustering=clustering, assigned=assigned)


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
    """Costs of the rewired log against rw.source, per day of the source log.

    Read from the source log's columns and rw.assigned. Exact because
    rewiring keeps each visit's interval and location and each HCP's visits
    are disjoint in both logs: the source log's chronological order walks
    every HCP's base and rewired visits in time order, and footsteps are
    the distances between consecutive locations. np.bincount adds each bin
    in input order, so every sum is added in source order, as a loop over
    the visits would add it.
    """
    src, c, days = rw.source, rw.clustering, rw.source.day_count
    start, end, base_hcp, loc = src.columns
    kept = rw.assigned >= 0
    new_hcp, new_loc = rw.assigned[kept], loc[kept]
    secs = end - start
    hcps, locs = src.hcps.ids, src.locations.ids
    nh = len(hcps)
    hcp_b, hcp_r = np.bincount(base_hcp, secs, nh), np.bincount(new_hcp, secs[kept], nh)
    loc_b = np.bincount(loc, secs, len(locs))
    loc_r = np.bincount(new_loc, secs[kept], len(locs))

    def metres(hcp: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Per HCP, the distances between its consecutive locations, summed in source order."""
        order = np.argsort(hcp, kind="stable")
        hcp, at = hcp[order], at[order]
        step = (hcp[1:] == hcp[:-1]).nonzero()[0]
        moves = at[step] * len(locs) + at[step + 1]
        pairs, which = np.unique(moves, return_inverse=True)
        d = np.array([dist.get(locs[m // len(locs)], locs[m % len(locs)]) for m in pairs.tolist()])
        return np.bincount(hcp[step + 1], d[which.reshape(-1)], nh)

    to_h = 1.0 / (3600.0 * days)
    fs_b, fs_r = metres(base_hcp, loc) / days, metres(new_hcp, new_loc) / days
    return CostReport(
        excess_load=dict(zip(hcps, np.maximum(0.0, hcp_r * to_h - hcp_b * to_h).tolist())),
        unmet_demand=dict(zip(locs, np.maximum(0.0, loc_b * to_h - loc_r * to_h).tolist())),
        footsteps=dict(zip(hcps, fs_r.tolist())),
        excess_footsteps=dict(zip(hcps, np.maximum(0.0, fs_r - fs_b).tolist())),
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
