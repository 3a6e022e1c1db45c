"""Independent reference computations that only the tests use.

mc_directed_weight samples the pickup/deposit process that weight_matrix
computes in closed form; scalar_weights is that closed form one room pair
and one HCP at a time, with Python floats, which weight_matrix computes a
whole HCP at a time; contact_infection_prob is the per-contact
infection rule that the outbreak kernel applies to whole days at once;
scalar_rewire is rewire's greedy walk one Visit at a time, with one
uniform per unpinned visit, which rewire walks from the log's columns;
assigned_names reads a rewiring's HCP-index column as the walk's names,
and rewired_log builds from it the rewired log as a VisitGraph, which
contact schedules and cost reports never build; cheapest_attachment_leaf
is the greedy descent that the exact search's first dive takes.
"""

from __future__ import annotations

import bisect

import numpy as np

from corn.clustering import BubbleClustering
from corn.errors import ConfigError
from corn.model import Visit, VisitGraph, chop_points
from corn.rewiring import RewiredGraph, check_coverage
from corn.weights import _event_sequence, _scope_hcps


def mc_directed_weight(
    g: VisitGraph, src: str, dst: str, z: float, samples: int, seed: int
) -> float:
    """Monte Carlo estimate of the directed weight (standard error <= 0.5/sqrt(n))."""
    if src == dst:
        raise ConfigError("src and dst must differ")
    events = _event_sequence(g, src, dst)
    if not events:
        return 0.0
    rng = np.random.default_rng(seed)
    hcps = sorted({h for _, h in events})
    hidx = {h: i for i, h in enumerate(hcps)}
    infected = np.zeros((samples, len(hcps)), dtype=bool)
    dst_infected = np.zeros(samples, dtype=bool)
    for side, h in events:
        coin = rng.random(samples) < z
        hi = hidx[h]
        if side == 0:
            infected[:, hi] |= coin
        else:
            pre_h = infected[:, hi].copy()
            pre_dst = dst_infected.copy()
            dst_infected |= pre_h & coin
            infected[:, hi] |= pre_dst & coin
    return float(dst_infected.mean())


def scalar_weights(
    g: VisitGraph, z: float, unit_s: int, hcp_scope: str = "all"
) -> dict[tuple[str, str], float]:
    """weight_matrix(g, z, unit_s, hcp_scope).w, one room pair and one HCP at a time.

    For each pair, each HCP that visits both rooms merges and sorts their
    fragments by (start, end, side), the first room being side 0, and adds
    one term per fragment; HCPs are multiplied in order of their first
    fragment at any location, then name.
    """
    scope = _scope_hcps(g, hcp_scope)
    idx: dict[str, dict[str, list[tuple[int, int]]]] = {}  # hcp -> location -> fragments
    for v in g.visits:
        if v.hcp in scope:
            cuts = chop_points(v.start_s, v.end_s, unit_s)
            idx.setdefault(v.hcp, {}).setdefault(v.location, []).extend(zip(cuts, cuts[1:]))
    locmaps = [idx[h] for h in sorted(idx, key=lambda h: (min(map(min, idx[h].values())), h))]
    out: dict[tuple[str, str], float] = {}
    order = sorted(g.locations.substitutable)
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            miss_ab = 1.0
            miss_ba = 1.0
            for locmap in locmaps:
                if a not in locmap or b not in locmap:
                    continue
                seq = sorted([(s, e, 0) for s, e in locmap[a]] + [(s, e, 1) for s, e in locmap[b]])
                total = [len(locmap[a]), len(locmap[b])]
                seen = [0, 0]
                pr = [0.0, 0.0]
                for _, _, side in seq:
                    other = 1 - side
                    suf = total[other] - seen[other]
                    pr[side] += (1.0 - z) ** seen[side] * z * (1.0 - (1.0 - z) ** suf)
                    seen[side] += 1
                miss_ab *= 1.0 - pr[0]
                miss_ba *= 1.0 - pr[1]
            out[(a, b)] = ((1.0 - miss_ab) + (1.0 - miss_ba)) / 2.0
    return out


def contact_infection_prob(d_minutes: float, beta: float, rho: float) -> float:
    if d_minutes < 0:
        raise ConfigError("contact duration must be >= 0")
    return min(1.0, rho * d_minutes * beta)


def scalar_rewire(
    g: VisitGraph,
    clustering: BubbleClustering,
    seed: int,
    keep_same_bubble_hcp: bool = False,
) -> tuple[str | None, ...]:
    """The assigned HCP of each visit of g, walking the visits in graph order.

    Pinned visits keep their HCP. Each other visit goes to a free member of
    its HCP's group in its room's bubble, members in name order: the i-th
    unpinned visit takes free[int(u_i * len(free))], where u is one
    rng.random call for all unpinned visits, so it draws u_i also when
    free has one member or none; with none free it is dropped (None).
    HCP p is free when its latest unpinned claim ends at or before the visit
    starts and the last of its pinned intervals that starts before the visit
    ends also ends by then.
    """
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

    u = iter(rng.random(assigned.count(None)).tolist())
    for i, v in enumerate(g.visits):
        if assigned[i] is not None:
            continue
        u_i = next(u)
        group = g.hcps.types[v.hcp]
        free = [p for p in members[(group, location_bubble[v.location])]
                if is_free(p, v.start_s, v.end_s)]
        if not free:
            continue
        pick = free[int(u_i * len(free))]
        assigned[i] = pick
        last_end[pick] = v.end_s

    return tuple(assigned)


def assigned_names(rw: RewiredGraph) -> tuple[str | None, ...]:
    """rw.assigned as HCP names per source visit, None where the visit was dropped."""
    ids = rw.hcps.ids
    return tuple(ids[i] if i >= 0 else None for i in rw.assigned.tolist())


def rewired_log(rw: RewiredGraph) -> VisitGraph:
    """The rewired log: each kept visit under its new HCP, in VisitGraph.build order."""
    src, ids = rw.source, rw.hcps.ids
    return VisitGraph.build(src.hcps, src.locations, [
        Visit(v.start_s, v.end_s, ids[h], v.location)
        for v, h in zip(src.visits, rw.assigned.tolist()) if h >= 0])


def cheapest_attachment_leaf(
    W: np.ndarray, far: np.ndarray, k: int, flr: int, cap: int
) -> list[list[int]] | None:
    """Each bubble's locations, in placement order, after the greedy
    cheapest-attachment descent; None where it finds no leaf.

    Locations are placed in index order. Location u's cost in bubble b is
    its weight from the earlier locations minus its weight from b's members,
    each a float sum in placement order. The candidates are the open bubbles
    that are not full, keyed (cost, size, b), and the first empty bubble,
    keyed (cost, 0, b), which wins a tie with an open bubble u has no weight
    into. u goes to the first candidate in key order that holds no location
    too far from u and leaves enough locations to fill every bubble to flr;
    with no such candidate the descent finds no leaf.
    """
    W, far = np.asarray(W, dtype=float).tolist(), np.asarray(far, dtype=bool).tolist()
    n = len(W)
    members: list[list[int]] = [[] for _ in range(k)]
    for u in range(n):
        t = 0.0
        for v in range(u):
            t += W[v][u]
        cands = []
        for b in range(k):
            if len(members[b]) >= cap:
                continue
            if not members[b]:
                cands.append((t, 0, b))
                break
            s = 0.0
            for m in members[b]:
                s += W[m][u]
            cands.append((t - s, len(members[b]), b))
        for _, _, b in sorted(cands):
            if any(far[u][m] for m in members[b]):
                continue
            short = sum(max(0, flr - len(m) - (c == b)) for c, m in enumerate(members))
            if short <= n - u - 1:
                members[b].append(u)
                break
        else:
            return None
    return members
