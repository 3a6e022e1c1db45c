"""Exhaustive reference solver, deliberately independent of the search code.

Enumerates every balanced unordered partition of the substitutable
locations, filters by the diameter cap, then enumerates HCP-group
assignments outright. It shares the rule predicates of the model
(`balanced`, `ClusterInstance.too_far`, `ClusterInstance.load_need`) and
the objective evaluator (cut_value) with the search, not the search
itself.
"""

from __future__ import annotations

import itertools
import math
import time

from ..clustering import BubbleClustering, canonicalize, cut_value
from ..errors import TooLargeError
from .branch_bound import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    SolveResult,
)
from .model import TOL, ClusterInstance, balanced

_MAX_LOCATIONS = 10
_MAX_GROUP_ENUM = 2_000_000


def _partitions(items: tuple[str, ...], sizes: tuple[int, ...]):
    """All unordered partitions of items into groups with the given sizes."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for s in sorted(set(sizes), reverse=True):
        remaining = list(sizes)
        remaining.remove(s)
        for companions in itertools.combinations(rest, s - 1):
            group = (head,) + companions
            left = tuple(x for x in rest if x not in companions)
            for tail in _partitions(left, tuple(remaining)):
                yield [group] + tail


def _group_ok(
    members: tuple[str, ...],
    loads: dict[str, float],
    k: int,
    need: list[float],
) -> dict[str, int] | None:
    """A placement of members in k bubbles, balanced and meeting each bubble's load need.

    Enumerates the balanced count vectors first and then, for each, the
    placements of members with exactly those counts.
    """
    if k ** len(members) > _MAX_GROUP_ENUM:
        raise TooLargeError(
            f"group of {len(members)} over {k} bubbles is too large to enumerate")
    flr, cl = balanced(len(members), k)
    for counts in itertools.product(range(flr, cl + 1), repeat=k):
        if sum(counts) == len(members):
            got = _place(members, counts, loads, need, 0)
            if got is not None:
                return got
    return None


def _place(
    members: tuple[str, ...],
    counts: tuple[int, ...],
    loads: dict[str, float],
    need: list[float],
    b: int,
) -> dict[str, int] | None:
    """members in bubbles b, b + 1, ... with counts[b:] members each, or None if no
    such placement meets each of those bubbles' load need."""
    if b == len(counts):
        return {}
    for chosen in itertools.combinations(members, counts[b]):
        if sum(loads.get(p, 0.0) for p in chosen) < need[b] - TOL:
            continue
        rest = tuple(p for p in members if p not in chosen)
        got = _place(rest, counts, loads, need, b + 1)
        if got is not None:
            return {p: b + 1 for p in chosen} | got
    return None


def brute_force_solve(inst: ClusterInstance) -> SolveResult:
    inst.check()
    n = len(inst.locations)
    if n > _MAX_LOCATIONS:
        raise TooLargeError(f"{n} locations exceed the brute-force cap of {_MAX_LOCATIONS}")
    t0 = time.monotonic()
    K = inst.k
    flr, _ = balanced(n, K)
    extra = n - K * flr
    sizes = tuple([flr + 1] * extra + [flr] * (K - extra))
    loads = inst.loads.loads if inst.loads is not None else {}

    best_obj = math.inf
    best: BubbleClustering | None = None
    examined = 0
    for groups in _partitions(tuple(sorted(inst.locations)), sizes):
        examined += 1
        if any(inst.too_far(a, b)
               for group in groups for a, b in itertools.combinations(group, 2)):
            continue
        need = [inst.load_need(group) for group in groups]
        hcp: dict[str, int] = {}
        feasible = True
        for lab in inst.groups:
            got = _group_ok(inst.hcps.members(lab), loads, K, need)
            if got is None:
                feasible = False
                break
            hcp.update(got)
        if not feasible:
            continue
        cand = BubbleClustering(
            k=K,
            location_bubble={l: b + 1 for b, group in enumerate(groups) for l in group},
            hcp_bubble=hcp,
        )
        obj = cut_value(cand, inst.weights)
        if obj < best_obj - TOL:
            best_obj = obj
            best = cand
    runtime = time.monotonic() - t0
    if best is None:
        return SolveResult(STATUS_INFEASIBLE, None, None, math.inf, examined, runtime)
    best = canonicalize(best)
    obj = cut_value(best, inst.weights)
    best = BubbleClustering(best.k, best.location_bubble, best.hcp_bubble, obj)
    return SolveResult(STATUS_OPTIMAL, best, obj, obj, examined, runtime)
