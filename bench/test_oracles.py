"""Self-test of the benchmark's oracles on tiny inputs.

    PYTHONPATH=src python3 -m pytest -q bench/test_oracles.py

The references are corn's brute-force solver and exhaustive weight
enumeration, so an oracle that drifts from the model's definition fails
here before it can pass a benchmark run.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

pytest.importorskip("scipy")

import oracles  # noqa: E402
from corn.model import (  # noqa: E402
    HcpRoster, LoadDemandTable, LocationRoster, Visit, VisitGraph, chop_visit)
from corn.optimizer import STATUS_OPTIMAL, ClusterInstance, brute_force_solve  # noqa: E402
from corn.spatial import DistanceMatrix  # noqa: E402
from corn.weights import WeightMatrix, enumerate_directed_weight  # noqa: E402


def tiny_problem(rng: np.random.Generator) -> dict:
    """Plain-value partition problem, with caps on about half of them."""
    n = int(rng.integers(4, 10))
    k = int(rng.integers(2, 5))
    rooms = tuple(f"r{i}" for i in range(n))
    weights = {(a, b): (float(rng.uniform(0.01, 1.0)) if rng.random() < 0.6 else 0.0)
               for a, b in itertools.combinations(rooms, 2)}
    staff = tuple(f"p{i}" for i in range(int(rng.integers(k, 2 * k + 2))))
    spec = dict(rooms=rooms, weights=weights, k=k, groups={"g": staff})
    if rng.random() < 0.5:
        x = {r: float(rng.uniform(0.0, 20.0)) for r in rooms}
        spec.update(
            dist={(a, b): abs(x[a] - x[b]) for a in rooms for b in rooms},
            d_star=float(rng.uniform(8.0, 20.0)),
            demands={r: float(rng.uniform(0.1, 1.0)) for r in rooms},
            loads={p: float(rng.uniform(0.1, 1.5)) for p in staff},
            y_star=float(rng.uniform(0.0, 1.0)),
        )
    return spec


def as_instance(spec: dict) -> ClusterInstance:
    rooms = spec["rooms"]
    capped = "dist" in spec
    return ClusterInstance(
        weights=WeightMatrix(locations=rooms, w=dict(spec["weights"])),
        hcps=HcpRoster({p: "g" for p in spec["groups"]["g"]}),
        k=spec["k"],
        d_star_m=spec["d_star"] if capped else math.inf,
        y_star_h=spec["y_star"] if capped else math.inf,
        dist=DistanceMatrix(locations=rooms, dist=spec["dist"]) if capped else None,
        loads=LoadDemandTable(loads=spec["loads"], demands=spec["demands"],
                              day_count=1) if capped else None,
    )


@pytest.fixture(scope="module")
def solved():
    rng = np.random.default_rng(2105)
    rows = []
    for _ in range(40):
        spec = tiny_problem(rng)
        rows.append((spec, brute_force_solve(as_instance(spec))))
    return rows


def test_milp_matches_brute_force(solved):
    feasible = 0
    for spec, ref in solved:
        got = oracles.partition_milp(**spec)
        if ref.status == STATUS_OPTIMAL:
            feasible += 1
            assert got == pytest.approx(ref.objective, abs=1e-7)
        else:
            assert got is None
    assert 10 <= feasible < len(solved)


def checker_args(spec: dict) -> dict:
    return {key: v for key, v in spec.items() if key != "weights"}


def test_checker_accepts_optima_and_cut_matches(solved):
    for spec, ref in solved:
        if ref.status != STATUS_OPTIMAL:
            continue
        c = ref.clustering
        assert oracles.partition_problems(c.location_bubble, c.hcp_bubble,
                                          **checker_args(spec)) == []
        assert oracles.cut(c.location_bubble, spec["weights"]) == pytest.approx(
            ref.objective, abs=1e-12)


def test_checker_rejects_each_broken_rule(solved):
    broken = {"size": 0, "hcp": 0, "diameter": 0, "load": 0}
    for spec, ref in solved:
        if ref.status != STATUS_OPTIMAL:
            continue
        c = ref.clustering
        args = checker_args(spec)
        k = spec["k"]
        rooms = spec["rooms"]

        if len(rooms) % k == 0:  # any single move unbalances the sizes
            lb = dict(c.location_bubble)
            lb[rooms[0]] = lb[rooms[0]] % k + 1
            assert oracles.partition_problems(lb, c.hcp_bubble, **args)
            broken["size"] += 1

        staff = spec["groups"]["g"]
        if len(staff) % k == 0:
            hb = dict(c.hcp_bubble)
            hb[staff[0]] = hb[staff[0]] % k + 1
            assert oracles.partition_problems(c.location_bubble, hb, **args)
            broken["hcp"] += 1

        if "dist" not in spec:
            continue
        widest = max(spec["dist"][(a, b)] for a in rooms for b in rooms
                     if c.location_bubble[a] == c.location_bubble[b])
        if widest > 0.0:
            tight = dict(args, d_star=widest * 0.99)
            assert oracles.partition_problems(c.location_bubble, c.hcp_bubble, **tight)
            broken["diameter"] += 1
        gaps = [sum(spec["demands"][r] for r in rooms if c.location_bubble[r] == b)
                - sum(spec["loads"][p] for p in staff if c.hcp_bubble[p] == b)
                for b in range(1, k + 1)]
        tight = dict(args, y_star=max(gaps) - 0.01)
        assert oracles.partition_problems(c.location_bubble, c.hcp_bubble, **tight)
        broken["load"] += 1
    assert min(broken.values()) >= 3, broken


def test_random_partitions_are_balanced():
    rng = np.random.default_rng(3)
    rooms = tuple(f"r{i}" for i in range(11))
    for k in (1, 2, 3, 4):
        for _ in range(20):
            lb = oracles.random_balanced_partition(rooms, k, rng)
            assert oracles.partition_problems(lb, {}, k, rooms, {}) == []


def test_chop_matches_the_model_rule():
    rng = np.random.default_rng(5)
    for _ in range(500):
        s = int(rng.integers(0, 10_000))
        e = s + int(rng.integers(1, 1_000))
        unit = int(rng.choice([30, 60, 120]))
        want = [("h", "l", v.start_s, v.end_s) for v in chop_visit(Visit(s, e, "h", "l"), unit)]
        assert oracles.chop([("h", "l", s, e)], unit) == want


def two_room_visits(rng: np.random.Generator) -> list[tuple[str, str, int, int]]:
    """Unit-length, non-overlapping visits of up to three HCPs to rooms a and b."""
    visits = []
    for h in range(int(rng.integers(1, 4))):
        t = int(rng.integers(0, 5)) * 60
        for _ in range(int(rng.integers(1, 6))):
            t += int(rng.integers(1, 4)) * 60
            visits.append((f"h{h}", str(rng.choice(["a", "b"])), t, t + 60))
    return visits


def test_mc_weight_matches_enumeration():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 12:
        visits = two_room_visits(rng)
        if len(visits) > 16 or {loc for _, loc, _, _ in visits} != {"a", "b"}:
            continue
        g = VisitGraph.build(HcpRoster({h: "g" for h, _, _, _ in visits}),
                             LocationRoster({"a": "s", "b": "s"}),
                             [Visit(s, e, h, loc) for h, loc, s, e in visits])
        z = float(rng.uniform(0.1, 0.9))
        exact = (enumerate_directed_weight(g, "a", "b", z)
                 + enumerate_directed_weight(g, "b", "a", z)) / 2.0
        est, se = oracles.mc_pair_weight(visits, "a", "b", z, 200_000, rng)
        assert abs(est - exact) <= 4.0 * se + 1e-12
        checked += 1
