from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest

from corn.clustering import BubbleClustering, canonicalize, cut_value
from corn.errors import CornError, InvalidKError, TooLargeError
from corn.model import HcpRoster, LoadDemandTable
from corn.optimizer import (
    ClusterInstance,
    branch_bound,
    brute_force_solve,
    build_model,
    solve,
    verify_clustering,
)
from corn.spatial import DistanceMatrix
from corn.weights import WeightMatrix


def wm(pairs: dict[tuple[str, str], float], locs=None) -> WeightMatrix:
    locations = tuple(locs) if locs else tuple(sorted({l for p in pairs for l in p}))
    return WeightMatrix(locations=locations, w=dict(pairs))


def dm(vals: dict[tuple[str, str], float]) -> DistanceMatrix:
    locs = tuple(sorted({l for p in vals for l in p}))
    dist = {}
    for a in locs:
        dist[(a, a)] = 0.0
        for b in locs:
            if (a, b) in vals:
                dist[(a, b)] = vals[(a, b)]
                dist[(b, a)] = vals[(a, b)]
    return DistanceMatrix(locations=locs, dist=dist)


def four_loc_instance(k=2, d_star=math.inf, with_hcps=0) -> ClusterInstance:
    locs = ("l1", "l2", "l3", "l4")
    pairs = {(a, b): 0.5 for a, b in itertools.combinations(locs, 2)}
    dist = dm({(a, b): 10.0 for a, b in itertools.combinations(locs, 2)})
    roster = HcpRoster({f"p{i}": "g1" for i in range(with_hcps)})
    return ClusterInstance(weights=wm(pairs, locs), hcps=roster, k=k,
                           d_star_m=d_star, dist=dist if math.isfinite(d_star) else None)


def random_instance(rng: np.random.Generator) -> ClusterInstance:
    n = int(rng.integers(4, 9))
    k = int(rng.integers(2, 4))
    locs = tuple(f"l{i:02d}" for i in range(n))
    pairs = {}
    for a, b in itertools.combinations(locs, 2):
        if rng.random() < 0.5:
            pairs[(a, b)] = float(rng.uniform(0.01, 1.0))
    n_hcps = int(rng.integers(k, 2 * k + 3))
    roster = HcpRoster({f"p{i:02d}": "g1" for i in range(n_hcps)})
    # random positions on a line keep the metric honest
    pos = {l: float(rng.uniform(0, 50)) for l in locs}
    dist = {}
    for a in locs:
        for b in locs:
            dist[(a, b)] = abs(pos[a] - pos[b])
    d_star = float(rng.choice([math.inf, rng.uniform(5, 60)]))
    y_star = float(rng.choice([math.inf, rng.uniform(0.0, 3.0)]))
    loads = None
    if math.isfinite(y_star):
        loads = LoadDemandTable(
            loads={p: float(rng.uniform(0, 8)) for p in roster.ids},
            demands={l: float(rng.uniform(0, 8)) for l in locs},
            day_count=1,
        )
    return ClusterInstance(
        weights=WeightMatrix(locations=locs, w=pairs), hcps=roster, k=k,
        d_star_m=d_star, y_star_h=y_star,
        dist=DistanceMatrix(locations=locs, dist=dist) if math.isfinite(d_star) else None,
        loads=loads,
    )


def sizes(model):
    """Variables and constraints that build_model actually emitted."""
    return len(model.variables), len(model.constraints)


class TestCounts:
    def test_four_location_worked_example(self):
        inst = four_loc_instance(k=2, d_star=15.0)
        assert sizes(build_model(inst)) == (14, 38)

    def test_unbounded_drops_diameter_rows(self):
        inst = four_loc_instance(k=2)
        assert sizes(build_model(inst)) == (14, 32)

    def test_far_pair_rows_per_bubble(self):
        inst = four_loc_instance(k=2, d_star=15.0)
        dist = dict(inst.dist.dist)
        dist[("l1", "l2")] = dist[("l2", "l1")] = 20.0
        inst = ClusterInstance(weights=inst.weights, hcps=inst.hcps, k=2, d_star_m=15.0,
                               dist=DistanceMatrix(locations=inst.locations, dist=dist))
        model = build_model(inst)
        assert sizes(model) == (14, 40)
        assert len([c for c in model.constraints if c.name.startswith("diameter_l1_l2")]) == 3

    def test_k1_two_locations(self):
        inst = ClusterInstance(
            weights=wm({("l1", "l2"): 0.3}), hcps=HcpRoster({"p1": "g1"}), k=1)
        vars_, _ = sizes(build_model(inst))
        assert vars_ == 1 + 2 + 1  # e + x + z

    def test_empty_weights_no_e_vars(self):
        inst = ClusterInstance(
            weights=WeightMatrix(locations=("l1", "l2"), w={}),
            hcps=HcpRoster({"p1": "g1"}), k=1)
        vars_, _ = sizes(build_model(inst))
        assert vars_ == 0 + 2 + 1

    def test_closed_form_on_random_shapes(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            inst = random_instance(rng)
            model = build_model(inst)
            n = len(inst.locations)
            m = len(inst.hcps.substitutable)
            h = len(inst.groups)
            n_e = len(inst.e_pairs())
            n_far = sum(1 for a, b in itertools.combinations(inst.locations, 2)
                        if inst.dist is not None and inst.dist.get(a, b) > inst.d_star_m)
            want_vars = n_e + n * inst.k + m * inst.k
            want_cons = (2 * n_e * inst.k + n + 2 * inst.k
                         + (n_e + inst.k * n_far if math.isfinite(inst.d_star_m) else 0)
                         + 2 * h * inst.k + m
                         + (h * inst.k if math.isfinite(inst.y_star_h) else 0))
            assert sizes(model) == (want_vars, want_cons)


class TestSolve:
    def test_four_location_oracle(self):
        pairs = {("l1", "l2"): 0.9, ("l3", "l4"): 0.8}
        for a, b in itertools.combinations(("l1", "l2", "l3", "l4"), 2):
            pairs.setdefault((a, b), 0.01)
        inst = ClusterInstance(weights=wm(pairs), hcps=HcpRoster({"p1": "g1", "p2": "g1"}), k=2)
        res = solve(build_model(inst))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.04, abs=1e-12)
        assert res.clustering.location_bubble["l1"] == res.clustering.location_bubble["l2"]
        assert res.clustering.location_bubble["l3"] == res.clustering.location_bubble["l4"]

    def test_k1_objective_zero(self):
        inst = four_loc_instance(k=1, with_hcps=2)
        res = solve(build_model(inst))
        assert res.status == "optimal"
        assert res.objective == 0.0

    def test_k_equals_n_cuts_everything(self):
        inst = four_loc_instance(k=4, with_hcps=4)
        res = solve(build_model(inst))
        assert res.objective == pytest.approx(sum(inst.weights.w.values()))

    def test_infeasible_diameter(self):
        inst = ClusterInstance(
            weights=wm({("l1", "l2"): 0.3}), hcps=HcpRoster({"p1": "g1"}), k=1,
            d_star_m=15.0, dist=dm({("l1", "l2"): 20.0}))
        res = solve(build_model(inst))
        assert res.status == "infeasible"
        assert res.clustering is None
        assert brute_force_solve(inst).status == "infeasible"

    def test_diameter_overrides_weight(self):
        # l1 and l4 attract (w = 0.9) but sit 20 m apart; the cap wins
        locs = ("l1", "l2", "l3", "l4", "l5")
        near = {("l1", "l2"), ("l1", "l3"), ("l2", "l3"), ("l4", "l5")}
        dist = {p: (1.0 if p in near else 20.0)
                for p in itertools.combinations(locs, 2)}
        inst = ClusterInstance(
            weights=WeightMatrix(locations=locs, w={("l1", "l4"): 0.9}),
            hcps=HcpRoster({"p1": "g1", "p2": "g1"}), k=2,
            d_star_m=15.0, dist=dm(dist))
        res = solve(build_model(inst))
        assert res.status == "optimal"
        c = res.clustering.location_bubble
        assert c["l1"] != c["l4"]
        assert res.objective == pytest.approx(0.9)

    def test_load_cap_infeasible(self):
        # demand 10 h/day in every bubble but Y* = 0 and loads are tiny
        loads = LoadDemandTable(loads={"p1": 0.1, "p2": 0.1},
                                demands={"l1": 10.0, "l2": 10.0}, day_count=1)
        inst = ClusterInstance(
            weights=wm({("l1", "l2"): 0.3}), hcps=HcpRoster({"p1": "g1", "p2": "g1"}),
            k=2, y_star_h=0.0, loads=loads)
        assert solve(build_model(inst)).status == "infeasible"
        assert brute_force_solve(inst).status == "infeasible"

    def test_timeout_status(self):
        rng = np.random.default_rng(1)
        locs = tuple(f"l{i:02d}" for i in range(12))
        pairs = {p: float(rng.uniform(0.1, 1.0))
                 for p in itertools.combinations(locs, 2)}
        inst = ClusterInstance(weights=WeightMatrix(locations=locs, w=pairs),
                               hcps=HcpRoster({f"p{i}": "g1" for i in range(3)}), k=3)
        res = solve(build_model(inst), time_limit_s=0.0)
        assert res.status == "timeout"
        assert res.bound <= (res.objective if res.objective is not None else math.inf)

    def test_invalid_k(self):
        with pytest.raises(InvalidKError):
            solve(build_model(four_loc_instance(k=5, with_hcps=5)))
        inst = ClusterInstance(weights=wm({("l1", "l2"): 0.1}),
                               hcps=HcpRoster({"p1": "g1"}), k=2)
        with pytest.raises(InvalidKError):
            solve(build_model(inst))  # group smaller than k

    def test_canonical_bubble_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_instance(rng)
            res = solve(build_model(inst))
            if res.status != "optimal":
                continue
            smallest = min(res.clustering.location_bubble)
            assert res.clustering.location_bubble[smallest] == 1

    def test_objective_equals_recomputed_cut(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            inst = random_instance(rng)
            res = solve(build_model(inst))
            if res.status == "optimal":
                assert res.objective == pytest.approx(
                    cut_value(res.clustering, inst.weights), abs=1e-12)

    def test_balanced_sizes(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            inst = random_instance(rng)
            res = solve(build_model(inst))
            if res.status != "optimal":
                continue
            counts = {}
            for b in res.clustering.location_bubble.values():
                counts[b] = counts.get(b, 0) + 1
            n, k = len(inst.locations), inst.k
            assert len(counts) == k
            assert max(counts.values()) <= math.ceil(n / k)
            assert min(counts.values()) >= 1


class TestAgainstBrute:
    def test_agrees_on_random_instances(self):
        rng = np.random.default_rng(12345)
        statuses = {"optimal": 0, "infeasible": 0}
        for _ in range(30):
            inst = random_instance(rng)
            got = solve(build_model(inst))
            want = brute_force_solve(inst)
            assert got.status == want.status
            statuses[got.status] += 1
            if got.status == "optimal":
                assert got.objective == pytest.approx(want.objective, abs=1e-9)
        assert statuses["optimal"] > 0

    def test_brute_guard(self):
        locs = tuple(f"l{i:02d}" for i in range(11))
        inst = ClusterInstance(weights=WeightMatrix(locations=locs, w={}),
                               hcps=HcpRoster({"p1": "g1", "p2": "g1"}), k=2)
        with pytest.raises(TooLargeError):
            brute_force_solve(inst)


class TestVerify:
    def test_optimal_passes(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            inst = random_instance(rng)
            res = solve(build_model(inst))
            if res.status == "optimal":
                assert verify_clustering(res.clustering, inst) == []

    def test_unbalanced_caught(self):
        inst = four_loc_instance(k=2, with_hcps=2)
        bad = BubbleClustering(
            k=2,
            location_bubble={"l1": 1, "l2": 1, "l3": 1, "l4": 2},
            hcp_bubble={"p0": 1, "p1": 2},
        )
        assert any("outside" in msg for msg in verify_clustering(bad, inst))

    def test_diameter_violation_caught(self):
        inst = ClusterInstance(
            weights=wm({("l1", "l2"): 0.3}), hcps=HcpRoster({"p1": "g1"}), k=1,
            d_star_m=15.0, dist=dm({("l1", "l2"): 20.0}))
        bad = BubbleClustering(k=1, location_bubble={"l1": 1, "l2": 1},
                               hcp_bubble={"p1": 1})
        assert verify_clustering(bad, inst) != []

    @pytest.mark.parametrize("limit", [None, 0])
    def test_solve_raises_on_a_failed_verification(self, monkeypatch, limit):
        monkeypatch.setattr(branch_bound, "verify_clustering", lambda c, inst: ["planted"])
        with pytest.raises(CornError, match="k=2.*planted"):
            solve(build_model(four_loc_instance(k=2, with_hcps=2)), time_limit_s=limit)


class TestCanonicalize:
    def test_permuting_bubbles_same_cut(self):
        weights = wm({("l1", "l2"): 0.5, ("l1", "l3"): 0.2, ("l2", "l4"): 0.1})
        c = BubbleClustering(k=2, location_bubble={"l1": 2, "l2": 2, "l3": 1, "l4": 1},
                             hcp_bubble={"p1": 2, "p2": 1})
        canon = canonicalize(c)
        assert canon.location_bubble["l1"] == 1
        assert cut_value(canon, weights) == pytest.approx(cut_value(c, weights))
        assert sorted(canon.location_bubble.values()) == sorted(c.location_bubble.values())


def milp_optimum(model) -> float | None:
    """Optimum of the exported rows by HiGHS, or None if they are infeasible."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    col = {v: i for i, v in enumerate(model.variables)}
    rows, cols, vals, lo, hi = [], [], [], [], []
    for r, con in enumerate(model.constraints):
        for var, coef in con.coeffs.items():
            rows.append(r)
            cols.append(col[var])
            vals.append(coef)
        lo.append(-np.inf if con.sense == "<=" else con.rhs)
        hi.append(np.inf if con.sense == ">=" else con.rhs)
    nv = len(model.variables)
    c = np.zeros(nv)
    for var, coef in model.objective.items():
        c[col[var]] = coef
    a = coo_matrix((vals, (rows, cols)), shape=(len(lo), nv)).tocsr()
    res = milp(c, constraints=LinearConstraint(a, lo, hi), integrality=np.ones(nv),
               bounds=Bounds(np.zeros(nv), np.ones(nv)))
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return float(res.fun)


class TestExportedRowsAgainstBrute:
    """An external MILP solver on build_model's rows finds the brute-force optimum."""

    def test_random_instances_with_and_without_caps(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(2024)
        capped = uncapped = 0
        for _ in range(100):
            inst = random_instance(rng)
            got = milp_optimum(build_model(inst))
            want = brute_force_solve(inst)
            if want.status == "optimal":
                assert got == pytest.approx(want.objective, abs=1e-6)
            else:
                assert got is None
            has_cap = math.isfinite(inst.d_star_m) or math.isfinite(inst.y_star_h)
            capped += has_cap
            uncapped += not has_cap
        assert capped and uncapped


def cap_tie_instance(excess: float) -> ClusterInstance:
    """l1 and l2 attract (w = 0.9) and sit `excess` meters beyond a 15 m cap."""
    locs = ("l1", "l2", "l3", "l4")
    dist = {p: 10.0 for p in itertools.combinations(locs, 2)}
    dist[("l1", "l2")] = 15.0 + excess
    return ClusterInstance(
        weights=WeightMatrix(locations=locs, w={("l1", "l2"): 0.9}),
        hcps=HcpRoster({"p1": "g1", "p2": "g1"}), k=2, d_star_m=15.0, dist=dm(dist))


@pytest.mark.parametrize("excess, optimum", [(5e-10, 0.0), (2e-9, 0.9)])
class TestCapTie:
    """A pair within the tolerance of the cap may share a bubble in every consumer."""

    def test_search_brute_and_verify_agree(self, excess, optimum):
        inst = cap_tie_instance(excess)
        got, want = solve(build_model(inst)), brute_force_solve(inst)
        assert got.objective == pytest.approx(optimum, abs=1e-12)
        assert want.objective == pytest.approx(optimum, abs=1e-12)
        assert verify_clustering(got.clustering, inst) == []
        together = BubbleClustering(k=2, location_bubble={"l1": 1, "l2": 1, "l3": 2, "l4": 2},
                                    hcp_bubble={"p1": 1, "p2": 2})
        assert (verify_clustering(together, inst) == []) == (optimum == 0.0)

    def test_exported_rows_agree(self, excess, optimum):
        pytest.importorskip("scipy")
        assert milp_optimum(build_model(cap_tie_instance(excess))) == pytest.approx(
            optimum, abs=1e-6)


def two_group_instance(rng: np.random.Generator) -> ClusterInstance:
    """4-10 locations, K 1-5, two HCP groups, each cap present or not."""
    n = int(rng.integers(4, 11))
    k = int(rng.integers(1, min(5, n) + 1))
    locs = tuple(f"l{i:02d}" for i in range(n))
    pairs = {p: float(rng.uniform(0.01, 1.0))
             for p in itertools.combinations(locs, 2) if rng.random() < 0.7}
    types = {f"a{i}": "g1" for i in range(int(rng.integers(k, k + 2)))}
    types.update({f"b{i}": "g2" for i in range(int(rng.integers(k, k + 2)))})
    roster = HcpRoster(types)
    pos = {l: rng.uniform(0, 50, size=2) for l in locs}
    dist = {(a, b): float(np.hypot(*(pos[a] - pos[b]))) for a in locs for b in locs}
    d_star = float(rng.uniform(20, 60)) if rng.random() < 0.5 else math.inf
    y_star = float(rng.uniform(0.0, 4.0)) if rng.random() < 0.5 else math.inf
    loads = None
    if math.isfinite(y_star):
        loads = LoadDemandTable(
            loads={p: float(rng.uniform(0, 8)) for p in roster.ids},
            demands={l: float(rng.uniform(0, 3)) for l in locs},
            day_count=1,
        )
    return ClusterInstance(
        weights=WeightMatrix(locations=locs, w=pairs), hcps=roster, k=k,
        d_star_m=d_star, y_star_h=y_star,
        dist=DistanceMatrix(locations=locs, dist=dist) if math.isfinite(d_star) else None,
        loads=loads,
    )


class TestPolishedIncumbents:
    """Polished incumbents only lower the cutoff: the search returns the same leaf."""

    def test_same_answer_from_no_more_nodes(self):
        rng = np.random.default_rng(20)
        polished: list[BubbleClustering] = []
        polish = branch_bound._Search._polish

        def kept(self):
            polish(self)
            if self.polished_best is not None:
                polished.append(self.polished_best)

        seen = {"optimal": 0, "infeasible": 0, "capped": 0, "fewer nodes": 0}
        for _ in range(30):
            inst = two_group_instance(rng)
            polished.clear()
            with mock.patch.object(branch_bound._Search, "_polish", kept):
                got = solve(build_model(inst))
            with mock.patch.object(branch_bound, "_local_search",
                                   lambda W, far, bub, *_: bub):
                plain = solve(build_model(inst))
            assert got.status == plain.status
            assert repr(got.objective) == repr(plain.objective)
            assert got.clustering == plain.clustering
            assert got.nodes <= plain.nodes
            want = brute_force_solve(inst)
            assert got.status == want.status
            for c in polished:
                assert verify_clustering(c, inst) == []
                assert cut_value(c, inst.weights) >= want.objective - 1e-9
            seen[got.status] += 1
            seen["capped"] += math.isfinite(inst.d_star_m) or math.isfinite(inst.y_star_h)
            seen["fewer nodes"] += got.nodes < plain.nodes
        assert all(seen.values()), seen
