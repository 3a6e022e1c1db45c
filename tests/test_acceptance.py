"""End-to-end acceptance checks.

Each check prints one PASS/FAIL line on the real stdout, so the suite
output doubles as an acceptance report. The synthetic long-term-care
experiment behind the trend checks runs once per session and is shared;
everything else is exact or oracle-backed with frozen seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from corn.cli import EXIT_OK, main
from corn.clustering import load_clustering
from corn.episim import CasualContactModel, DiseaseParams, SimConfig, simulate
from corn.model import (
    compute_loads_demands,
    load_hcp_roster,
    load_location_roster,
    load_mobility_log,
)
from corn.optimizer import (
    STATUS_OPTIMAL,
    ClusterInstance,
    brute_force_solve,
    build_model,
    solve,
    verify_clustering,
)
from corn.pipeline import ExperimentConfig, run_experiment
from corn.rewiring import compute_costs, random_clustering, rewire
from corn.spatial import load_spatial_graph, shortest_path_metric
from corn.synth import FacilitySpec, generate_facility, generate_mobility
from corn.weights import enumerate_directed_weight, weight_matrix

from .oracles import mc_directed_weight
from .test_optimizer import random_instance
from .test_rewiring import flat_metric, golden_clustering, golden_graph
from .test_weights import both_ways, pair_weight, random_pair_graph


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, printed past pytest's capture."""
    @contextmanager
    def criterion(cid: str, desc: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[{cid}] {desc}: FAIL", flush=True)
            raise
        with capsys.disabled():
            print(f"[{cid}] {desc}: PASS", flush=True)

    return criterion


# one synthetic long-term-care facility backs the trend checks: 30 rooms in
# 5 zones along a corridor, 12 nurses, 6 non-substitutable HCPs of which one
# works two distant zones, 30 days of visits
LTCF = FacilitySpec(
    rooms=30, hallway_nodes=10, hcp_groups=(("n", 12),), non_substitutable=6,
    corridor_length_m=58.0, shift_length_h=8.0, visits_per_hcp_per_day=8,
    visit_duration_min=15.0, locality=0.3, days=30, seed=42, zones=5,
    break_visits_per_day=2, break_duration_min=60.0, ns_caseload=3,
    ns_room_visits=4, ns_visit_duration_min=15.0, ns_far_fraction=1 / 6,
)
TARGET_R0 = 2.86
REPLICATES = 500
MASTER_SEED = 0


@pytest.fixture(scope="session")
def ltcf_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ltcf") / "unbounded"
    cfg = ExperimentConfig(
        facility=LTCF, k_list=(1, 3, 5), replicates=REPLICATES,
        seed=MASTER_SEED, unit_s=60, target_r0=TARGET_R0,
        hcp_scope="ns_only", calibration_replicates=400,
    )
    t0 = time.monotonic()
    run_experiment(cfg, out)
    return {"reports": out / "reports", "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="session")
def bounded_run(ltcf_run, tmp_path_factory):
    params = json.loads((ltcf_run["reports"] / "params.json").read_text())
    out = tmp_path_factory.mktemp("ltcf_caps") / "bounded"
    cfg = ExperimentConfig(
        facility=LTCF, k_list=(5,), replicates=REPLICATES, seed=MASTER_SEED,
        unit_s=60, rho=params["rho"], hcp_scope="ns_only",
        d_star_m=15.0, y_star_h=0.17,
    )
    run_experiment(cfg, out)
    return {"reports": out / "reports"}


def aggregates(reports: Path, label: str) -> dict:
    return json.loads((reports / "sims" / f"{label}.json").read_text())["aggregates"]


def cost_means(reports: Path, label: str) -> dict:
    return json.loads((reports / f"costs_{label}.json").read_text())["means"]


class TestWeightOracle:
    def test_directed_weight_against_oracles(self, report):
        with report("1", "weights match enumeration and Monte Carlo"):
            t0 = time.monotonic()
            rng = np.random.default_rng(20260814)
            for _ in range(50):
                g = random_pair_graph(rng)
                z = float(rng.uniform(0.05, 0.95))
                exact = both_ways(enumerate_directed_weight, g, z)
                assert abs(pair_weight(g, z) - exact) <= 1e-12
            for i in range(10):
                g = random_pair_graph(rng)
                z = float(rng.uniform(0.1, 0.9))
                n = 1_000_000
                exact = pair_weight(g, z)
                ab = mc_directed_weight(g, "la", "lb", z, samples=n, seed=i)
                ba = mc_directed_weight(g, "lb", "la", z, samples=n, seed=i)
                # one seed for both directions: the se of their mean is at
                # most the mean of the two se, whatever their correlation
                se = (math.sqrt(max(ab * (1.0 - ab), 1e-12) / n)
                      + math.sqrt(max(ba * (1.0 - ba), 1e-12) / n)) / 2.0
                assert abs((ab + ba) / 2.0 - exact) <= 4.0 * se + 1e-15
            assert time.monotonic() - t0 < 60.0


@pytest.fixture(scope="module")
def solver_sweep():
    rng = np.random.default_rng(7)
    rows = []
    t0 = time.monotonic()
    for _ in range(100):
        inst = random_instance(rng)
        rows.append((inst, solve(build_model(inst)), brute_force_solve(inst)))
    return rows, time.monotonic() - t0


class TestSolverExactness:
    def test_solve_equals_brute_force(self, solver_sweep, report):
        rows, elapsed = solver_sweep
        with report("2", "exact solver agrees with brute force on 100 instances"):
            for inst, res, bf in rows:
                assert res.status == bf.status
                if res.status == STATUS_OPTIMAL:
                    assert res.objective == pytest.approx(bf.objective, abs=1e-9)
            assert sum(1 for _, r, _ in rows if r.status == STATUS_OPTIMAL) >= 10
            assert sum(1 for _, r, _ in rows if r.status != STATUS_OPTIMAL) >= 10
            assert elapsed < 300.0

    def test_optimal_solutions_verify(self, solver_sweep, report):
        rows, _ = solver_sweep
        with report("3", "every optimal clustering passes independent checks"):
            checked = 0
            for inst, res, _ in rows:
                if res.status == STATUS_OPTIMAL:
                    assert verify_clustering(res.clustering, inst) == []
                    checked += 1
            assert checked > 0


class TestGoldenRewiring:
    def test_unmet_and_excess_costs(self, report):
        with report("4", "golden two-bubble example: unmet 2 h, excess 1 h each"):
            g = golden_graph()
            c = golden_clustering()
            dist = flat_metric(["l1", "l2", "l3", "l4"])
            for seed in range(25):
                rw = rewire(g, c, seed=seed)
                rep = compute_costs(rw, dist)
                assert rep.unmet_demand["l4"] == 2.0
                assert rep.unmet_demand["l1"] == 0.0
                assert rep.unmet_demand["l2"] == 0.0
                assert rep.unmet_demand["l3"] == 0.0
                assert rep.excess_load["p5"] == 1.0
                assert rep.excess_load["p6"] == 1.0


class TestTrends:
    def test_infections_fall_with_more_bubbles(self, ltcf_run, report):
        with report("5a", "clustered infections decrease from K=1 to 3 to 5"):
            reports = ltcf_run["reports"]
            m1 = aggregates(reports, "corn_k1")["infections_mean"]
            m3 = aggregates(reports, "corn_k3")["infections_mean"]
            m5 = aggregates(reports, "corn_k5")["infections_mean"]
            assert m5 < m3 < m1
            # stated budget assumes 4 cores; a single worker stays well under
            assert ltcf_run["elapsed"] < 900.0

    def test_beats_random_bubbles(self, ltcf_run, report):
        with report("5b", "solved bubbles beat random ones with CI separation"):
            comp = json.loads((ltcf_run["reports"] / "comparison.json").read_text())
            for k in (3, 5):
                d = comp[f"k{k}"]["diffs"][0]
                assert d["label"] == f"corn_k{k}" and d["vs"] == f"random_k{k}"
                assert d["mean_diff"] < 0.0
                assert d["ci95_high"] < 0.0

    def test_less_external_reach_than_random(self, ltcf_run, report):
        with report("5c", "external reach is no worse than random bubbles"):
            reports = ltcf_run["reports"]
            for k in (3, 5):
                corn = aggregates(reports, f"corn_k{k}")["reach_pct"]
                rand = aggregates(reports, f"random_k{k}")["reach_pct"]
                assert corn <= rand


class TestConfinement:
    def test_zero_cross_bubble_scale_confines(self, report):
        with report("6", "zero cross-bubble scale keeps all 500 runs inside"):
            spec = FacilitySpec(
                rooms=10, hallway_nodes=4, hcp_groups=(("n", 6),),
                non_substitutable=0, corridor_length_m=30.0, shift_length_h=8.0,
                visits_per_hcp_per_day=8, visit_duration_min=15.0, locality=0.5,
                days=10, seed=5, zones=2,
            )
            fac = generate_facility(spec)
            g = generate_mobility(fac, spec)
            c = random_clustering(g.hcps, g.locations.substitutable, 2, seed=3)
            rw = rewire(g, c, seed=3)
            cfg = SimConfig(
                disease=DiseaseParams(rho=0.05, cross_bubble_scale=0.0),
                replicates=500, seed=11,
                casual=CasualContactModel(contacts_per_day=0.1),
            )
            s = simulate(rw, None, cfg)
            assert len(s.results) == 500
            assert all(r.reach is False for r in s.results)
            # outbreaks do spread inside bubbles, so the check is not vacuous
            assert max(s.infection_counts()) > 1


class TestBoundedCosts:
    def test_caps_hold_exactly(self, bounded_run, report):
        with report("7a", "diameter and load-gap caps hold in the solved run"):
            reports = bounded_run["reports"]
            inputs = reports / "inputs"
            hcps = load_hcp_roster(inputs / "hcps.csv")
            locations = load_location_roster(inputs / "locations.csv")
            graph = load_mobility_log(inputs / "visits.csv", hcps, locations)
            spatial = load_spatial_graph(inputs / "spatial.json")
            dist = shortest_path_metric(spatial, list(locations.ids))
            loads = compute_loads_demands(graph)
            params = json.loads((reports / "params.json").read_text())
            w = weight_matrix(graph, params["z_per_interval"], params["unit_s"],
                              hcp_scope="ns_only")
            c = load_clustering(reports / "clustering_corn_k5.json")
            inst = ClusterInstance(weights=w, hcps=hcps, k=5, d_star_m=15.0,
                                   y_star_h=0.17, dist=dist, loads=loads)
            assert verify_clustering(c, inst) == []
            for b in range(1, 6):
                rooms = c.locations_in(b)
                diam = max(dist.get(a, bb) for a in rooms for bb in rooms)
                assert diam <= 15.0
                demand = sum(loads.demands[l] for l in rooms)
                load = sum(loads.loads.get(p, 0.0) for p in hcps.members("n")
                           if c.hcp_bubble[p] == b)
                assert demand - load <= 0.17 + 1e-9

    def test_fewer_excess_footsteps(self, ltcf_run, bounded_run, report):
        with report("7b", "caps cut the mean excess footsteps"):
            free = cost_means(ltcf_run["reports"], "corn_k5")
            capped = cost_means(bounded_run["reports"], "corn_k5")
            assert (capped["excess_footsteps_mean_m_per_day"]
                    < free["excess_footsteps_mean_m_per_day"])

    def test_infections_within_tolerance(self, ltcf_run, bounded_run, report):
        with report("7c", "capped infections within +15% of the free run"):
            free = aggregates(ltcf_run["reports"], "corn_k5")["infections_mean"]
            capped = aggregates(bounded_run["reports"], "corn_k5")["infections_mean"]
            assert capped <= 1.15 * free


def tree_hashes(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestDeterminism:
    def test_rerun_from_manifest_is_byte_identical(self, tmp_path, report):
        with report("8", "a rerun from the manifest is byte-identical"):
            spec = FacilitySpec(
                rooms=6, hallway_nodes=3, hcp_groups=(("n", 4),),
                non_substitutable=1, corridor_length_m=20.0, shift_length_h=8.0,
                visits_per_hcp_per_day=6, visit_duration_min=15.0, locality=0.6,
                days=2, seed=3, zones=2,
            )
            spec_path = tmp_path / "spec.json"
            spec.to_json(spec_path)
            a, b = tmp_path / "a", tmp_path / "b"
            rc = main(["experiment", "--facility", str(spec_path), "--k", "1,2",
                       "--rho", "0.002", "--replicates", "5",
                       "--cost-rewirings", "3", "--out", str(a)])
            assert rc == EXIT_OK
            rc = main(["experiment", "--from-manifest", str(a / "manifest.json"),
                       "--out", str(b)])
            assert rc == EXIT_OK
            ha, hb = tree_hashes(a / "reports"), tree_hashes(b / "reports")
            assert ha and ha == hb


class TestModelCounts:
    def test_closed_form_on_random_shapes(self, report):
        with report("9", "variable/constraint counts match the closed form"):
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
                assert (len(model.variables), len(model.constraints)) == (want_vars, want_cons)
                # quadratic in rooms, linear in bubbles for rooms plus HCPs
                assert want_vars <= n * (n - 1) // 2 + (n + m) * inst.k
