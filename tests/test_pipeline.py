"""The replicate runner's worker pool and the arms' cost rows.

Runs the small facility of acceptance [8] with one worker and with two
forked workers; the pool path must not change a single output byte. The
cost report is recomputed here from rewire + compute_costs with the
experiment's own seeds, independently of the pipeline's bookkeeping.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import corn.episim
import corn.pipeline
from corn.clustering import load_clustering
from corn.episim import ContactSchedule, DiseaseParams, SimConfig, estimate_r0, simulate
from corn.model import compute_loads_demands
from corn.optimizer import ClusterInstance, verify_clustering
from corn.pipeline import ExperimentConfig, derive_seed, run_experiment
from corn.rewiring import compute_costs, random_clustering, rewire, write_cost_csv
from corn.spatial import shortest_path_metric
from corn.synth import FacilitySpec, generate_facility, generate_mobility
from corn.weights import weight_matrix

from .oracles import assigned_names, scalar_rewire

SPEC = FacilitySpec(
    rooms=6, hallway_nodes=3, hcp_groups=(("n", 4),),
    non_substitutable=1, corridor_length_m=20.0, shift_length_h=8.0,
    visits_per_hcp_per_day=6, visit_duration_min=15.0, locality=0.6,
    days=2, seed=3, zones=2,
)
CFG = ExperimentConfig(
    facility=SPEC, k_list=(1, 2), replicates=5, seed=0, target_r0=1.0,
    calibration_replicates=40, cost_rewirings=3,
)
# the same facility with a second substitutable group
TWO_GROUPS = ExperimentConfig(
    facility=replace(SPEC, hcp_groups=(("n", 4), ("a", 3))), k_list=(2,), replicates=8,
    seed=0, rho=0.002, cost_rewirings=1,
)
# the lowest load cap on the nearest 0.1 h/day that the two groups can meet at K=2;
# it moves the rooms of the uncapped optimum
TWO_GROUPS_CAP = 4.4
# spawn keys of the pipeline's seed namespaces
NS_REWIRE = {"corn": 2, "random": 3}
NS_CLUSTER_RANDOM = 4


def two_workers(mp: pytest.MonkeyPatch) -> None:
    mp.setenv("CORN_THREADS", "2")
    mp.setattr(os, "cpu_count", lambda: 2)


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def facility():
    fac = generate_facility(SPEC)
    return fac, generate_mobility(fac, SPEC)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CORN_THREADS", "1")
        run_experiment(CFG, root / "one")
        two_workers(mp)
        run_experiment(CFG, root / "two")
    return root / "one" / "reports", root / "two" / "reports"


class TestTwoWorkers:
    def test_simulate(self, facility, monkeypatch):
        _, g = facility
        cfg = SimConfig(disease=DiseaseParams(rho=0.2), replicates=12, seed=4,
                        keep_transmission_log=True)
        c = random_clustering(g.hcps, g.locations.substitutable, 2, seed=1)
        one = [simulate(g, None, cfg), simulate(rewire(g, c, seed=2), None, cfg)]
        assert len(set(one[0].infection_counts())) > 1
        two_workers(monkeypatch)
        assert [simulate(g, None, cfg), simulate(rewire(g, c, seed=2), None, cfg)] == one

    def test_estimate_r0(self, facility, monkeypatch):
        _, g = facility
        cfg = SimConfig(disease=DiseaseParams(rho=0.0), replicates=12, seed=4)
        sched = ContactSchedule(g)
        one = estimate_r0(sched, 0.2, cfg)
        assert one.mean > 0.0
        two_workers(monkeypatch)
        # sched keeps no thresholds, so the two workers run every replicate again
        assert estimate_r0(sched, 0.2, cfg) == one

    def test_experiment_reports_identical(self, runs):
        one, two = runs
        assert json.loads((one / "params.json").read_text())["source"] == "calibrated"
        hashes = tree_hashes(one)
        assert hashes and hashes == tree_hashes(two)


def test_base_schedule_built_once(tmp_path, monkeypatch):
    # calibration and the baseline arm share one schedule of the base log
    built = []
    for module in (corn.episim, corn.pipeline):
        def counted(g, build=module.build_contact_schedule):
            built.append(type(g).__name__)
            return build(g)
        monkeypatch.setattr(module, "build_contact_schedule", counted)
    run_experiment(replace(CFG, k_list=(2,), replicates=2), tmp_path / "out")
    assert built.count("VisitGraph") == 1
    assert built.count("RewiredGraph") == 4


class TestCostRows:
    @pytest.mark.parametrize("method", ["corn", "random"])
    @pytest.mark.parametrize("k", CFG.k_list)
    def test_rows_are_the_arms_rewirings(self, runs, facility, tmp_path, method, k):
        reports, _ = runs
        (spatial, _, locations), g = facility
        dist = shortest_path_metric(spatial, list(locations.ids))
        got = json.loads((reports / f"costs_{method}_k{k}.json").read_text())
        assert got["rewirings"] == CFG.cost_rewirings < CFG.replicates
        assert len(got["per_rewiring"]) == CFG.cost_rewirings
        for r, row in enumerate(got["per_rewiring"]):
            if method == "corn":
                c = load_clustering(reports / f"clustering_corn_k{k}.json")
            else:
                c = random_clustering(g.hcps, g.locations.substitutable, k,
                                      seed=derive_seed(CFG.seed, NS_CLUSTER_RANDOM, k, r))
            rw = rewire(g, c, seed=derive_seed(CFG.seed, NS_REWIRE[method], k, r))
            rep = compute_costs(rw, dist)
            want = {
                "excess_load_mean_h_per_day": np.mean(list(rep.excess_load.values())),
                "unmet_demand_mean_h_per_day": np.mean(list(rep.unmet_demand.values())),
                "footsteps_mean_m_per_day": np.mean(list(rep.footsteps.values())),
                "excess_footsteps_mean_m_per_day":
                    np.mean(list(rep.excess_footsteps.values())),
                "bubble_diameter_max_m": max(rep.bubble_diameters.values()),
                "dropped_visits": assigned_names(rw).count(None),
            }
            assert row == pytest.approx(want, rel=1e-12, abs=1e-12)
            if r == 0:
                write_cost_csv(rep, tmp_path / "hcp.csv", tmp_path / "loc.csv")
                for part in ("hcp", "loc"):
                    assert ((reports / f"costs_{method}_k{k}_{part}.csv").read_bytes()
                            == (tmp_path / f"{part}.csv").read_bytes())
        for key, mean in got["means"].items():
            assert mean == pytest.approx(np.mean([row[key] for row in got["per_rewiring"]]))


class TestTwoGroups:
    """An experiment whose roster has two substitutable groups, end to end."""

    @pytest.fixture(scope="class")
    def study(self, tmp_path_factory):
        cfg = TWO_GROUPS
        result = run_experiment(cfg, tmp_path_factory.mktemp("groups") / "out")
        return cfg, result, generate_mobility(generate_facility(cfg.facility), cfg.facility)

    def test_clustering_verifies(self, study):
        cfg, result, g = study
        params = json.loads((result.out_dir / "reports" / "params.json").read_text())
        w = weight_matrix(g, params["z_per_interval"], cfg.unit_s, hcp_scope=cfg.hcp_scope)
        inst = ClusterInstance(weights=w, hcps=g.hcps, k=2)
        assert verify_clustering(result.clusterings[2], inst) == []

    @pytest.mark.parametrize("method", ["corn", "random"])
    def test_rewired_visits_keep_their_group(self, study, method):
        cfg, result, g = study
        types = g.hcps.types
        moved = set()
        for r in range(cfg.replicates):
            c = result.clusterings[2] if method == "corn" else random_clustering(
                g.hcps, g.locations.substitutable, 2,
                seed=derive_seed(cfg.seed, NS_CLUSTER_RANDOM, 2, r))
            rw = rewire(g, c, seed=derive_seed(cfg.seed, NS_REWIRE[method], 2, r))
            for v, h in zip(g.visits, assigned_names(rw)):
                if h is not None:
                    assert types[h] == types[v.hcp]
                    if h != v.hcp:
                        moved.add(types[h])
        assert moved == {"n", "a"}

    @pytest.fixture(scope="class")
    def capped(self, tmp_path_factory):
        cfg = replace(TWO_GROUPS, y_star_h=TWO_GROUPS_CAP)
        return cfg, run_experiment(cfg, tmp_path_factory.mktemp("groups_capped") / "out")

    def test_capped_bubbles_cover_each_groups_load(self, study, capped):
        _, free, g = study
        cfg, result = capped
        c = result.clusterings[2]
        params = json.loads((result.out_dir / "reports" / "params.json").read_text())
        assert params["y_star_h"] == repr(TWO_GROUPS_CAP)
        loads = compute_loads_demands(g)
        for lab in g.hcps.group_labels:
            for b in (1, 2):
                demand = sum(loads.demands[l] for l in c.locations_in(b))
                load = sum(loads.loads.get(p, 0.0) for p in g.hcps.members(lab)
                           if c.hcp_bubble[p] == b)
                assert demand - load <= TWO_GROUPS_CAP + 1e-9
        w = weight_matrix(g, params["z_per_interval"], cfg.unit_s, hcp_scope=cfg.hcp_scope)
        inst = ClusterInstance(weights=w, hcps=g.hcps, k=2, y_star_h=TWO_GROUPS_CAP, loads=loads)
        assert verify_clustering(c, inst) == []
        # the cap binds: the uncapped optimum breaks it
        assert c.location_bubble != free.clusterings[2].location_bubble
        assert verify_clustering(free.clusterings[2], inst) != []

    @pytest.mark.parametrize("method", ["corn", "random"])
    def test_capped_arms_rewire_as_the_scalar_walk(self, study, capped, method):
        _, _, g = study
        cfg, result = capped
        reports = result.out_dir / "reports"
        rows = json.loads((reports / f"costs_{method}_k2.json").read_text())["per_rewiring"]
        assert len(rows) == cfg.cost_rewirings
        for r in range(cfg.replicates):
            c = result.clusterings[2] if method == "corn" else random_clustering(
                g.hcps, g.locations.substitutable, 2,
                seed=derive_seed(cfg.seed, NS_CLUSTER_RANDOM, 2, r))
            seed = derive_seed(cfg.seed, NS_REWIRE[method], 2, r)
            want = scalar_rewire(g, c, seed)
            assert assigned_names(rewire(g, c, seed)) == want
            if r < cfg.cost_rewirings:
                assert rows[r]["dropped_visits"] == want.count(None)

    def test_seeds_come_from_the_first_group(self, study):
        _, result, g = study
        seeds = {r.seed_agent for s in result.summaries.values() for r in s.results}
        assert seeds <= set(g.hcps.members("n"))
        assert set(result.summaries) == {"baseline", "corn_k2", "random_k2"}
