"""End-to-end experiment orchestration.

One experiment = one facility, one (D*, Y*) setting, a K list, and three
method arms: the unmodified baseline, the optimized clustering with
per-replicate rewiring, and per-replicate random balanced clusterings.
All randomness derives from a single seed; the same replicate index uses
the same simulation streams in every arm, so replicate r sees the same
seed nurse everywhere and arm differences pair cleanly.

Everything under <out>/reports is a pure function of the config; wall
clock only ever lands in <out>/manifest.json.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .clustering import BubbleClustering, save_clustering
from .episim import (
    CasualContactModel,
    ContactSchedule,
    DiseaseParams,
    SimConfig,
    SimSummary,
    _aggregate,
    _run_replicate,
    build_contact_schedule,
    calibrate_rho,
    compare_runs,
    replicates_to_csv,
    run_replicates,
    simulate,
    summary_to_json,
)
from .errors import (ConfigError, CornError, ValidationError, check_field_types,
                     check_nonnegative, is_integer)
from .model import (
    VisitGraph,
    compute_loads_demands,
    load_hcp_roster,
    load_location_roster,
    load_mobility_log,
    validate,
    write_hcp_roster,
    write_location_roster,
    write_mobility_log,
)
from .optimizer import ClusterInstance, SolveResult, build_model, solve
from .optimizer.model import check_k
from .rewiring import CostReport, compute_costs, random_clustering, rewire, write_cost_csv
from .spatial import (DistanceMatrix, load_spatial_graph, save_spatial_graph,
                      shortest_path_metric)
from .synth import FacilitySpec, generate_facility, generate_mobility
from .weights import (check_hcp_scope, check_z, weight_matrix, write_weight_csv,
                      z_from_rho)

# spawn-key namespaces for the one master seed
_NS_CALIBRATION = 0
_NS_SIM = 1
_NS_REWIRE_CORN = 2
_NS_REWIRE_RANDOM = 3
_NS_CLUSTER_RANDOM = 4
_NS_COMPARE = 5


def derive_seed(master: int, *key: int) -> int:
    ss = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """One study: its inputs, bubble counts, caps and model, flat and JSON-ready.

    The model's defaults are those of DiseaseParams, CasualContactModel,
    SimConfig and ClusterInstance; the CLI's defaults are these fields.
    """

    facility: FacilitySpec | None = None
    inputs: dict | None = None  # real logs: hcps/locations/visits/spatial paths
    k_list: tuple[int, ...] = (1, 3, 5)
    replicates: int = SimConfig.replicates
    seed: int = 0
    unit_s: int = 60
    rho: float | None = None
    target_r0: float | None = None
    d_star_m: float = ClusterInstance.d_star_m
    y_star_h: float = ClusterInstance.y_star_h
    hcp_scope: str = "all"
    keep_same_bubble_hcp: bool = False
    horizon_days: int | None = None
    casual_contacts_per_day: float = CasualContactModel.contacts_per_day
    casual_duration_min: float = CasualContactModel.duration_min
    incubation_days: int = DiseaseParams.incubation_days
    recovery_days: int = DiseaseParams.recovery_days
    cross_bubble_scale: float = DiseaseParams.cross_bubble_scale
    calibration_replicates: int = 400
    time_limit_s: float | None = 600.0  # finite, so a dense solve ends; None or inf: no limit
    cost_rewirings: int = 30

    def sim_config(self, rho: float, replicates: int, seed: int) -> SimConfig:
        """The study's disease and contact model at one rho."""
        return SimConfig(
            disease=DiseaseParams(rho=rho, incubation_days=self.incubation_days,
                                  recovery_days=self.recovery_days,
                                  cross_bubble_scale=self.cross_bubble_scale),
            replicates=replicates, seed=seed, horizon_days=self.horizon_days,
            casual=CasualContactModel(self.casual_contacts_per_day,
                                      self.casual_duration_min),
        )

    def check(self) -> None:
        check_field_types(self, ConfigError)
        if (self.facility is None) == (self.inputs is None):
            raise ConfigError("exactly one of facility or inputs must be set")
        if self.facility is not None:
            self.facility.check()
        else:
            missing = {"hcps", "locations", "visits", "spatial"} - set(self.inputs)
            if missing:
                raise ConfigError(f"inputs is missing paths for: {sorted(missing)}")
        if not self.k_list or not all(is_integer(k) and k >= 1 for k in self.k_list):
            raise ConfigError(f"k_list={list(self.k_list)!r} must hold one or more integers >= 1")
        if len(set(self.k_list)) < len(self.k_list):
            raise ConfigError(f"k_list={list(self.k_list)!r} must not repeat a K")
        check_hcp_scope(self.hcp_scope)
        if (self.rho is None) == (self.target_r0 is None):
            raise ConfigError("exactly one of rho or target_r0 must be set")
        if self.unit_s < 1 or self.cost_rewirings < 1:
            raise ConfigError("unit_s and cost_rewirings must be >= 1")
        check_nonnegative(target_r0=self.target_r0, d_star_m=self.d_star_m,
                          y_star_h=self.y_star_h, time_limit_s=self.time_limit_s)
        rho = self.rho if self.rho is not None else 0.0  # calibration sets it later
        for replicates in (self.replicates, self.calibration_replicates):
            self.sim_config(rho, replicates, self.seed).check()
        check_z(z_from_rho(rho, self.unit_s))
        if self.facility is not None:  # run_experiment bounds real logs once it reads them
            for k in self.k_list:
                check_k(k, self.facility.rooms, self.facility.hcp_groups)

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.facility is not None:
            d["facility"]["hcp_groups"] = [list(g) for g in self.facility.hcp_groups]
        d["k_list"] = list(self.k_list)
        d["d_star_m"] = repr(self.d_star_m)
        d["y_star_h"] = repr(self.y_star_h)
        return d

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        try:
            raw = dict(raw)
            if raw.get("facility") is not None:
                raw["facility"] = FacilitySpec.from_dict(raw["facility"])
            raw["k_list"] = tuple(raw["k_list"])
            raw["d_star_m"] = float(raw["d_star_m"])
            raw["y_star_h"] = float(raw["y_star_h"])
            cfg = ExperimentConfig(**raw)
            cfg.check()
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc
        return cfg


@dataclass
class ExperimentResult:
    out_dir: Path
    rho: float
    clusterings: dict[int, BubbleClustering]
    summaries: dict[str, SimSummary]


class SolveFailure(CornError):
    """Optimizer did not return an optimal clustering for an experiment arm."""

    def __init__(self, k: int, status: str):
        super().__init__(f"clustering at k={k} ended with status {status!r}")
        self.k = k
        self.status = status


@dataclass(frozen=True)
class _Arm:
    """What every replicate of one method arm at one K reads."""

    method: str  # "corn" rewires to clustering; "random" draws its own per replicate
    clustering: BubbleClustering  # the solved one at this K
    graph: VisitGraph
    dist: DistanceMatrix
    sim: SimConfig  # the seed is the simulation master seed, shared by all arms
    master_seed: int
    keep_same_bubble_hcp: bool
    cost_rewirings: int  # replicates below this index also cost their rewiring


def _arm_job(arm: _Arm, rep: int):
    """One arm replicate: rewire, simulate, and cost the first rewirings."""
    graph, k = arm.graph, arm.clustering.k
    if arm.method == "random":
        clustering = random_clustering(
            graph.hcps, graph.locations.substitutable, k,
            seed=derive_seed(arm.master_seed, _NS_CLUSTER_RANDOM, k, rep))
        rw_seed = derive_seed(arm.master_seed, _NS_REWIRE_RANDOM, k, rep)
    else:
        clustering = arm.clustering
        rw_seed = derive_seed(arm.master_seed, _NS_REWIRE_CORN, k, rep)
    rw = rewire(graph, clustering, seed=rw_seed,
                keep_same_bubble_hcp=arm.keep_same_bubble_hcp)
    result = _run_replicate(build_contact_schedule(rw), clustering, arm.sim,
                            arm.sim.horizon(graph), rep)
    if rep >= arm.cost_rewirings:
        return result, None, None
    costs = compute_costs(rw, arm.dist)
    row = {
        "excess_load_mean_h_per_day": statistics.mean(costs.excess_load.values()),
        "unmet_demand_mean_h_per_day": statistics.mean(costs.unmet_demand.values()),
        "footsteps_mean_m_per_day": statistics.mean(costs.footsteps.values()),
        "excess_footsteps_mean_m_per_day": statistics.mean(costs.excess_footsteps.values()),
        "bubble_diameter_max_m": max(costs.bubble_diameters.values()),
        "dropped_visits": rw.dropped_count,
    }
    return result, row, costs if rep == 0 else None


def _run_arm(label: str, arm: _Arm) -> tuple[SimSummary, list[dict], CostReport]:
    """The arm's summary, its cost rows, and the cost report of replicate 0."""
    out = run_replicates(functools.partial(_arm_job, arm), arm.sim.replicates)
    echo = arm.sim.echo(label, arm.graph, arm.clustering.k) | {"method": arm.method}
    summary = _aggregate(label, [r for r, _, _ in out], echo)
    return summary, [row for _, row, _ in out if row is not None], out[0][2]


def _cost_summary(per: list[dict]) -> dict:
    """Cost aggregates across several independent rewirings."""
    agg = {
        key: statistics.mean(row[key] for row in per)
        for key in per[0]
    }
    return {"rewirings": len(per), "means": agg, "per_rewiring": per}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def resolve_rho(graph: VisitGraph | ContactSchedule,
                cfg: ExperimentConfig) -> tuple[float, dict]:
    """Either the explicit rho or a calibrated one, plus a provenance record.

    graph is the log, or a schedule already built from it.
    """
    if cfg.rho is not None:
        return cfg.rho, {"rho": cfg.rho, "source": "explicit"}
    # calibrate_rho does not read the config's rho
    cal_cfg = cfg.sim_config(0.0, cfg.calibration_replicates,
                             derive_seed(cfg.seed, _NS_CALIBRATION))
    cal = calibrate_rho(graph, cfg.target_r0, cal_cfg)
    return cal.rho, {
        "rho": cal.rho,
        "source": "calibrated",
        "target_r0": cfg.target_r0,
        "estimate_mean": cal.estimate.mean,
        "estimate_ci95": list(cal.estimate.ci95),
        "replicates": cfg.calibration_replicates,
    }


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> ExperimentResult:
    cfg.check()
    if cfg.facility is not None:
        facility = generate_facility(cfg.facility)
        spatial, hcps, locations = facility
        graph = generate_mobility(facility, cfg.facility)
        problems = validate(graph)
        if problems:
            raise ValidationError(f"synthetic inputs failed validation: {problems[0]}")
    else:
        hcps = load_hcp_roster(cfg.inputs["hcps"])
        locations = load_location_roster(cfg.inputs["locations"])
        graph = load_mobility_log(cfg.inputs["visits"], hcps, locations)
        spatial = load_spatial_graph(cfg.inputs["spatial"])
        groups = [(lab, len(hcps.members(lab))) for lab in hcps.group_labels]
        for k in cfg.k_list:
            check_k(k, len(locations.substitutable), groups)

    dist = shortest_path_metric(spatial, list(locations.ids))

    # nothing is written before the inputs are read and every K and room is checked against them
    out = Path(out_dir)
    reports = out / "reports"
    inputs_dir = reports / "inputs"
    sims_dir = reports / "sims"
    for d in (inputs_dir, sims_dir):
        d.mkdir(parents=True, exist_ok=True)
    if cfg.facility is not None:
        cfg.facility.to_json(inputs_dir / "facility.json")

    # canonical re-serialization; the report must not depend on input formatting
    write_hcp_roster(hcps, inputs_dir / "hcps.csv")
    write_location_roster(locations, inputs_dir / "locations.csv")
    write_mobility_log(graph, inputs_dir / "visits.csv")
    save_spatial_graph(spatial, inputs_dir / "spatial.json")

    loads = compute_loads_demands(graph)

    base = build_contact_schedule(graph)  # for calibration and the baseline arm
    rho, rho_record = resolve_rho(base, cfg)
    z = z_from_rho(rho, cfg.unit_s)
    weights = weight_matrix(graph, z, cfg.unit_s, hcp_scope=cfg.hcp_scope)
    write_weight_csv(weights, reports / "weights.csv")
    _write_json(reports / "params.json", {
        **rho_record, "z_per_interval": z, "unit_s": cfg.unit_s,
        "hcp_scope": cfg.hcp_scope, "d_star_m": repr(cfg.d_star_m),
        "y_star_h": repr(cfg.y_star_h),
    })

    sim_cfg = cfg.sim_config(rho, cfg.replicates, derive_seed(cfg.seed, _NS_SIM))
    summaries: dict[str, SimSummary] = {}
    summaries["baseline"] = simulate(base, None, sim_cfg, label="baseline")

    clusterings: dict[int, BubbleClustering] = {}
    solve_records: dict[str, dict] = {}
    for k in cfg.k_list:
        inst = ClusterInstance(
            weights=weights, hcps=hcps, k=k,
            d_star_m=cfg.d_star_m, y_star_h=cfg.y_star_h,
            dist=dist if math.isfinite(cfg.d_star_m) else None,
            loads=loads if math.isfinite(cfg.y_star_h) else None,
        )
        res: SolveResult = solve(build_model(inst), time_limit_s=cfg.time_limit_s)
        solve_records[f"k{k}"] = {
            "status": res.status,
            "objective": res.objective,
            "bound": res.bound,
            "nodes": res.nodes,
        }
        if res.status != "optimal":
            _write_json(reports / "solves.json", solve_records)
            raise SolveFailure(k, res.status)
        clusterings[k] = res.clustering
        save_clustering(res.clustering, reports / f"clustering_corn_k{k}.json")

        arm = _Arm(
            method="corn", clustering=res.clustering, graph=graph, dist=dist, sim=sim_cfg,
            master_seed=cfg.seed, keep_same_bubble_hcp=cfg.keep_same_bubble_hcp,
            cost_rewirings=cfg.cost_rewirings,
        )
        for method in ("corn", "random"):
            label = f"{method}_k{k}"
            summaries[label], cost_rows, canonical = _run_arm(
                label, replace(arm, method=method))
            write_cost_csv(canonical, reports / f"costs_{label}_hcp.csv",
                           reports / f"costs_{label}_loc.csv")
            _write_json(reports / f"costs_{label}.json", _cost_summary(cost_rows))

    _write_json(reports / "solves.json", solve_records)

    for label, summary in summaries.items():
        summary_to_json(summary, sims_dir / f"{label}.json")
        replicates_to_csv(summary, sims_dir / f"{label}.csv")

    _write_metrics(reports, cfg, summaries)
    _write_long_csv(reports / "infections_long.csv", summaries)

    comparisons = {}
    for k in cfg.k_list:
        pair = [summaries[f"random_k{k}"], summaries[f"corn_k{k}"]]
        rep = compare_runs(pair, seed=derive_seed(cfg.seed, _NS_COMPARE, k))
        comparisons[f"k{k}"] = {"rows": rep.rows, "diffs": rep.diffs}
    _write_json(reports / "comparison.json", comparisons)

    return ExperimentResult(out_dir=out, rho=rho, clusterings=clusterings,
                            summaries=summaries)


def _write_metrics(reports: Path, cfg: ExperimentConfig,
                   summaries: dict[str, SimSummary]) -> None:
    def row(label: str) -> str:
        a = summaries[label].aggregates
        leave = "" if a["leave_pct"] is None else repr(a["leave_pct"])
        reach = "" if a["reach_pct"] is None else repr(a["reach_pct"])
        method = label.split("_k")[0]
        return ",".join([
            method,
            label.split("_k")[1] if "_k" in label else "",
            str(a["replicates"]),
            repr(a["infections_mean"]), repr(a["infections_median"]),
            repr(a["infections_q25"]), repr(a["infections_q75"]),
            leave, reach,
        ])

    header = ("method,k,replicates,infections_mean,infections_median,"
              "infections_q25,infections_q75,leave_pct,reach_pct\n")
    for k in cfg.k_list:
        with open(reports / f"metrics_k{k}.csv", "w") as f:
            f.write(header)
            f.write(row("baseline") + "\n")
            f.write(row(f"corn_k{k}") + "\n")
            f.write(row(f"random_k{k}") + "\n")
    with open(reports / "metrics_all.csv", "w") as f:
        f.write(header)
        f.write(row("baseline") + "\n")
        for k in cfg.k_list:
            f.write(row(f"corn_k{k}") + "\n")
            f.write(row(f"random_k{k}") + "\n")


def _write_long_csv(path: Path, summaries: dict[str, SimSummary]) -> None:
    """Plot-ready long format: one row per (arm, replicate)."""
    def flag(v) -> str:
        return "" if v is None else ("true" if v else "false")

    with open(path, "w") as f:
        f.write("method,k,replicate,infections,leave,reach\n")
        for label, summary in summaries.items():
            method = label.split("_k")[0]
            k = label.split("_k")[1] if "_k" in label else ""
            for r in summary.results:
                f.write(f"{method},{k},{r.replicate},{r.infections},"
                        f"{flag(r.leave)},{flag(r.reach)}\n")
