"""Command line interface.

One binary, subcommand style. Every command that produces artifacts also
writes a RunManifest next to them; the manifest plus the original inputs
is enough to reproduce the artifacts byte for byte (timestamps live only
in the manifest itself).

Exit codes:
  0  success / optimal
  1  validation violations, or a runtime failure
  2  usage errors, unreadable or malformed inputs
  3  the partition problem is infeasible
  4  the solver hit its time limit
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__
from .clustering import load_clustering, save_clustering
from .episim import replicates_to_csv, simulate, summary_to_json
from .errors import ConfigError, CornError, InvalidKError, ParseError, SpecError
from .manifest import RunManifest, load_manifest, sha256_file, sha256_text, write_manifest
from .model import (
    Violation,
    compute_loads_demands,
    load_hcp_roster,
    load_location_roster,
    load_mobility_log,
    read_mobility_log,
    validate,
    write_hcp_roster,
    write_location_roster,
    write_mobility_log,
)
from .optimizer import ClusterInstance, build_model, export_model, solve
from .pipeline import ExperimentConfig, SolveFailure, run_experiment
from .rewiring import rewire
from .spatial import load_spatial_graph, save_spatial_graph, shortest_path_metric
from .synth import FacilitySpec, generate_facility, generate_mobility
from .weights import HCP_SCOPES, weight_matrix, write_weight_csv, z_from_rho

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_TIMEOUT = 4

_STATUS_EXIT = {"optimal": EXIT_OK, "infeasible": EXIT_INFEASIBLE, "timeout": EXIT_TIMEOUT}


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hcps", required=True, help="HCP roster CSV")
    p.add_argument("--locations", required=True, help="location roster CSV")
    p.add_argument("--visits", required=True, help="mobility log CSV")
    p.add_argument("--spatial", default=None, help="spatial graph JSON (optional)")


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--z", type=float, default=None,
                   help="per-interval transmission probability")
    g.add_argument("--rho", type=float, default=None,
                   help="per-minute transmission rate; z is derived from unit-s")
    p.add_argument("--unit-s", type=int, default=ExperimentConfig.unit_s,
                   help="interval grid in seconds")
    p.add_argument("--hcp-scope", choices=HCP_SCOPES, default=ExperimentConfig.hcp_scope,
                   help="which HCP types contribute indirect-route weight")


def _resolve_z(args) -> float:
    if args.z is not None:
        return args.z
    return z_from_rho(args.rho, args.unit_s)


def _load_inputs(args):
    """The rosters and the validated log; ValidationError names the first violation."""
    hcps = load_hcp_roster(args.hcps)
    locations = load_location_roster(args.locations)
    graph = load_mobility_log(args.visits, hcps, locations)
    return hcps, locations, graph


def _input_hashes(args, names: tuple[str, ...]) -> dict[str, str]:
    out = {}
    for name in names:
        path = getattr(args, name, None)
        if path is not None:
            out[name] = sha256_file(path)
    return out


def _start_manifest(command: str, argv: list[str], config: dict, seed: int,
                    hashes: dict[str, str]) -> RunManifest:
    return RunManifest.start(command=command, argv=argv, config=config,
                             seed=seed, version=__version__, input_hashes=hashes)


def _finish_manifest(m: RunManifest, out_dir: Path) -> None:
    m.finish()
    write_manifest(m, out_dir / "manifest.json")


# -- validate ---------------------------------------------------------------

def cmd_validate(args, argv) -> int:
    hcps = load_hcp_roster(args.hcps)
    locations = load_location_roster(args.locations)
    graph = read_mobility_log(args.visits, hcps, locations)
    problems = validate(graph)
    if args.spatial is not None:
        spatial = load_spatial_graph(args.spatial)
        for l in locations.ids:
            if l not in spatial.location_map:
                problems.append(Violation("unmapped-location", l, "no spatial node"))
    if not problems:
        print(f"OK: {len(graph.visits)} visits, {len(hcps.ids)} HCPs, "
              f"{len(locations.ids)} locations, {graph.day_count} days")
        return EXIT_OK
    for v in problems:
        print(f"VIOLATION {v.rule} ({v.entity}): {v.detail}")
    print(f"{len(problems)} violations")
    return EXIT_FAIL


# -- synth ------------------------------------------------------------------

def cmd_synth(args, argv) -> int:
    spec = FacilitySpec.from_json(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    m = _start_manifest("synth", argv, {"spec": spec.to_dict()}, spec.seed,
                        {"spec": sha256_file(args.spec)})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    facility = generate_facility(spec)
    spatial, hcps, locations = facility
    graph = generate_mobility(facility, spec)
    spec.to_json(out / "facility.json")
    write_hcp_roster(hcps, out / "hcps.csv")
    write_location_roster(locations, out / "locations.csv")
    write_mobility_log(graph, out / "visits.csv")
    save_spatial_graph(spatial, out / "spatial.json")
    _finish_manifest(m, out)
    print(f"wrote {len(graph.visits)} visits over {graph.day_count} days to {out}")
    return EXIT_OK


# -- weights ----------------------------------------------------------------

def cmd_weights(args, argv) -> int:
    z = _resolve_z(args)
    cfg = {"z": z, "rho": args.rho, "unit_s": args.unit_s, "hcp_scope": args.hcp_scope}
    m = _start_manifest("weights", argv, cfg, args.seed,
                        _input_hashes(args, ("hcps", "locations", "visits")))
    hcps, locations, graph = _load_inputs(args)
    wm = weight_matrix(graph, z, args.unit_s, hcp_scope=args.hcp_scope)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_weight_csv(wm, out / "weights.csv")
    _finish_manifest(m, out)
    print(f"wrote {len(wm.nonzero_pairs())} positive pairs to {out / 'weights.csv'}")
    return EXIT_OK


# -- cluster / export-model --------------------------------------------------

def _build_instance(args) -> ClusterInstance:
    hcps, locations, graph = _load_inputs(args)
    z = _resolve_z(args)
    wm = weight_matrix(graph, z, args.unit_s, hcp_scope=args.hcp_scope)
    dist = None
    if math.isfinite(args.d_star_m):
        if args.spatial is None:
            raise ConfigError("--d-star-m is finite, so --spatial is required")
        spatial = load_spatial_graph(args.spatial)
        dist = shortest_path_metric(spatial, list(wm.locations))
    loads = None
    if math.isfinite(args.y_star_h):
        loads = compute_loads_demands(graph)
    return ClusterInstance(weights=wm, hcps=hcps, k=args.k,
                           d_star_m=args.d_star_m, y_star_h=args.y_star_h,
                           dist=dist, loads=loads)


def _cluster_config(args, z: float) -> dict:
    return {
        "k": args.k, "d_star_m": repr(args.d_star_m), "y_star_h": repr(args.y_star_h),
        "z": z, "rho": args.rho, "unit_s": args.unit_s, "hcp_scope": args.hcp_scope,
        "time_limit_s": args.time_limit_s,
    }


def cmd_cluster(args, argv) -> int:
    m = _start_manifest("cluster", argv, _cluster_config(args, _resolve_z(args)),
                        args.seed,
                        _input_hashes(args, ("hcps", "locations", "visits", "spatial")))
    inst = _build_instance(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    res = solve(build_model(inst), time_limit_s=args.time_limit_s)
    record = {
        "status": res.status, "objective": res.objective, "bound": res.bound,
        "nodes": res.nodes, "runtime_s": res.runtime_s,
    }
    if res.clustering is not None:
        save_clustering(res.clustering, out / "clustering.json")
    (out / "solve.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    _finish_manifest(m, out)
    print(f"status {res.status}"
          + (f", objective {res.objective:.6f}" if res.objective is not None else "")
          + f", {res.nodes} nodes, {res.runtime_s:.2f}s")
    return _STATUS_EXIT[res.status]


def cmd_export_model(args, argv) -> int:
    cfg = _cluster_config(args, _resolve_z(args))
    cfg["format"] = args.format
    m = _start_manifest("export-model", argv, cfg, args.seed,
                        _input_hashes(args, ("hcps", "locations", "visits", "spatial")))
    model = build_model(_build_instance(args))
    text = export_model(model, f"{args.format}-text")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"model.{args.format}"
    path.write_text(text)
    m.input_hashes["model"] = sha256_text(text)
    _finish_manifest(m, out)
    print(f"wrote {path}")
    return EXIT_OK


# -- simulate ----------------------------------------------------------------

def cmd_simulate(args, argv) -> int:
    hcps, locations, graph = _load_inputs(args)
    clustering = load_clustering(args.clustering) if args.clustering else None
    cfg = ExperimentConfig(**_config_fields(args)).sim_config(
        args.rho, args.replicates, args.seed)
    if args.rewire and clustering is None:
        raise ConfigError("--rewire needs --clustering")
    g = rewire(graph, clustering, seed=args.seed) if args.rewire else graph
    k = clustering.k if clustering is not None else None
    m = _start_manifest("simulate", argv, cfg.echo("sim", g, k), args.seed,
                        _input_hashes(args, ("hcps", "locations", "visits", "clustering")))
    summary = simulate(g, clustering, cfg, label="sim")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    replicates_to_csv(summary, out / "sim.csv")
    summary_to_json(summary, out / "sim.json")
    _finish_manifest(m, out)
    a = summary.aggregates
    print(f"{args.replicates} replicates, mean infections {a['infections_mean']:.3f}")
    return EXIT_OK


# -- experiment ---------------------------------------------------------------

def _parse_k_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad K list {raw!r}; expected comma-separated ints") from exc


def _config_fields(args) -> dict:
    """The ExperimentConfig fields that the parsed flags carry under the field's name."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)
            if f.name not in ("facility", "inputs") and hasattr(args, f.name)}


def _experiment_config(args) -> ExperimentConfig:
    facility = None
    inputs = None
    if args.facility is not None:
        facility = FacilitySpec.from_json(args.facility)
    else:
        if not all((args.hcps, args.locations, args.visits, args.spatial)):
            raise ConfigError(
                "experiment needs --facility, or all of --hcps/--locations/--visits/--spatial")
        inputs = {"hcps": args.hcps, "locations": args.locations,
                  "visits": args.visits, "spatial": args.spatial}
    return ExperimentConfig(facility=facility, inputs=inputs, k_list=_parse_k_list(args.k),
                            **_config_fields(args))


def _experiment_hashes(cfg: ExperimentConfig, args) -> dict[str, str]:
    hashes = {"config": sha256_text(json.dumps(cfg.to_dict(), sort_keys=True))}
    if cfg.inputs is not None:
        for name, path in sorted(cfg.inputs.items()):
            hashes[name] = sha256_file(path)
    elif getattr(args, "facility", None):
        hashes["facility"] = sha256_file(args.facility)
    return hashes


def cmd_experiment(args, argv) -> int:
    if args.from_manifest is not None:
        prev = load_manifest(args.from_manifest)
        if prev.command != "experiment":
            raise ConfigError(
                f"manifest records command {prev.command!r}, not an experiment")
        cfg = ExperimentConfig.from_dict(prev.config)
        if cfg.inputs is not None:
            for name, path in sorted(cfg.inputs.items()):
                now = sha256_file(path)
                if prev.input_hashes.get(name) not in (None, now):
                    raise ConfigError(
                        f"input {name!r} at {path} changed since the manifest was written")
    else:
        cfg = _experiment_config(args)
    cfg.check()
    out = Path(args.out)
    m = _start_manifest("experiment", argv, cfg.to_dict(), cfg.seed,
                        _experiment_hashes(cfg, args))
    result = run_experiment(cfg, out)
    _finish_manifest(m, out)
    for label in sorted(result.summaries):
        a = result.summaries[label].aggregates
        reach = "" if a["reach_pct"] is None else f", reach {a['reach_pct']:.1f}%"
        print(f"{label}: mean infections {a['infections_mean']:.3f}{reach}")
    print(f"rho {result.rho:.6g}; reports in {out / 'reports'}")
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="corn",
        description="Bubble clustering of rooms and staff against in-facility outbreaks.",
    )
    ap.add_argument("--version", action="version", version=f"corn {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check rosters and a mobility log")
    _add_input_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic facility")
    p.add_argument("--spec", required=True, help="facility spec JSON")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("weights", help="compute pairwise transmission weights")
    _add_input_flags(p)
    _add_weight_flags(p)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_weights)

    for name, fn, extra in (
        ("cluster", cmd_cluster, "solve the bubble partition"),
        ("export-model", cmd_export_model, "write the partition model as LP or MPS text"),
    ):
        p = sub.add_parser(name, help=extra)
        _add_input_flags(p)
        _add_weight_flags(p)
        p.add_argument("--k", type=int, required=True, help="number of bubbles")
        _add_cap_flags(p)
        p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
        p.add_argument("--out", required=True, help="output directory")
        if name == "export-model":
            p.add_argument("--format", choices=("lp", "mps"), default="lp")
        p.set_defaults(func=fn)

    p = sub.add_parser("simulate", help="run outbreak replicates on a mobility log")
    _add_input_flags(p)
    p.add_argument("--clustering", default=None, help="clustering JSON to confine HCPs")
    p.add_argument("--rewire", action="store_true",
                   help="rewire the log to the clustering before simulating")
    p.add_argument("--rho", type=float, required=True, help="per-minute transmission rate")
    _add_sim_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="full multi-arm clustering study")
    p.add_argument("--facility", default=None, help="facility spec JSON")
    p.add_argument("--hcps", default=None)
    p.add_argument("--locations", default=None)
    p.add_argument("--visits", default=None)
    p.add_argument("--spatial", default=None)
    p.add_argument("--from-manifest", default=None,
                   help="re-run the exact configuration of an earlier manifest")
    p.add_argument("--k", default=",".join(map(str, ExperimentConfig.k_list)),
                   help="comma-separated bubble counts")
    rho_group = p.add_mutually_exclusive_group()
    rho_group.add_argument("--rho", type=float, default=ExperimentConfig.rho)
    rho_group.add_argument("--target-r0", type=float, default=ExperimentConfig.target_r0,
                           help="calibrate rho to this baseline R0")
    p.add_argument("--unit-s", type=int, default=ExperimentConfig.unit_s)
    _add_cap_flags(p)
    p.add_argument("--hcp-scope", choices=HCP_SCOPES, default=ExperimentConfig.hcp_scope)
    p.add_argument("--keep-same-bubble-hcp", action="store_true")
    p.add_argument("--calibration-replicates", type=int,
                   default=ExperimentConfig.calibration_replicates)
    p.add_argument("--cost-rewirings", type=int, default=ExperimentConfig.cost_rewirings)
    _add_sim_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_experiment)

    return ap


def _add_cap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-star-m", type=float, default=ExperimentConfig.d_star_m,
                   help="bubble diameter cap in meters, or inf")
    p.add_argument("--y-star-h", type=float, default=ExperimentConfig.y_star_h,
                   help="load-demand gap cap in hours/day, or inf")
    p.add_argument("--time-limit-s", type=float, default=ExperimentConfig.time_limit_s)


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    """Replicates, seed, horizon and the disease and contact model, as in ExperimentConfig."""
    c = ExperimentConfig
    p.add_argument("--replicates", type=int, default=c.replicates)
    p.add_argument("--seed", type=int, default=c.seed)
    p.add_argument("--horizon-days", type=int, default=c.horizon_days)
    p.add_argument("--incubation-days", type=int, default=c.incubation_days)
    p.add_argument("--recovery-days", type=int, default=c.recovery_days)
    p.add_argument("--cross-bubble-scale", type=float, default=c.cross_bubble_scale)
    p.add_argument("--casual-contacts-per-day", type=float, default=c.casual_contacts_per_day)
    p.add_argument("--casual-duration-min", type=float, default=c.casual_duration_min)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, list(argv))
    except SolveFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _STATUS_EXIT.get(exc.status, EXIT_FAIL)
    except (ParseError, SpecError, ConfigError, InvalidKError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CornError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()
