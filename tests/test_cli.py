from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corn.cli
from corn.cli import (
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    _experiment_config,
    build_parser,
    main,
)
from corn.episim import DiseaseParams, SimConfig
from corn.optimizer import branch_bound
from corn.pipeline import ExperimentConfig
from corn.synth import FacilitySpec


def tiny_spec(**kw):
    defaults = dict(
        rooms=6, hallway_nodes=3, hcp_groups=(("n", 4),), non_substitutable=1,
        corridor_length_m=20.0, shift_length_h=8.0, visits_per_hcp_per_day=6,
        visit_duration_min=15.0, locality=0.6, days=2, seed=3, zones=2,
    )
    defaults.update(kw)
    return FacilitySpec(**defaults)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    tiny_spec().to_json(spec_path)
    out = root / "inputs"
    rc = main(["synth", "--spec", str(spec_path), "--out", str(out)])
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="module")
def clustering(inputs, tmp_path_factory):
    out = tmp_path_factory.mktemp("clustering")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["cluster", *input_args(inputs), "--rho", "0.001", "--k", "2",
                   "--out", str(out)])
    assert rc == EXIT_OK
    return out / "clustering.json"


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    spec_path = root / "spec.json"
    tiny_spec().to_json(spec_path)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["experiment", "--facility", str(spec_path), "--k", "1", "--rho", "0.002",
                   "--replicates", "1", "--cost-rewirings", "1", "--out", str(root / "exp")])
    assert rc == EXIT_OK
    return root / "exp" / "manifest.json"


def manifest_text(config) -> str:
    """An experiment manifest around the given config."""
    return json.dumps({"command": "experiment", "argv": [], "input_hashes": {},
                       "config": config, "seed": 0, "version": "0", "created_utc": ""})


# NaN or negative caps and time limits; each is a usage error
BAD_CAPS = [[flag, value] for flag in ("--d-star-m", "--y-star-h", "--time-limit-s")
            for value in ("nan", "-1")]

# model values out of range; each is a usage error
BAD_MODEL = [["--cross-bubble-scale", "2"], ["--incubation-days", "0"],
             ["--recovery-days", "0"], ["--horizon-days", "0"],
             ["--casual-duration-min", "nan"], ["--casual-contacts-per-day", "-1"],
             ["--target-r0", "nan"]]

# K above the tiny spec's 4 nurses or 6 rooms, or a K given twice
BAD_K = [["--k", "5"], ["--k", "7"], ["--k", "2,1,2"]]


def input_args(d):
    return ["--hcps", str(d / "hcps.csv"), "--locations", str(d / "locations.csv"),
            "--visits", str(d / "visits.csv")]


def overlapping_inputs(inputs: Path, tmp_path: Path) -> Path:
    """A copy of inputs whose log repeats its first visit a minute later, an overlap."""
    for name in ("hcps.csv", "locations.csv"):
        (tmp_path / name).write_bytes((inputs / name).read_bytes())
    rows = (inputs / "visits.csv").read_text().splitlines()
    hcp, loc, start, end = rows[1].split(",")
    dup = [hcp, loc, str(int(start) + 60), str(int(end) + 60)]
    (tmp_path / "visits.csv").write_text("\n".join(rows + [",".join(dup)]) + "\n")
    return tmp_path


class TestSynthValidate:
    def test_synth_writes_inputs(self, inputs):
        for name in ("facility.json", "hcps.csv", "locations.csv", "visits.csv",
                     "spatial.json", "manifest.json"):
            assert (inputs / name).exists()

    def test_validate_clean(self, inputs, capsys):
        rc = main(["validate", *input_args(inputs),
                   "--spatial", str(inputs / "spatial.json")])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("OK:")

    def test_validate_reports_overlap(self, inputs, tmp_path, capsys):
        rc = main(["validate", *input_args(overlapping_inputs(inputs, tmp_path))])
        assert rc == EXIT_FAIL
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "overlap" in out

    @pytest.mark.parametrize("command,flags", [
        ("weights", ["--rho", "0.001"]),
        ("cluster", ["--rho", "0.001", "--k", "2"]),
        ("export-model", ["--rho", "0.001", "--k", "2"]),
        ("simulate", ["--rho", "0.002", "--replicates", "1"]),
    ])
    def test_overlap_fails_other_commands(self, inputs, tmp_path, capsys, command, flags):
        out = tmp_path / "out"
        rc = main([command, *input_args(overlapping_inputs(inputs, tmp_path)), *flags,
                   "--out", str(out)])
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert "overlap" in err and "run the validate command for the full list" in err
        assert not out.exists()

    def test_missing_file_usage_error(self, inputs, tmp_path, capsys):
        rc = main(["validate", "--hcps", str(tmp_path / "nope.csv"),
                   "--locations", str(inputs / "locations.csv"),
                   "--visits", str(inputs / "visits.csv")])
        assert rc == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_bad_flag(self, capsys):
        assert main(["validate", "--nope"]) == EXIT_USAGE
        capsys.readouterr()

    def test_version(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("corn ")


class TestWeights:
    def test_weights_csv(self, inputs, tmp_path, capsys):
        out = tmp_path / "w"
        rc = main(["weights", *input_args(inputs), "--rho", "0.001",
                   "--unit-s", "60", "--out", str(out)])
        assert rc == EXIT_OK
        with open(out / "weights.csv") as f:
            rows = list(csv.DictReader(f))
        # 6 rooms -> 15 unordered pairs, zeros included
        assert len(rows) == 15
        assert all(0.0 <= float(r["weight"]) <= 1.0 for r in rows)
        assert (out / "manifest.json").exists()
        capsys.readouterr()

    def test_z_and_rho_exclusive(self, inputs, tmp_path, capsys):
        rc = main(["weights", *input_args(inputs), "--rho", "0.001",
                   "--z", "0.1", "--out", str(tmp_path / "w2")])
        assert rc == EXIT_USAGE
        capsys.readouterr()


class TestCluster:
    def test_optimal(self, inputs, tmp_path, capsys):
        out = tmp_path / "c"
        rc = main(["cluster", *input_args(inputs), "--rho", "0.001",
                   "--k", "2", "--out", str(out)])
        assert rc == EXIT_OK
        clu = json.loads((out / "clustering.json").read_text())
        assert clu["k"] == 2
        assert len(clu["location_bubble"]) == 6
        solve = json.loads((out / "solve.json").read_text())
        assert solve["status"] == "optimal"
        assert "status optimal" in capsys.readouterr().out

    def test_infeasible_exit(self, inputs, tmp_path, capsys):
        # rooms sit meters apart, so a sub-meter diameter cannot be met
        rc = main(["cluster", *input_args(inputs),
                   "--spatial", str(inputs / "spatial.json"),
                   "--rho", "0.001", "--k", "2", "--d-star-m", "0.5",
                   "--out", str(tmp_path / "c2")])
        assert rc == EXIT_INFEASIBLE
        capsys.readouterr()

    def test_diameter_needs_spatial(self, inputs, tmp_path, capsys):
        rc = main(["cluster", *input_args(inputs), "--rho", "0.001",
                   "--k", "2", "--d-star-m", "10", "--out", str(tmp_path / "c3")])
        assert rc == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("flags", BAD_CAPS)
    def test_bad_caps_and_time_limit(self, inputs, tmp_path, capsys, flags):
        rc = main(["cluster", *input_args(inputs), "--spatial", str(inputs / "spatial.json"),
                   "--rho", "0.001", "--k", "2", *flags, "--out", str(tmp_path / "c5")])
        assert rc == EXIT_USAGE
        assert "must be a number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("length", [True, "3.5", " 2 "])
    def test_edge_length_must_be_a_number(self, inputs, tmp_path, capsys, length):
        spatial = json.loads((inputs / "spatial.json").read_text())
        spatial["edges"][0][2] = length
        path = tmp_path / "spatial.json"
        path.write_text(json.dumps(spatial))
        rc = main(["cluster", *input_args(inputs), "--spatial", str(path), "--rho", "0.001",
                   "--k", "2", "--d-star-m", "100", "--out", str(tmp_path / "c6")])
        assert rc == EXIT_USAGE
        assert "edge length must be a number" in capsys.readouterr().err

    def test_timeout_exit(self, tmp_path, capsys):
        # 12 locations push past the exact-solver comfort zone instantly
        spec_path = tmp_path / "spec.json"
        tiny_spec(rooms=12, zones=3, hcp_groups=(("n", 6),)).to_json(spec_path)
        data = tmp_path / "big"
        assert main(["synth", "--spec", str(spec_path), "--out", str(data)]) == EXIT_OK
        rc = main(["cluster", *input_args(data), "--rho", "0.001", "--k", "3",
                   "--time-limit-s", "0.0", "--out", str(tmp_path / "c4")])
        assert rc == EXIT_TIMEOUT
        capsys.readouterr()

    def test_default_time_limit_is_finite(self):
        # a dense solve can run for hours, so every default stops it
        limit = ExperimentConfig.time_limit_s
        assert limit is not None and math.isfinite(limit)
        ap = build_parser()
        cluster = ap.parse_args(["cluster", "--hcps", "h", "--locations", "l", "--visits", "v",
                                 "--rho", "0.001", "--k", "2", "--out", "o"])
        experiment = ap.parse_args(["experiment", "--facility", "f", "--out", "o"])
        assert cluster.time_limit_s == experiment.time_limit_s == limit

    def test_experiment_timeout_records_bound(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        tiny_spec(rooms=12, zones=3, hcp_groups=(("n", 6),)).to_json(spec_path)
        out = tmp_path / "exp"
        rc = main(["experiment", "--facility", str(spec_path), "--k", "3", "--rho", "0.001",
                   "--replicates", "1", "--time-limit-s", "0.0", "--out", str(out)])
        assert rc == EXIT_TIMEOUT
        assert "timeout" in capsys.readouterr().err
        solves = json.loads((out / "reports" / "solves.json").read_text())
        assert solves["k3"]["status"] == "timeout"
        assert solves["k3"]["bound"] is not None


class TestExport:
    def test_lp_text(self, inputs, tmp_path, capsys):
        out = tmp_path / "m"
        rc = main(["export-model", *input_args(inputs), "--rho", "0.001",
                   "--k", "2", "--format", "lp", "--out", str(out)])
        assert rc == EXIT_OK
        text = (out / "model.lp").read_text()
        assert text.startswith("\\ bubble partition model")
        assert "Minimize" in text and "Binary" in text
        capsys.readouterr()

    def test_mps_text(self, inputs, tmp_path, capsys):
        out = tmp_path / "m2"
        rc = main(["export-model", *input_args(inputs), "--rho", "0.001",
                   "--k", "2", "--format", "mps", "--out", str(out)])
        assert rc == EXIT_OK
        text = (out / "model.mps").read_text()
        assert text.splitlines()[0].startswith("NAME")
        assert text.rstrip().endswith("ENDATA")
        capsys.readouterr()


class TestSimulate:
    def test_baseline_run(self, inputs, tmp_path, capsys):
        out = tmp_path / "s"
        rc = main(["simulate", *input_args(inputs), "--rho", "0.002",
                   "--replicates", "5", "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "sim.csv").read_text().splitlines()
        assert lines[0] == "replicate,infections,leave,reach"
        assert len(lines) == 6
        payload = json.loads((out / "sim.json").read_text())
        assert payload["aggregates"]["replicates"] == 5
        capsys.readouterr()

    def test_clustered_rewired_run(self, inputs, tmp_path, capsys):
        clu_dir = tmp_path / "c"
        assert main(["cluster", *input_args(inputs), "--rho", "0.001",
                     "--k", "2", "--out", str(clu_dir)]) == EXIT_OK
        out = tmp_path / "s2"
        rc = main(["simulate", *input_args(inputs), "--rho", "0.002",
                   "--clustering", str(clu_dir / "clustering.json"), "--rewire",
                   "--replicates", "5", "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "sim.csv").read_text().splitlines()
        assert all(line.split(",")[2] in ("true", "false") for line in lines[1:])
        capsys.readouterr()

    def test_rewire_needs_clustering(self, inputs, tmp_path, capsys):
        rc = main(["simulate", *input_args(inputs), "--rho", "0.002",
                   "--rewire", "--replicates", "2", "--out", str(tmp_path / "s3")])
        assert rc == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("rewire", [[], ["--rewire"]])
    def test_clustering_must_cover_the_log(self, inputs, clustering, tmp_path, capsys, rewire):
        raw = json.loads(clustering.read_text())
        raw["location_bubble"].pop(sorted(raw["location_bubble"])[0])
        bad = tmp_path / "partial.json"
        bad.write_text(json.dumps(raw))
        rc = main(["simulate", *input_args(inputs), "--rho", "0.002", "--clustering", str(bad),
                   *rewire, "--replicates", "1", "--out", str(tmp_path / "s4")])
        assert rc == EXIT_USAGE
        assert "clustering covers different locations" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("k", 2.7), ("hcp_bubble", 1.9), ("k", True), ("location_bubble", "2"),
    ])
    def test_clustering_indices_must_be_integers(self, inputs, clustering, tmp_path, capsys,
                                                 field, value):
        raw = json.loads(clustering.read_text())
        if field == "k":
            raw["k"] = value
        else:
            raw[field][sorted(raw[field])[0]] = value
        bad = tmp_path / "fractional.json"
        bad.write_text(json.dumps(raw))
        rc = main(["simulate", *input_args(inputs), "--rho", "0.002", "--clustering", str(bad),
                   "--replicates", "1", "--out", str(tmp_path / "s6")])
        assert rc == EXIT_USAGE
        assert f"{value!r} is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, "1.5", " 2 "])
    def test_objective_must_be_a_number(self, inputs, clustering, tmp_path, capsys, value):
        raw = json.loads(clustering.read_text())
        raw["objective_value"] = value
        bad = tmp_path / "objective.json"
        bad.write_text(json.dumps(raw))
        rc = main(["simulate", *input_args(inputs), "--rho", "0.002", "--clustering", str(bad),
                   "--replicates", "1", "--out", str(tmp_path / "s7")])
        assert rc == EXIT_USAGE
        assert f"objective_value {value!r} is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--rho", "nan"],
        ["--rho", "-0.1"],
        ["--rho", "0.002", "--casual-contacts-per-day", "nan"],
        ["--rho", "0.002", "--casual-contacts-per-day", "-1"],
        ["--rho", "0.002", "--casual-duration-min", "nan"],
        ["--rho", "0.002", "--casual-duration-min", "-1"],
    ])
    def test_bad_model_inputs(self, inputs, tmp_path, capsys, flags):
        rc = main(["simulate", *input_args(inputs), *flags, "--replicates", "1",
                   "--out", str(tmp_path / "s5")])
        assert rc == EXIT_USAGE
        assert "must be" in capsys.readouterr().err


class TestSolverVerifies:
    """solve verifies every clustering it returns; the commands trust it."""

    @pytest.fixture(autouse=True)
    def failed_verification(self, monkeypatch):
        monkeypatch.setattr(branch_bound, "verify_clustering", lambda c, inst: ["planted"])

    def test_cluster_exits_1_and_writes_no_clustering(self, inputs, tmp_path, capsys):
        out = tmp_path / "c"
        rc = main(["cluster", *input_args(inputs), "--rho", "0.001", "--k", "2",
                   "--out", str(out)])
        assert rc == EXIT_FAIL
        assert "planted" in capsys.readouterr().err
        assert not (out / "clustering.json").exists()

    def test_experiment_exits_1(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        tiny_spec().to_json(spec_path)
        rc = main(["experiment", "--facility", str(spec_path), "--k", "1", "--rho", "0.002",
                   "--replicates", "1", "--cost-rewirings", "1", "--out", str(tmp_path / "exp")])
        assert rc == EXIT_FAIL
        assert "planted" in capsys.readouterr().err


class TestExperiment:
    def test_facility_smoke(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        tiny_spec(days=2).to_json(spec_path)
        out = tmp_path / "exp"
        rc = main(["experiment", "--facility", str(spec_path), "--k", "1,2",
                   "--rho", "0.002", "--replicates", "4", "--cost-rewirings", "2",
                   "--calibration-replicates", "10", "--out", str(out)])
        assert rc == EXIT_OK
        reports = out / "reports"
        assert (out / "manifest.json").exists()
        assert (reports / "metrics_all.csv").exists()
        assert (reports / "clustering_corn_k2.json").exists()
        assert (reports / "comparison.json").exists()
        text = capsys.readouterr().out
        assert "corn_k2" in text

    def test_from_manifest_reproduces(self, tmp_path, capsys):
        import subprocess

        spec_path = tmp_path / "spec.json"
        tiny_spec(days=2).to_json(spec_path)
        a, b = tmp_path / "runA", tmp_path / "runB"
        base = ["experiment", "--facility", str(spec_path), "--k", "2",
                "--rho", "0.002", "--replicates", "3", "--cost-rewirings", "2"]
        assert main([*base, "--out", str(a)]) == EXIT_OK
        rc = main(["experiment", "--from-manifest", str(a / "manifest.json"),
                   "--out", str(b)])
        assert rc == EXIT_OK
        diff = subprocess.run(
            ["diff", "-r", str(a / "reports"), str(b / "reports")],
            capture_output=True, text=True)
        assert diff.returncode == 0, diff.stdout
        capsys.readouterr()

    def test_rho_or_target_required(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        tiny_spec().to_json(spec_path)
        rc = main(["experiment", "--facility", str(spec_path),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("flags", BAD_CAPS + BAD_MODEL + BAD_K)
    def test_bad_caps_fail_before_calibration(self, tmp_path, capsys, flags):
        spec_path = tmp_path / "spec.json"
        tiny_spec().to_json(spec_path)
        out = tmp_path / "z"
        rc = main(["experiment", "--facility", str(spec_path), "--target-r0", "2.0",
                   "--k", "2", *flags, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("target", ["inf", "1e308"])
    def test_unreachable_target_fails_cleanly(self, tmp_path, capsys, target):
        # target * replicates has no integer round; calibration must still say why
        spec_path = tmp_path / "spec.json"
        tiny_spec().to_json(spec_path)
        rc = main(["experiment", "--facility", str(spec_path), "--target-r0", target,
                   "--k", "2", "--replicates", "2", "--calibration-replicates", "10",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert f"target R0 {float(target):g} unreachable" in err
        assert "Traceback" not in err

    def test_repeated_k_in_manifest_fails_before_output(self, tmp_path, capsys):
        # a K given twice would run its arms twice and list their metrics rows twice
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest_text(dict(ExperimentConfig(
            facility=tiny_spec(), rho=0.002).to_dict(), k_list=[2, 1, 2])))
        out = tmp_path / "x"
        rc = main(["experiment", "--from-manifest", str(manifest), "--out", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()
        assert "must not repeat a K" in capsys.readouterr().err

    def test_z_above_one_fails_before_output(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        tiny_spec().to_json(spec_path)
        out = tmp_path / "z"
        rc = main(["experiment", "--facility", str(spec_path), "--rho", "0.5",
                   "--unit-s", "600", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()
        assert "z must be" in capsys.readouterr().err

    def test_k_beyond_real_rosters_fails_before_output(self, inputs, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["experiment", *input_args(inputs), "--spatial", str(inputs / "spatial.json"),
                   "--k", "100", "--rho", "0.002", "--replicates", "1", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()
        assert "k=100" in capsys.readouterr().err

    def test_unmapped_room_fails_before_output(self, inputs, tmp_path, capsys):
        spatial = json.loads((inputs / "spatial.json").read_text())
        room = sorted(spatial["location_map"])[0]
        del spatial["location_map"][room]
        path = tmp_path / "spatial.json"
        path.write_text(json.dumps(spatial))
        out = tmp_path / "x"
        rc = main(["experiment", *input_args(inputs), "--spatial", str(path),
                   "--k", "2", "--rho", "0.002", "--replicates", "1", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()
        assert room in capsys.readouterr().err

    def test_defaults_are_the_dataclasses(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        tiny_spec().to_json(spec_path)
        args = build_parser().parse_args(
            ["experiment", "--facility", str(spec_path), "--rho", "0.002", "--out", "x"])
        cfg = _experiment_config(args)
        assert cfg == ExperimentConfig(facility=tiny_spec(), rho=0.002)
        assert cfg.sim_config(0.002, cfg.replicates, cfg.seed) == SimConfig(
            disease=DiseaseParams(rho=0.002))

    def test_facility_and_inputs_exclusive(self, inputs, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        tiny_spec().to_json(spec_path)
        rc = main(["experiment", "--facility", str(spec_path),
                   *input_args(inputs), "--spatial", str(inputs / "spatial.json"),
                   "--rho", "0.001", "--out", str(tmp_path / "y")])
        assert rc == EXIT_USAGE
        capsys.readouterr()


class TestNegativeSeed:
    """A negative seed is a usage error before any output, not numpy's traceback."""

    def check(self, argv, out, capsys):
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_synth(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        tiny_spec().to_json(spec_path)
        self.check(["synth", "--spec", str(spec_path), "--seed", "-1"], tmp_path / "x", capsys)

    @pytest.mark.parametrize("rewire", [[], ["--rewire"]])
    def test_simulate(self, inputs, clustering, tmp_path, capsys, rewire):
        self.check(["simulate", *input_args(inputs), "--rho", "0.002", "--clustering",
                    str(clustering), *rewire, "--replicates", "1", "--seed", "-1"],
                   tmp_path / "x", capsys)

    def test_experiment(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        tiny_spec().to_json(spec_path)
        self.check(["experiment", "--facility", str(spec_path), "--k", "2", "--rho", "0.002",
                    "--seed", "-1"], tmp_path / "x", capsys)

    def test_from_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest_text(dict(ExperimentConfig(
            facility=tiny_spec(), rho=0.002).to_dict(), seed=-1)))
        self.check(["experiment", "--from-manifest", str(manifest)], tmp_path / "x", capsys)


# (command, the call that does its work, the command's own flags)
_WORK_CALLS = [
    ("synth", "generate_mobility", []),
    ("weights", "weight_matrix", ["--rho", "0.001"]),
    ("cluster", "solve", ["--rho", "0.001", "--k", "2"]),
    ("export-model", "build_model", ["--rho", "0.001", "--k", "2"]),
    ("simulate", "simulate", ["--rho", "0.001", "--replicates", "2"]),
]


@pytest.mark.parametrize("command,work,flags", _WORK_CALLS)
def test_manifest_starts_before_the_work(inputs, tmp_path, monkeypatch, capsys,
                                         command, work, flags):
    called = []
    real = getattr(corn.cli, work)

    def timed(*args, **kwargs):
        called.append(datetime.now(timezone.utc))
        return real(*args, **kwargs)

    monkeypatch.setattr(corn.cli, work, timed)
    spec_path = tmp_path / "spec.json"
    tiny_spec().to_json(spec_path)
    source = ["--spec", str(spec_path)] if command == "synth" else input_args(inputs)
    out = tmp_path / "out"
    assert main([command, *source, *flags, "--out", str(out)]) == EXIT_OK
    m = json.loads((out / "manifest.json").read_text())
    created = datetime.fromisoformat(m["created_utc"])
    assert called and created <= called[0] <= datetime.fromisoformat(m["finished_utc"])
    capsys.readouterr()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=8,
)
_FIELD = st.text(alphabet='ab01-. "', max_size=4) | st.sampled_from(["s", "ns", "n", "r00", "60"])
_HEADERS = ("hcp_id,type", "location_id,kind", "hcp_id,location_id,start_s,end_s")
_CONTENT = st.one_of(
    st.text(max_size=40),
    st.binary(max_size=40),
    _JSON.map(json.dumps),
    st.fixed_dictionaries({k: _JSON for k in ("nodes", "edges", "location_map")}).map(json.dumps),
    st.fixed_dictionaries({k: _JSON for k in ("k", "location_bubble", "hcp_bubble")}).map(json.dumps),
    st.tuples(st.sampled_from(_HEADERS),
              st.lists(st.lists(_FIELD, max_size=5), max_size=4)).map(
        lambda t: "\n".join([t[0]] + [",".join(row) for row in t[1]]) + "\n"),
    # (where, cut, insert): splice into the well-formed file
    st.tuples(st.floats(0.0, 1.0), st.integers(0, 30), st.text(max_size=10)),
)


class TestMalformedInputs:
    """Any input file, however malformed, gives an exit code and no traceback."""

    @given(target=st.sampled_from(["hcps", "locations", "visits", "spatial", "clustering",
                                   "manifest", "spec"]),
           content=_CONTENT)
    @example(target="spatial",
             content='{"nodes": ["a"], "edges": [["a", "a", "x"]], "location_map": {}}')
    @example(target="spatial", content='{"nodes": 5, "edges": 5, "location_map": 5}')
    @example(target="clustering",
             content='{"k": 2, "location_bubble": 5, "hcp_bubble": {}}')
    @example(target="manifest", content=manifest_text(5))
    @example(target="manifest", content=manifest_text({"k_list": "x"}))
    @example(target="manifest", content=manifest_text({}))
    @example(target="manifest", content=manifest_text(
        {"k_list": [1], "d_star_m": "inf", "y_star_h": "inf", "colour": "red"}))
    @example(target="spec", content=json.dumps(dict(tiny_spec().to_dict(), rooms="x")))
    @example(target="manifest", content=manifest_text(dict(ExperimentConfig(
        facility=tiny_spec(), k_list=(1,), rho=0.002, cost_rewirings=1).to_dict(),
        replicates=2.5)))
    @example(target="spec", content=json.dumps(dict(tiny_spec().to_dict(), rooms=6.5)))
    @settings(max_examples=150, deadline=None)
    def test_exits_without_traceback(self, inputs, clustering, manifest, target, content):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = {"clustering": clustering, "manifest": manifest,
                     "spec": inputs / "facility.json"}
            paths.update({n: inputs / f"{n}.csv" for n in ("hcps", "locations", "visits")})
            paths["spatial"] = inputs / "spatial.json"
            text = paths[target].read_text()
            if isinstance(content, tuple):
                where, cut, insert = content
                at = int(where * len(text))
                content = text[:at] + insert + text[at + cut:]
            paths[target] = tmp / paths[target].name
            if isinstance(content, bytes):
                paths[target].write_bytes(content)
            else:
                paths[target].write_text(content)
            args = ["--hcps", str(paths["hcps"]), "--locations", str(paths["locations"]),
                    "--visits", str(paths["visits"])]
            if target == "clustering":
                argv = ["simulate", *args, "--clustering", str(paths["clustering"]),
                        "--rewire", "--rho", "0.002", "--replicates", "1"]
            elif target == "visits":
                argv = ["validate", *args, "--spatial", str(paths["spatial"])]
            elif target == "manifest":
                argv = ["experiment", "--from-manifest", str(paths["manifest"])]
            elif target == "spec":
                argv = ["synth", "--spec", str(paths["spec"])]
            else:
                argv = ["cluster", *args, "--spatial", str(paths["spatial"]), "--z", "0.01",
                        "--k", "2", "--d-star-m", "1000", "--y-star-h", "100"]
            if argv[0] != "validate":
                argv += ["--out", str(tmp / "out")]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
        assert 0 <= rc <= 4
        assert "Traceback" not in err.getvalue()
