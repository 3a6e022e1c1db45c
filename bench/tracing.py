"""Spans and counters around the calls into each corn layer.

The wrappers patch the names as the calling module imported them, so a
call from corn.pipeline into rewiring is seen exactly where it crosses
the module boundary. Spans are kept in memory and written out once, when
the run ends. Timings of the untraced run never pass through here.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from pathlib import Path

# (module, attribute, span name); a dotted attribute patches a method
TARGETS = (
    ("corn.synth", "generate_facility", "synth.generate"),
    ("corn.synth", "generate_mobility", "synth.generate"),
    ("corn.pipeline", "generate_facility", "synth.generate"),
    ("corn.pipeline", "generate_mobility", "synth.generate"),
    ("corn.weights", "weight_matrix", "weights.matrix"),
    ("corn.pipeline", "weight_matrix", "weights.matrix"),
    ("corn.cli", "weight_matrix", "weights.matrix"),
    ("corn.pipeline", "calibrate_rho", "episim.calibrate"),
    ("corn.episim", "estimate_r0", "episim.r0_eval"),
    ("corn.episim", "build_contact_schedule", "episim.schedule"),
    ("corn.pipeline", "build_contact_schedule", "episim.schedule"),
    ("corn.episim", "_run_replicate", "episim.replicate"),
    ("corn.pipeline", "_run_replicate", "episim.replicate"),
    ("corn.episim", "simulate", "episim.simulate"),
    ("corn.pipeline", "simulate", "episim.simulate"),
    ("corn.cli", "simulate", "episim.simulate"),
    ("corn.rewiring", "rewire", "rewiring.rewire"),
    ("corn.pipeline", "rewire", "rewiring.rewire"),
    ("corn.cli", "rewire", "rewiring.rewire"),
    ("corn.pipeline", "compute_costs", "rewiring.cost"),
    ("corn.optimizer", "build_model", "optimizer.build_model"),
    ("corn.pipeline", "build_model", "optimizer.build_model"),
    ("corn.cli", "build_model", "optimizer.build_model"),
    ("corn.optimizer", "solve", "optimizer.solve"),
    ("corn.pipeline", "solve", "optimizer.solve"),
    ("corn.cli", "solve", "optimizer.solve"),
    ("corn.optimizer.branch_bound", "_Search._lp_bound", "optimizer.lp_bound"),
    ("corn.optimizer.branch_bound", "solve_lp", "optimizer.solve_lp"),
    ("corn.pipeline", "_run_arm", "pipeline.arm"),
    ("corn.pipeline", "_cost_summary", "pipeline.cost_summary"),
    *(("corn.pipeline", name, "pipeline.report") for name in (
        "write_hcp_roster", "write_location_roster", "write_mobility_log",
        "save_spatial_graph", "write_weight_csv", "save_clustering", "write_cost_csv",
        "summary_to_json", "replicates_to_csv", "compare_runs",
        "_write_json", "_write_metrics", "_write_long_csv")),
    ("corn.cli", "main", "cli.main"),
)

# per-layer metric -> unit; phase_metrics() reads each from one phase's spans
METRICS = {
    "synth.generate_s": "s",
    "weights.matrix_s": "s",
    "episim.calibrate_s": "s",
    "episim.r0_evals": "count",
    "episim.schedule_builds": "count",
    "episim.schedule_ms": "ms",
    "episim.events": "count",
    "episim.replicates": "count",
    "episim.replicate_ms": "ms",
    "rewiring.rewire_calls": "count",
    "rewiring.repeat_calls": "count",
    "rewiring.rewire_ms": "ms",
    "rewiring.cost_calls": "count",
    "rewiring.cost_ms": "ms",
    "optimizer.solve_s": "s",
    "optimizer.nodes": "count",
    "optimizer.lp_calls": "count",
    "optimizer.lp_prunes": "count",
    "optimizer.lp_s": "s",
    "pipeline.arms_s": "s",
    "pipeline.cost_summary_s": "s",
    "pipeline.reports_s": "s",
    "cli.self_s": "s",
}

_LP_EPS = 1e-9  # the prune tolerance of corn.optimizer.branch_bound


def _rewire_key(args, kwargs):
    g, c = args[0], args[1]
    seed = kwargs.get("seed", args[2] if len(args) > 2 else None)
    keep = kwargs.get("keep_same_bubble_hcp", args[3] if len(args) > 3 else False)
    return (id(g), c.k, tuple(sorted(c.location_bubble.items())),
            tuple(sorted(c.hcp_bubble.items())), seed, keep)


class Tracer:
    """Span recorder. A phase is one set-up repeat or one pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phases: list[tuple[str, int, int]] = []
        self._stack: list[int] = []
        self._seen_rewires: set = set()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            attrs = {}
            if name == "rewiring.rewire":
                key = _rewire_key(args, kwargs)
                attrs["repeat"] = key in self._seen_rewires
                self._seen_rewires.add(key)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if name == "episim.schedule":
                attrs["events"] = out.n_events
            elif name == "optimizer.solve":
                attrs["nodes"] = out.nodes
            elif name == "optimizer.lp_bound":
                attrs["pruned"] = bool(out is None or out >= args[0].incumbent - _LP_EPS)
            if attrs:
                span["attrs"] = attrs
            return out
        return traced

    def install(self) -> None:
        for module, attr, name in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    @contextlib.contextmanager
    def phase(self, label: str):
        """Marks the spans of one phase: a set-up repeat, the warm-up or a pass."""
        self._seen_rewires.clear()
        first = len(self.spans)
        try:
            yield
        finally:
            self.phases.append((label, first, len(self.spans)))

    def phase_metrics(self, first: int, last: int) -> dict[str, float]:
        spans = self.spans[first:last]
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        for s in spans:
            total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
            count[s["name"]] = count.get(s["name"], 0) + 1

        def t(name: str) -> float:
            return total.get(name, 0.0)

        def n(name: str) -> int:
            return count.get(name, 0)

        def mean_ms(name: str) -> float:
            return 1000.0 * t(name) / n(name) if n(name) else 0.0

        def attr_sum(name: str, key: str) -> float:
            return sum(s["attrs"][key] for s in spans if s["name"] == name)

        cli_self = 0.0
        for i, s in enumerate(spans, start=first):
            if s["name"] == "cli.main":
                covered = sum(c["end"] - c["start"] for c in spans if c["parent"] == i)
                cli_self += s["end"] - s["start"] - covered
        builds = n("episim.schedule")
        return {
            "synth.generate_s": t("synth.generate"),
            "weights.matrix_s": t("weights.matrix"),
            "episim.calibrate_s": t("episim.calibrate"),
            "episim.r0_evals": n("episim.r0_eval"),
            "episim.schedule_builds": builds,
            "episim.schedule_ms": mean_ms("episim.schedule"),
            "episim.events": attr_sum("episim.schedule", "events") / builds if builds else 0,
            "episim.replicates": n("episim.replicate"),
            "episim.replicate_ms": mean_ms("episim.replicate"),
            "rewiring.rewire_calls": n("rewiring.rewire"),
            "rewiring.repeat_calls": attr_sum("rewiring.rewire", "repeat"),
            "rewiring.rewire_ms": mean_ms("rewiring.rewire"),
            "rewiring.cost_calls": n("rewiring.cost"),
            "rewiring.cost_ms": mean_ms("rewiring.cost"),
            "optimizer.solve_s": t("optimizer.solve"),
            "optimizer.nodes": attr_sum("optimizer.solve", "nodes"),
            "optimizer.lp_calls": n("optimizer.lp_bound"),
            "optimizer.lp_prunes": attr_sum("optimizer.lp_bound", "pruned"),
            "optimizer.lp_s": t("optimizer.lp_bound"),
            "pipeline.arms_s": t("pipeline.arm"),
            "pipeline.cost_summary_s": t("pipeline.cost_summary"),
            "pipeline.reports_s": t("pipeline.report"),
            "cli.self_s": cli_self,
        }

    def metrics(self) -> dict[str, float]:
        """Median over set-up repeats plus median over timed passes.

        Warm-up is excluded. A counter that the workload makes in set-up and
        in each pass thus reads as one set-up plus one pass.
        """
        by_kind: dict[str, list[dict]] = {"setup": [], "pass": []}
        for label, first, last in self.phases:
            if label in by_kind:
                by_kind[label].append(self.phase_metrics(first, last))
        out = {}
        for name in METRICS:
            out[name] = sum(
                statistics.median(m[name] for m in rows)
                for rows in by_kind.values() if rows
            )
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"phases": self.phases, "spans": self.spans}) + "\n")
