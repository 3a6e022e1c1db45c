"""Benchmark for corn: one workload per run, timed as identical passes.

    python3 bench/run.py --workload ltcf_experiment --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its src/.
A run sets the workload up three times, runs one warm-up pass, then
timed passes until --seconds have gone by, each after one more quarter
second of set-up. wall_s is the median pass and setup_s the median set-up.
Finally it checks the outputs (see workloads.py). With
--trace 1 the calls into each corn layer are wrapped (tracing.py) and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
# Set-up runs SETUP_MIN times before the warm-up and again, for at least
# SETUP_SLICE seconds, before each timed pass. Its samples then span the
# run like the passes do; taken all at the start, they caught whatever speed
# the machine had in that one second, and their medians differed by up to
# half between runs.
SETUP_MIN = 3
SETUP_SLICE = 0.25


def _revision() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "corn" / "__init__.py").is_file():
        print(f"error: no corn sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.pop("CORN_THREADS", None)  # one worker, whatever the caller's shell says
    sys.path.insert(0, str(SRC))
    import corn
    if Path(corn.__file__).resolve().parent != SRC / "corn":
        print(f"error: imported corn from {corn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import corn.episim
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    phase = tracer.phase if tracer else lambda label: contextlib.nullcontext()
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"revision {_revision()}  src sha256 {_source_digest()[:16]}")
    print(f"workers {corn.episim.thread_count()} (CORN_THREADS unset, nproc {os.cpu_count()})")
    try:
        if tracer:
            tracer.install()
        setup_s: list[float] = []

        def set_up(count: int, seconds: float) -> None:
            spent = 0.0
            for n in itertools.count():
                if n >= count and spent >= seconds:
                    return
                with phase("setup"):
                    t0 = time.perf_counter()
                    wl.setup()
                    setup_s.append(time.perf_counter() - t0)
                spent += setup_s[-1]

        outcomes: list[bool] = []
        digests: list[str] = []

        def one_pass(index: int) -> float:
            with phase("warm-up" if index == 0 else "pass"):
                t0, c0 = time.perf_counter(), time.process_time()
                outcomes.extend(wl.run_pass(index))
                elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
            digests.append(wl.finish_pass(index))
            print(f"pass {index}{' (warm-up)' if index == 0 else ''}  {elapsed:.4f} s  "
                  f"cpu {cpu:.4f} s  outputs {digests[-1][:16]}")
            return elapsed

        set_up(SETUP_MIN, 0.0)
        one_pass(0)
        wall_s: list[float] = []
        start = time.perf_counter()
        while not wall_s or time.perf_counter() - start < args.seconds:
            set_up(1, SETUP_SLICE)
            wall_s.append(one_pass(len(wall_s) + 1))
        print(f"setup x{len(setup_s)}  median {statistics.median(setup_s):.4f} s  "
              f"min {min(setup_s):.4f} s  max {max(setup_s):.4f} s")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()

        problems = wl.check()
        if len(set(digests)) != 1:
            problems.append(f"outputs differ between passes: {sorted(set(digests))}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer:
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    failed = outcomes.count(False)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"checks {'passed' if not problems else 'FAILED'}")
    print(f"attempted {len(outcomes)}  failed {failed}  timed passes {len(wall_s)}")
    if tracer:
        print(f"traced pass median {statistics.median(wall_s):.4f} s")
        metrics = {name: {"value": value, "unit": tracing.METRICS[name]}
                   for name, value in tracer.metrics().items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(wall_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{args.workload}  {name}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
