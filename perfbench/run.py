#!/usr/bin/env python3
"""Layered spec→histogram benchmark over ExperimentRunner, BatchRunner and JobService.

Usage::

    python3 perfbench/run.py --workload perfect_sweep --seed 1 --seconds 12 --trace 0

Run from the repository root.  With ``--trace 0`` it runs the workload's
closed loop for ``--seconds``, checks every histogram against the serial
path, and prints the end-to-end metrics.  With ``--trace 1`` it runs the
loop twice for half the time each, untraced and then with span wrappers
around every layer, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END_UNITS, PER_LAYER_UNITS, end_to_end, per_layer  # noqa: E402
from workloads import FULL, WORKLOADS, Request, Sizes, make_workload  # noqa: E402

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


@dataclass
class Phase:
    """One set-up + timed closed loop + teardown."""

    requests: list[Request]
    start: float
    wall: float
    service_stats: dict
    entries_end: int
    plan_cache_delta: dict


def run_phase(
    workload: str,
    seed: int,
    seconds: float,
    work: Path,
    sizes: Sizes = FULL,
    tracer=None,
) -> Phase:
    from repro.qx.compiled import plan_cache_stats

    trace_dir = tracer.out_dir if tracer is not None else None
    load = make_workload(workload, seed, sizes, work, tracer=tracer, trace_dir=trace_dir)
    try:
        load.setup()
        before = plan_cache_stats()
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        requests = load.run(seconds)
        wall = max(request.done for request in requests) - start
        if tracer is not None:
            tracer.enabled = False
        after = plan_cache_stats()
    finally:
        stats = load.teardown()
    return Phase(
        requests=requests,
        start=start,
        wall=wall,
        service_stats=stats,
        entries_end=sum(1 for _ in (work / "cache").glob("*/*.pkl")),
        plan_cache_delta={key: after[key] - before[key] for key in after},
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest process it started and reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_probe(workload: str, seed: int, work: Path) -> int:
    """Child side of a set-up measurement: set up, say ready, tear down."""
    load = make_workload(workload, seed, FULL, work)
    try:
        load.setup()
        print("ready", flush=True)
    finally:
        load.teardown()
    return 0


def measure_setup(workload: str, seed: int, work: Path, timeout: float = 120.0) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", "0", "--setup-probe", str(work),
    ]  # fmt: skip
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        ready, _, _ = select.select([process.stdout], [], [], timeout)
        line = process.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - start
        if line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {line[:200]!r}")
        if process.wait(timeout) != 0:
            raise RuntimeError("set-up probe exited with an error")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    return elapsed


def _metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def plain_run(workload: str, seed: int, seconds: float, work: Path):
    from check import check

    phase = run_phase(workload, seed, seconds, work / "run")
    rss = peak_rss_mb()
    failures = check(phase.requests, work / "reference")
    setups = [measure_setup(workload, seed, work / f"setup-{i}") for i in range(SETUP_SAMPLES)]
    values, notes = end_to_end(workload, phase.requests, phase.start, rss, setups)
    return phase.requests, failures, _metric_block(values, END_TO_END_UNITS), notes


def traced_run(workload: str, seed: int, seconds: float, work: Path, sizes: Sizes = FULL):
    from check import check
    from tracing import Tracer, install, load_spans

    untraced = run_phase(workload, seed, seconds / 2, work / "untraced", sizes)
    tracer = Tracer(work / "trace")
    install(tracer)
    traced = run_phase(workload, seed, seconds / 2, work / "traced", sizes, tracer=tracer)
    tracer.flush()
    failures = check(untraced.requests + traced.requests, work / "reference")
    overhead = (traced.wall / len(traced.requests)) / (untraced.wall / len(untraced.requests))
    values = per_layer(
        load_spans(tracer.out_dir),
        traced.requests,
        traced.wall,
        traced.service_stats,
        traced.entries_end,
        traced.plan_cache_delta,
        overhead,
    )
    notes = {"traced_requests": len(traced.requests), "untraced_requests": len(untraced.requests)}
    requests = untraced.requests + traced.requests
    return requests, failures, _metric_block(values, PER_LAYER_UNITS), notes


#: The measured gaps the baseline records as exact counts, per workload.
BASELINE_COUNTS = {
    "perfect_sweep": ("qx.evolve.per_point", "evolves per noise-free point (1 = evolve once)"),
    "service_mixed": ("service.units_per_point", "scheduled units per bulk fleet point"),
    "fleet_batch": ("batch.stacked_ratio", "share of fleet circuits on the stacked path"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro").is_dir() or not (root / "scripts" / "serve.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Spawned reference workers and the daemon import repro through this.
    python_path = [str(src), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, python_path))

    if args.setup_probe:
        return setup_probe(args.workload, args.seed, Path(args.setup_probe))

    work = root / ".perfbench_work" / str(os.getpid())
    try:
        run = traced_run if args.trace else plain_run
        requests, failures, metrics, notes = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for request_id, reason in sorted(failures.items()):
        print(f"FAILED {request_id}: {reason}", file=sys.stderr)
    attempted = len(requests)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ratio':34s} {len(failures) / attempted:.6g} ratio")
    print(f"  notes {json.dumps(notes)}")
    if args.trace and args.workload in BASELINE_COUNTS:
        name, meaning = BASELINE_COUNTS[args.workload]
        print(f"  baseline {name} = {metrics[name]['value']:g} ({meaning})")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
