#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy size.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it runs a short closed loop with toy-sized requests,
then asserts that

- every request passes the output check;
- every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
  emitted with its unit;
- the traced run shows the exact baseline counts (8 evolves per
  noise-free point, 8 units per bulk service point, every fleet circuit
  stacked);
- a deliberately corrupted histogram (one shot moved to another outcome,
  so the shot total still matches) makes the check fail the request, which
  raises ``failed_ratio`` above 0.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from copy import deepcopy
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from check import check  # noqa: E402
from metrics import END_TO_END_UNITS, end_to_end  # noqa: E402
from run import BASELINE_COUNTS, _metric_block, peak_rss_mb, run_phase, traced_run  # noqa: E402
from workloads import TOY, WORKLOADS  # noqa: E402

SECONDS = 1.0
#: Exact per-layer counts the traced run must show at any request size.
BASELINE_VALUES = {"perfect_sweep": 8, "service_mixed": 8, "fleet_batch": 1.0}


def declared(section: str) -> dict[str, str]:
    benchmark = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[section]}


def corrupt(histogram: dict[str, int]) -> dict[str, int]:
    """Move one shot from the most frequent outcome to its first-bit flip."""
    corrupted = dict(histogram)
    key = max(corrupted, key=corrupted.get)
    flipped = ("1" if key[0] == "0" else "0") + key[1:]
    corrupted[key] -= 1
    if not corrupted[key]:
        del corrupted[key]
    corrupted[flipped] = corrupted.get(flipped, 0) + 1
    return corrupted


def emitted_units(block: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in block.items()}


def main() -> int:
    work = Path.cwd() / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for workload in WORKLOADS:
            phase = run_phase(workload, 3, SECONDS, work / workload / "run", TOY)
            failures = check(phase.requests, work / workload / "reference")
            assert not failures, (workload, failures)
            values, _ = end_to_end(workload, phase.requests, phase.start, peak_rss_mb(), [0.1])
            block = _metric_block(values, END_TO_END_UNITS)
            assert emitted_units(block) == declared("end_to_end"), workload
            assert all(metric["value"] > 0 for metric in block.values()), (workload, block)

            broken = deepcopy(phase.requests)
            broken[0].histograms[0] = corrupt(broken[0].histograms[0])
            failures = check(broken, work / workload / "reference")
            failed_ratio = len(failures) / len(broken)
            assert failed_ratio > 0, workload
            assert list(failures) == [broken[0].request_id], (workload, failures)
            print(f"{workload}: end-to-end ok, corrupted -> failed_ratio {failed_ratio:.3f}")

        for workload in WORKLOADS:
            trace_work = work / workload / "trace"
            _, failures, block, _ = traced_run(workload, 3, 2 * SECONDS, trace_work, TOY)
            assert not failures, (workload, failures)
            assert emitted_units(block) == declared("per_layer"), workload
            if workload in BASELINE_COUNTS:
                name = BASELINE_COUNTS[workload][0]
                value = block[name]["value"]
                assert value == BASELINE_VALUES[workload], (workload, name, value)
            print(f"{workload}: per-layer ok ({len(block)} metrics)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
