"""Output check: every request against the serial ``workers=1`` path.

Runs outside the timed region.  A request fails when it raised, returned
the wrong number of histograms or shots, or returned a histogram that is
not bit-identical to the serial reference for the same spec and seed
(``ExperimentRunner`` for experiment specs, ``run_batch`` for fleets).
Noise-free GHZ histograms must also have support exactly on ``0…0`` and
``1…1``.  References come from a separate, initially empty cache directory
and are computed once per distinct spec, in two fresh Python processes
(``python3 perfbench/check.py TASKS.json``, histograms as JSON on stdout)
that get this process's ``sys.path``.  They are plain subprocesses rather
than a ``multiprocessing`` pool, whose resource-tracker process would
outlive the benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import Request


def spec_key(kind: str, spec: dict) -> str:
    return kind + json.dumps(spec, sort_keys=True)


def reference(kind: str, spec: dict, cache_dir: str) -> list[dict]:
    """Histograms of the serial path for one spec, in point/circuit order."""
    from repro.runtime import ExperimentRunner, ExperimentSpec
    from repro.runtime.batch import BatchSpec, run_batch

    if kind == "batch":
        result = run_batch(BatchSpec.from_dict(spec), workers=1, cache_dir=cache_dir)
        return [circuit.counts for circuit in result.circuits]
    result = ExperimentRunner(ExperimentSpec.from_dict(spec), workers=1, cache_dir=cache_dir).run()
    return [point.counts for point in result.points]


def _reference_task(args):
    try:
        return reference(*args)
    except Exception:  # noqa: BLE001 - the request is reported as failed
        return None


def _references(tasks: list[tuple], work: Path, processes: int, timeout: float = 150.0) -> list:
    """Run ``tasks`` round-robin in ``processes`` worker processes; wait for each."""
    shares = [tasks[index::processes] for index in range(processes)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    workers = []
    try:
        for index, share in enumerate(shares):
            path = work / f"tasks-{index}.json"
            path.write_text(json.dumps(share), encoding="utf-8")
            workers.append(
                subprocess.Popen(
                    [sys.executable, __file__, str(path)],
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE,
                    env=env,
                    text=True,
                )
            )
        outputs = [_last_json_line(worker.communicate(timeout=timeout)[0]) for worker in workers]
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
    results = [None] * len(tasks)
    for index, output in enumerate(outputs):
        if isinstance(output, list) and len(output) == len(shares[index]):
            results[index::processes] = output
    return results


def _last_json_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _is_noise_free_ghz(spec: dict) -> bool:
    circuit = spec.get("circuit") or {}
    platform = spec.get("platform") or {}
    return circuit.get("builder") == "ghz" and platform.get("factory") == "perfect"


def request_failure(request: Request, expected: list[dict] | None) -> str | None:
    """Why ``request`` fails the check, or ``None`` when it passes."""
    if request.error is not None:
        return request.error
    if len(request.histograms) != len(request.expected_shots):
        return f"{len(request.histograms)} histograms, expected {len(request.expected_shots)}"
    for index, (histogram, shots, want) in enumerate(
        zip(request.histograms, request.shots, request.expected_shots, strict=True)
    ):
        if shots != want or sum(histogram.values()) != want:
            return f"point {index}: {sum(histogram.values())} shots, expected {want}"
    if _is_noise_free_ghz(request.spec):
        qubits = request.spec["circuit"]["kwargs"]["num_qubits"]
        support = {"0" * qubits, "1" * qubits}
        for index, histogram in enumerate(request.histograms):
            if set(histogram) != support:
                return f"point {index}: GHZ support {sorted(histogram)[:4]}"
    if expected is None:
        return "no reference"
    if request.histograms != expected:
        return "histogram differs from the serial workers=1 path"
    return None


def check(requests: list[Request], cache_dir: Path, processes: int = 2) -> dict[str, str]:
    """Map request id -> failure reason for every request that fails."""
    distinct: dict[str, tuple] = {}
    for request in requests:
        if request.error is None:
            distinct.setdefault(spec_key(request.kind, request.spec), (request.kind, request.spec))
    cache_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(kind, spec, str(cache_dir)) for kind, spec in distinct.values()]
    references: dict[str, list[dict]] = {}
    if tasks:
        outputs = _references(tasks, cache_dir, min(processes, len(tasks)))
        references = dict(zip(distinct, outputs, strict=True))
    failures = {}
    for request in requests:
        reason = request_failure(request, references.get(spec_key(request.kind, request.spec)))
        if reason is not None:
            failures[request.request_id] = reason
    return failures


def main(argv: list[str]) -> int:
    """Reference worker: histograms for each task in the JSON file ``argv[0]``."""
    tasks = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    print(json.dumps([_reference_task(task) for task in tasks]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
