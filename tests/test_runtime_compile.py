"""The ``kind="compile"`` experiment track: spec, runner, cache and CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.openql.compiler import CompilationResult
from repro.runtime import (
    ArtifactCache,
    CircuitSpec,
    CompileSpec,
    ExperimentRunner,
    ExperimentSpec,
)
from repro.runtime.worker import CompileShardTask, mapping_cache_key, run_shard

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

METRIC_KEYS = {
    "swaps",
    "routing_overhead",
    "makespan_ns",
    "parallelism",
    "locality",
    "movement_fraction",
    "total_hops",
    "routed_gate_count",
    "routed_depth",
    "topology_sites",
}


def _compile_spec(**overrides) -> ExperimentSpec:
    settings = dict(
        name="compile-test",
        kind="compile",
        circuit=CircuitSpec(
            builder="random", kwargs={"num_qubits": 8, "depth": 8, "seed": 3}
        ),
        shots=1,
        seed=0,
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def _comparable(result) -> list[dict]:
    points = [dict(point) for point in result.to_dict()["points"]]
    for point in points:
        point.pop("compile_time_s", None)
        point.pop("wall_time_s", None)
        point.pop("compile_cached", None)
    return points


# ---------------------------------------------------------------------- #
# Spec validation / expansion / serialisation
# ---------------------------------------------------------------------- #
def test_compile_kind_defaults_compile_spec():
    spec = _compile_spec()
    assert spec.compile is not None
    assert spec.compile.placement == "greedy"
    assert spec.compile.router == "sabre"


def test_compile_kind_requires_circuit():
    with pytest.raises(ValueError):
        ExperimentSpec(name="broken", kind="compile")


def test_compile_spec_validation():
    with pytest.raises(ValueError):
        CompileSpec(placement="random")
    with pytest.raises(ValueError):
        CompileSpec(router="maze")
    with pytest.raises(ValueError):
        CompileSpec(topology="moebius")
    with pytest.raises(ValueError):
        CompileSpec(schedule_policy="greedy")
    with pytest.raises(ValueError):
        CompileSpec(decay=0.0)
    with pytest.raises(ValueError):
        CompileSpec(rows=0)
    with pytest.raises(ValueError):
        CompileSpec(cols=0)
    with pytest.raises(ValueError, match="rows only applies"):
        CompileSpec(topology="linear", rows=5)
    with pytest.raises(ValueError, match="fixed layout"):
        CompileSpec(topology="surface17", cols=20)


def test_compile_sweep_keys_are_kind_specific():
    spec = _compile_spec(
        sweep={"compile.placement": ["trivial", "greedy"], "circuit.depth": [4, 8]}
    )
    assert len(spec.points()) == 4
    with pytest.raises(ValueError):
        _compile_spec(sweep={"platform.error_rate": [1e-3]})
    with pytest.raises(ValueError):
        _compile_spec(sweep={"shots": [1, 2]})
    with pytest.raises(ValueError):
        _compile_spec(sweep={"compile.does_not_exist": [1]}).points()


def test_compile_spec_json_roundtrip():
    spec = _compile_spec(
        compile=CompileSpec(placement="trivial", router="path", topology="linear", cols=16),
        sweep={"compile.schedule_policy": ["asap", "alap"]},
    )
    recovered = ExperimentSpec.from_json(spec.to_json())
    assert recovered.kind == "compile"
    assert recovered.compile == spec.compile
    assert recovered.sweep == spec.sweep


def test_build_topology_sizes():
    assert CompileSpec(topology="grid").build_topology(9).grid_shape == (3, 3)
    assert CompileSpec(topology="grid", rows=2, cols=5).build_topology(9).num_qubits == 10
    assert CompileSpec(topology="linear").build_topology(6).num_qubits == 6
    assert CompileSpec(topology="linear", cols=12).build_topology(6).num_qubits == 12
    assert CompileSpec(topology="surface17").build_topology(9).num_qubits == 17
    assert CompileSpec(topology="full").build_topology(5).num_qubits == 5


# ---------------------------------------------------------------------- #
# Runner execution
# ---------------------------------------------------------------------- #
def test_compile_point_reports_mapping_metrics(tmp_path):
    spec = _compile_spec(sweep={"compile.router": ["path", "sabre"]})
    result = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    assert len(result.points) == 2
    for point in result.points:
        assert point.counts == {}
        assert set(point.metrics) == METRIC_KEYS
        assert point.metrics["swaps"] >= 0
        assert point.metrics["makespan_ns"] > 0
        assert 0.0 <= point.metrics["locality"] <= 1.0
    by_router = {point.params["compile.router"]: point.metrics for point in result.points}
    assert by_router["sabre"]["swaps"] <= by_router["path"]["swaps"]


def test_compile_sweep_bit_identical_across_worker_counts(tmp_path):
    sweep = {
        "compile.placement": ["trivial", "greedy"],
        "compile.router": ["path", "sabre"],
    }
    serial = ExperimentRunner(
        _compile_spec(sweep=sweep), workers=1, cache_dir=tmp_path / "cache-serial"
    ).run()
    parallel = ExperimentRunner(
        _compile_spec(sweep=sweep), workers=4, cache_dir=tmp_path / "cache-parallel"
    ).run()
    assert _comparable(serial) == _comparable(parallel)


def test_compilation_results_cached_and_reused(tmp_path):
    cache_dir = tmp_path / "cache"
    spec = _compile_spec()
    first = ExperimentRunner(spec, workers=1, cache_dir=cache_dir).run()
    assert first.points[0].compile_cached is False
    second = ExperimentRunner(spec, workers=1, cache_dir=cache_dir).run()
    assert second.points[0].compile_cached is True
    assert second.points[0].metrics == first.points[0].metrics
    assert second.cache_stats["hits"] >= 1  # warm runs report the probe as a hit
    # The cached artifact is a full CompilationResult, not just the numbers.
    task = ExperimentRunner(spec, workers=1, cache_dir=cache_dir).plan()[0].tasks[0]
    artifact = ArtifactCache(cache_dir).get(mapping_cache_key(task))
    assert isinstance(artifact["compilation"], CompilationResult)
    assert artifact["metrics"] == first.points[0].metrics


def test_compile_shard_keeps_hybrid_operations(tmp_path):
    # The routed kernel inside the cached CompilationResult keeps its
    # conditional gates and cross-mapped measurement bits.
    from repro.core.circuit import Circuit

    circuit = Circuit(3, "teleportish")
    circuit.h(0).cnot(0, 2).measure(0)
    circuit.conditional_gate("x", 0, 2)
    circuit.measure(2)
    task = CompileShardTask(
        circuit=circuit,
        config=CompileSpec(placement="trivial", router="sabre", topology="linear"),
        point_index=0,
        cache_dir=str(tmp_path / "cache"),
    )
    [shard] = run_shard(task)
    artifact = ArtifactCache(tmp_path / "cache").get(mapping_cache_key(task))
    routed = artifact["compilation"].kernels[0]
    assert any(op.name == "c-x" for op in routed.operations)
    assert shard.metrics["swaps"] >= 1


def test_compile_pipeline_preserves_wide_bit_register():
    # A measurement into a bit beyond the qubit count must survive the
    # whole compile-and-map pipeline: the kernel, every pass and the flat
    # circuit keep the widened classical register.
    from repro.core.circuit import Circuit
    from repro.qx.simulator import QXSimulator
    from repro.runtime.worker import compile_and_map

    circuit = Circuit(2, "wide", num_bits=10)
    circuit.x(0).measure(0, bit=9)
    circuit.conditional_gate("x", 9, 1)
    circuit.measure(1)
    task = CompileShardTask(
        circuit=circuit,
        config=CompileSpec(placement="trivial", router="path", topology="linear"),
        point_index=0,
    )
    artifact = compile_and_map(task)
    flat = artifact["compilation"].flat_circuit()
    assert flat.num_bits >= 10
    result = QXSimulator(seed=0).run(flat, shots=20)
    assert all(bits[9] == 1 and bits[1] == 1 for bits in result.classical_bits)


# ---------------------------------------------------------------------- #
# CLI entry point
# ---------------------------------------------------------------------- #
def _run_cli(*arguments: str):
    return subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "scripts", "run_experiment.py"), *arguments],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def test_cli_runs_compile_sweep(tmp_path):
    output = tmp_path / "results.json"
    completed = _run_cli(
        "--kind", "compile",
        "--circuit", "random", "--qubits", "8",
        "--circuit-arg", "depth=8", "--circuit-arg", "seed=3",
        "--topology", "grid",
        "--sweep", "compile.router=path,sabre",
        "--workers", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--output", str(output),
    )
    assert completed.returncode == 0, completed.stderr
    payload = json.loads(output.read_text())
    assert len(payload["points"]) == 2
    assert set(payload["points"][0]["metrics"]) == METRIC_KEYS


def test_cli_rejects_compile_flags_for_other_kinds():
    completed = _run_cli("--kind", "circuit", "--router", "sabre", "--shots", "4")
    assert completed.returncode == 1
    assert "--router" in completed.stderr


def test_cli_rejects_platform_flags_for_compile_kind():
    completed = _run_cli("--kind", "compile", "--platform", "realistic")
    assert completed.returncode == 1
    assert "--platform" in completed.stderr
