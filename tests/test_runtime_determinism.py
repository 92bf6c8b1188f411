"""Determinism suite for the parallel experiment runtime.

The runtime's contract: the merged histogram of an
:class:`~repro.runtime.spec.ExperimentSpec` depends only on the spec
(including its seed) — not on the worker count, not on shard scheduling,
and not on whether compiled artifacts were served from a cold or warm
cache.  These tests pin that contract, plus the shard-layout and seeding
invariants it rests on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator.host import HostCPU
from repro.core.circuit import Circuit
from repro.cqasm.writer import circuit_to_cqasm
from repro.qx import kernels
from repro.qx.compiled import lower
from repro.qx.simulator import QXSimulator
from repro.runtime import (
    ArtifactCache,
    CircuitSpec,
    CompilerSpec,
    ExperimentRunner,
    ExperimentSpec,
    PlatformSpec,
    QecSpec,
    SimulationSpec,
    shard_seed,
    shard_sizes,
)
from repro.runtime.aggregate import merge_counts
from repro.runtime.worker import ShardTask, run_shard


def _noisy_spec(**overrides) -> ExperimentSpec:
    settings = dict(
        name="determinism-noisy",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 4}),
        platform=PlatformSpec(factory="realistic", kwargs={"num_qubits": 4}),
        shots=64,
        seed=3,
        sweep={"platform.error_rate": [1e-3, 2e-2]},
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def _histograms(result):
    return [point.counts for point in result.points]


# ---------------------------------------------------------------------- #
# Shard layout and seeding invariants
# ---------------------------------------------------------------------- #
def test_shard_sizes_partition_shots_independently_of_workers():
    for shots in (1, 7, 8, 63, 64, 4096, 10_000, 100_001):
        sizes = shard_sizes(shots)
        assert sum(sizes) == shots
        assert min(sizes) >= 1
        # Balanced split: sizes differ by at most one shot.
        assert max(sizes) - min(sizes) <= 1
        # Layout is a pure function of the shot count: recomputing anywhere
        # (parent, worker, another host) gives the same partition.
        assert sizes == shard_sizes(shots)


def test_shard_sizes_respect_min_and_max_knobs():
    assert len(shard_sizes(4, min_shards=8)) == 4  # capped by shots
    assert len(shard_sizes(100, min_shards=8)) == 8
    assert len(shard_sizes(10_000, max_shard_shots=1000, min_shards=2)) == 10
    with pytest.raises(ValueError):
        shard_sizes(0)


def test_shard_seeds_are_distinct_and_reconstructible():
    seen = set()
    for point in range(3):
        for shard in range(5):
            sequence = shard_seed(42, point, shard)
            state = tuple(sequence.generate_state(4))
            assert state not in seen
            seen.add(state)
    # Reconstructing the same coordinates yields the same stream.
    a = np.random.default_rng(shard_seed(42, 1, 2)).random(8)
    b = np.random.default_rng(shard_seed(42, 1, 2)).random(8)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------- #
# Merged histograms: 1 worker vs N workers
# ---------------------------------------------------------------------- #
def test_noisy_sweep_identical_for_one_and_many_workers(tmp_path):
    spec = _noisy_spec()
    serial = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    parallel = ExperimentRunner(spec, workers=4, cache_dir=tmp_path / "cache").run()
    assert _histograms(serial) == _histograms(parallel)
    assert [p.errors_injected for p in serial.points] == [
        p.errors_injected for p in parallel.points
    ]
    assert all(point.shots == 64 for point in serial.points)
    assert [p.params for p in serial.points] == [p.params for p in parallel.points]


def test_perfect_sampled_path_identical_for_one_and_many_workers(tmp_path):
    spec = ExperimentSpec(
        name="determinism-perfect",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 5}),
        shots=200,
        seed=11,
    )
    serial = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    parallel = ExperimentRunner(spec, workers=3, cache_dir=tmp_path / "cache").run()
    assert _histograms(serial) == _histograms(parallel)
    point = serial.points[0]
    assert set(point.counts) <= {"00000", "11111"}
    assert sum(point.counts.values()) == 200


def test_conditional_feedback_circuit_identical_across_workers(tmp_path):
    """Trajectory-forcing circuits (run-time feedback) shard deterministically."""
    circuit = Circuit(3, "teleport")
    circuit.ry(0, 1.1).h(1).cnot(1, 2).cnot(0, 1).h(0)
    circuit.measure(0).measure(1)
    circuit.conditional_gate("x", 1, 2)
    circuit.conditional_gate("z", 0, 2)
    circuit.measure(2)
    spec = ExperimentSpec(
        name="determinism-feedback",
        circuit=CircuitSpec(cqasm=circuit_to_cqasm(circuit), measure="asis"),
        compiler=CompilerSpec(enabled=False),
        shots=96,
        seed=9,
    )
    serial = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    parallel = ExperimentRunner(spec, workers=2, cache_dir=tmp_path / "cache").run()
    assert _histograms(serial) == _histograms(parallel)


# ---------------------------------------------------------------------- #
# Evolve once per deterministic point
# ---------------------------------------------------------------------- #
#: One spec per deterministic point type: dense sampled, MPS-pinned, and
#: density-pinned with realistic gate noise and read-out error.
EVOLVE_ONCE_SPECS = {
    "statevector": dict(circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 5})),
    "mps": dict(
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 10}),
        simulation=SimulationSpec(backend="mps"),
    ),
    "density": dict(
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 4}),
        platform=PlatformSpec(factory="realistic", kwargs={"num_qubits": 4, "error_rate": 2e-2}),
        simulation=SimulationSpec(backend="density"),
    ),
}


def _evolve_once_spec(kind: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"evolve-once-{kind}",
        shots=200,
        seed=17,
        sweep={"shots": [200, 120]},
        **EVOLVE_ONCE_SPECS[kind],
    )


def _compiled(bound: ExperimentSpec):
    """The point's compiled circuit and qubit model, built without the runtime."""
    circuit = bound.circuit.build()
    platform = bound.platform.build(default_num_qubits=circuit.num_qubits)
    if bound.compiler.enabled:
        circuit = bound.compiler.build().compile_circuit(circuit, platform)
    return circuit, platform.qubit_model


def _per_shard_reference(spec: ExperimentSpec) -> list[dict]:
    """Merge one seeded ``run_program`` call per shard: the per-shard oracle."""
    histograms = []
    for point in spec.points():
        bound = point.spec
        circuit, qubit_model = _compiled(bound)
        program = lower(circuit, fuse=qubit_model.is_perfect)
        sizes = shard_sizes(bound.shots, bound.max_shard_shots, bound.min_shards)
        shards = [
            QXSimulator(
                num_qubits=circuit.num_qubits,
                qubit_model=None if qubit_model.is_perfect else qubit_model,
                seed=shard_seed(bound.seed, point.index, shard_index),
                backend=bound.simulation.backend,
            )
            .run_program(program, shots=size)
            .counts
            for shard_index, size in enumerate(sizes)
        ]
        histograms.append(merge_counts(shards))
    return histograms


@pytest.mark.parametrize("kind", sorted(EVOLVE_ONCE_SPECS))
def test_one_unit_point_matches_per_shard_runs(tmp_path, kind):
    """A deterministic point runs as one unit, bit-identical to merging its
    shards run one by one, for 1 and 3 workers and cold and warm caches."""
    spec = _evolve_once_spec(kind)
    reference = _per_shard_reference(spec)
    planned = ExperimentRunner(spec, workers=1, use_cache=False).plan()
    assert [len(point.tasks) for point in planned] == [1, 1]
    for workers in (1, 3):
        cache_dir = tmp_path / f"cache-{workers}"
        cold = ExperimentRunner(spec, workers=workers, cache_dir=cache_dir).run()
        warm = ExperimentRunner(spec, workers=workers, cache_dir=cache_dir).run()
        assert warm.cache_stats["writes"] == 0
        assert _histograms(cold) == _histograms(warm) == reference
        assert [point.shots for point in cold.points] == [200, 120]


def test_point_above_kernel_split_threshold_identical_across_drivers():
    """An 18-qubit noise-free point, whose full-state gate kernels split
    across threads when a unit runs inline with ``workers=2``, matches the
    serial runner, a batch whose one fallback chunk runs inline, and the
    per-shard oracle."""
    from repro.runtime import BatchCircuit, BatchSpec, run_batch

    circuit = CircuitSpec(builder="helpers:ghz_toffoli_circuit", kwargs={"num_qubits": 18})
    assert 1 << 18 >= kernels.SPLIT_MIN_AMPLITUDES
    spec = ExperimentSpec(name="split-threshold", circuit=circuit, shots=2000, seed=23)
    reference = _per_shard_reference(spec)
    serial = ExperimentRunner(spec, workers=1, use_cache=False).run()
    threaded = ExperimentRunner(spec, workers=2, use_cache=False).run()
    fleet = BatchSpec(
        name="split-threshold", circuits=[BatchCircuit(circuit=circuit)], shots=2000, seed=23
    )
    batch = run_batch(fleet, workers=2, use_cache=False)
    assert (batch.plan["fallback_circuits"], batch.plan["chunks"]) == (1, 1)
    assert len(reference[0]) > 100
    assert _histograms(serial) == _histograms(threaded) == reference
    assert [row.counts for row in batch.circuits] == reference


def test_perfect_point_plans_one_unit_over_every_shard(tmp_path):
    spec = ExperimentSpec(
        name="plan-perfect",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 6}),
        shots=1000,
        seed=1,
    )
    (planned,) = ExperimentRunner(spec, workers=2, cache_dir=tmp_path).plan()
    (task,) = planned.tasks
    sizes = shard_sizes(1000, spec.max_shard_shots, spec.min_shards)
    assert task.shards == list(enumerate(sizes))
    assert task.shots == task.cost == 1000


def test_realistic_point_plans_one_unit_per_shard(tmp_path):
    (planned,) = ExperimentRunner(_noisy_spec(sweep={}), workers=2, cache_dir=tmp_path).plan()
    sizes = shard_sizes(64)
    assert len(planned.tasks) == len(sizes)
    assert [task.shards for task in planned.tasks] == [[shard] for shard in enumerate(sizes)]


def test_shard_sizes_split_across_engines_keep_one_unit_per_shard(tmp_path, monkeypatch):
    """When the cost model sends distinct shard sizes to different engines,
    no single evolution serves the point, so each shard stays a unit."""
    from repro.qx import backends

    def choose(profile, max_bond=None):
        return "mps" if profile.shots > 12 else "statevector"

    monkeypatch.setattr(backends, "choose", choose)
    spec = ExperimentSpec(
        name="plan-split",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 4}),
        shots=100,  # 8 shards: four of 13 shots, four of 12
        seed=2,
    )
    (planned,) = ExperimentRunner(spec, workers=1, cache_dir=tmp_path).plan()
    assert sorted({task.shots for task in planned.tasks}) == [12, 13]
    assert len(planned.tasks) == 8


# ---------------------------------------------------------------------- #
# Cold cache vs warm cache
# ---------------------------------------------------------------------- #
def test_cold_and_warm_cache_runs_are_identical(tmp_path):
    spec = _noisy_spec()
    cold = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    warm_runner = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache")
    warm = warm_runner.run()
    assert _histograms(cold) == _histograms(warm)
    # The warm run must actually have been served from the cache.
    assert warm.cache_stats["hits"] > 0
    assert warm.cache_stats["writes"] == 0
    assert any(point.compile_cached for point in warm.points)


def test_disabled_cache_matches_cached_run(tmp_path):
    spec = _noisy_spec()
    cached = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    uncached = ExperimentRunner(spec, workers=1, use_cache=False).run()
    assert _histograms(cached) == _histograms(uncached)
    assert uncached.cache_stats == {}


def test_corrupt_cache_entry_is_recompiled_identically(tmp_path):
    spec = _noisy_spec()
    cache_dir = tmp_path / "cache"
    reference = ExperimentRunner(spec, workers=1, cache_dir=cache_dir).run()
    # Truncate every cached artifact; the next run must fall back to
    # recompiling and still produce the same histograms.
    corrupted = list(cache_dir.glob("*/*.pkl"))
    assert corrupted
    for path in corrupted:
        path.write_bytes(b"not a pickle")
    again = ExperimentRunner(spec, workers=1, cache_dir=cache_dir).run()
    assert _histograms(reference) == _histograms(again)


# ---------------------------------------------------------------------- #
# Runner plumbing
# ---------------------------------------------------------------------- #
def test_shard_task_executes_standalone(tmp_path):
    """A worker needs nothing but the picklable task record."""
    spec = _noisy_spec(sweep={})
    planned = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").plan()
    assert len(planned) == 1
    task = planned[0].tasks[0]
    assert isinstance(task, ShardTask)
    [first] = run_shard(task)
    [second] = run_shard(task)
    assert first.counts == second.counts
    assert first.shots == task.shots


def _zero_text_runs(tmp_path) -> dict:
    """One plan + execute closure per execution path that must never touch text."""
    from repro.runtime import BatchCircuit, BatchSpec, CompileSpec, run_batch

    def runner(compiler: bool):
        spec = ExperimentSpec(
            name="zero-text",
            circuit=CircuitSpec(builder="rotations", kwargs={"num_qubits": 4}),
            platform=PlatformSpec(factory="realistic", kwargs={"num_qubits": 4}),
            compiler=CompilerSpec(enabled=compiler),
            sweep={"circuit.seed": [0, 1]},
            shots=64,
        )
        # Cold, then warm: the warm run is served compiled circuits by the cache.
        for _ in range(2):
            ExperimentRunner(spec, workers=1, cache_dir=tmp_path / f"cache-{compiler}").run()

    fleet = BatchSpec(
        name="zero-text",
        circuits=[
            BatchCircuit(circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 3})),
            BatchCircuit(circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 3}), seed=4),
            BatchCircuit(circuit=CircuitSpec(builder="helpers:toffoli_circuit")),
            BatchCircuit(
                circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 4}), backend="mps"
            ),
        ],
        shots=64,
    )

    def batch():
        result = run_batch(fleet, workers=1, cache_dir=tmp_path / "cache-batch")
        assert result.plan["stacked_circuits"] == 2
        assert result.plan["fallback_circuits"] == 2

    def stabilizer():
        spec = ExperimentSpec(
            name="zero-text-stabilizer",
            circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 5}),
            simulation=SimulationSpec(backend="stabilizer"),
            shots=64,
        )
        (point,) = ExperimentRunner(spec, workers=1, use_cache=False).run().points
        assert point.metrics["backend"] == "stabilizer"

    def compile_point():
        spec = ExperimentSpec(
            name="zero-text-compile",
            kind="compile",
            circuit=CircuitSpec(builder="random", kwargs={"num_qubits": 5, "depth": 4}),
            compile=CompileSpec(),
            shots=1,
        )
        ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache-compile").run()

    def service():
        import asyncio

        from repro.service import JobService

        async def scenario():
            service = JobService(
                cache_dir=tmp_path / "svc-cache",
                data_dir=tmp_path / "svc-data",
                workers=2,
                use_processes=False,
            )
            await service.start()
            # The service resolves registry names only, so its fleet drops
            # the dotted-reference Toffoli entry.
            payload = fleet.to_dict()
            payload["circuits"] = [
                entry for entry in payload["circuits"] if ":" not in entry["circuit"]["builder"]
            ]
            try:
                accepted = await service.submit(
                    client="alice", kind="batch", payload=payload, priority=1
                )
                return [event async for event in service.stream(accepted["job_id"])]
            finally:
                await service.close()

        events = asyncio.run(scenario())
        assert events[-1]["event"] == "done"

    return {
        "runner-compiled": lambda: runner(True),
        "runner-uncompiled": lambda: runner(False),
        "batch": batch,
        "stabilizer": stabilizer,
        "compile-kind": compile_point,
        "service-batch": service,
    }


@pytest.mark.parametrize(
    "path",
    [
        "runner-compiled",
        "runner-uncompiled",
        "batch",
        "stabilizer",
        "compile-kind",
        "service-batch",
    ],
)
def test_planning_and_execution_never_render_or_parse_cqasm(tmp_path, monkeypatch, path):
    """cQASM is an export: no runner, batch or service path renders or
    parses text to hand work between planner, caches and workers."""
    import sys

    import repro.cqasm.parser
    import repro.cqasm.writer

    calls = {"circuit_to_cqasm": 0, "cqasm_to_circuit": 0}
    for module, name in (
        (repro.cqasm.writer, "circuit_to_cqasm"),
        (repro.cqasm.parser, "cqasm_to_circuit"),
    ):
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # Patch the defining module and every module that imported the name.
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is not None and loaded_name.split(".")[0] == "repro":
                for attribute, value in list(vars(loaded).items()):
                    if value is original:
                        monkeypatch.setattr(loaded, attribute, counting)
    _zero_text_runs(tmp_path)[path]()
    assert calls == {"circuit_to_cqasm": 0, "cqasm_to_circuit": 0}


def test_spin_qubit_points_run_with_compiled_durations():
    """The spin-qubit platform's 100/200 ns gates reach the worker's program,
    and the runner's histogram matches a reference built from
    ``lower(compile_circuit(...))`` shard by shard."""
    from repro.runtime.worker import load_program

    spec = ExperimentSpec(
        name="spin-durations",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 3}),
        platform=PlatformSpec(factory="spin_qubit"),
        shots=1000,
        seed=5,
    )
    (point,) = spec.points()
    compiled, qubit_model = _compiled(point.spec)
    expected = lower(compiled, fuse=qubit_model.is_perfect)
    assert {100, 200} <= {op.duration for op in expected.ops}
    planned = ExperimentRunner(spec, workers=1, use_cache=False).plan_point(point)
    for task in planned.tasks:
        program = load_program(task)
        assert [op.duration for op in program.ops] == [op.duration for op in expected.ops]
    result = ExperimentRunner(spec, workers=1, use_cache=False).run()
    assert _histograms(result) == _per_shard_reference(spec)


def test_host_cpu_delegates_to_runner(tmp_path):
    spec = _noisy_spec()
    direct = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    host = HostCPU(runtime_workers=1)
    offloaded = host.run_experiment(spec, cache_dir=tmp_path / "cache")
    assert _histograms(direct) == _histograms(offloaded)


def test_artifact_cache_roundtrips_kernel_programs(tmp_path):
    from repro.core.circuit import ghz_circuit
    from repro.qx.compiled import lower

    circuit = ghz_circuit(3)
    circuit.measure_all()
    program = lower(circuit, fuse=False)
    cache = ArtifactCache(tmp_path / "cache")
    key = cache.key_for("program", cqasm="test", fuse=False)
    cache.put(key, program)
    loaded = cache.get(key)
    assert loaded.num_qubits == program.num_qubits
    assert len(loaded.ops) == len(program.ops)
    for original, restored in zip(program.ops, loaded.ops, strict=True):
        assert original.kind == restored.kind
        assert original.qubits == restored.qubits
        if original.matrix is None:
            assert restored.matrix is None
        else:
            assert np.array_equal(original.matrix, restored.matrix)


# ---------------------------------------------------------------------- #
# Cache eviction, atomic writes, concurrent writers (service satellites)
# ---------------------------------------------------------------------- #
def test_cache_prune_evicts_oldest_entries_first(tmp_path):
    import os
    import time as time_module

    cache = ArtifactCache(tmp_path / "cache")
    keys = [cache.key_for("blob", index=i) for i in range(4)]
    for index, key in enumerate(keys):
        cache.put(key, "x" * 1024)
        # Pin distinct mtimes so LRU order is unambiguous on coarse clocks.
        stamp = time_module.time() - (100 - index)
        os.utime(cache.path_for(key), (stamp, stamp))
    entry_size = cache.path_for(keys[0]).stat().st_size
    report = cache.prune(max_bytes=2 * entry_size)
    assert report["evicted"] == 2
    assert report["size_bytes"] <= 2 * entry_size
    assert cache.evictions == 2
    # Oldest mtimes (lowest index) went first; newest survive.
    assert cache.get(keys[0]) is None
    assert cache.get(keys[1]) is None
    assert cache.get(keys[2]) == "x" * 1024
    assert cache.get(keys[3]) == "x" * 1024
    assert "evictions" in cache.stats()


def test_cache_running_size_total_stays_exact(tmp_path):
    """After every store change this instance makes — a new put, an
    overwriting put, a corrupt entry purged by get, prune, clear — the O(1)
    running total equals a fresh directory scan."""
    import random

    cache = ArtifactCache(tmp_path / "cache")
    keys = [cache.key_for("blob", index=index) for index in range(8)]
    cache.put(keys[0], "seeded later")
    assert cache.size_bytes() == sum(size for _, size, _ in cache._entries())
    rng = random.Random(15)
    operations = ("put", "overwrite", "purge", "prune", "clear")
    seen = set()
    for _ in range(300):
        operation = rng.choices(operations, weights=(4, 4, 2, 1, 0.2))[0]
        present = [key for key in keys if cache.path_for(key).exists()]
        absent = [key for key in keys if key not in present]
        value = "x" * rng.randrange(1, 4096)
        if operation == "put" and absent:
            cache.put(rng.choice(absent), value)
        elif operation == "overwrite" and present:
            cache.put(rng.choice(present), value)
        elif operation == "purge" and present:
            # Same-length garbage: the corruption itself does not move the
            # on-disk total; the purge in get() must.
            path = cache.path_for(rng.choice(present))
            path.write_bytes(b"\0" * path.stat().st_size)
            assert cache.get(path.stem) is None
            assert not path.exists()
        elif operation == "prune":
            cache.prune(max_bytes=rng.randrange(0, cache.size_bytes() + 1))
        elif operation == "clear":
            cache.clear()
        else:
            continue
        seen.add(operation)
        assert cache.size_bytes() == sum(size for _, size, _ in cache._entries()), operation
    assert seen == set(operations)


def test_cache_prune_rejects_negative_budget(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    with pytest.raises(ValueError):
        cache.prune(max_bytes=-1)


def test_experiment_result_save_is_atomic(tmp_path):
    spec = _noisy_spec()
    result = ExperimentRunner(spec, workers=1, use_cache=False).run()
    target = tmp_path / "nested" / "result.json"
    target.parent.mkdir()
    result.save(target)
    import json

    loaded = json.loads(target.read_text())
    assert loaded["name"] == spec.name
    # The tmp+rename pattern leaves no temporary siblings behind.
    assert [entry.name for entry in target.parent.iterdir()] == ["result.json"]


def test_concurrent_cache_writers_race_safely(tmp_path):
    """Satellite: two processes hammering the same cache key never produce
    a torn read or leave temp files behind (the atomic tmp+rename, plus
    get()'s corrupt-entry purge, make last-writer-wins safe)."""
    import subprocess
    import sys

    cache_dir = tmp_path / "cache"
    writer = (
        "import sys\n"
        "from repro.runtime import ArtifactCache\n"
        "cache = ArtifactCache(sys.argv[1])\n"
        "key = cache.key_for('contended', name='shared')\n"
        "payload = sys.argv[2] * 20000\n"
        "for _ in range(200):\n"
        "    cache.put(key, payload)\n"
        "    value = cache.get(key)\n"
        "    assert value is None or (len(value) == 20000 and set(value) in ({'a'}, {'b'}))\n"
    )
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", writer, str(cache_dir), tag],
            stderr=subprocess.PIPE,
            text=True,
        )
        for tag in ("a", "b")
    ]
    for process in processes:
        process.wait(timeout=120)
    for process in processes:
        assert process.returncode == 0, process.stderr.read()
    cache = ArtifactCache(cache_dir)
    value = cache.get(cache.key_for("contended", name="shared"))
    assert value is not None and len(value) == 20000 and set(value) in ({"a"}, {"b"})
    leftovers = [path for path in cache_dir.rglob("*") if path.is_file() and path.suffix != ".pkl"]
    assert leftovers == []


# ---------------------------------------------------------------------- #
# QEC experiment kind: surface-code sweeps on the same contract
# ---------------------------------------------------------------------- #
def _qec_spec(**overrides) -> ExperimentSpec:
    settings = dict(
        name="determinism-qec",
        kind="qec",
        qec=QecSpec(distance=3, physical_error_rate=0.02),
        shots=60,  # trials
        seed=13,
        sweep={"qec.distance": [3, 5], "qec.physical_error_rate": [0.01, 0.05]},
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def test_qec_sweep_identical_for_one_and_many_workers():
    spec = _qec_spec()
    serial = ExperimentRunner(spec, workers=1, use_cache=False).run()
    parallel = ExperimentRunner(spec, workers=4, use_cache=False).run()
    assert _histograms(serial) == _histograms(parallel)
    # Defect totals (errors_injected) merge deterministically too.
    assert [p.errors_injected for p in serial.points] == [
        p.errors_injected for p in parallel.points
    ]
    assert [p.params for p in serial.points] == [p.params for p in parallel.points]
    assert all(point.shots == 60 for point in serial.points)
    assert len(serial.points) == 4


def test_qec_sweep_independent_of_cache(tmp_path):
    """QEC points bypass the artifact cache; enabling it must not matter."""
    spec = _qec_spec(sweep={"qec.physical_error_rate": [0.01, 0.05]})
    cached = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    uncached = ExperimentRunner(spec, workers=1, use_cache=False).run()
    assert _histograms(cached) == _histograms(uncached)


def test_qec_shard_task_executes_standalone():
    spec = _qec_spec(sweep={})
    planned = ExperimentRunner(spec, workers=1, use_cache=False).plan()
    assert len(planned) == 1
    assert len(planned[0].tasks) == len(shard_sizes(60))
    task = planned[0].tasks[0]
    [first] = run_shard(task)
    [second] = run_shard(task)
    assert first.counts == second.counts
    assert first.errors_injected == second.errors_injected
    assert first.shots == task.trials


def test_qec_point_failure_rate_matches_direct_run():
    """Merged shard failures equal a direct sharded-by-hand computation."""
    from repro.qec.surface_code import PlanarSurfaceCode

    spec = _qec_spec(sweep={}, shots=40)
    result = ExperimentRunner(spec, workers=2, use_cache=False).run()
    point = result.points[0]
    code = PlanarSurfaceCode(3)
    failures = 0
    defects = 0
    for shard_index, size in enumerate(shard_sizes(40)):
        shard = code.run_memory_experiment(
            0.02, trials=size, seed=shard_seed(13, 0, shard_index)
        )
        failures += shard.logical_failures
        defects += shard.total_defects
    assert point.counts.get("1", 0) == failures
    assert point.errors_injected == defects
    assert point.shots == 40
