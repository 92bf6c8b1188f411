"""The work-unit protocol: every unit runs itself behind one dispatcher.

Every unit kind — circuit units (evolve-once and per-shard), QEC units,
compile units and stack chunks — is a picklable record whose ``run()``
returns its :class:`~repro.runtime.worker.ShardResult` list, and
:func:`~repro.runtime.worker.run_shard` is the one entry point that runs
and times them, inline or in a pool.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.circuit import random_circuit
from repro.qx.compiled import circuit_content_key
from repro.runtime import (
    ArtifactCache,
    CircuitSpec,
    CompilerSpec,
    CompileSpec,
    ExperimentRunner,
    ExperimentSpec,
    PlatformSpec,
    QecSpec,
)
from repro.runtime.batch import MAX_CHUNK_BYTES, BatchRunner, BatchSpec, StackChunk, _bundles
from repro.runtime.worker import (
    CompileShardTask,
    QecShardTask,
    ShardResult,
    ShardTask,
    mapping_cache_key,
    run_shard,
)

UNIT_KINDS = ("evolve_once", "per_shard", "qec", "compile", "stack_chunk")


def _planned_units(spec: ExperimentSpec) -> list:
    (planned,) = ExperimentRunner(spec, workers=1, use_cache=False).plan()
    return planned.tasks


def _unit(kind: str):
    """One unit of ``kind``, planned by the driver that makes it."""
    ghz = CircuitSpec(builder="ghz", kwargs={"num_qubits": 4})
    if kind == "evolve_once":
        (unit,) = _planned_units(ExperimentSpec(name="unit", circuit=ghz, shots=256, seed=1))
        assert isinstance(unit, ShardTask) and len(unit.shards) > 1
        return unit
    if kind == "per_shard":
        noisy = PlatformSpec(factory="realistic", kwargs={"num_qubits": 4})
        units = _planned_units(
            ExperimentSpec(name="unit", circuit=ghz, platform=noisy, shots=64, seed=2)
        )
        assert len(units) > 1 and all(len(unit.shards) == 1 for unit in units)
        return units[1]
    if kind == "qec":
        qec = QecSpec(distance=3, physical_error_rate=0.03)
        units = _planned_units(
            ExperimentSpec(name="unit", kind="qec", qec=qec, shots=60, seed=3)
        )
        assert isinstance(units[0], QecShardTask)
        return units[0]
    if kind == "compile":
        circuit = CircuitSpec(builder="random", kwargs={"num_qubits": 5, "depth": 4, "seed": 4})
        (unit,) = _planned_units(
            ExperimentSpec(name="unit", kind="compile", circuit=circuit, shots=1, seed=0)
        )
        assert isinstance(unit, CompileShardTask)
        return unit
    spec = BatchSpec.from_product(
        "unit",
        "rotations",
        {"seed": [5, 6, 7]},
        base_kwargs={"num_qubits": 4, "depth": 2},
        shots=128,
        compiler=CompilerSpec(enabled=False),
    )
    planned = BatchRunner(spec, workers=1, use_cache=False).plan()
    bundles, stack_chunks, _ = _bundles(planned, MAX_CHUNK_BYTES)
    assert stack_chunks == len(bundles) == 1
    (unit,) = bundles[0]
    assert isinstance(unit, StackChunk)
    return unit


def _outcome(results: list[ShardResult]) -> list[tuple]:
    """What a unit computed: everything but its timing and cache counters."""
    return [
        (
            result.point_index,
            result.shard_index,
            result.shots,
            result.counts,
            result.errors_injected,
            {k: v for k, v in result.metrics.items() if not k.startswith("program_cache_")},
        )
        for result in results
    ]


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=2) as executor:
        yield executor


@pytest.mark.parametrize("kind", UNIT_KINDS)
def test_every_unit_kind_runs_through_run_shard(kind, pool):
    unit = _unit(kind)
    restored = pickle.loads(pickle.dumps(unit, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(restored) is type(unit)

    first = run_shard(unit)
    assert isinstance(first, list) and first
    assert all(isinstance(result, ShardResult) for result in first)
    assert all(result.wall_time_s > 0 for result in first)
    outcome = _outcome(first)
    assert outcome == _outcome(run_shard(unit))
    assert outcome == _outcome(run_shard(restored))
    assert all(sum(result.counts.values()) == result.shots for result in first if result.counts)
    # Two processes running the unit at once agree with the inline run.
    assert [_outcome(results) for results in pool.map(run_shard, [unit, unit])] == [outcome] * 2


def test_program_cache_counters_reach_point_metrics():
    """Circuit units count their content-cache lookups; the runner sums them
    per point.  Two noisy points running one compiled circuit lower it once."""
    spec = ExperimentSpec(
        name="program-cache-counters",
        circuit=CircuitSpec(builder="rotations", kwargs={"num_qubits": 3, "depth": 3, "seed": 977}),
        platform=PlatformSpec(factory="realistic", kwargs={"num_qubits": 3}),
        shots=64,
        seed=0,
        sweep={"platform.error_rate": [1e-3, 2e-3]},
    )
    runner = ExperimentRunner(spec, workers=1, use_cache=False)
    planned = runner.plan()
    assert len({task.program_key for point in planned for task in point.tasks}) == 1
    result = runner.run()
    for plan, point in zip(planned, result.points, strict=True):
        assert len(plan.tasks) > 1
        lookups = point.metrics["program_cache_hits"] + point.metrics["program_cache_misses"]
        assert lookups == len(plan.tasks)
    assert sum(point.metrics["program_cache_misses"] for point in result.points) == 1


@pytest.mark.parametrize(
    "config",
    [
        CompileSpec(),
        CompileSpec(
            placement="trivial",
            router="path",
            topology="grid",
            rows=2,
            cols=3,
            schedule_policy="alap",
            lookahead_window=5,
            decay=0.5,
        ),
    ],
    ids=["default", "non_default"],
)
def test_mapping_cache_key_is_unchanged(config):
    """The mapping artifact key names every pipeline field on purpose: a new
    ``CompileSpec`` field must not change it without a decision to."""
    circuit = random_circuit(4, 5, seed=8)
    task = CompileShardTask(circuit=circuit, config=config, point_index=0)
    assert mapping_cache_key(task) == ArtifactCache.key_for(
        "mapping",
        source=circuit_content_key(circuit),
        placement=config.placement,
        router=config.router,
        topology=config.topology,
        rows=config.rows,
        cols=config.cols,
        schedule_policy=config.schedule_policy,
        lookahead_window=config.lookahead_window,
        decay=config.decay,
    )
