"""Determinism and planning tests for the many-circuit batch runtime.

The contract under test: a :class:`~repro.runtime.batch.BatchRunner` fleet
produces, for every circuit ``i``, the *bit-identical* histogram a serial
:class:`~repro.runtime.runner.ExperimentRunner` sweep assigns to point
``i`` — for any worker count, any chunk layout, mixed per-circuit backend
overrides, and cross-mapped measurement bits.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from oracles.sampled_reference import sample_index_counts

from repro.qx.keying import PreparedIndexSampler
from repro.runtime.aggregate import merge_counts
from repro.runtime.batch import (
    MIN_WINDOW_POINTS,
    BatchCircuit,
    BatchRunner,
    BatchSpec,
    run_batch,
    window_size,
)
from repro.runtime.cache import ArtifactCache
from repro.runtime.runner import ExperimentRunner
from repro.runtime.seeding import shard_seed, shard_sizes
from repro.runtime.spec import CircuitSpec, CompilerSpec, ExperimentSpec, PlatformSpec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROTATIONS = {"num_qubits": 5, "depth": 2}


def _serial_sweep(seeds, shots=96, compile_enabled=False, builder="rotations", measure="all"):
    spec = ExperimentSpec(
        name="serial",
        kind="circuit",
        circuit=CircuitSpec(builder=builder, kwargs=dict(ROTATIONS), measure=measure),
        sweep={"circuit.seed": list(seeds)},
        shots=shots,
        seed=0,
        compiler=CompilerSpec(enabled=compile_enabled),
    )
    return ExperimentRunner(spec, workers=1, use_cache=False).run()


def _batch_product(seeds, shots=96, compile_enabled=False, builder="rotations", measure="all", **kw):
    return BatchSpec.from_product(
        "batch",
        builder,
        {"seed": list(seeds)},
        base_kwargs=dict(ROTATIONS),
        measure=measure,
        shots=shots,
        compiler=CompilerSpec(enabled=compile_enabled),
        **kw,
    )


def _assert_counts_match(serial_points, batch_circuits):
    assert len(serial_points) == len(batch_circuits)
    for point, circuit in zip(serial_points, batch_circuits, strict=True):
        assert point.counts == circuit.counts  # bit-identical histograms
        assert sum(point.counts.values()) == point.shots


# ---------------------------------------------------------------------- #
# Batch vs the serial sweep
# ---------------------------------------------------------------------- #
def test_batch_matches_serial_sweep():
    seeds = range(6)
    serial = _serial_sweep(seeds)
    batch = run_batch(_batch_product(seeds), workers=1)
    _assert_counts_match(serial.points, batch.circuits)
    assert batch.plan["stacked_circuits"] == 6
    assert batch.plan["fallback_circuits"] == 0


def test_batch_matches_serial_sweep_with_compiler():
    seeds = range(3)
    serial = _serial_sweep(seeds, compile_enabled=True)
    batch = run_batch(_batch_product(seeds, compile_enabled=True), workers=1)
    _assert_counts_match(serial.points, batch.circuits)


def test_workers_and_chunk_layout_do_not_change_results():
    seeds = range(6)
    reference = run_batch(_batch_product(seeds), workers=1)
    chunked = run_batch(_batch_product(seeds, max_chunk_circuits=2), workers=3)
    assert chunked.plan["chunks"] == 3
    _assert_counts_match(reference.circuits, chunked.circuits)


# ---------------------------------------------------------------------- #
# Windows: each pool task plans, stacks and runs its own points
# ---------------------------------------------------------------------- #
def _window_fleet(max_chunk_circuits: int, platform: str = "perfect") -> BatchSpec:
    """Two interleaved stack structures plus rows that cannot stack: a
    toffoli, an MPS-pinned GHZ and a feedback circuit run per shard."""
    wide = CircuitSpec(builder="rotations", kwargs={"num_qubits": 5, "depth": 2})
    narrow = CircuitSpec(builder="rotations", kwargs={"num_qubits": 4, "depth": 3})
    circuits = []
    for seed in range(3):
        for base in (wide, narrow):
            spec = CircuitSpec(builder=base.builder, kwargs={**base.kwargs, "seed": seed})
            circuits.append(BatchCircuit(circuit=spec))
    circuits[3:3] = [
        BatchCircuit(circuit=CircuitSpec(builder="helpers:toffoli_circuit")),
        BatchCircuit(circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 4}), backend="mps"),
        BatchCircuit(
            circuit=CircuitSpec(
                builder="helpers:clifford_feedback_circuit", kwargs={"num_qubits": 3}
            )
        ),
    ]
    return BatchSpec(
        name="windows",
        circuits=circuits,
        shots=64,
        seed=3,
        platform=PlatformSpec(factory=platform, kwargs={"num_qubits": 5}),
        compiler=CompilerSpec(enabled=False),
        max_chunk_circuits=max_chunk_circuits,
    )


#: The stack structure of each ``_window_fleet`` row (``None``: cannot stack).
WINDOW_FLEET_ROWS = ["wide", "narrow", "wide", None, None, None, "narrow", "wide", "narrow"]


def test_window_size_spreads_over_workers_in_windows_of_min_points():
    assert MIN_WINDOW_POINTS == 4
    assert window_size(9, 64, 1) == 9
    assert window_size(9, 64, 2) == 5
    assert window_size(12, 64, 3) == 4
    # Fewer than MIN_WINDOW_POINTS points per worker: fewer, fuller windows.
    assert window_size(9, 64, 3) == 5
    assert window_size(7, 64, 2) == 7
    assert window_size(16, 64, 16) == 4
    assert window_size(1, 64, 4) == 1
    # max_chunk_circuits bounds every window, the floor included.
    assert window_size(9, 2, 3) == 2
    assert window_size(64, 8, 2) == 8


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("max_chunk_circuits", [1, 2, 64])
def test_windows_match_the_serial_runner(max_chunk_circuits, workers):
    fleet = _window_fleet(max_chunk_circuits)
    serial = ExperimentRunner(fleet, workers=1, use_cache=False).run()
    batch = run_batch(fleet, workers=workers)
    _assert_counts_match(serial.points, batch.circuits)
    assert [circuit.index for circuit in batch.circuits] == list(range(9))
    plan = batch.plan
    assert (plan["circuits"], plan["stacked_circuits"], plan["fallback_circuits"]) == (9, 6, 3)
    # Each window stacks each of its structures as one chunk, and its
    # unstackable rows share one more bundle.
    size = window_size(9, max_chunk_circuits, workers)
    groups = bundles = 0
    for start in range(0, 9, size):
        rows = WINDOW_FLEET_ROWS[start : start + size]
        structures = {row for row in rows if row is not None}
        groups += len(structures)
        bundles += len(structures) + (None in rows)
    assert (plan["stack_groups"], plan["stack_chunks"], plan["chunks"]) == (
        groups,
        groups,
        bundles,
    )


@pytest.mark.parametrize("workers", [1, 3])
def test_noisy_windows_match_the_serial_runner(workers):
    """On a noisy platform no row stacks: every window runs per-shard units."""
    fleet = _window_fleet(2, platform="realistic")
    fleet.circuits = [entry for entry in fleet.circuits if entry.backend != "mps"]
    serial = ExperimentRunner(fleet, workers=1, use_cache=False).run()
    batch = run_batch(fleet, workers=workers)
    _assert_counts_match(serial.points, batch.circuits)
    assert batch.plan["stacked_circuits"] == 0
    assert batch.plan["chunks"] == 4


def test_uncached_stack_rows_skip_the_compile_key(monkeypatch, tmp_path):
    """A batch plans without a cache, so planning a compiled stack row never
    hashes the circuit for the compile-cache key, and histograms equal a
    cached serial sweep's."""
    import repro.runtime.runner as runner_module

    fleet = _batch_product(range(3), compile_enabled=True)
    reference = ExperimentRunner(fleet, workers=1, cache_dir=tmp_path).run()

    def forbidden(circuit):
        raise AssertionError("compile-cache key computed without a cache")

    monkeypatch.setattr(runner_module, "circuit_content_key", forbidden)
    uncached = run_batch(fleet, workers=1)
    assert uncached.plan["stacked_circuits"] == 3
    _assert_counts_match(reference.points, uncached.circuits)


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_runner_given_a_cache_dir_never_touches_it(monkeypatch, tmp_path, workers):
    """``BatchRunner`` keeps ``ExperimentRunner``'s constructor but plans
    without the artifact cache, inline and in a pool: a cache read or write
    raises, and the directory stays empty."""
    fleet = _batch_product(range(4), compile_enabled=True, max_chunk_circuits=2)
    fleet.circuits += UNSTACKABLE
    serial = ExperimentRunner(fleet, workers=1, use_cache=False).run()

    def forbidden(*args, **kwargs):
        raise AssertionError("a batch touched the artifact cache")

    monkeypatch.setattr(ArtifactCache, "get", forbidden)
    monkeypatch.setattr(ArtifactCache, "put", forbidden)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    runner = BatchRunner(fleet, workers=workers, cache_dir=cache_dir)
    assert runner.cache is None
    batch = runner.run()
    _assert_counts_match(serial.points, batch.circuits)
    assert all(not circuit.compile_cached for circuit in batch.circuits)
    assert list(cache_dir.iterdir()) == []


def test_plan_counters_cover_this_run_only():
    """The plan dict reports this run's lowering-cache lookups, not the
    process's lifetime totals: a repeated run reports the same lookups."""
    fleet = _batch_product(range(4), max_chunk_circuits=2)
    first = run_batch(fleet, workers=1)
    second = run_batch(fleet, workers=1)
    for key in ("plan_cache", "program_content_cache"):
        assert sum(first.plan[key].values()) == sum(second.plan[key].values())
    # Every circuit looks its structure up once; the repeat only hits.
    assert sum(second.plan["plan_cache"].values()) == 4
    assert second.plan["plan_cache"]["misses"] == 0


# ---------------------------------------------------------------------- #
# Mixed backends inside one batch
# ---------------------------------------------------------------------- #
def test_mixed_backend_batch_matches_serial():
    """Statevector, stabilizer and MPS rows of one fleet all match serial."""
    backends = ["statevector", "stabilizer", "mps"]
    ghz = CircuitSpec(builder="ghz", kwargs={"num_qubits": 5})
    serial = ExperimentRunner(
        ExperimentSpec(
            name="serial",
            kind="circuit",
            circuit=ghz,
            sweep={"backend": backends},
            shots=64,
            seed=0,
            compiler=CompilerSpec(enabled=False),
        ),
        workers=1,
        use_cache=False,
    ).run()
    batch = run_batch(
        BatchSpec(
            name="mixed",
            circuits=[BatchCircuit(circuit=ghz, backend=backend) for backend in backends],
            shots=64,
            compiler=CompilerSpec(enabled=False),
        ),
        workers=1,
    )
    _assert_counts_match(serial.points, batch.circuits)
    # Pinned statevector stacks; stabilizer and MPS run as fallback tasks.
    assert batch.plan["stacked_circuits"] == 1
    assert batch.plan["fallback_circuits"] == 2
    for circuit in batch.circuits:
        assert set(circuit.counts) <= {"00000", "11111"}


#: Deterministic circuits the stacked pass cannot take: a 3-qubit gate, and
#: a pinned engine other than the dense statevector.
UNSTACKABLE = [
    BatchCircuit(
        circuit=CircuitSpec(cqasm="version 1.0\nqubits 3\nh q[0]\nh q[1]\ntoffoli q[0], q[1], q[2]\n"),
        shots=1024,
    ),
    BatchCircuit(circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 4}), shots=1024, backend="mps"),
]


@pytest.mark.parametrize("workers", [1, 3])
def test_mixed_engine_batch_with_unstackable_circuits_matches_serial(workers):
    """Rows that cannot stack get the serial planner's units: one
    evolve-once unit for a deterministic point, one per shard otherwise."""
    ghz = CircuitSpec(builder="ghz", kwargs={"num_qubits": 5})
    spec = BatchSpec(
        name="mixed",
        circuits=[
            BatchCircuit(circuit=ghz, backend=backend)
            for backend in ("statevector", "stabilizer", "mps")
        ]
        + UNSTACKABLE,
        shots=64,
        compiler=CompilerSpec(enabled=False),
    )
    planned = BatchRunner(spec, workers=1, use_cache=False).plan()
    serial_plan = ExperimentRunner(spec, workers=1, use_cache=False).plan()
    assert [len(point.tasks) for point in planned] == [0, 8, 1, 1, 1]
    assert [len(point.tasks) for point in serial_plan[1:]] == [8, 1, 1, 1]
    serial = ExperimentRunner(spec, workers=1, use_cache=False).run()
    batch = run_batch(spec, workers=workers)
    _assert_counts_match(serial.points, batch.circuits)
    assert batch.plan["stacked_circuits"] == 1
    assert [circuit.shots for circuit in batch.circuits] == [64, 64, 64, 1024, 1024]


# ---------------------------------------------------------------------- #
# Cross-mapped measurement bits
# ---------------------------------------------------------------------- #
def test_cross_mapped_measurements_match_serial():
    seeds = range(3)
    serial = _serial_sweep(seeds, builder="helpers:cross_measured_circuit", measure="asis")
    batch = run_batch(
        _batch_product(seeds, builder="helpers:cross_measured_circuit", measure="asis"),
        workers=1,
    )
    assert batch.plan["stacked_circuits"] == 3  # the cross map stays stackable
    _assert_counts_match(serial.points, batch.circuits)


def test_cross_mapped_measurements_key_by_classical_bit():
    batch = run_batch(
        BatchSpec(
            name="flipped",
            circuits=[
                BatchCircuit(
                    circuit=CircuitSpec(
                        builder="helpers:flipped_bit_circuit",
                        kwargs={"num_qubits": 2},
                        measure="asis",
                    )
                )
            ],
            shots=32,
            compiler=CompilerSpec(enabled=False),
        ),
        workers=1,
    )
    # Qubit 0 (the flipped one) measures into bit 1, the leftmost character.
    assert batch.circuits[0].counts == {"10": 32}


# ---------------------------------------------------------------------- #
# Per-circuit overrides and seeding
# ---------------------------------------------------------------------- #
def test_per_circuit_overrides_resolve_like_batch_defaults():
    circuit = CircuitSpec(builder="rotations", kwargs=dict(ROTATIONS))
    overridden = run_batch(
        BatchSpec(
            name="overrides",
            circuits=[
                BatchCircuit(circuit=circuit),
                BatchCircuit(circuit=circuit, shots=32, seed=5),
            ],
            shots=96,
            seed=0,
            compiler=CompilerSpec(enabled=False),
        ),
        workers=1,
    )
    as_defaults = run_batch(
        BatchSpec(
            name="defaults",
            circuits=[BatchCircuit(circuit=circuit), BatchCircuit(circuit=circuit)],
            shots=32,
            seed=5,
            compiler=CompilerSpec(enabled=False),
        ),
        workers=1,
    )
    assert sum(overridden.circuits[0].counts.values()) == 96
    assert sum(overridden.circuits[1].counts.values()) == 32
    # Same circuit index + same resolved (shots, seed) => same shard streams.
    assert overridden.circuits[1].counts == as_defaults.circuits[1].counts


# ---------------------------------------------------------------------- #
# Plan sharing and cache observability
# ---------------------------------------------------------------------- #
def test_same_structure_circuits_share_one_plan():
    runner = BatchRunner(_batch_product(range(4)), workers=1, use_cache=False)
    planned = runner.plan()
    assert all(circuit.stackable for circuit in planned)
    first = planned[0].plan
    assert all(circuit.plan is first for circuit in planned[1:])
    result = runner.run()
    assert result.plan["stack_groups"] == 1
    assert result.plan["stack_chunks"] == 1


def test_plan_cache_counters_reach_point_metrics():
    result = run_batch(_batch_product(range(4)), workers=1)
    metrics = [circuit.metrics for circuit in result.circuits]
    assert all("plan_cache_hits" in m and "plan_cache_misses" in m for m in metrics)
    # One structural miss for the group, hits for every subsequent circuit.
    assert sum(m["plan_cache_hits"] for m in metrics) >= 3


def test_point_wall_time_is_its_own_execution_time():
    """Stack rows and work units time themselves, so a point reports its
    own execution time, not the wall of the whole run."""
    spec = _batch_product(range(3), compile_enabled=False)
    spec.circuits += UNSTACKABLE
    batch = run_batch(spec, workers=1)
    serial = ExperimentRunner(spec, workers=1, use_cache=False).run()
    assert batch.plan["stacked_circuits"] == 3
    for points, total in ((batch.circuits, batch.total_time_s), (serial.points, serial.total_time_s)):
        assert all(point.wall_time_s > 0 for point in points)
        assert sum(point.wall_time_s for point in points) <= total


# ---------------------------------------------------------------------- #
# Spec plumbing
# ---------------------------------------------------------------------- #
def test_batchspec_json_roundtrip():
    spec = _batch_product(range(3), max_chunk_circuits=7)
    restored = BatchSpec.from_json(spec.to_json())
    assert restored.to_dict() == spec.to_dict()
    assert restored.circuits[1].circuit.kwargs["seed"] == 1
    assert restored.max_chunk_circuits == 7


def test_batchspec_loads_a_spec_that_still_carries_max_chunk_bytes():
    """Saved specs and journaled service jobs written while the chunk byte
    cap was a spec field still load, through the service's parser too."""
    from repro.service.jobs import parse_job_spec

    spec = _batch_product(range(3), max_chunk_circuits=7)
    payload = {**spec.to_dict(), "max_chunk_bytes": 1 << 20}
    assert BatchSpec.from_dict(payload).to_dict() == spec.to_dict()
    assert parse_job_spec(payload, "batch").to_dict() == spec.to_dict()


def test_from_product_orders_like_a_sweep():
    spec = BatchSpec.from_product(
        "grid", "rotations", {"num_qubits": [4, 5], "seed": [0, 1]}
    )
    labels = [circuit.label for circuit in spec.circuits]
    assert labels == [
        "num_qubits=4,seed=0",
        "num_qubits=4,seed=1",
        "num_qubits=5,seed=0",
        "num_qubits=5,seed=1",
    ]


def test_batchspec_validation():
    with pytest.raises(ValueError, match="at least one circuit"):
        BatchSpec(name="empty", circuits=[])
    with pytest.raises(ValueError, match="unknown backend"):
        BatchCircuit(
            circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 2}),
            backend="quantum",
        )
    with pytest.raises(ValueError, match="shots"):
        BatchCircuit(circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 2}), shots=0)


# ---------------------------------------------------------------------- #
# The amortised sampler
# ---------------------------------------------------------------------- #
def _ghz_distribution():
    # Exact zeros everywhere but the two GHZ branches.
    probabilities = np.zeros(64)
    probabilities[0] = probabilities[-1] = 0.5
    return probabilities, (5, 1, 0, 3)


def _single_entry_distribution():
    probabilities = np.zeros(64)
    probabilities[37] = 1.0
    return probabilities, (5, 1, 0, 3)


def _confused_density_distribution():
    # The distribution a density run_program samples: exact channels, then
    # the REALISTIC read-out confusion on the measured qubits.
    from repro.core.circuit import random_circuit
    from repro.core.qubits import REALISTIC
    from repro.qx.compiled import lower
    from repro.qx.simulator import QXSimulator

    circuit = random_circuit(5, 6, seed=2)
    for qubit in (4, 1, 3):
        circuit.measure(qubit)
    program = lower(circuit, fuse=False)
    probabilities = QXSimulator(qubit_model=REALISTIC)._density_distribution(program, 5)
    return probabilities, program.sample_sources()[1]


@pytest.mark.parametrize("shots", [1, 257, 4096])
@pytest.mark.parametrize(
    "distribution",
    [
        pytest.param(lambda: (np.random.default_rng(42).random(64), (5, 1, 0, 3)), id="random"),
        pytest.param(_ghz_distribution, id="ghz-zeros"),
        pytest.param(_single_entry_distribution, id="single-entry"),
        pytest.param(_confused_density_distribution, id="density-confused"),
    ],
)
def test_prepared_sampler_replays_generator_choice_exactly(distribution, shots):
    probabilities, targets = distribution()
    reference = sample_index_counts(
        probabilities, shots, targets, np.random.default_rng(1234)
    )
    prepared = PreparedIndexSampler(probabilities, targets).sample(
        shots, np.random.default_rng(1234)
    )
    assert prepared == reference


def _cross_mapped_sources():
    from repro.qx.compiled import lower

    circuit = CircuitSpec(
        builder="helpers:cross_measured_circuit", kwargs={"num_qubits": 6}, measure="asis"
    ).build()
    ordered_bits, sources = lower(circuit).sample_sources()
    assert sources != ordered_bits, "the cross map must reorder bits against qubits"
    return sources


@pytest.mark.parametrize(
    "targets,sizes",
    [
        # shard_sizes(1000, 96) is ten shards of 91 shots and one of 90.
        pytest.param((5, 1, 0, 3), tuple(shard_sizes(1000, 96)), id="unequal-shards"),
        pytest.param((5, 1, 0, 3), (257,), id="single-shard"),
        pytest.param((4, 1), tuple(shard_sizes(1000, 128)), id="strict-subset"),
        pytest.param((), (3, 4), id="no-targets"),
        pytest.param("cross", tuple(shard_sizes(700, 128)), id="cross-mapped"),
    ],
)
def test_sample_shards_equals_merged_per_shard_samples(targets, sizes):
    if targets == "cross":
        targets = _cross_mapped_sources()
    probabilities = np.random.default_rng(7).random(64)
    sampler = PreparedIndexSampler(probabilities, targets)

    def streams():
        return (
            (size, np.random.default_rng(shard_seed(11, 3, shard)))
            for shard, size in enumerate(sizes)
        )

    merged = merge_counts(sampler.sample(size, rng) for size, rng in streams())
    pooled = sampler.sample_shards(streams())
    assert list(pooled.items()) == list(merged.items())  # key order too
    assert sum(pooled.values()) == sum(sizes)
    if targets == (4, 1):
        # Strict subset: several basis indices collapse onto each key.
        assert len(pooled) == 4


def test_merged_histograms_share_key_strings():
    """Two merges of different histograms return the same key objects, with
    the contents and key order a plain sum gives."""
    # Built at run time, so no two inputs share a string object.
    first = [{"".join(("0", "1")): 3, "".join(("1", "1")): 1}, {"".join(("0", "1")): 2}]
    second = [{"".join(("1", "1")): 5, "".join(("0", "0")): 4}]
    one, two = merge_counts(first), merge_counts(second)
    assert list(one.items()) == [("01", 5), ("11", 1)]
    assert list(two.items()) == [("00", 4), ("11", 5)]
    (shared,) = set(one) & set(two)
    assert next(key for key in one if key == shared) is next(key for key in two if key == shared)


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
def test_cli_batch_kind(tmp_path):
    output = tmp_path / "batch.json"
    process = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO_ROOT, "scripts", "run_experiment.py"),
            "--kind",
            "batch",
            "--circuit",
            "rotations",
            "--qubits",
            "4",
            "--circuit-arg",
            "depth=2",
            "--batch-param",
            "seed=0,1,2",
            "--shots",
            "32",
            "--workers",
            "1",
            "--no-compile",
            "--no-cache",
            "--quiet",
            "--output",
            str(output),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr
    payload = json.loads(output.read_text())
    assert len(payload["circuits"]) == 3
    assert payload["plan"]["stacked_circuits"] == 3
    for circuit in payload["circuits"]:
        assert sum(circuit["counts"].values()) == 32
