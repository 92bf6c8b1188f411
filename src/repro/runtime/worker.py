"""Work units — the picklable records pool workers execute.

Every unit runs itself: its ``run()`` returns its :class:`ShardResult`
list, so :func:`run_shard` is the one dispatcher for every driver and unit
kind.  Units carry their spec section (``SimulationSpec``, ``QecSpec`` or
``CompileSpec``), not copies of its fields.  A circuit unit's lowered
program comes from the content cache of :mod:`repro.qx.compiled`, so a
worker lowers each distinct circuit at most once.  Every process pool of
the runtime starts its workers with :func:`init_pool_worker`.
"""

from __future__ import annotations

import ctypes
import functools
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.circuit import Circuit
from repro.core.qubits import QubitModel
from repro.qx.compiled import (
    KernelProgram,
    cached_program,
    circuit_content_key,
    content_cache_stats,
    lower,
)
from repro.qx.simulator import QXSimulator
from repro.runtime.aggregate import merge_counts
from repro.runtime.cache import ArtifactCache
from repro.runtime.seeding import shard_seed
from repro.runtime.spec import CompileSpec, QecSpec, SimulationSpec


@dataclass
class ShardResult:
    """Histogram and error statistics of one executed shard."""

    point_index: int
    shard_index: int
    shots: int
    counts: dict[str, int] = field(default_factory=dict)
    errors_injected: int = 0
    #: Unit metrics: a circuit unit's program-cache counters (plus its
    #: backend and MPS truncation error off the dense engine), a compile
    #: unit's mapping metrics; empty for QEC units and stack rows.
    metrics: dict = field(default_factory=dict)
    #: Time spent executing the unit, in seconds.
    wall_time_s: float = 0.0


@dataclass(frozen=True)
class ShardTask:
    """One work unit of one sweep point: a run of shards, with seed coordinates.

    A unit covers the consecutive shards ``shard_index, shard_index + 1,
    ...`` whose sizes are ``shard_shots`` (empty: the single shard
    ``shots``); ``shots`` is the unit's total.  A deterministic point plans
    all its shards into one unit, which evolves once and samples each shard
    from its own seed stream; any other point plans one unit per shard.

    ``simulation`` is the point's (possibly swept)
    :class:`~repro.runtime.spec.SimulationSpec`: the pinned engine and its
    accuracy and cost knobs.  Every shard of a point runs on the same engine
    configuration, so the merged histogram stays bit-identical for any
    worker count.

    ``circuit`` is ``pickle.dumps`` of the compiled circuit, made once by
    the planner and shared by every unit of the point; ``program_key`` is
    that circuit's :func:`~repro.qx.compiled.circuit_content_key`.
    """

    program_key: str
    circuit: bytes
    num_qubits: int
    shots: int
    root_seed: int
    point_index: int
    shard_index: int
    qubit_model: QubitModel | None = None
    simulation: SimulationSpec = field(default_factory=SimulationSpec)
    shard_shots: tuple[int, ...] = ()

    @property
    def shards(self) -> list[tuple[int, int]]:
        """``(shard index, shots)`` of every shard this unit covers."""
        return list(enumerate(self.shard_shots or (self.shots,), start=self.shard_index))

    @property
    def cost(self) -> int:
        """Scheduler cost: the unit's total shots."""
        return self.shots

    def run(self) -> list[ShardResult]:
        """Run the unit's shards: one evolution when the engine allows it.

        A unit covering several shards samples each from its own ``(root
        seed, point, shard)`` stream and reports their merged counts under
        its first shard index.
        """
        # The SimulationSpec fields are the simulator's engine knobs.
        simulator = QXSimulator(
            num_qubits=self.num_qubits,
            qubit_model=None if _noise_free(self.qubit_model) else self.qubit_model,
            seed=shard_seed(self.root_seed, self.point_index, self.shard_index),
            **vars(self.simulation),
        )
        before = content_cache_stats()
        program = load_program(self)
        after = content_cache_stats()
        metrics = {
            "program_cache_hits": after["hits"] - before["hits"],
            "program_cache_misses": after["misses"] - before["misses"],
        }
        shards = [
            (size, np.random.default_rng(shard_seed(self.root_seed, self.point_index, index)))
            for index, size in self.shards
        ]
        results = simulator.run_program_shards(program, shards)
        backend = results[0].backend
        if backend != "statevector":
            metrics["backend"] = backend
        if backend == "mps":
            metrics["truncation_error"] = max(result.truncation_error for result in results)
        return [
            ShardResult(
                point_index=self.point_index,
                shard_index=self.shard_index,
                shots=self.shots,
                counts=merge_counts(result.counts for result in results),
                errors_injected=sum(result.errors_injected for result in results),
                metrics=metrics,
            )
        ]


@dataclass(frozen=True)
class QecShardTask:
    """One batch of surface-code memory-experiment trials.

    The ``kind="qec"`` analogue of :class:`ShardTask`: ``trials`` plays the
    role of shots and the ``(root seed, point, shard)`` coordinates feed the
    same :func:`~repro.runtime.seeding.shard_seed` contract, so distance and
    error-rate sweeps merge bit-identically for any worker count.
    """

    qec: QecSpec
    trials: int
    root_seed: int
    point_index: int
    shard_index: int

    @property
    def cost(self) -> int:
        """Scheduler cost: the shard's trials."""
        return self.trials

    def run(self) -> list[ShardResult]:
        """Run the trials; key ``"1"`` counts logical failures, ``"0"`` successes.

        ``errors_injected`` carries the space-time defect total, so merged
        points report the decoder load alongside the failure rate.
        """
        from repro.qec.surface_code import PlanarSurfaceCode

        qec = self.qec
        code = PlanarSurfaceCode(qec.distance)
        if qec.noise_model == "circuit":
            experiment = code.run_circuit_memory_experiment
        else:
            experiment = code.run_memory_experiment
        result = experiment(
            qec.physical_error_rate,
            rounds=qec.rounds,
            trials=self.trials,
            measurement_error_rate=qec.measurement_error_rate,
            seed=shard_seed(self.root_seed, self.point_index, self.shard_index),
            decoder=qec.effective_decoder,
        )
        failures = result.logical_failures
        counts = {"0": result.trials - failures, "1": failures}
        return [
            ShardResult(
                point_index=self.point_index,
                shard_index=self.shard_index,
                shots=self.trials,
                counts={key: count for key, count in counts.items() if count},
                errors_injected=result.total_defects,
            )
        ]


@dataclass(frozen=True)
class CompileShardTask:
    """One compile-and-map pipeline run of one sweep point.

    The ``kind="compile"`` analogue of :class:`ShardTask`: the payload is
    the *source* circuit plus the point's
    :class:`~repro.runtime.spec.CompileSpec`.  Compilation is
    deterministic, so a point is a single shard and merged results are
    bit-identical for any worker count by construction.
    """

    circuit: Circuit
    config: CompileSpec
    point_index: int
    cache_dir: str | None = None

    #: A compile point is one shard.
    shard_index = 0
    #: Scheduler cost: one compile pipeline run.
    cost = 1

    def run(self) -> list[ShardResult]:
        """Compile and map the circuit, through the mapping artifact cache."""
        cache = ArtifactCache(self.cache_dir) if self.cache_dir else None
        key = mapping_cache_key(self)
        artifact = cache.get(key) if cache is not None else None
        if not (isinstance(artifact, dict) and "metrics" in artifact):
            artifact = compile_and_map(self)
            if cache is not None:
                cache.put(key, artifact)
        return [
            ShardResult(
                point_index=self.point_index,
                shard_index=self.shard_index,
                shots=1,
                metrics=dict(artifact["metrics"]),
            )
        ]


def mapping_cache_key(task: CompileShardTask) -> str:
    """Cache key of a compile-and-map artifact: source circuit + pipeline config."""
    return ArtifactCache.key_for(
        "mapping", source=circuit_content_key(task.circuit), **vars(task.config)
    )


def _noise_free(qubit_model: QubitModel | None) -> bool:
    return qubit_model is None or qubit_model.is_perfect


def load_program(task: ShardTask) -> KernelProgram:
    """Lowered program for a task: the qx content cache's, built on a miss only."""
    fuse = _noise_free(task.qubit_model)
    return cached_program(
        task.program_key, fuse, lambda: lower(pickle.loads(task.circuit), fuse=fuse)
    )


def compile_and_map(task: CompileShardTask):
    """Run the full pass pipeline for a compile task; returns the artifact dict.

    The artifact bundles the :class:`~repro.openql.compiler.CompilationResult`
    with the extracted mapping metrics, so cache hits skip the whole
    pipeline, not just the metric extraction.
    """
    from repro.core.qubits import REALISTIC
    from repro.mapping.traffic import TrafficAnalyzer
    from repro.openql.compiler import Compiler
    from repro.openql.kernel import Kernel
    from repro.openql.passes.decomposition import DecompositionPass
    from repro.openql.passes.mapping_pass import MappingPass
    from repro.openql.passes.optimization import OptimizationPass
    from repro.openql.passes.scheduling_pass import SchedulingPass
    from repro.openql.platform import Platform
    from repro.openql.program import Program

    circuit, config = task.circuit, task.config
    topology = config.build_topology(circuit.num_qubits)
    platform = Platform(
        name=f"compile_{topology.name}",
        num_qubits=topology.num_qubits,
        qubit_model=REALISTIC,
        topology=topology,
    )
    mapping_pass = MappingPass(
        strategy=config.placement,
        mode=config.router,
        lookahead_window=config.lookahead_window,
        decay=config.decay,
    )
    compiler = Compiler(
        passes=[
            DecompositionPass(),
            OptimizationPass(),
            mapping_pass,
            SchedulingPass(policy=config.schedule_policy),
        ]
    )
    program = Program(name="compile", platform=platform)
    # Keep the kernel at the logical circuit width: the router, not the
    # kernel, widens the register to the topology, so placement only ever
    # reasons about qubits the program actually uses.
    kernel = Kernel(circuit.name or "main", platform, num_qubits=circuit.num_qubits)
    kernel.extend(circuit)
    program.add_kernel(kernel)
    result = compiler.compile(program)
    routed = result.kernels[0]
    schedule = result.schedules[0]
    routing = mapping_pass.last_result
    traffic = TrafficAnalyzer()
    if routing is not None:
        report = traffic.analyze_routing(routing)
    else:  # pragma: no cover - REALISTIC always routes
        report = traffic.analyze_circuit(routed)
    metrics = {
        "swaps": routing.swaps_inserted if routing is not None else 0,
        "routing_overhead": round(routing.overhead, 6) if routing is not None else 0.0,
        "makespan_ns": schedule.makespan,
        "parallelism": round(schedule.parallelism(), 4),
        "locality": round(report.locality_score, 6),
        "movement_fraction": round(report.movement_fraction, 6),
        "total_hops": report.total_hops,
        "routed_gate_count": routed.gate_count(),
        "routed_depth": routed.depth(),
        "topology_sites": topology.num_qubits,
    }
    return {"compilation": result, "metrics": metrics}


def run_shard(unit) -> list[ShardResult]:
    """Execute one work unit: its ``run()`` results, timed.

    The one dispatcher for every unit kind and every driver.  Each result
    reports an even share of the unit's execution time, so a point's
    summed ``wall_time_s`` is its own execution time whatever else shared
    the pool.
    """
    start = time.perf_counter()
    results = unit.run()
    share = (time.perf_counter() - start) / len(results)
    for result in results:
        result.wall_time_s = share
    return results


@functools.cache
def openblas_threads() -> ctypes.c_int | None:
    """numpy's bundled OpenBLAS thread count (``blas_cpu_number``), or ``None``.

    ``None`` when numpy ships no OpenBLAS of its own (another BLAS, or a
    system build).  Reading the variable starts no BLAS thread.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            return ctypes.c_int.in_dll(ctypes.CDLL(str(path)), "blas_cpu_number")
        except (OSError, ValueError):
            continue
    return None


def init_pool_worker() -> None:
    """Initializer of every process pool the runtime creates.

    Caps numpy's OpenBLAS at the worker's own thread.  By default OpenBLAS
    gives each worker a thread per core, and those threads spin after
    every gemm, so pool workers fight over the host's cores.  The cap writes OpenBLAS's thread
    count directly: its ``set_num_threads`` entry point would start the
    BLAS thread server in a fresh worker, and that spins too.
    """
    threads = openblas_threads()
    if threads is not None:
        threads.value = 1
