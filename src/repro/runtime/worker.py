"""Shard execution — the function that runs inside pool workers.

A :class:`ShardTask` is a small picklable record: the compiled circuit
(pickled once per point by the planner), its content key, the qubit model,
the shot count and the ``(root seed, point, shard)`` coordinates that
determine the shard's random stream.  Workers memoise the lowered
:class:`~repro.qx.compiled.KernelProgram` per process under the content
key, so a worker unpickles and lowers a circuit at most once regardless of
how many shards of it it executes.
"""

from __future__ import annotations

import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.circuit import Circuit
from repro.core.qubits import QubitModel
from repro.qx.compiled import KernelProgram, circuit_content_key, lower
from repro.qx.simulator import QXSimulator
from repro.runtime.aggregate import merge_counts
from repro.runtime.cache import ArtifactCache
from repro.runtime.seeding import shard_seed


@dataclass(frozen=True)
class ShardTask:
    """One work unit of one sweep point: a run of shards, with seed coordinates.

    A unit covers the consecutive shards ``shard_index, shard_index + 1,
    ...`` whose sizes are ``shard_shots`` (empty: the single shard
    ``shots``); ``shots`` is the unit's total.  A deterministic point plans
    all its shards into one unit, which evolves once and samples each shard
    from its own seed stream; any other point plans one unit per shard.

    ``backend`` pins the simulation engine (``None`` = policy
    auto-dispatch); ``max_bond`` and ``truncation_threshold`` are the MPS
    accuracy knobs; ``channel_fusion`` is the density engine's
    superoperator-fusion cost knob.  All of them come verbatim from the
    spec's :class:`~repro.runtime.spec.SimulationSpec` (possibly swept), so
    every shard of a point runs on the same engine configuration and the
    merged histogram stays bit-identical for any worker count.

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
    backend: str | None = None
    max_bond: int | None = None
    truncation_threshold: float | None = None
    channel_fusion: bool = True
    shard_shots: tuple[int, ...] = ()

    @property
    def shards(self) -> list[tuple[int, int]]:
        """``(shard index, shots)`` of every shard this unit covers."""
        return list(enumerate(self.shard_shots or (self.shots,), start=self.shard_index))

    @property
    def cost(self) -> int:
        """Scheduler cost: the unit's total shots."""
        return self.shots


@dataclass
class ShardResult:
    """Histogram and error statistics of one executed shard."""

    point_index: int
    shard_index: int
    shots: int
    counts: dict[str, int] = field(default_factory=dict)
    errors_injected: int = 0
    #: Mapping metrics of a compile shard (empty for circuit/qec shards).
    metrics: dict = field(default_factory=dict)
    #: Time spent executing the unit, in seconds.
    wall_time_s: float = 0.0


@dataclass(frozen=True)
class QecShardTask:
    """One batch of surface-code memory-experiment trials.

    The ``kind="qec"`` analogue of :class:`ShardTask`: ``trials`` plays the
    role of shots and the ``(root seed, point, shard)`` coordinates feed the
    same :func:`~repro.runtime.seeding.shard_seed` contract, so distance and
    error-rate sweeps merge bit-identically for any worker count.
    """

    distance: int
    trials: int
    root_seed: int
    point_index: int
    shard_index: int
    rounds: int | None = None
    physical_error_rate: float = 1e-3
    measurement_error_rate: float | None = None
    noise_model: str = "phenomenological"
    decoder: str | None = None

    @property
    def cost(self) -> int:
        """Scheduler cost: the shard's trials."""
        return self.trials


@dataclass(frozen=True)
class CompileShardTask:
    """One compile-and-map pipeline run of one sweep point.

    The ``kind="compile"`` analogue of :class:`ShardTask`: the payload is
    the *source* circuit plus the resolved
    :class:`~repro.runtime.spec.CompileSpec` fields.  Compilation is
    deterministic, so a point is a single shard and merged results are
    bit-identical for any worker count by construction.
    """

    circuit: Circuit
    placement: str
    router: str
    topology: str
    rows: int | None
    cols: int | None
    schedule_policy: str
    lookahead_window: int
    decay: float
    point_index: int
    shard_index: int = 0
    cache_dir: str | None = None

    #: Scheduler cost: one compile pipeline run.
    cost = 1


def mapping_cache_key(task: CompileShardTask) -> str:
    """Cache key of a compile-and-map artifact: source circuit + pipeline config."""
    return ArtifactCache.key_for(
        "mapping",
        source=circuit_content_key(task.circuit),
        placement=task.placement,
        router=task.router,
        topology=task.topology,
        rows=task.rows,
        cols=task.cols,
        schedule_policy=task.schedule_policy,
        lookahead_window=task.lookahead_window,
        decay=task.decay,
    )


def _noise_free(qubit_model: QubitModel | None) -> bool:
    return qubit_model is None or qubit_model.is_perfect


#: Per-process memo of lowered programs, keyed by ``(program key, fuse)``.
#: LRU with a hard size cap: long-lived batch workers stream thousands of
#: distinct circuits through one process, so an unbounded memo would grow
#: without limit.  Hit/miss counters are surfaced per shard (and summed per
#: point by the runner) for cache observability.
PROGRAM_MEMO_CAP = 128
_PROGRAMS: OrderedDict[tuple[str, bool], KernelProgram] = OrderedDict()
_program_memo_stats = {"hits": 0, "misses": 0}


def program_memo_stats() -> dict[str, int]:
    """Cumulative hit/miss counters of this process's program memo."""
    return dict(_program_memo_stats)


def load_program(task: ShardTask) -> KernelProgram:  # contract: ignore[REPRO006]
    """Lowered program for a task: process memo, else unpickle + lower().

    The REPRO006 ignore is deliberate: the program memo is a *per-process*
    LRU keyed by content hash, so its state never changes a result — only
    whether the lowering work is repeated.  Its hit/miss counters are
    surfaced per shard precisely so that divergence would be visible.
    """
    fuse = _noise_free(task.qubit_model)
    key = (task.program_key, fuse)
    program = _PROGRAMS.get(key)
    if program is not None:
        _program_memo_stats["hits"] += 1
        _PROGRAMS.move_to_end(key)
        return program
    _program_memo_stats["misses"] += 1
    program = _PROGRAMS[key] = lower(pickle.loads(task.circuit), fuse=fuse)
    while len(_PROGRAMS) > PROGRAM_MEMO_CAP:
        _PROGRAMS.popitem(last=False)
    return program


def _run_qec_shard(task: QecShardTask) -> ShardResult:
    """Execute one batch of memory-experiment trials inside a pool worker.

    The histogram uses key ``"1"`` for logical failures and ``"0"`` for
    successes; ``errors_injected`` carries the space-time defect total, so
    merged points report the decoder load alongside the failure rate.
    """
    from repro.qec.surface_code import PlanarSurfaceCode

    code = PlanarSurfaceCode(task.distance)
    seed = shard_seed(task.root_seed, task.point_index, task.shard_index)
    if task.noise_model == "circuit":
        result = code.run_circuit_memory_experiment(
            task.physical_error_rate,
            rounds=task.rounds,
            trials=task.trials,
            measurement_error_rate=task.measurement_error_rate,
            seed=seed,
            decoder=task.decoder or "union_find",
        )
    else:
        result = code.run_memory_experiment(
            task.physical_error_rate,
            rounds=task.rounds,
            trials=task.trials,
            measurement_error_rate=task.measurement_error_rate,
            seed=seed,
            decoder=task.decoder or "matching",
        )
    counts: dict[str, int] = {}
    successes = result.trials - result.logical_failures
    if successes:
        counts["0"] = successes
    if result.logical_failures:
        counts["1"] = result.logical_failures
    return ShardResult(
        point_index=task.point_index,
        shard_index=task.shard_index,
        shots=task.trials,
        counts=counts,
        errors_injected=result.total_defects,
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
    from repro.runtime.spec import CompileSpec

    circuit = task.circuit
    topology = CompileSpec(
        placement=task.placement,
        router=task.router,
        topology=task.topology,
        rows=task.rows,
        cols=task.cols,
        schedule_policy=task.schedule_policy,
        lookahead_window=task.lookahead_window,
        decay=task.decay,
    ).build_topology(circuit.num_qubits)
    platform = Platform(
        name=f"compile_{topology.name}",
        num_qubits=topology.num_qubits,
        qubit_model=REALISTIC,
        topology=topology,
    )
    mapping_pass = MappingPass(
        strategy=task.placement,
        mode=task.router,
        lookahead_window=task.lookahead_window,
        decay=task.decay,
    )
    compiler = Compiler(
        passes=[
            DecompositionPass(),
            OptimizationPass(),
            mapping_pass,
            SchedulingPass(policy=task.schedule_policy),
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


def _run_compile_shard(task: CompileShardTask) -> ShardResult:
    """Execute one compile-and-map point inside a pool worker (cache-backed)."""
    cache = ArtifactCache(task.cache_dir) if task.cache_dir else None
    key = mapping_cache_key(task)
    artifact = cache.get(key) if cache is not None else None
    if not (isinstance(artifact, dict) and "metrics" in artifact):
        artifact = compile_and_map(task)
        if cache is not None:
            cache.put(key, artifact)
    return ShardResult(
        point_index=task.point_index,
        shard_index=task.shard_index,
        shots=1,
        counts={},
        metrics=dict(artifact["metrics"]),
    )


def run_shard(task: ShardTask | QecShardTask | CompileShardTask) -> ShardResult:
    """Execute one work unit and return its merged-ready histogram.

    A circuit unit covering several shards samples each from its own
    ``(root seed, point, shard)`` stream and returns their merged counts,
    reported under the unit's first shard index.  The result carries the
    unit's own execution time.
    """
    start = time.perf_counter()
    if isinstance(task, QecShardTask):
        result = _run_qec_shard(task)
    elif isinstance(task, CompileShardTask):
        result = _run_compile_shard(task)
    else:
        result = _run_circuit_unit(task)
    result.wall_time_s = time.perf_counter() - start
    return result


def _run_circuit_unit(task: ShardTask) -> ShardResult:
    """Run a circuit unit's shards: one evolution when the engine allows it."""
    simulator = QXSimulator(
        num_qubits=task.num_qubits,
        qubit_model=None if _noise_free(task.qubit_model) else task.qubit_model,
        seed=shard_seed(task.root_seed, task.point_index, task.shard_index),
        backend=task.backend,
        max_bond=task.max_bond,
        truncation_threshold=task.truncation_threshold,
        channel_fusion=task.channel_fusion,
    )
    before = dict(_program_memo_stats)
    program = load_program(task)
    metrics = {
        "program_cache_hits": _program_memo_stats["hits"] - before["hits"],
        "program_cache_misses": _program_memo_stats["misses"] - before["misses"],
    }
    shards = [
        (size, np.random.default_rng(shard_seed(task.root_seed, task.point_index, index)))
        for index, size in task.shards
    ]
    results = simulator.run_program_shards(program, shards)
    backend = results[0].backend
    if backend != "statevector":
        metrics["backend"] = backend
    if backend == "mps":
        metrics["truncation_error"] = max(result.truncation_error for result in results)
    return ShardResult(
        point_index=task.point_index,
        shard_index=task.shard_index,
        shots=task.shots,
        counts=merge_counts(result.counts for result in results),
        errors_injected=sum(result.errors_injected for result in results),
        metrics=metrics,
    )
