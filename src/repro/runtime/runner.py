"""The parallel experiment runner and the one circuit planner.

:class:`ExperimentRunner` turns an :class:`~repro.runtime.spec.ExperimentSpec`
into executed results in three stages:

1. **plan** — expand the sweep into points; for each point build the source
   circuit, build the platform, run the OpenQL-style pass pipeline (through
   the compile cache, which stores the compiled
   :class:`~repro.core.circuit.Circuit`) and plan its lowering; work units
   carry the compiled circuit, pickled once per point, under its content
   key — cQASM text is never part of the hand-off;
2. **shard** — split each point's shot budget into a worker-independent
   list of shards, each carrying its ``(root seed, point, shard)`` seed
   coordinates (:mod:`repro.runtime.seeding`), and group them into work
   units: a deterministic point (one evolution serves every shot, see
   :func:`~repro.qx.backends.evolve_once_engine`) is one
   unit that evolves once and samples every shard's stream; any other
   point is one unit per shard;
3. **execute** — run every unit inline (``workers=1``, or a single unit)
   or across a ``ProcessPoolExecutor``, then merge unit histograms per
   point (:meth:`PlannedPoint.merge`).  Merging is a commutative sum over a
   deterministic shard list, so the merged counts are bit-identical for any
   worker count.

The batch driver (:class:`~repro.runtime.batch.BatchRunner`) and the
experiment service plan through :meth:`ExperimentRunner.plan_point` and
build their results through :meth:`PlannedPoint.merge` as well.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.circuit_check import report
from repro.core.circuit import Circuit
from repro.qx import kernels
from repro.qx.backends import (
    evolve_once_engine,
    plan_is_clifford,
    profile_plan,
    reads_clifford,
    validate,
)
from repro.qx.compiled import LoweringPlan, circuit_content_key, plan_cache_stats, plan_for
from repro.qx.error_models import error_model_for, noise_kind
from repro.runtime.aggregate import ExperimentResult, PointResult, merge_counts, merge_metrics
from repro.runtime.cache import ArtifactCache, default_cache_dir
from repro.runtime.seeding import shard_sizes
from repro.runtime.spec import ExperimentSpec, SimulationSpec, SweepPoint
from repro.runtime.worker import (
    CompileShardTask,
    QecShardTask,
    ShardResult,
    ShardTask,
    mapping_cache_key,
    run_shard,
)

if TYPE_CHECKING:
    from repro.runtime.batch import BatchSpec


def available_workers() -> int:
    """Usable CPU count (respects scheduler affinity where exposed)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class PlannedPoint:
    """A sweep point compiled down to executable work units.

    A *stack row* (planned with ``stack=True``) carries its lowering
    ``plan`` and executable ``circuit`` instead of ``tasks``: the batch
    runner evolves it inside a stacked chunk.
    """

    point: SweepPoint
    num_qubits: int
    gate_count: int
    compile_cached: bool
    compile_time_s: float
    tasks: list[ShardTask] = field(default_factory=list)
    #: Shard sizes; unit ``s`` of the point samples with seed coordinates
    #: ``(root seed, point, s)``.
    shard_shots: tuple[int, ...] = ()
    #: Planning counters (``plan_cache_*``), merged into the point's metrics.
    metrics: dict = field(default_factory=dict)
    plan: LoweringPlan | None = None
    circuit: Circuit | None = None

    @property
    def stackable(self) -> bool:
        return self.plan is not None

    def merge(self, unit_results) -> PointResult:
        """The point's result: its units' histograms, metrics and times summed."""
        units = list(unit_results)
        return PointResult(
            index=self.point.index,
            params=self.point.params,
            shots=sum(unit.shots for unit in units),
            num_qubits=self.num_qubits,
            counts=merge_counts(unit.counts for unit in units),
            errors_injected=sum(unit.errors_injected for unit in units),
            metrics=merge_metrics([self.metrics, *(unit.metrics for unit in units)]),
            gate_count=self.gate_count,
            compile_cached=self.compile_cached,
            compile_time_s=self.compile_time_s,
            # Each unit timed its own execution, so the sum is the point's
            # execution time whatever else shared the pool.
            wall_time_s=sum(unit.wall_time_s for unit in units),
        )


def merge_points(planned: list[PlannedPoint], unit_results) -> list[PointResult]:
    """Group unit results by point once, then merge each planned point."""
    by_point: dict[int, list[ShardResult]] = {}
    for unit in unit_results:
        by_point.setdefault(unit.point_index, []).append(unit)
    return [point.merge(by_point.get(point.point.index, ())) for point in planned]


class ExperimentRunner:
    """Executes one spec's sweep points and shot shards, possibly in parallel.

    :meth:`plan_point` is the one circuit planner: the batch driver and the
    experiment service plan their points through it too.
    """

    def __init__(
        self,
        spec: ExperimentSpec | BatchSpec,
        workers: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        use_cache: bool = True,
        strict_verify: bool = False,
    ):
        self.spec = spec
        self.workers = max(1, workers if workers is not None else available_workers())
        self.strict_verify = strict_verify
        if use_cache:
            self.cache: ArtifactCache | None = ArtifactCache(cache_dir or default_cache_dir())
        else:
            self.cache = None
        #: (plan, shard sizes, pinned backend, MPS bond cap, noise, Clifford)
        #: -> (evolve-once engine, widest gate).  Gate names are not
        #: structural, so the Clifford flag is part of the key wherever it can
        #: change the decision (else it is False); points sharing the rest of
        #: the key share the decision.  Keying on the plan object itself
        #: holds the reference, so an evicted plan's id is never reused.
        self._dispatch_memo: dict[tuple, tuple[str | None, int]] = {}
        #: Plans already dataflow-verified: structurally identical points
        #: share a plan, so a sweep or fleet verifies once per structure.
        self._verified_plans: set[LoweringPlan] = set()

    # ------------------------------------------------------------------ #
    # Planning: compile + lower once per point, through the cache.
    # ------------------------------------------------------------------ #
    def _evolve_once(
        self,
        plan: LoweringPlan,
        circuit: Circuit,
        sizes: tuple,
        simulation: SimulationSpec,
        noise: str,
    ) -> tuple[str | None, int]:
        """The point's evolve-once engine (or ``None``) and its widest gate.

        Decided on the inputs the worker's simulator decides on: the point's
        pinned backend and MPS bond cap.  A pinned backend is validated
        here, in the parent: an engine that cannot run the point surfaces
        as one clear :class:`~repro.qx.backends.UnsupportedBackendError`,
        not as N worker crashes.
        """
        backend, max_bond = simulation.backend, simulation.max_bond
        reads = reads_clifford(backend, noise, circuit.num_qubits)
        clifford = reads and plan_is_clifford(plan, circuit)
        key = (plan, sizes, backend, max_bond, noise, clifford)
        decision = self._dispatch_memo.get(key)
        if decision is None:
            profile = profile_plan(plan, circuit, noise=noise, is_clifford=clifford)
            if backend is not None:
                validate(backend, profile)
            engine = evolve_once_engine(profile, sizes, backend, max_bond)
            decision = self._dispatch_memo[key] = (engine, profile.max_gate_qubits)
        return decision

    def _compile_point(self, point: SweepPoint, stack: bool) -> PlannedPoint:
        spec = point.spec
        start = time.perf_counter()
        circuit = spec.circuit.build()
        platform = spec.platform.build(default_num_qubits=circuit.num_qubits)
        if circuit.num_qubits > platform.num_qubits:
            raise ValueError(
                f"point {point.params!r}: circuit needs {circuit.num_qubits} qubits, "
                f"platform {platform.name!r} has {platform.num_qubits}"
            )
        cached = False
        if spec.compiler.enabled:
            key = ArtifactCache.key_for(
                "compile",
                source=circuit_content_key(circuit),
                platform=platform.describe(),
                compiler=vars(spec.compiler),
            )
            compiled = self.cache.get(key) if self.cache is not None else None
            cached = isinstance(compiled, Circuit)
            if not cached:
                compiled = spec.compiler.build().compile_circuit(circuit, platform)
                if self.cache is not None:
                    self.cache.put(key, compiled)
            # The compiled circuit, platform durations included, is what runs.
            circuit = compiled

        qubit_model = platform.qubit_model
        noise = noise_kind(error_model_for(qubit_model))
        before = plan_cache_stats()
        plan = plan_for(circuit, fuse=qubit_model.is_perfect)
        after = plan_cache_stats()
        metrics = {
            "plan_cache_hits": after["hits"] - before["hits"],
            "plan_cache_misses": after["misses"] - before["misses"],
        }
        if plan not in self._verified_plans:
            # Plan-time dataflow check: a malformed circuit (out-of-range
            # bits, use-before-write conditionals) should surface once in
            # the parent, not as N confusing worker results.
            report(circuit, where=f"point {point.params!r}", strict=self.strict_verify)
            self._verified_plans.add(plan)
        sizes = tuple(shard_sizes(spec.shots, spec.max_shard_shots, spec.min_shards))
        engine, widest_gate = self._evolve_once(plan, circuit, sizes, spec.simulation, noise)
        planned = PlannedPoint(
            point=point,
            num_qubits=circuit.num_qubits,
            gate_count=circuit.gate_count(),
            compile_cached=cached,
            compile_time_s=0.0,
            shard_shots=sizes,
            metrics=metrics,
        )
        if stack and engine == "statevector" and widest_gate <= 2 and plan.num_measurements:
            # A stack row: the batch evolves it with its plan-mates in one
            # ndarray pass (the batched kernels stop at 4x4), so it needs no
            # tasks and no pickled circuit.
            planned.plan, planned.circuit = plan, circuit
            planned.compile_time_s = time.perf_counter() - start
            return planned

        # Pickled once and shared by every unit of the point: each worker
        # lowers it at most once, memoised under its content key.
        program_key = circuit_content_key(circuit)
        payload = pickle.dumps(circuit, protocol=pickle.HIGHEST_PROTOCOL)
        # A deterministic point is one unit that evolves once and samples
        # every shard's stream; any other point is one unit per shard.
        if len(sizes) > 1 and engine is not None:
            units = [(0, sizes)]
        else:
            units = [(shard_index, (size,)) for shard_index, size in enumerate(sizes)]
        planned.tasks = [
            ShardTask(
                program_key=program_key,
                circuit=payload,
                num_qubits=circuit.num_qubits,
                shots=sum(unit_shots),
                root_seed=spec.seed,
                point_index=point.index,
                shard_index=shard_index,
                qubit_model=None if qubit_model.is_perfect else qubit_model,
                simulation=spec.simulation,
                shard_shots=unit_shots,
            )
            for shard_index, unit_shots in units
        ]
        planned.compile_time_s = time.perf_counter() - start
        return planned

    def _plan_qec_point(self, point: SweepPoint) -> PlannedPoint:
        """Shard one surface-code memory-experiment point.

        No compilation or artifact cache is involved: the point's trial
        budget (the spec's ``shots``) is sharded with the same layout and
        seed coordinates as circuit shots, so qec sweeps inherit the
        bit-identical 1-vs-N-workers contract for free.
        """
        from repro.qec.surface_code import PlanarSurfaceCode

        spec = point.spec
        start = time.perf_counter()
        code = PlanarSurfaceCode(spec.qec.distance)  # validates the distance
        tasks = [
            QecShardTask(
                qec=spec.qec,
                trials=size,
                root_seed=spec.seed,
                point_index=point.index,
                shard_index=shard_index,
            )
            for shard_index, size in enumerate(
                shard_sizes(spec.shots, spec.max_shard_shots, spec.min_shards)
            )
        ]
        return PlannedPoint(
            point=point,
            num_qubits=code.num_physical_qubits,
            gate_count=0,
            compile_cached=False,
            compile_time_s=time.perf_counter() - start,
            tasks=tasks,
        )

    def _plan_compile_point(self, point: SweepPoint) -> PlannedPoint:
        """Turn one compile-and-map sweep point into a single worker task.

        Compilation is deterministic, so each point is exactly one shard;
        the pool parallelises across sweep points instead of shot batches.
        ``compile_cached`` reports whether the mapping artifact is already
        on disk (the worker will publish it otherwise).
        """
        spec = point.spec
        start = time.perf_counter()
        circuit = spec.circuit.build()
        task = CompileShardTask(
            circuit=circuit,
            config=spec.compile,
            point_index=point.index,
            cache_dir=str(self.cache.directory) if self.cache is not None else None,
        )
        # The worker loads the artifact itself; planning only probes for it.
        cached = self.cache is not None and self.cache.contains(mapping_cache_key(task))
        return PlannedPoint(
            point=point,
            num_qubits=circuit.num_qubits,
            gate_count=circuit.gate_count(),
            compile_cached=cached,
            compile_time_s=time.perf_counter() - start,
            tasks=[task],
        )

    def plan_point(self, point: SweepPoint, stack: bool = False) -> PlannedPoint:
        """Plan one (possibly externally fabricated) sweep point.

        Dispatches on the *point's* kind, not the runner's spec, so callers
        such as the experiment service can plan heterogeneous point lists —
        e.g. batch circuits as single-circuit points — through one runner
        sharing one cache.  ``stack=True`` (the batch driver's) plans a
        circuit point the stacked pass can take as a stack row.
        """
        if point.spec.kind == "qec":
            return self._plan_qec_point(point)
        if point.spec.kind == "compile":
            return self._plan_compile_point(point)
        return self._compile_point(point, stack)

    def plan(self) -> list[PlannedPoint]:
        return [self.plan_point(point) for point in self.spec.points()]

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #
    def _execute(self, fn, items: list) -> list:
        """``fn`` over ``items``: inline for one worker or item, else in a pool.

        Inline units may split large gate kernels across up to
        ``min(workers, available_workers())`` threads; pool workers keep the
        default budget of one thread each.
        """
        if self.workers == 1 or len(items) <= 1:
            with kernels.thread_budget(min(self.workers, available_workers())):
                return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=min(self.workers, len(items))) as pool:
            return list(pool.map(fn, items))

    def run(self) -> ExperimentResult:
        start = time.perf_counter()
        planned = self.plan()
        tasks = [task for planned_point in planned for task in planned_point.tasks]
        units = [unit for results in self._execute(run_shard, tasks) for unit in results]
        result = ExperimentResult(
            name=self.spec.name,
            workers=self.workers,
            points=merge_points(planned, units),
            cache_stats=self.cache.stats() if self.cache is not None else {},
        )
        result.total_time_s = time.perf_counter() - start
        return result
