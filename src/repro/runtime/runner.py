"""The parallel experiment runner.

:class:`ExperimentRunner` turns an :class:`~repro.runtime.spec.ExperimentSpec`
into executed results in three stages:

1. **plan** — expand the sweep into points; for each point build the source
   circuit, build the platform, run the OpenQL-style pass pipeline (through
   the compile cache) and lower the compiled cQASM to a
   :class:`~repro.qx.compiled.KernelProgram` (through the program cache, so
   pool workers get disk hits instead of re-lowering);
2. **shard** — split each point's shot budget into a worker-independent
   list of shards, each carrying its ``(root seed, point, shard)`` seed
   coordinates (:mod:`repro.runtime.seeding`), and group them into work
   units: a deterministic point (one evolution serves every shot, see
   :meth:`~repro.qx.backends.DispatchPolicy.evolve_once_engine`) is one
   unit that evolves once and samples every shard's stream; any other
   point is one unit per shard;
3. **execute** — run every unit inline (``workers=1``, or a single unit)
   or across a ``ProcessPoolExecutor``, then merge unit histograms per
   point.  Merging is a commutative sum over a deterministic shard list,
   so the merged counts are bit-identical for any worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.analysis.circuit_check import report
from repro.cqasm.parser import cqasm_to_circuit
from repro.cqasm.writer import circuit_to_cqasm
from repro.qx.backends import DispatchPolicy, profile_circuit, profile_plan
from repro.qx.compiled import lower, plan_for
from repro.qx.error_models import error_model_for, noise_kind
from repro.runtime.aggregate import ExperimentResult, PointResult, merge_counts, merge_metrics
from repro.runtime.cache import ArtifactCache, default_cache_dir
from repro.runtime.seeding import shard_sizes
from repro.runtime.spec import ExperimentSpec, SweepPoint
from repro.runtime.worker import (
    CompileShardTask,
    QecShardTask,
    ShardTask,
    mapping_cache_key,
    program_cache_key,
    run_shard,
)


def available_workers() -> int:
    """Usable CPU count (respects scheduler affinity where exposed)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class PlannedPoint:
    """A sweep point compiled down to executable work units."""

    point: SweepPoint
    cqasm: str
    num_qubits: int
    gate_count: int
    compile_cached: bool
    compile_time_s: float
    tasks: list[ShardTask] = field(default_factory=list)


class ExperimentRunner:
    """Executes one spec's sweep points and shot shards, possibly in parallel."""

    def __init__(
        self,
        spec: ExperimentSpec,
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

    # ------------------------------------------------------------------ #
    # Planning: compile + lower once per point, through the cache.
    # ------------------------------------------------------------------ #
    def _compile_point(self, point: SweepPoint) -> PlannedPoint:
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
            source_cqasm = circuit_to_cqasm(circuit)
            key = ArtifactCache.key_for(
                "compile",
                source=source_cqasm,
                platform=platform.describe(),
                compiler=vars(spec.compiler),
            )
            compiled_cqasm = self.cache.get(key) if self.cache is not None else None
            if not isinstance(compiled_cqasm, str):
                compiled = spec.compiler.build().compile_circuit(circuit, platform)
                compiled_cqasm = circuit_to_cqasm(compiled)
                if self.cache is not None:
                    self.cache.put(key, compiled_cqasm)
            else:
                cached = True
            cqasm = compiled_cqasm
        else:
            cqasm = circuit_to_cqasm(circuit)

        # Canonicalise through the parser so the parent lowers exactly the
        # circuit every worker will reconstruct, then pre-warm the program
        # cache with it.
        canonical = cqasm_to_circuit(cqasm)
        # Plan-time dataflow check: a malformed circuit (out-of-range bits,
        # use-before-write conditionals) should surface once in the parent,
        # not as N confusing worker results.
        report(canonical, where=f"point {point.params!r}", strict=self.strict_verify)
        qubit_model = platform.qubit_model
        fuse = qubit_model.is_perfect
        if self.cache is not None:
            # Workers load the program themselves; planning only probes.
            program_key = program_cache_key(cqasm, fuse)
            if not self.cache.contains(program_key):
                self.cache.put(program_key, lower(canonical, fuse=fuse))
        compile_time = time.perf_counter() - start

        simulation = spec.simulation
        noise = noise_kind(error_model_for(qubit_model))
        policy = DispatchPolicy()
        if simulation.backend is not None:
            # Fail fast in the parent: an explicitly pinned engine that
            # cannot run this point's circuit should surface as one clear
            # UnsupportedBackendError, not as N worker crashes.
            policy.validate(
                simulation.backend,
                profile_circuit(canonical, shots=spec.shots, noise=noise),
            )
        sizes = shard_sizes(spec.shots, spec.max_shard_shots, spec.min_shards)
        # A deterministic point is one unit that evolves once and samples
        # every shard's stream; any other point is one unit per shard.
        profile = profile_plan(plan_for(canonical, fuse=fuse), canonical, noise=noise)
        if len(sizes) > 1 and policy.evolve_once_engine(profile, sizes, simulation.backend):
            units = [(0, tuple(sizes))]
        else:
            units = [(shard_index, (size,)) for shard_index, size in enumerate(sizes)]
        cache_dir = str(self.cache.directory) if self.cache is not None else None
        tasks = [
            ShardTask(
                cqasm=cqasm,
                num_qubits=canonical.num_qubits,
                shots=sum(unit_shots),
                root_seed=spec.seed,
                point_index=point.index,
                shard_index=shard_index,
                qubit_model=None if qubit_model.is_perfect else qubit_model,
                cache_dir=cache_dir,
                backend=simulation.backend,
                max_bond=simulation.max_bond,
                truncation_threshold=simulation.truncation_threshold,
                channel_fusion=simulation.channel_fusion,
                shard_shots=unit_shots,
            )
            for shard_index, unit_shots in units
        ]
        return PlannedPoint(
            point=point,
            cqasm=cqasm,
            num_qubits=canonical.num_qubits,
            gate_count=canonical.gate_count(),
            compile_cached=cached,
            compile_time_s=compile_time,
            tasks=tasks,
        )

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
        qec = spec.qec
        code = PlanarSurfaceCode(qec.distance)  # validates the distance
        tasks = [
            QecShardTask(
                distance=qec.distance,
                trials=size,
                root_seed=spec.seed,
                point_index=point.index,
                shard_index=shard_index,
                rounds=qec.rounds,
                physical_error_rate=qec.physical_error_rate,
                measurement_error_rate=qec.measurement_error_rate,
                noise_model=qec.noise_model,
                decoder=qec.decoder,
            )
            for shard_index, size in enumerate(
                shard_sizes(spec.shots, spec.max_shard_shots, spec.min_shards)
            )
        ]
        return PlannedPoint(
            point=point,
            cqasm="",
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
        source_cqasm = circuit_to_cqasm(circuit)
        config = spec.compile
        task = CompileShardTask(
            cqasm=source_cqasm,
            placement=config.placement,
            router=config.router,
            topology=config.topology,
            rows=config.rows,
            cols=config.cols,
            schedule_policy=config.schedule_policy,
            lookahead_window=config.lookahead_window,
            decay=config.decay,
            point_index=point.index,
            cache_dir=str(self.cache.directory) if self.cache is not None else None,
        )
        # The worker loads the artifact itself; planning only probes for it.
        cached = self.cache is not None and self.cache.contains(mapping_cache_key(task))
        return PlannedPoint(
            point=point,
            cqasm=source_cqasm,
            num_qubits=circuit.num_qubits,
            gate_count=circuit.gate_count(),
            compile_cached=cached,
            compile_time_s=time.perf_counter() - start,
            tasks=[task],
        )

    def plan_point(self, point: SweepPoint) -> PlannedPoint:
        """Plan one (possibly externally fabricated) sweep point.

        Dispatches on the *point's* kind, not the runner's spec, so callers
        such as the experiment service can plan heterogeneous point lists —
        e.g. batch circuits rewritten as single-circuit points — through
        one runner sharing one cache.
        """
        if point.spec.kind == "qec":
            return self._plan_qec_point(point)
        if point.spec.kind == "compile":
            return self._plan_compile_point(point)
        return self._compile_point(point)

    def plan(self) -> list[PlannedPoint]:
        return [self.plan_point(point) for point in self.spec.points()]

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #
    def run(self) -> ExperimentResult:
        start = time.perf_counter()
        planned = self.plan()
        tasks = [task for planned_point in planned for task in planned_point.tasks]
        exec_start = time.perf_counter()

        if self.workers == 1 or len(tasks) <= 1:
            shard_results = [run_shard(task) for task in tasks]
        else:
            with ProcessPoolExecutor(max_workers=min(self.workers, len(tasks))) as pool:
                shard_results = list(pool.map(run_shard, tasks))

        end = time.perf_counter()
        result = ExperimentResult(
            name=self.spec.name,
            workers=self.workers,
            cache_stats=self.cache.stats() if self.cache is not None else {},
        )
        for planned_point in planned:
            index = planned_point.point.index
            shards = [shard for shard in shard_results if shard.point_index == index]
            metrics = merge_metrics(shard.metrics for shard in shards)
            result.points.append(
                PointResult(
                    index=index,
                    params=planned_point.point.params,
                    shots=sum(shard.shots for shard in shards),
                    num_qubits=planned_point.num_qubits,
                    counts=merge_counts(shard.counts for shard in shards),
                    errors_injected=sum(shard.errors_injected for shard in shards),
                    metrics=metrics,
                    gate_count=planned_point.gate_count,
                    compile_cached=planned_point.compile_cached,
                    compile_time_s=planned_point.compile_time_s,
                    # Shards share one pool, so per-point wall time is the
                    # execution wall of the whole batch.
                    wall_time_s=end - exec_start,
                )
            )
        result.total_time_s = end - start
        return result
