"""Many-circuit batched execution: fleets of small circuits, one pass.

The per-experiment runtime (:mod:`repro.runtime.runner`) treats a circuit
as the unit of work: build, compile, lower, shard, dispatch.  The paper's
target workloads (RB sequences, QAOA iterates, VQE parameter steps) arrive
instead as *thousands of distinct small circuits*, where that per-circuit
pipeline overhead dwarfs the simulation itself.  :class:`BatchRunner`
amortises every stage across the fleet:

* **lowering** goes through the structural plan cache of
  :mod:`repro.qx.compiled` — the thousand RB sequences that share gate
  positions share one fusion plan, and the content-addressed program cache
  deduplicates outright-identical circuits;
* **execution** groups statevector-dispatched circuits whose lowered
  programs share a skeleton (same op kinds at the same positions on the
  same operands) and evolves each group as one stacked ``(batch, 2**n)``
  ndarray pass through the batched kernels of :mod:`repro.qx.kernels` —
  one kernel call per gate position instead of one per circuit per shard;
* **dispatch** ships whole *chunks* of circuits to pool workers, so the
  process-pool round trip is paid per chunk, not per shard.

Determinism contract: circuit ``i``'s histogram is the merge of its shard
histograms, where shard ``s`` samples with
``SeedSequence(entropy=seed_i, spawn_key=(i, s))`` — exactly the stream a
serial :class:`~repro.runtime.runner.ExperimentRunner` sweep assigns to
point ``i``, for any worker count and any chunk layout.  Circuits the
stacked path cannot take (noise, feedback, pinned or auto-dispatched
non-dense engines, >2-qubit gates) run through the ordinary
:func:`~repro.runtime.worker.run_shard` inside fallback chunks, so their
results match the serial path by construction.
"""

from __future__ import annotations

import copy
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from repro.analysis.circuit_check import report
from repro.core.circuit import Circuit
from repro.qx import compiled, kernels
from repro.qx.backends import DispatchPolicy, profile_circuit, profile_plan
from repro.qx.compiled import LoweringPlan, program_for
from repro.qx.error_models import error_model_for, noise_kind
from repro.qx.keying import PreparedIndexSampler
from repro.runtime.aggregate import PointResult, merge_counts, merge_metrics
from repro.runtime.cache import ArtifactCache, default_cache_dir
from repro.runtime.seeding import shard_seed, shard_sizes
from repro.runtime.spec import CircuitSpec, CompilerSpec, PlatformSpec, SimulationSpec
from repro.runtime.worker import ShardResult, ShardTask, program_cache_key, run_shard


@dataclass
class BatchCircuit:
    """One circuit of a batch, with optional per-circuit overrides.

    ``None`` fields inherit the batch-level default.  ``label`` names the
    circuit in reports (defaults to ``circuit[<index>]``).
    """

    circuit: CircuitSpec
    shots: int | None = None
    seed: int | None = None
    backend: str | None = None
    max_bond: int | None = None
    truncation_threshold: float | None = None
    channel_fusion: bool | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.shots is not None and self.shots < 1:
            raise ValueError("per-circuit shots must be >= 1")
        if self.backend is not None:
            from repro.qx.backends import BACKENDS

            if self.backend not in BACKENDS:
                raise ValueError(
                    f"unknown backend {self.backend!r}: expected one of {sorted(BACKENDS)}"
                )


@dataclass
class BatchSpec:
    """A fleet of circuits sharing shots/seed/platform/backend defaults.

    JSON-serialisable like :class:`~repro.runtime.spec.ExperimentSpec`.
    ``max_chunk_circuits`` and ``max_chunk_bytes`` bound how many circuits
    (and how much stacked amplitude memory) one pool task carries; both
    only affect scheduling granularity, never results.
    """

    name: str
    circuits: list[BatchCircuit] = field(default_factory=list)
    shots: int = 1024
    seed: int = 0
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    compiler: CompilerSpec = field(default_factory=CompilerSpec)
    simulation: SimulationSpec = field(default_factory=SimulationSpec)
    max_shard_shots: int = 4096
    min_shards: int = 8
    max_chunk_circuits: int = 64
    max_chunk_bytes: int = 1 << 27

    def __post_init__(self) -> None:
        if not self.circuits:
            raise ValueError("BatchSpec needs at least one circuit")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.max_chunk_circuits < 1:
            raise ValueError("max_chunk_circuits must be >= 1")
        if self.max_chunk_bytes < 1:
            raise ValueError("max_chunk_bytes must be >= 1")

    # ------------------------------------------------------------------ #
    @classmethod
    def from_product(
        cls,
        name: str,
        builder: str,
        axes: dict[str, list],
        base_kwargs: dict | None = None,
        measure: str = "all",
        **defaults,
    ) -> "BatchSpec":
        """Batch over the cartesian product of builder-parameter axes.

        ``from_product("rb", "rotations", {"seed": range(1000)},
        base_kwargs={"num_qubits": 10})`` builds one
        :class:`BatchCircuit` per axis combination, labelled by its
        parameter values, in the same declaration-order product as an
        :class:`~repro.runtime.spec.ExperimentSpec` sweep — so circuit
        indices (and therefore shard seeds) line up with the equivalent
        serial sweep's point indices.
        """
        keys = list(axes)
        circuits = [
            BatchCircuit(
                circuit=CircuitSpec(
                    builder=builder,
                    kwargs={**(base_kwargs or {}), **dict(zip(keys, values, strict=True))},
                    measure=measure,
                ),
                label=",".join(f"{key}={value}" for key, value in zip(keys, values, strict=True)),
            )
            for values in product(*(list(axes[key]) for key in keys))
        ]
        return cls(name=name, circuits=circuits, **defaults)

    # ------------------------------------------------------------------ #
    def resolved_circuit(self, index: int) -> tuple[int, int, SimulationSpec, str]:
        """Circuit ``index``'s ``(shots, seed, simulation, label)`` after overrides.

        The single resolution rule shared by :class:`BatchRunner` and the
        experiment service (which schedules batch circuits as individual
        points): ``None`` fields inherit the batch-level default, and the
        returned :class:`~repro.runtime.spec.SimulationSpec` is an
        independent copy.
        """
        batch_circuit = self.circuits[index]
        shots = batch_circuit.shots if batch_circuit.shots is not None else self.shots
        seed = batch_circuit.seed if batch_circuit.seed is not None else self.seed
        simulation = copy.deepcopy(self.simulation)
        if batch_circuit.backend is not None:
            simulation.backend = batch_circuit.backend
        if batch_circuit.max_bond is not None:
            simulation.max_bond = batch_circuit.max_bond
        if batch_circuit.truncation_threshold is not None:
            simulation.truncation_threshold = batch_circuit.truncation_threshold
        if batch_circuit.channel_fusion is not None:
            simulation.channel_fusion = batch_circuit.channel_fusion
        label = batch_circuit.label or f"circuit[{index}]"
        return shots, seed, simulation, label

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BatchSpec":
        data = dict(data)
        circuits = []
        for entry in data.get("circuits", []):
            entry = dict(entry)
            entry["circuit"] = CircuitSpec(**entry["circuit"])
            circuits.append(BatchCircuit(**entry))
        data["circuits"] = circuits
        if "platform" in data:
            data["platform"] = PlatformSpec(**data["platform"])
        if "compiler" in data:
            data["compiler"] = CompilerSpec(**data["compiler"])
        if "simulation" in data:
            data["simulation"] = SimulationSpec(**data["simulation"])
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "BatchSpec":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------- #
# Planned circuits and chunks
# ---------------------------------------------------------------------- #
@dataclass
class PlannedBatchCircuit:
    """One batch circuit resolved down to an executable description."""

    index: int
    label: str
    shots: int
    seed: int
    num_qubits: int
    gate_count: int
    shard_shots: list[int]
    stackable: bool
    #: Shared lowering plan and concrete circuit of a stackable circuit
    #: (matrices are stacked straight off the circuit at chunk build time —
    #: no per-circuit program is ever materialised on this path).
    plan: LoweringPlan | None = None
    circuit: Circuit | None = None
    #: Ordinary worker tasks of a fallback circuit.
    tasks: list[ShardTask] = field(default_factory=list)
    compile_cached: bool = False
    plan_metrics: dict = field(default_factory=dict)


@dataclass
class StackEntry:
    """One row of a stacked chunk (picklable)."""

    index: int
    seed: int
    shard_shots: list[int]


@dataclass
class StackChunk:
    """Circuits sharing a lowering plan, executed as one ndarray pass.

    The parent materialises the fleet's evolution *position-stacked* as
    ``steps``: a ``("gate", qubits, structures, matrices)`` step carries the
    ``(batch, 2, 2)`` / ``(batch, 4, 4)`` per-row matrices of one gate
    position (fused runs already reduced by vectorised matmul, adjacent
    dense pairs merged into 4x4 gemms), and a ``("perm", indices)`` step is
    a run of row-shared permutation gates (a cnot ladder) collapsed into
    one basis-index gather.  Workers only run kernels and sample.
    """

    num_qubits: int
    steps: list[tuple]
    #: Shared sampling sources (structural, identical across the group).
    sources: tuple[int, ...]
    entries: list[StackEntry]


@dataclass
class FallbackChunk:
    """A bundle of per-shard worker tasks (amortises pool dispatch only)."""

    tasks: list[ShardTask]


def run_batch_chunk(chunk: StackChunk | FallbackChunk) -> list[ShardResult]:
    """Execute one chunk; the unit of pool dispatch (top-level: picklable)."""
    if isinstance(chunk, FallbackChunk):
        return [run_shard(task) for task in chunk.tasks]
    return _run_stack_chunk(chunk)


def _run_stack_chunk(chunk: StackChunk) -> list[ShardResult]:
    """One stacked statevector pass over every circuit of the chunk.

    All rows start at |0...0>, every gate position applies the per-row
    matrices through one batched kernel call, and each row then samples its
    shards from its final distribution with the shard's own seed stream —
    the identical draw stream and inverse transform the serial
    ``_run_sampled`` path consumes, with the cumulative distribution
    prepared once per row instead of once per shard.
    """
    entries = chunk.entries
    stacked = np.zeros((len(entries), 1 << chunk.num_qubits), dtype=complex)
    stacked[:, 0] = 1.0
    # Double buffer: dense 1q gemms write into the spare instead of copying a
    # temporary back over their input, halving the memory traffic of the
    # dominant kernel.  apply_gate_batch returns whichever buffer now holds
    # the amplitudes; values are identical to single-buffer execution.
    spare = np.empty_like(stacked)
    for step in chunk.steps:
        if step[0] == "perm":
            result = kernels.permute_basis_batch(stacked, step[1], scratch=spare)
        else:
            _, qubits, structures, matrices = step
            result = kernels.apply_gate_batch(stacked, matrices, qubits, structures, scratch=spare)
        if result is spare:
            stacked, spare = spare, stacked
    results: list[ShardResult] = []
    for row, entry in zip(stacked, entries, strict=True):
        sampler = PreparedIndexSampler(np.abs(row) ** 2, chunk.sources)
        for shard_index, size in enumerate(entry.shard_shots):
            rng = np.random.default_rng(shard_seed(entry.seed, entry.index, shard_index))
            results.append(
                ShardResult(
                    point_index=entry.index,
                    shard_index=shard_index,
                    shots=size,
                    counts=sampler.sample(size, rng),
                )
            )
    return results


_IDENTITY_2 = np.eye(2, dtype=complex)


def _step_first_index(step: tuple) -> int:
    """First circuit-op index a plan step references (program-order key)."""
    if step[0] == "run":
        return step[1][0]
    return step[1]


def _stack_positions(plan: LoweringPlan, circuits: list[Circuit]) -> list[tuple]:
    """Materialise one group's evolution steps, position-stacked across the fleet.

    Replays the plan's fusion steps with *vectorised* matrix arithmetic —
    one ``(batch, 2, 2)`` matmul chain per fused run instead of a Python
    loop per circuit.  A fused run that reduces to the identity on every
    row is elided like :func:`repro.qx.compiled.lower` would elide it; a
    run that is identity on only some rows stays, which multiplies those
    rows by the exact identity (a value-preserving no-op).  Two rewrite
    passes then shrink the number of full-stack traversals: adjacent dense
    1q positions merge into 4x4 gemms, and runs of row-shared permutation
    gates collapse into single basis-index gathers.
    """
    steps: list[tuple] = []
    ops_lists = [circuit.operations for circuit in circuits]
    # Replay in *program order* (first referenced op index), not the plan's
    # ready-list order.  Steps sharing a qubit keep their relative order
    # either way (ops on one qubit are fused contiguously), and disjoint
    # steps commute — but program order restores the builder's grouping
    # (all of a layer's rotations, then its entangler ladder), which is
    # what the pairing and permutation passes below feed on.
    for step in sorted(plan.steps, key=_step_first_index):
        kind = step[0]
        if kind == "run":
            _, indices, qubit = step
            stack = np.array([ops[indices[0]].gate.matrix for ops in ops_lists], dtype=complex)
            for index in indices[1:]:
                factors = np.array([ops[index].gate.matrix for ops in ops_lists], dtype=complex)
                stack = np.matmul(factors, stack)
            if plan.fused and bool((stack == _IDENTITY_2).all()):
                continue
            steps.append(("gate", (qubit,), None, stack))
        elif kind == "gate":
            index = step[1]
            qubits = tuple(ops_lists[0][index].qubits)
            stack = np.array([ops[index].gate.matrix for ops in ops_lists], dtype=complex)
            structures = (
                [kernels.classify_2q(matrix) for matrix in stack]
                if len(qubits) == 2
                else None
            )
            steps.append(("gate", qubits, structures, stack))
        # "measure" has no evolution semantics on the sampled path, and
        # "cond" steps never reach the stacked path (needs_trajectories).
    return _compose_permutations(_pair_dense_steps(steps), circuits[0].num_qubits)


def _gemm_dense_1q(stack: np.ndarray) -> bool:
    """Whether a 1q matrix stack takes :func:`kernels.apply_1q_batch`'s gemm path."""
    diag = (np.abs(stack[:, 0, 1]) < kernels._ATOL) & (np.abs(stack[:, 1, 0]) < kernels._ATOL)
    anti = (np.abs(stack[:, 0, 0]) < kernels._ATOL) & (np.abs(stack[:, 1, 1]) < kernels._ATOL)
    return not (bool(diag.all()) or bool(anti.all()))


def _pair_dense_steps(steps: list[tuple]) -> list[tuple]:
    """Merge consecutive dense 1q gate steps on adjacent qubits into 4x4 gemms.

    Rotation-ladder-style fleets apply a dense 2x2 to every qubit each
    layer; each position is one full traversal of the stack.  Two
    consecutive positions acting on *adjacent* qubits commute (disjoint
    operands), so their Kronecker product ``kron(M_high, M_low)`` applied
    through :func:`kernels.apply_2q_batch`'s dense-adjacent gemm path does
    both in a single traversal — the evolution is the same product of
    unitaries, reassociated, which the histogram-level determinism contract
    absorbs.  Only gemm-bound (dense) pairs merge; scale-only positions
    stay on the cheaper masked kernels.
    """
    merged: list[tuple] = []
    index = 0
    while index < len(steps):
        _, qubits, structures, stack = steps[index]
        if index + 1 < len(steps) and len(qubits) == 1:
            _, next_qubits, _, next_stack = steps[index + 1]
            if (
                len(next_qubits) == 1
                and abs(next_qubits[0] - qubits[0]) == 1
                and _gemm_dense_1q(stack)
                and _gemm_dense_1q(next_stack)
            ):
                if qubits[0] > next_qubits[0]:
                    high, low = stack, next_stack
                else:
                    high, low = next_stack, stack
                batch = stack.shape[0]
                combined = np.einsum("bij,bkl->bikjl", high, low).reshape(batch, 4, 4)
                merged.append(
                    (
                        "gate",
                        (max(qubits[0], next_qubits[0]), min(qubits[0], next_qubits[0])),
                        [kernels.DENSE_2Q] * batch,
                        combined,
                    )
                )
                index += 2
                continue
        merged.append(steps[index])
        index += 1
    return merged


def _compose_permutations(steps: list[tuple], num_qubits: int) -> list[tuple]:
    """Collapse runs of row-shared permutation gates into single gathers.

    A cnot ladder is ``depth * (n - 1)`` full-stack traversals on the
    gate-by-gate path; as basis permutations the whole run composes into
    one ``("perm", indices)`` step — one gather pass, and since gathering
    moves amplitudes without arithmetic, bit-identical to applying the
    gates one at a time.
    """
    composed: list[tuple] = []
    pending: list[tuple] = []

    def flush() -> None:
        # A lone permutation gate stays on its scalar block-move kernel,
        # which touches only the moved subspace; the full-space gather only
        # wins once it replaces two or more traversals.
        if len(pending) == 1:
            composed.append(pending[0][0])
        elif pending:
            combined = pending[0][1]
            for _, indices in pending[1:]:
                combined = combined[indices]
            composed.append(("perm", combined))
        pending.clear()

    for step in steps:
        indices = None
        if step[0] == "gate":
            _, qubits, _, stack = step
            if bool((stack == stack[0]).all()):
                indices = kernels.permutation_index(stack[0], qubits, num_qubits)
        if indices is None:
            flush()
            composed.append(step)
        else:
            pending.append((step, indices))
    flush()
    return composed


@dataclass
class BatchResult:
    """Merged per-circuit results plus plan/cache observability."""

    name: str
    workers: int
    circuits: list[PointResult] = field(default_factory=list)
    total_time_s: float = 0.0
    cache_stats: dict = field(default_factory=dict)
    #: Plan shape: stacked vs fallback counts, group/chunk layout, and the
    #: lowering-cache counters accumulated while planning.
    plan: dict = field(default_factory=dict)

    def circuit(self, label: str) -> PointResult:
        """Look up a circuit's result by its label."""
        for candidate in self.circuits:
            if candidate.params.get("label") == label:
                return candidate
        raise KeyError(f"no batch circuit labelled {label!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "workers": self.workers,
            "total_time_s": round(self.total_time_s, 6),
            "cache_stats": dict(self.cache_stats),
            "plan": dict(self.plan),
            "circuits": [point.to_dict() for point in self.circuits],
        }

    def save(self, path: str | os.PathLike) -> Path:
        """Write the result JSON atomically (tmp + rename, never torn)."""
        from repro.runtime.cache import atomic_write_text

        return atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------- #
# The batch runner
# ---------------------------------------------------------------------- #
class BatchRunner:
    """Plans and executes a :class:`BatchSpec`.

    Mirrors :class:`~repro.runtime.runner.ExperimentRunner`'s three stages
    (plan, shard, execute) with the fleet-level amortisations described in
    the module docstring.
    """

    def __init__(
        self,
        spec: BatchSpec,
        workers: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        use_cache: bool = True,
        strict_verify: bool = False,
    ):
        from repro.runtime.runner import available_workers

        self.spec = spec
        self.workers = max(1, workers if workers is not None else available_workers())
        self.strict_verify = strict_verify
        if use_cache:
            self.cache: ArtifactCache | None = ArtifactCache(cache_dir or default_cache_dir())
        else:
            self.cache = None
        self.policy = DispatchPolicy()
        #: (plan, shard sizes, pinned backend, noise) -> stackable.
        self._dispatch_memo: dict[tuple, bool] = {}
        #: Plans already dataflow-verified (identity-keyed, like the
        #: dispatch memo): structurally identical fleet circuits share a
        #: plan, so the batch pays for one verification per structure.
        self._verified_plans: set = set()

    # ------------------------------------------------------------------ #
    def _stack_dispatch(
        self,
        plan: LoweringPlan,
        circuit: Circuit,
        shard_shots: list[int],
        backend: str | None,
        noise: str,
    ) -> bool:
        """Whether every shard lands on the dense evolve-once path.

        The worker's rule (:meth:`~repro.qx.backends.DispatchPolicy
        .evolve_once_engine`) applied to the plan's profile instead of the
        lowered program: every profile feature is structural (lowered
        programs are never Clifford-eligible, and fused runs count one gate
        each), so one decision serves every circuit sharing the plan.
        Gates wider than two qubits never stack, since the batched kernels
        stop at 4x4.
        """
        # Keyed on the plan object itself (identity hash): holding the
        # reference prevents an evicted-and-freed plan's id being reused.
        key = (plan, tuple(shard_shots), backend, noise)
        stackable = self._dispatch_memo.get(key)
        if stackable is None:
            profile = profile_plan(plan, circuit, noise=noise)
            stackable = (
                profile.max_gate_qubits <= 2
                and self.policy.evolve_once_engine(profile, shard_shots, backend) == "statevector"
            )
            self._dispatch_memo[key] = stackable
        return stackable

    # ------------------------------------------------------------------ #
    def _plan_circuit(
        self, index: int, batch_circuit: BatchCircuit, platforms: dict
    ) -> PlannedBatchCircuit:
        spec = self.spec
        shots, seed, simulation, label = spec.resolved_circuit(index)
        circuit = batch_circuit.circuit.build()
        platform = platforms.get(circuit.num_qubits)
        if platform is None:
            platform = spec.platform.build(default_num_qubits=circuit.num_qubits)
            platforms[circuit.num_qubits] = platform
        if circuit.num_qubits > platform.num_qubits:
            raise ValueError(
                f"batch circuit {label!r} needs {circuit.num_qubits} qubits, "
                f"platform {platform.name!r} has {platform.num_qubits}"
            )
        qubit_model = platform.qubit_model
        noise_free = qubit_model.is_perfect

        compile_cached = False
        cqasm: str | None = None
        if spec.compiler.enabled:
            # Same compile-cache key as the serial runner, so batch and
            # serial runs share compiled artifacts both ways.
            from repro.cqasm.parser import cqasm_to_circuit
            from repro.cqasm.writer import circuit_to_cqasm

            source_cqasm = circuit_to_cqasm(circuit)
            key = ArtifactCache.key_for(
                "compile",
                source=source_cqasm,
                platform=platform.describe(),
                compiler=vars(spec.compiler),
            )
            compiled_cqasm = self.cache.get(key) if self.cache is not None else None
            if not isinstance(compiled_cqasm, str):
                built = spec.compiler.build().compile_circuit(circuit, platform)
                compiled_cqasm = circuit_to_cqasm(built)
                if self.cache is not None:
                    self.cache.put(key, compiled_cqasm)
            else:
                compile_cached = True
            cqasm = compiled_cqasm
            exec_circuit = cqasm_to_circuit(cqasm)
        else:
            # No compilation: lower the built circuit directly.  The cQASM
            # round trip is value-preserving (shortest-round-trip floats,
            # gates rebuilt from the same mnemonics), so this matches the
            # serial path's canonicalised lowering while skipping a
            # write+parse per circuit; the text is only rendered lazily for
            # circuits that fall back to worker tasks.
            exec_circuit = circuit

        shard_shots = shard_sizes(shots, spec.max_shard_shots, spec.min_shards)
        noise = noise_kind(error_model_for(qubit_model))
        if simulation.backend is not None:
            # Fail fast in the parent, exactly like the serial runner.
            self.policy.validate(
                simulation.backend,
                profile_circuit(exec_circuit, shots=shots, noise=noise),
            )

        plan: LoweringPlan | None = None
        plan_metrics: dict = {}
        if noise_free:
            before = compiled.plan_cache_stats()
            plan = compiled.plan_for(exec_circuit, fuse=True)
            after = compiled.plan_cache_stats()
            plan_metrics = {
                "plan_cache_hits": after["hits"] - before["hits"],
                "plan_cache_misses": after["misses"] - before["misses"],
            }

        # Lowering-time dataflow check.  Structurally identical circuits
        # share a lowering plan, so fleets pay for one verification per
        # structure rather than per circuit.
        if plan is None or plan not in self._verified_plans:
            if plan is not None:
                self._verified_plans.add(plan)
            report(exec_circuit, where=f"batch circuit {label!r}", strict=self.strict_verify)

        stackable = (
            plan is not None
            and plan.num_measurements > 0
            # The engine run_shard would pick, per shard size (the cost
            # model sees the shard's shots, not the circuit's): stack only
            # when every shard lands on the dense sampled path.  The
            # decision is structural, so it is memoised per plan.
            and self._stack_dispatch(plan, exec_circuit, shard_shots, simulation.backend, noise)
        )

        planned = PlannedBatchCircuit(
            index=index,
            label=label,
            shots=shots,
            seed=seed,
            num_qubits=exec_circuit.num_qubits,
            gate_count=exec_circuit.gate_count(),
            shard_shots=shard_shots,
            stackable=stackable,
            plan=plan if stackable else None,
            circuit=exec_circuit if stackable else None,
            compile_cached=compile_cached,
            plan_metrics=plan_metrics,
        )
        if not stackable:
            if cqasm is None:
                from repro.cqasm.writer import circuit_to_cqasm

                cqasm = circuit_to_cqasm(circuit)
            if self.cache is not None and noise_free:
                # Pre-warm the disk program cache like the serial planner,
                # so pool workers get artifact hits instead of re-lowering.
                disk_key = program_cache_key(cqasm, True)
                if not self.cache.contains(disk_key):
                    self.cache.put(disk_key, program_for(exec_circuit, fuse=True))
            cache_dir = str(self.cache.directory) if self.cache is not None else None
            planned.tasks = [
                ShardTask(
                    cqasm=cqasm,
                    num_qubits=exec_circuit.num_qubits,
                    shots=size,
                    root_seed=seed,
                    point_index=index,
                    shard_index=shard_index,
                    qubit_model=None if noise_free else qubit_model,
                    cache_dir=cache_dir,
                    backend=simulation.backend,
                    max_bond=simulation.max_bond,
                    truncation_threshold=simulation.truncation_threshold,
                    channel_fusion=simulation.channel_fusion,
                )
                for shard_index, size in enumerate(shard_shots)
            ]
        return planned

    def plan(self) -> list[PlannedBatchCircuit]:
        platforms: dict = {}
        return [
            self._plan_circuit(index, batch_circuit, platforms)
            for index, batch_circuit in enumerate(self.spec.circuits)
        ]

    # ------------------------------------------------------------------ #
    def _chunks(
        self, planned: list[PlannedBatchCircuit]
    ) -> tuple[list[StackChunk | FallbackChunk], int, int]:
        """Deterministic chunk layout: pure function of the planned batch."""
        spec = self.spec
        groups: dict[tuple, list[PlannedBatchCircuit]] = {}
        fallback: list[PlannedBatchCircuit] = []
        for circuit in planned:
            if not circuit.stackable:
                fallback.append(circuit)
                continue
            # Stack rows that share a lowering plan: same gate positions on
            # the same operands (matrices and angles free to differ per
            # row).  Plan objects are interned by the structural cache, so
            # identity is structure equality here.
            key = (circuit.num_qubits, id(circuit.plan))
            groups.setdefault(key, []).append(circuit)

        chunks: list[StackChunk | FallbackChunk] = []
        # Insertion order = first-seen circuit order: deterministic layout.
        for key, members in groups.items():
            num_qubits = key[0]
            plan = members[0].plan
            _, sources = plan.sample_sources()
            row_bytes = 16 << num_qubits
            per_chunk = max(1, min(spec.max_chunk_circuits, spec.max_chunk_bytes // row_bytes))
            for start in range(0, len(members), per_chunk):
                window = members[start : start + per_chunk]
                steps = _stack_positions(plan, [member.circuit for member in window])
                chunks.append(
                    StackChunk(
                        num_qubits=num_qubits,
                        steps=steps,
                        sources=sources,
                        entries=[
                            StackEntry(
                                index=member.index,
                                seed=member.seed,
                                shard_shots=member.shard_shots,
                            )
                            for member in window
                        ],
                    )
                )
        stack_chunk_count = len(chunks)
        pending: list[ShardTask] = []
        pending_circuits = 0
        for circuit in fallback:
            pending.extend(circuit.tasks)
            pending_circuits += 1
            if pending_circuits >= spec.max_chunk_circuits:
                chunks.append(FallbackChunk(tasks=pending))
                pending, pending_circuits = [], 0
        if pending:
            chunks.append(FallbackChunk(tasks=pending))
        return chunks, stack_chunk_count, len(groups)

    # ------------------------------------------------------------------ #
    def run(self) -> BatchResult:
        start = time.perf_counter()
        planned = self.plan()
        chunks, stack_chunk_count, stack_groups = self._chunks(planned)
        exec_start = time.perf_counter()

        if self.workers == 1 or len(chunks) <= 1:
            chunk_results = [run_batch_chunk(chunk) for chunk in chunks]
        else:
            with ProcessPoolExecutor(max_workers=min(self.workers, len(chunks))) as pool:
                chunk_results = list(pool.map(run_batch_chunk, chunks))
        shard_results = [shard for result in chunk_results for shard in result]
        end = time.perf_counter()

        by_circuit: dict[int, list[ShardResult]] = {}
        for shard in shard_results:
            by_circuit.setdefault(shard.point_index, []).append(shard)

        result = BatchResult(
            name=self.spec.name,
            workers=self.workers,
            cache_stats=self.cache.stats() if self.cache is not None else {},
            plan={
                "circuits": len(planned),
                "stacked_circuits": sum(1 for c in planned if c.stackable),
                "fallback_circuits": sum(1 for c in planned if not c.stackable),
                "stack_groups": stack_groups,
                "stack_chunks": stack_chunk_count,
                "chunks": len(chunks),
                "plan_cache": compiled.plan_cache_stats(),
                "program_content_cache": compiled.content_cache_stats(),
            },
        )
        for circuit in planned:
            shards = by_circuit.get(circuit.index, [])
            metrics = merge_metrics([circuit.plan_metrics] + [shard.metrics for shard in shards])
            result.circuits.append(
                PointResult(
                    index=circuit.index,
                    params={"label": circuit.label},
                    shots=sum(shard.shots for shard in shards),
                    num_qubits=circuit.num_qubits,
                    counts=merge_counts(shard.counts for shard in shards),
                    errors_injected=sum(shard.errors_injected for shard in shards),
                    metrics=metrics,
                    gate_count=circuit.gate_count,
                    compile_cached=circuit.compile_cached,
                    wall_time_s=end - exec_start,
                )
            )
        result.total_time_s = end - start
        return result


def run_batch(
    spec: BatchSpec,
    workers: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool = True,
) -> BatchResult:
    """Convenience wrapper: plan and execute a batch in one call."""
    return BatchRunner(spec, workers=workers, cache_dir=cache_dir, use_cache=use_cache).run()
