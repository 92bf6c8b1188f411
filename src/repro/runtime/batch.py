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
* **dispatch** cuts the fleet into *windows* of :func:`window_size`
  points, as the experiment service does, and each pool worker plans
  (without the artifact cache), stacks and runs its own window, so
  planning runs in parallel and the pool round trip is paid per window.

Determinism contract: circuit ``i``'s histogram is the merge of its shard
histograms, where shard ``s`` samples with
``SeedSequence(entropy=seed_i, spawn_key=(i, s))`` — exactly the stream a
serial :class:`~repro.runtime.runner.ExperimentRunner` sweep assigns to
point ``i``, for any worker count and any chunk layout.  Planning is the
runner's own :meth:`~repro.runtime.runner.ExperimentRunner.plan_point`
with stacking on, so circuits the stacked path cannot take (noise,
feedback, pinned or auto-dispatched non-dense engines, >2-qubit gates) get
exactly the work units a serial sweep plans — one evolve-once unit for a
deterministic point — and run through
:func:`~repro.runtime.worker.run_shard` like every unit, bundled several
circuits per pool task, so their results match the serial path by
construction.
"""

from __future__ import annotations

import copy
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from repro.core.circuit import Circuit
from repro.qx import compiled, kernels
from repro.qx.compiled import LoweringPlan
from repro.qx.keying import PreparedIndexSampler
from repro.runtime.aggregate import PointResult
from repro.runtime.runner import ExperimentRunner, PlannedPoint, merge_points
from repro.runtime.seeding import shard_seed
from repro.runtime.spec import (
    CircuitSpec,
    CompilerSpec,
    ExperimentSpec,
    PlatformSpec,
    SimulationSpec,
    SweepPoint,
)
from repro.runtime.worker import ShardResult, run_shard


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
    ``max_chunk_circuits`` bounds how many circuits one window carries
    (:func:`window_size`); it only affects scheduling granularity, never
    results.
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

    def __post_init__(self) -> None:
        if not self.circuits:
            raise ValueError("BatchSpec needs at least one circuit")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.max_chunk_circuits < 1:
            raise ValueError("max_chunk_circuits must be >= 1")

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
    def points(self) -> list[SweepPoint]:
        """One bound single-circuit point per fleet entry, in circuit order.

        ``None`` fields of a :class:`BatchCircuit` inherit the batch-level
        default.  Point ``i`` carries circuit ``i``'s resolved seed, so its
        shards sample ``SeedSequence(entropy=seed_i, spawn_key=(i, s))`` —
        the stream a serial sweep assigns to point ``i``.
        """
        points = []
        for index, entry in enumerate(self.circuits):
            simulation = copy.deepcopy(self.simulation)
            for name in ("backend", "max_bond", "truncation_threshold"):
                value = getattr(entry, name)
                if value is not None:
                    setattr(simulation, name, value)
            bound = ExperimentSpec(
                name=self.name,
                circuit=entry.circuit,
                platform=self.platform,
                compiler=self.compiler,
                simulation=simulation,
                shots=entry.shots if entry.shots is not None else self.shots,
                seed=entry.seed if entry.seed is not None else self.seed,
                max_shard_shots=self.max_shard_shots,
                min_shards=self.min_shards,
            )
            label = entry.label or f"circuit[{index}]"
            points.append(SweepPoint(index=index, params={"label": label}, spec=bound))
        return points

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BatchSpec":
        data = dict(data)
        data.pop("max_chunk_bytes", None)  # now MAX_CHUNK_BYTES; old specs carry it
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
# Chunks
# ---------------------------------------------------------------------- #
@dataclass
class StackEntry:
    """One row of a stacked chunk (picklable)."""

    index: int
    seed: int
    shard_shots: tuple[int, ...]


@dataclass
class StackChunk:
    """Circuits sharing a lowering plan, executed as one ndarray pass.

    The worker that plans the window materialises the rows' evolution
    *position-stacked* as ``steps``: a ``("gate", qubits, structures,
    matrices)`` step carries the ``(batch, 2, 2)`` / ``(batch, 4, 4)``
    per-row matrices of one gate position (fused runs already reduced by
    vectorised matmul, adjacent dense pairs merged into 4x4 gemms), and a
    ``("perm", indices)`` step is a run of row-shared permutation gates (a
    cnot ladder) collapsed into one basis-index gather.  :meth:`run` only
    runs kernels and samples.
    """

    num_qubits: int
    steps: list[tuple]
    #: Shared sampling sources (structural, identical across the group).
    sources: tuple[int, ...]
    entries: list[StackEntry]

    def run(self) -> list[ShardResult]:
        """One stacked statevector pass over every circuit of the chunk.

        All rows start at |0...0>, every gate position applies the per-row
        matrices through one batched kernel call, and each row then samples
        its shards from its final distribution with the shard's own seed
        stream — the identical draw stream and inverse transform a dense
        ``QXSimulator.run_program`` call consumes, with the cumulative
        distribution prepared once per row instead of once per shard.  A row
        is one result: its shards' outcomes are histogrammed together once.
        """
        entries = self.entries
        stacked = np.zeros((len(entries), 1 << self.num_qubits), dtype=complex)
        stacked[:, 0] = 1.0
        # Double buffer: dense 1q gemms write into the spare instead of copying
        # a temporary back over their input, halving the memory traffic of the
        # dominant kernel.  apply_gate_batch returns whichever buffer now holds
        # the amplitudes; values are identical to single-buffer execution.
        spare = np.empty_like(stacked)
        for step in self.steps:
            if step[0] == "perm":
                result = kernels.permute_basis_batch(stacked, step[1], scratch=spare)
            else:
                _, qubits, structures, matrices = step
                result = kernels.apply_gate_batch(
                    stacked, matrices, qubits, structures, scratch=spare
                )
            if result is spare:
                stacked, spare = spare, stacked
        results = []
        for row, entry in zip(stacked, entries, strict=True):
            sampler = PreparedIndexSampler(np.abs(row) ** 2, self.sources)
            counts = sampler.sample_shards(
                (size, np.random.default_rng(shard_seed(entry.seed, entry.index, shard)))
                for shard, size in enumerate(entry.shard_shots)
            )
            results.append(
                ShardResult(entry.index, shard_index=0, shots=sum(entry.shard_shots), counts=counts)
            )
        return results


def run_batch_chunk(units: list) -> list[ShardResult]:
    """Execute one dispatch bundle of work units; the unit of pool dispatch.

    A bundle is a plain list — one :class:`StackChunk`, or the per-point
    units of the fleet's unstackable circuits — and each unit runs through
    :func:`~repro.runtime.worker.run_shard`, the one dispatcher.
    """
    return [result for unit in units for result in run_shard(unit)]


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


# ---------------------------------------------------------------------- #
# Windows: the unit of pool dispatch
# ---------------------------------------------------------------------- #
#: Stacked amplitudes one stack chunk may hold; a larger plan group splits.
MAX_CHUNK_BYTES = 1 << 27


#: A fleet is spread over at most one window per this many points: a window
#: of fewer rows costs more as a pool task than it saves.
MIN_WINDOW_POINTS = 4


def window_size(points: int, max_chunk_circuits: int, workers: int) -> int:
    """Points per window, the rule :class:`BatchRunner` and the experiment
    service both cut by: one window per worker, at most one per
    :data:`MIN_WINDOW_POINTS` points, at most ``max_chunk_circuits`` each."""
    windows = max(1, min(workers, points // MIN_WINDOW_POINTS))
    return min(max_chunk_circuits, -(-points // windows))


@dataclass
class BatchWindow:
    """A contiguous run of fleet points that one worker plans, stacks and runs.

    Drivers cut the fleet into windows of :func:`window_size` points, in
    circuit order, so the layout follows the worker count; results never do.
    """

    points: list[SweepPoint]
    strict_verify: bool


@dataclass
class WindowResult:
    """One window's merged points, its own counters and its warnings."""

    circuits: list[PointResult]
    #: Plan shape and lowering-cache counters of this window alone.
    plan: dict
    #: ``(category, message)`` of each warning planning raised.
    warnings: list[tuple[type, str]]


def _bundles(planned: list[PlannedPoint], max_chunk_bytes: int) -> tuple[list[list], int, int]:
    """One window's dispatch bundles, stack chunk count and stack group count.

    Stack rows are grouped by lowering plan and each group is cut into
    chunks of at most ``max_chunk_bytes`` of stacked amplitudes (a window
    already holds at most :func:`window_size` rows); each chunk is a
    one-unit bundle.  The window's unstackable points make one more bundle
    of their work units.
    """
    groups: dict[tuple, list[PlannedPoint]] = {}
    for circuit in planned:
        if circuit.stackable:
            # Stack rows that share a lowering plan: same gate positions on
            # the same operands (matrices and angles free to differ per
            # row).  Plan objects are interned by the structural cache, so
            # identity is structure equality here.
            groups.setdefault((circuit.num_qubits, id(circuit.plan)), []).append(circuit)

    bundles: list[list] = []
    # Insertion order = first-seen circuit order: deterministic layout.
    for (num_qubits, _), members in groups.items():
        plan = members[0].plan
        _, sources = plan.sample_sources()
        row_bytes = 16 << num_qubits
        per_chunk = max(1, max_chunk_bytes // row_bytes)
        for start in range(0, len(members), per_chunk):
            chunk = members[start : start + per_chunk]
            steps = _stack_positions(plan, [member.circuit for member in chunk])
            entries = [
                StackEntry(
                    index=member.point.index,
                    seed=member.point.spec.seed,
                    shard_shots=member.shard_shots,
                )
                for member in chunk
            ]
            bundles.append([StackChunk(num_qubits, steps, sources, entries)])
    stack_chunks = len(bundles)
    fallback = [task for circuit in planned for task in circuit.tasks]
    if fallback:
        bundles.append(fallback)
    return bundles, stack_chunks, len(groups)


def _counter_delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def _add_counters(total: dict, part: dict) -> dict:
    """Sum ``part`` into ``total`` key by key, nested dicts included."""
    for key, value in part.items():
        if isinstance(value, dict):
            total[key] = _add_counters(total.get(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def run_window(window: BatchWindow) -> WindowResult:
    """Plan, stack and run one window; the function the pool maps.

    A fresh planner per window, without the artifact cache (a fleet circuit
    compiles faster than the cache hashes and pickles it), verifies once
    per structure per window.  Warnings are recorded and handed back, so
    the caller re-issues them even when a pool worker raised them.
    """
    # The planner plans the window's points; its own spec is never read.
    planner = ExperimentRunner(
        window.points[0].spec, workers=1, use_cache=False, strict_verify=window.strict_verify
    )
    plan_before = compiled.plan_cache_stats()
    content_before = compiled.content_cache_stats()
    with warnings.catch_warnings(record=True) as recorded:
        planned = [planner.plan_point(point, stack=True) for point in window.points]
        bundles, stack_chunks, stack_groups = _bundles(planned, MAX_CHUNK_BYTES)
        units = [result for bundle in bundles for result in run_batch_chunk(bundle)]
    stacked = sum(1 for circuit in planned if circuit.stackable)
    return WindowResult(
        circuits=merge_points(planned, units),
        plan={
            "circuits": len(planned),
            "stacked_circuits": stacked,
            "fallback_circuits": len(planned) - stacked,
            "stack_groups": stack_groups,
            "stack_chunks": stack_chunks,
            "chunks": len(bundles),
            "plan_cache": _counter_delta(compiled.plan_cache_stats(), plan_before),
            "program_content_cache": _counter_delta(compiled.content_cache_stats(), content_before),
        },
        warnings=[(caught.category, str(caught.message)) for caught in recorded],
    )


@dataclass
class BatchResult:
    """Merged per-circuit results plus plan observability."""

    name: str
    workers: int
    circuits: list[PointResult] = field(default_factory=list)
    total_time_s: float = 0.0
    #: Plan shape of this run, summed over its windows: stacked vs fallback
    #: counts, group/chunk layout, and the lowering-cache hits and misses
    #: planning and execution caused.
    plan: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "workers": self.workers,
            "total_time_s": round(self.total_time_s, 6),
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
class BatchRunner(ExperimentRunner):
    """Plans and executes a :class:`BatchSpec`.

    The fleet is cut into :class:`BatchWindow` windows of
    :func:`window_size` points; :func:`run_window` plans, stacks and runs
    each one — inline for one worker or one window, else one pool task per
    window — and the parent concatenates their results in point order.
    It takes :class:`ExperimentRunner`'s arguments, so one call builds
    either runner, but builds no artifact cache: ``cache_dir`` and
    ``use_cache`` are ignored.
    """

    def __init__(self, spec, workers=None, cache_dir=None, use_cache=True, strict_verify=False):
        super().__init__(spec, workers=workers, use_cache=False, strict_verify=strict_verify)

    def plan(self) -> list[PlannedPoint]:
        """Every fleet point planned in this process, stacking on.

        :meth:`run` plans inside its windows instead; this is the whole
        fleet's plan in one place, for inspection.
        """
        return [self.plan_point(point, stack=True) for point in self.spec.points()]

    # ------------------------------------------------------------------ #
    def run(self) -> BatchResult:
        start = time.perf_counter()
        points = self.spec.points()
        size = window_size(len(points), self.spec.max_chunk_circuits, self.workers)
        cuts = range(0, len(points), size)
        windows = self._execute(
            run_window, [BatchWindow(points[at : at + size], self.strict_verify) for at in cuts]
        )
        plan: dict = {}
        for window in windows:
            _add_counters(plan, window.plan)
            for category, message in window.warnings:
                warnings.warn(message, category, stacklevel=2)
        result = BatchResult(
            name=self.spec.name,
            workers=self.workers,
            circuits=[circuit for window in windows for circuit in window.circuits],
            plan=plan,
        )
        result.total_time_s = time.perf_counter() - start
        return result


def run_batch(spec: BatchSpec, workers: int | None = None, cache_dir=None) -> BatchResult:
    """Plan and execute a batch in one call (``cache_dir`` is ignored)."""
    return BatchRunner(spec, workers=workers).run()
