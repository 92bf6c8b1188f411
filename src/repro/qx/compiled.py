"""Circuit precompilation for the QX simulation core.

A :class:`~repro.core.circuit.Circuit` is a list of rich Python objects
(gates with names, parameters, durations).  Executing it shot after shot
re-dispatches those objects through ``isinstance`` checks and attribute
lookups every time.  The precompiler lowers a circuit *once* into a flat
:class:`KernelProgram` of slotted :class:`KernelOp` records that carry only
what execution needs — the gate matrix, the operand tuple, the classical
bit indices and the names of the gates applied — so the simulator's shot
loop touches nothing else.  Every QX engine executes this one form: the
dense, density and MPS engines read the matrices, the stabilizer tableau
reads the names.

With ``fuse=True`` adjacent single-qubit gates on the same qubit are folded
into one 2x2 matrix (runs of rotations, Euler decompositions, and basis
changes collapse to a single kernel call).  Fusion is only valid when no
error model hooks in between gates, so the simulator requests ``fuse=False``
for noisy trajectory execution, where every physical gate must keep its own
error-injection point and duration.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from collections.abc import Callable

import numpy as np

from repro.core.circuit import Circuit
from repro.core.operations import (
    Barrier,
    ClassicalOperation,
    ConditionalGate,
    GateOperation,
    Measurement,
)
from repro.qx import kernels

#: KernelOp kinds.
GATE = 0
COND_GATE = 1
MEASURE = 2

_IDENTITY_2 = np.eye(2, dtype=complex)


class KernelOp:
    """One lowered instruction: a gate application or a measurement."""

    __slots__ = (
        "kind", "matrix", "qubits", "duration", "bit", "condition_bit", "names", "structure"
    )

    def __init__(
        self, kind, matrix=None, qubits=(), duration=0, bit=-1, condition_bit=-1, names=()
    ):
        self.kind = kind
        self.matrix = matrix
        self.qubits = qubits
        self.duration = duration
        self.bit = bit
        self.condition_bit = condition_bit
        #: Names of the gates this op applies, in order: a fused run lists
        #: every gate it folded (empty for a measurement).
        self.names = names
        # 2-qubit gate structure, classified once here rather than per shot.
        self.structure = (
            kernels.classify_2q(matrix) if matrix is not None and len(qubits) == 2 else None
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = {GATE: "gate", COND_GATE: "cond", MEASURE: "measure"}
        return f"KernelOp({names[self.kind]}, qubits={self.qubits})"


class KernelProgram:
    """A circuit lowered to a flat list of :class:`KernelOp` records."""

    def __init__(
        self,
        num_qubits: int,
        num_bits: int,
        ops: list[KernelOp],
        fused: bool,
        num_measurements: int,
        has_conditionals: bool,
        has_mid_circuit_measurement: bool,
        measured_qubits: tuple[int, ...],
        measured_bits: tuple[int, ...],
    ):
        self.num_qubits = num_qubits
        self.num_bits = num_bits
        self.ops = ops
        self.fused = fused
        self.num_measurements = num_measurements
        self.has_conditionals = has_conditionals
        self.has_mid_circuit_measurement = has_mid_circuit_measurement
        #: Measured qubit per measurement, in program order.
        self.measured_qubits = measured_qubits
        #: Sorted unique classical bits written by measurements.
        self.measured_bits = measured_bits
        #: Classical bit -> source qubit (last measurement writing the bit
        #: wins, mirroring per-shot execution order).
        self.bit_sources = {
            op.bit: op.qubits[0] for op in ops if op.kind == MEASURE
        }

    @property
    def needs_trajectories(self) -> bool:
        """True when per-shot re-execution is required for correct semantics."""
        return self.has_conditionals or self.has_mid_circuit_measurement

    def sample_sources(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(ascending classical bits, their source qubits)`` for sampling.

        The single implementation of the sampled paths' keying setup: the
        histogram is keyed by classical bit (honouring cross-maps such as
        ``measure q[3] -> b[0]``) with the qubit each bit was last written
        from as its value source.
        """
        ordered_bits = tuple(sorted(self.bit_sources))
        return ordered_bits, tuple(self.bit_sources[bit] for bit in ordered_bits)

    def apply_unitaries(self, amplitudes: np.ndarray) -> np.ndarray:
        """Apply every unconditional gate in place; returns the amplitude array.

        The single-evolution fast path for measurement-free execution and
        final-distribution sampling.
        """
        for op in self.ops:
            if op.kind == GATE:
                amplitudes = kernels.apply_gate_inplace(
                    amplitudes, op.matrix, op.qubits, structure=op.structure
                )
        return amplitudes


# ---------------------------------------------------------------------- #
# Structural lowering plans
# ---------------------------------------------------------------------- #
# Lowering is two steps.  A LoweringPlan is the control flow — which gates
# fuse into which runs, where runs flush, which metadata flags are set — and
# depends only on gate positions; materialising it against a concrete
# circuit does the matrix arithmetic.  A fleet of structurally identical
# circuits (RB sequences, QAOA iterates: same gate positions, different
# rotation angles) therefore plans once per structure.


class LoweringPlan:
    """The structure-only part of lowering one circuit shape."""

    __slots__ = (
        "steps",
        "fused",
        "num_measurements",
        "has_conditionals",
        "has_mid_circuit_measurement",
        "measured_qubits",
        "measured_bits",
        "bit_sources",
    )

    def __init__(
        self,
        steps,
        fused,
        num_measurements,
        has_conditionals,
        has_mid_circuit_measurement,
        measured_qubits,
        measured_bits,
        bit_sources,
    ):
        #: Output steps in order: ``("run", op_indices, qubit)`` for a fused
        #: single-qubit run, ``("gate", i)``, ``("measure", i)`` or
        #: ``("cond", i)`` referencing ``circuit.operations[i]``.
        self.steps = steps
        self.fused = fused
        self.num_measurements = num_measurements
        self.has_conditionals = has_conditionals
        self.has_mid_circuit_measurement = has_mid_circuit_measurement
        self.measured_qubits = measured_qubits
        self.measured_bits = measured_bits
        #: Classical bit -> source qubit, last write wins — structural, so
        #: shared by every circuit materialising this plan.
        self.bit_sources = bit_sources

    @property
    def needs_trajectories(self) -> bool:
        """Mirror of :attr:`KernelProgram.needs_trajectories` at plan level."""
        return self.has_conditionals or self.has_mid_circuit_measurement

    def sample_sources(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Plan-level :meth:`KernelProgram.sample_sources` (same convention)."""
        ordered_bits = tuple(sorted(self.bit_sources))
        return ordered_bits, tuple(self.bit_sources[bit] for bit in ordered_bits)


def structure_key(circuit: Circuit, fuse: bool) -> tuple:
    """Hashable key of everything that determines a circuit's LoweringPlan.

    Gate *positions* (kinds, operands, classical bits) without gate
    *values* (matrices, parameters, durations) — two RB sequences with
    different angles share a key, and therefore share fusion planning.
    """
    records = []
    for op in circuit.operations:
        if isinstance(op, GateOperation):
            records.append((0, op.qubits))
        elif isinstance(op, Measurement):
            records.append((1, op.qubits, op.bit))
        elif isinstance(op, ConditionalGate):
            records.append((2, op.qubits, op.condition_bit))
        elif isinstance(op, Barrier):
            records.append((3, op.qubits))
        # ClassicalOperation carries no lowering semantics.
    return (circuit.num_qubits, circuit.num_bits, fuse, tuple(records))


def _build_plan(circuit: Circuit, fuse: bool) -> LoweringPlan:
    """The control flow of lowering ``circuit``: operation indices, no matrices."""
    steps: list[tuple] = []
    pending: dict[int, list[int]] = {}

    def flush(qubit: int) -> None:
        indices = pending.pop(qubit, None)
        if indices is not None:
            steps.append(("run", tuple(indices), qubit))

    def flush_all() -> None:
        for qubit in list(pending):
            flush(qubit)

    measured_qubits: list[int] = []
    measured_bits: set[int] = set()
    bit_sources: dict[int, int] = {}
    has_conditionals = False
    mid_circuit = False
    seen_measured: set[int] = set()

    for index, op in enumerate(circuit.operations):
        if isinstance(op, GateOperation):
            if seen_measured.intersection(op.qubits):
                mid_circuit = True
            if fuse and len(op.qubits) == 1:
                pending.setdefault(op.qubits[0], []).append(index)
                continue
            for qubit in op.qubits:
                flush(qubit)
            steps.append(("gate", index))
        elif isinstance(op, Measurement):
            flush(op.qubit)
            seen_measured.add(op.qubit)
            measured_qubits.append(op.qubit)
            measured_bits.add(op.bit)
            bit_sources[op.bit] = op.qubit
            steps.append(("measure", index))
        elif isinstance(op, ConditionalGate):
            if seen_measured.intersection(op.qubits):
                mid_circuit = True
            has_conditionals = True
            for qubit in op.qubits:
                flush(qubit)
            steps.append(("cond", index))
        elif isinstance(op, Barrier):
            for qubit in op.qubits:
                flush(qubit)
    flush_all()

    return LoweringPlan(
        steps=steps,
        fused=fuse,
        num_measurements=len(measured_qubits),
        has_conditionals=has_conditionals,
        has_mid_circuit_measurement=mid_circuit,
        measured_qubits=tuple(measured_qubits),
        measured_bits=tuple(sorted(measured_bits)),
        bit_sources=bit_sources,
    )


def _materialize(circuit: Circuit, plan: LoweringPlan) -> KernelProgram:
    """Instantiate a plan against a concrete circuit's matrices/durations.

    A fused run starts from a copy of its first matrix and left-multiplies
    each later gate; a run that multiplies out to exactly the identity is
    dropped (the tableau agrees: such a Clifford run is the identity there
    too).
    """
    source = circuit.operations
    ops: list[KernelOp] = []
    for step in plan.steps:
        kind = step[0]
        if kind == "run":
            _, indices, qubit = step
            first = source[indices[0]]
            matrix = np.array(first.gate.matrix, dtype=complex)
            duration = first.duration
            for index in indices[1:]:
                op = source[index]
                matrix = op.gate.matrix @ matrix
                duration += op.duration
            if np.array_equal(matrix, _IDENTITY_2):
                continue
            names = tuple(source[index].gate.name for index in indices)
            ops.append(
                KernelOp(GATE, matrix=matrix, qubits=(qubit,), duration=duration, names=names)
            )
            continue
        op = source[step[1]]
        if kind == "measure":
            ops.append(KernelOp(MEASURE, qubits=op.qubits, duration=op.duration, bit=op.bit))
        else:  # "gate" or "cond"
            ops.append(
                KernelOp(
                    COND_GATE if kind == "cond" else GATE,
                    matrix=np.asarray(op.gate.matrix, dtype=complex),
                    qubits=op.qubits,
                    duration=op.duration,
                    condition_bit=op.condition_bit if kind == "cond" else -1,
                    names=(op.gate.name,),
                )
            )
    return KernelProgram(
        num_qubits=circuit.num_qubits,
        num_bits=circuit.num_bits,
        ops=ops,
        fused=plan.fused,
        num_measurements=plan.num_measurements,
        has_conditionals=plan.has_conditionals,
        has_mid_circuit_measurement=plan.has_mid_circuit_measurement,
        measured_qubits=plan.measured_qubits,
        measured_bits=plan.measured_bits,
    )


_PLAN_CACHE_CAP = 256
_plans: "OrderedDict[tuple, LoweringPlan]" = OrderedDict()
_plan_stats = {"hits": 0, "misses": 0}


def plan_for(circuit: Circuit, fuse: bool = True) -> LoweringPlan:
    """The (cached) :class:`LoweringPlan` of ``circuit``'s structure.

    Structurally identical circuits (same gate positions, any parameter
    values) share one plan object, so fleet runtimes can group circuits by
    plan identity and perform fusion control-flow analysis once per shape.
    """
    key = structure_key(circuit, fuse)
    plan = _plans.get(key)
    if plan is None:
        _plan_stats["misses"] += 1
        plan = _build_plan(circuit, fuse)
        _plans[key] = plan
        while len(_plans) > _PLAN_CACHE_CAP:
            _plans.popitem(last=False)
    else:
        _plan_stats["hits"] += 1
        _plans.move_to_end(key)
    return plan


def lower(circuit: Circuit, fuse: bool = True) -> KernelProgram:
    """Lower ``circuit`` into a :class:`KernelProgram`, uncached.

    Barriers and classical operations carry no simulation semantics and are
    dropped (barriers conservatively cut fusion runs on their qubits).
    With ``fuse`` adjacent single-qubit gates fold into one op.
    """
    return _materialize(circuit, _build_plan(circuit, fuse))


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the structural plan cache (process-wide)."""
    return dict(_plan_stats)


# ---------------------------------------------------------------------- #
# Per-circuit program cache
# ---------------------------------------------------------------------- #
_cache: "weakref.WeakKeyDictionary[Circuit, dict]" = weakref.WeakKeyDictionary()

#: Content-addressed programs: structurally identical circuits built as
#: distinct objects (RB/QAOA generators rebuild every sequence) share one
#: lowered program.  LRU-capped so long-lived processes stay bounded.
_CONTENT_CACHE_CAP = 1024
_content_cache: "OrderedDict[tuple[str, bool], KernelProgram]" = OrderedDict()
_content_stats = {"hits": 0, "misses": 0}


def _fingerprint(circuit: Circuit) -> tuple:
    # Identity of every operation: catches appends, removals and interior
    # replacement.  (An id can in principle be reused by a new op allocated
    # at a freed op's address; callers mutating circuits that aggressively
    # should call lower() directly.)
    return tuple(map(id, circuit.operations))


def circuit_content_key(circuit: Circuit) -> str:
    """Content hash of a circuit: every operation's name, parameters, operands,
    classical bits, duration and matrix, classical operations included.

    The one circuit digest of the stack: it keys the content-addressed
    program cache here (which pool workers share through
    :func:`cached_program`) and the runtime's compile cache and mapping
    artifacts.  Callers that key a lowering add ``fuse``.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{circuit.num_qubits}|{circuit.num_bits}".encode())
    for op in circuit.operations:
        if isinstance(op, GateOperation):
            hasher.update(f"g{op.name}{op.params}{op.qubits}{op.duration}".encode())
            hasher.update(np.ascontiguousarray(op.gate.matrix, dtype=complex).tobytes())
        elif isinstance(op, Measurement):
            hasher.update(f"m{op.qubits}{op.bit}{op.duration}".encode())
        elif isinstance(op, ConditionalGate):
            hasher.update(
                f"c{op.name}{op.params}{op.qubits}{op.condition_bit}{op.duration}".encode()
            )
            hasher.update(np.ascontiguousarray(op.gate.matrix, dtype=complex).tobytes())
        elif isinstance(op, Barrier):
            hasher.update(f"b{op.qubits}".encode())
        elif isinstance(op, ClassicalOperation):
            hasher.update(f"o{op.opcode}{op.operands}{op.qubits}".encode())
    return hasher.hexdigest()


def content_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the content-addressed program cache."""
    return dict(_content_stats)


def cached_program(
    content_key: str, fuse: bool, load: Callable[[], KernelProgram]
) -> KernelProgram:
    """The content-cached program for ``(content_key, fuse)``.

    ``load()`` builds the program on a miss only, so callers holding the
    circuit in another form (a pool worker's pickled payload) pay for
    unpickling and lowering only when the process has not lowered that
    content before.
    """
    key = (content_key, fuse)
    program = _content_cache.get(key)
    if program is not None:
        _content_stats["hits"] += 1
        _content_cache.move_to_end(key)
        return program
    _content_stats["misses"] += 1
    program = _content_cache[key] = load()
    while len(_content_cache) > _CONTENT_CACHE_CAP:
        _content_cache.popitem(last=False)
    return program


def program_for(circuit: Circuit, fuse: bool = True) -> KernelProgram:
    """Cached :func:`lower`; recompiles when the circuit was appended to.

    Two cache levels: a weak per-object fast path (no hashing at all for
    the repeated-execution case), backed by a content-addressed LRU keyed
    on the circuit's full lowering inputs, so distinct objects with
    identical content — every sequence an RB generator rebuilds — share
    one program, and the lowering itself goes through the structural plan
    cache.
    """
    try:
        entry = _cache.get(circuit)
    except TypeError:  # unhashable/unweakrefable circuit-like object
        return lower(circuit, fuse=fuse)
    fingerprint = _fingerprint(circuit)
    if entry is None or entry.get("fingerprint") != fingerprint:
        entry = {"fingerprint": fingerprint}
        _cache[circuit] = entry
    program = entry.get(fuse)
    if program is None:
        key = circuit_content_key(circuit)
        program = cached_program(key, fuse, lambda: _materialize(circuit, plan_for(circuit, fuse)))
        entry[fuse] = program
    return program
