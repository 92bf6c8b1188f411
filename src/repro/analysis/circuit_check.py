"""Def-use dataflow verifier for circuits and lowered kernel programs.

A :class:`~repro.core.circuit.Circuit` compiles and runs even when its
classical dataflow is nonsense: a ``c-x`` conditioned on a bit no
measurement has written yet executes every shot against a bit that is
always 0, a measurement whose bit is immediately overwritten silently
contributes nothing, and a gate applied to a qubit after its terminal
measurement quietly operates on a collapsed state.  These are exactly the
defects that survive compilation, pass scheduling, and only show up as a
wrong histogram.

:func:`verify` walks the operation list once, tracking per-bit write/read
events and per-qubit measurement state, and returns structured
:class:`Diagnostic` records:

========= ========== =======================================================
QV001     error      conditional reads a classical bit before any
                     measurement has written it (use-before-write)
QV002     warning    conditional reads a bit that no operation in the
                     circuit ever writes (the branch can never fire)
QV003     warning    dead measurement: the bit is overwritten by a later
                     measurement with no intervening conditional read (the
                     first result is unobservable)
QV004     warning    qubit used by a gate after its measurement without an
                     intervening reset (the measure-then-``c-x`` active
                     reset idiom and re-measurement are both recognised)
QV005     error      register/arity bounds: qubit, bit or condition bit
                     outside the declared registers, or a kernel op whose
                     matrix shape disagrees with its operand count
========= ========== =======================================================

``strict=True`` raises :class:`CircuitContractError` on the first
error-severity diagnostic; the default is to return everything and let the
caller decide.  :func:`report` is the runtime-facing wrapper used by the
:class:`~repro.runtime.runner.ExperimentRunner` planner and
:class:`~repro.runtime.batch.BatchRunner` lowering: it warns (once, via
:class:`CircuitContractWarning`) on error-severity findings and raises only
in strict mode, so a questionable circuit still executes by default.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.core.circuit import Circuit
from repro.core.operations import (
    Barrier,
    ClassicalOperation,
    ConditionalGate,
    GateOperation,
    Measurement,
)
from repro.qx.compiled import COND_GATE, GATE, MEASURE, KernelProgram


class CircuitContractError(ValueError):
    """Raised in strict mode when a circuit violates a dataflow contract."""

    def __init__(self, diagnostics: list["Diagnostic"], where: str = "circuit"):
        self.diagnostics = diagnostics
        self.where = where
        lines = "; ".join(diag.format() for diag in diagnostics)
        super().__init__(f"{where}: {lines}")

    def __reduce__(self):
        # Pool workers verify too: the error must unpickle in the parent.
        return type(self), (self.diagnostics, self.where)


class CircuitContractWarning(UserWarning):
    """Warn-and-continue channel for non-strict verification."""


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding, anchored to an operation index."""

    code: str
    severity: str  # "error" | "warning"
    message: str
    op_index: int
    qubits: tuple[int, ...] = ()
    bits: tuple[int, ...] = ()

    def format(self) -> str:
        return f"{self.code} [{self.severity}] op {self.op_index}: {self.message}"


@dataclass
class _Event:
    """Flattened view of one operation, shared by both IRs."""

    index: int
    kind: str  # "gate" | "cond" | "measure" | "other"
    qubits: tuple[int, ...]
    name: str = ""
    bit: int | None = None
    condition_bit: int | None = None
    operand_error: str | None = None


def _events_from_circuit(circuit: Circuit) -> tuple[list[_Event], int, int]:
    events: list[_Event] = []
    for index, op in enumerate(circuit.operations):
        if isinstance(op, Measurement):
            events.append(_Event(index, "measure", op.qubits, name="measure", bit=op.bit))
        elif isinstance(op, ConditionalGate):
            events.append(
                _Event(
                    index,
                    "cond",
                    op.qubits,
                    name=op.gate.name,
                    condition_bit=op.condition_bit,
                )
            )
        elif isinstance(op, GateOperation):
            events.append(_Event(index, "gate", op.qubits, name=op.name))
        elif isinstance(op, (Barrier, ClassicalOperation)):
            events.append(_Event(index, "other", op.qubits, name=op.name))
        else:  # pragma: no cover - future operation kinds
            events.append(_Event(index, "other", op.qubits, name=op.name))
    return events, circuit.num_qubits, circuit.num_bits


def _events_from_program(program: KernelProgram) -> tuple[list[_Event], int, int]:
    events: list[_Event] = []
    for index, op in enumerate(program.ops):
        if op.kind == MEASURE:
            events.append(_Event(index, "measure", tuple(op.qubits), name="measure", bit=op.bit))
            continue
        kind = "cond" if op.kind == COND_GATE else "gate" if op.kind == GATE else "other"
        operand_error = None
        if op.matrix is not None and len(op.qubits) > 0:
            expected = 2 ** len(op.qubits)
            if op.matrix.shape != (expected, expected):
                operand_error = (
                    f"kernel op matrix shape {op.matrix.shape} does not match "
                    f"{len(op.qubits)} operand(s) (expected {expected}x{expected})"
                )
        events.append(
            _Event(
                index,
                kind,
                tuple(op.qubits),
                name="kernel",
                condition_bit=op.condition_bit if op.kind == COND_GATE else None,
                operand_error=operand_error,
            )
        )
    return events, program.num_qubits, program.num_bits


def _analyse(events: list[_Event], num_qubits: int, num_bits: int) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []

    # Pass 0: bounds and arity.  Out-of-range indices would make the
    # dataflow passes index nonsense, so they are collected first and the
    # offending events excluded from the def-use walk.
    malformed: set[int] = set()
    for event in events:
        problems: list[str] = []
        for qubit in event.qubits:
            if not 0 <= qubit < num_qubits:
                problems.append(f"qubit {qubit} outside register of size {num_qubits}")
        if len(set(event.qubits)) != len(event.qubits):
            problems.append(f"duplicate qubit operands {event.qubits}")
        if event.bit is not None and not 0 <= event.bit < num_bits:
            problems.append(
                f"measurement bit {event.bit} outside classical register of size {num_bits}"
            )
        if event.condition_bit is not None and not 0 <= event.condition_bit < num_bits:
            problems.append(
                f"condition bit {event.condition_bit} outside classical register "
                f"of size {num_bits}"
            )
        if event.operand_error is not None:
            problems.append(event.operand_error)
        for problem in problems:
            diagnostics.append(
                Diagnostic(
                    code="QV005",
                    severity="error",
                    message=problem,
                    op_index=event.index,
                    qubits=event.qubits,
                    bits=tuple(
                        b for b in (event.bit, event.condition_bit) if b is not None
                    ),
                )
            )
        if problems:
            malformed.add(event.index)

    valid = [event for event in events if event.index not in malformed]
    ever_written = {event.bit for event in valid if event.kind == "measure"}

    # Pass 1: forward def-use walk over classical bits and qubit
    # measurement state.
    written: set[int] = set()
    # bit -> (index of last unread measurement, measured qubit)
    pending_write: dict[int, tuple[int, int]] = {}
    # qubit -> index of the measurement that collapsed it (cleared by reset)
    measured_at: dict[int, int] = {}
    # (qubit, measurement index) pairs already reported for QV004
    reported_use_after_measure: set[tuple[int, int]] = set()

    for event in valid:
        if event.kind == "cond":
            bit = event.condition_bit
            if bit is not None:
                if bit not in written:
                    if bit in ever_written:
                        diagnostics.append(
                            Diagnostic(
                                code="QV001",
                                severity="error",
                                message=(
                                    f"conditional {event.name!r} reads bit {bit} before the "
                                    "measurement that writes it (use-before-write: the "
                                    "condition is always 0 here)"
                                ),
                                op_index=event.index,
                                qubits=event.qubits,
                                bits=(bit,),
                            )
                        )
                    else:
                        diagnostics.append(
                            Diagnostic(
                                code="QV002",
                                severity="warning",
                                message=(
                                    f"conditional {event.name!r} reads bit {bit}, which no "
                                    "operation ever writes (the branch can never fire)"
                                ),
                                op_index=event.index,
                                qubits=event.qubits,
                                bits=(bit,),
                            )
                        )
                pending_write.pop(bit, None)  # the write has been observed

            # The measure-then-c-x active reset idiom: a conditional X on
            # the qubit, keyed by that qubit's own fresh measurement,
            # returns the qubit to |0> and re-arms it for further use.
            if (
                event.name == "x"
                and len(event.qubits) == 1
                and event.qubits[0] in measured_at
                and bit is not None
                and bit in written
            ):
                qubit = event.qubits[0]
                measured_index = measured_at[qubit]
                source = next(
                    (
                        other
                        for other in valid
                        if other.index == measured_index and other.bit == bit
                    ),
                    None,
                )
                if source is not None:
                    measured_at.pop(qubit, None)
                    continue

            for qubit in event.qubits:
                if qubit in measured_at:
                    key = (qubit, measured_at[qubit])
                    if key not in reported_use_after_measure:
                        reported_use_after_measure.add(key)
                        diagnostics.append(
                            Diagnostic(
                                code="QV004",
                                severity="warning",
                                message=(
                                    f"qubit {qubit} used by conditional {event.name!r} after "
                                    f"its measurement at op {measured_at[qubit]} without a "
                                    "reset"
                                ),
                                op_index=event.index,
                                qubits=(qubit,),
                            )
                        )

        elif event.kind == "measure":
            bit = event.bit
            qubit = event.qubits[0]
            if bit is not None:
                if bit in pending_write:
                    stale_index, stale_qubit = pending_write[bit]
                    diagnostics.append(
                        Diagnostic(
                            code="QV003",
                            severity="warning",
                            message=(
                                f"dead measurement: bit {bit} written from qubit "
                                f"{stale_qubit} at op {stale_index} is overwritten here "
                                "with no intervening read (the first result is "
                                "unobservable)"
                            ),
                            op_index=event.index,
                            qubits=(stale_qubit,),
                            bits=(bit,),
                        )
                    )
                written.add(bit)
                pending_write[bit] = (event.index, qubit)
            # Re-measurement is a legitimate way to re-use a collapsed
            # qubit, so it refreshes rather than flags the state.
            measured_at[qubit] = event.index

        elif event.kind == "gate":
            for qubit in event.qubits:
                if qubit in measured_at:
                    key = (qubit, measured_at[qubit])
                    if key not in reported_use_after_measure:
                        reported_use_after_measure.add(key)
                        diagnostics.append(
                            Diagnostic(
                                code="QV004",
                                severity="warning",
                                message=(
                                    f"qubit {qubit} used by gate {event.name!r} after its "
                                    f"measurement at op {measured_at[qubit]} without a reset"
                                ),
                                op_index=event.index,
                                qubits=(qubit,),
                            )
                        )

    diagnostics.sort(key=lambda diag: (diag.op_index, diag.code))
    return diagnostics


def verify(circuit: Circuit, strict: bool = False) -> list[Diagnostic]:
    """Verify a circuit's classical/quantum dataflow; see the module docs."""
    events, num_qubits, num_bits = _events_from_circuit(circuit)
    diagnostics = _analyse(events, num_qubits, num_bits)
    if strict:
        errors = [diag for diag in diagnostics if diag.severity == "error"]
        if errors:
            raise CircuitContractError(errors, where=getattr(circuit, "name", "circuit"))
    return diagnostics


def verify_program(program: KernelProgram, strict: bool = False) -> list[Diagnostic]:
    """Verify a lowered :class:`KernelProgram` with the same pass set."""
    events, num_qubits, num_bits = _events_from_program(program)
    diagnostics = _analyse(events, num_qubits, num_bits)
    if strict:
        errors = [diag for diag in diagnostics if diag.severity == "error"]
        if errors:
            raise CircuitContractError(errors, where="kernel program")
    return diagnostics


def report(
    target: Circuit | KernelProgram, where: str = "circuit", strict: bool = False
) -> list[Diagnostic]:
    """Runtime-facing verification: warn on errors, raise only when strict.

    Only error-severity diagnostics are surfaced (runtime callers verify
    every planned circuit; warning-severity findings on legitimate circuits
    would be noise there).  Returns the full diagnostic list either way.
    """
    if isinstance(target, Circuit):
        diagnostics = verify(target)
    else:
        diagnostics = verify_program(target)
    errors = [diag for diag in diagnostics if diag.severity == "error"]
    if errors:
        if strict:
            raise CircuitContractError(errors, where=where)
        summary = "; ".join(diag.format() for diag in errors)
        warnings.warn(
            f"{where}: circuit contract violations: {summary}",
            CircuitContractWarning,
            stacklevel=2,
        )
    return diagnostics
