"""Circuit operations: gate applications, measurements, barriers and classical ops.

These are the elements a :class:`repro.core.circuit.Circuit` is made of and
the atoms the compiler schedules, maps and eventually lowers to cQASM /
eQASM instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.gates import Gate


@dataclass
class Operation:
    """Base class for everything that can appear in a circuit."""

    qubits: tuple[int, ...]

    @property
    def name(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def duration(self) -> int:
        """Nominal duration in nanoseconds."""
        return 0

    def remap(self, mapping: dict[int, int]) -> "Operation":
        """Return a copy of this operation with qubit indices translated."""
        raise NotImplementedError


@dataclass
class GateOperation(Operation):
    """Application of a :class:`Gate` to specific qubits."""

    gate: Gate = None  # type: ignore[assignment]

    def __init__(self, gate: Gate, qubits: tuple[int, ...] | list[int]):
        if gate.num_qubits != len(qubits):
            raise ValueError(
                f"gate {gate.name!r} acts on {gate.num_qubits} qubits, "
                f"got operands {tuple(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit operands {tuple(qubits)}")
        super().__init__(tuple(int(q) for q in qubits))
        self.gate = gate

    @property
    def name(self) -> str:
        return self.gate.name

    @property
    def params(self) -> tuple:
        return self.gate.params

    @property
    def duration(self) -> int:
        return self.gate.duration

    def remap(self, mapping: dict[int, int]) -> "GateOperation":
        return GateOperation(self.gate, tuple(mapping[q] for q in self.qubits))

    def dagger(self) -> "GateOperation":
        return GateOperation(self.gate.dagger(), self.qubits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        operands = ", ".join(f"q[{q}]" for q in self.qubits)
        return f"GateOperation({self.name} {operands})"


@dataclass
class Measurement(Operation):
    """Computational-basis measurement of one qubit into a classical bit."""

    bit: int = -1

    #: Default read-out duration in nanoseconds; platforms override it.
    DEFAULT_DURATION_NS = 300

    def __init__(self, qubit: int, bit: int | None = None, duration: int | None = None):
        super().__init__((int(qubit),))
        self.bit = int(qubit) if bit is None else int(bit)
        self._duration = int(duration) if duration is not None else self.DEFAULT_DURATION_NS

    @property
    def qubit(self) -> int:
        return self.qubits[0]

    @property
    def name(self) -> str:
        return "measure"

    @property
    def duration(self) -> int:
        return self._duration

    def remap(self, mapping: dict[int, int]) -> "Measurement":
        return Measurement(mapping[self.qubit], bit=self.bit, duration=self._duration)


@dataclass
class Barrier(Operation):
    """Scheduling barrier: no operation may be reordered across it."""

    def __init__(self, qubits: tuple[int, ...] | list[int]):
        super().__init__(tuple(int(q) for q in qubits))

    @property
    def name(self) -> str:
        return "barrier"

    def remap(self, mapping: dict[int, int]) -> "Barrier":
        return Barrier(tuple(mapping[q] for q in self.qubits))


@dataclass
class ConditionalGate(Operation):
    """A gate executed only when a classical bit is 1 (cQASM 2.0 style ``c-`` gates).

    This is the hybrid quantum-classical construct of the paper's cQASM 2.0
    remark: measurement results feed back into the instruction stream at run
    time (e.g. the corrections of quantum teleportation), so the simulator
    must evaluate the condition per shot.
    """

    gate: Gate = None  # type: ignore[assignment]
    condition_bit: int = 0

    def __init__(self, gate: Gate, qubits: tuple[int, ...] | list[int], condition_bit: int):
        if gate.num_qubits != len(qubits):
            raise ValueError(
                f"gate {gate.name!r} acts on {gate.num_qubits} qubits, got {tuple(qubits)}"
            )
        super().__init__(tuple(int(q) for q in qubits))
        self.gate = gate
        self.condition_bit = int(condition_bit)

    @property
    def name(self) -> str:
        return f"c-{self.gate.name}"

    @property
    def params(self) -> tuple:
        return self.gate.params

    @property
    def duration(self) -> int:
        return self.gate.duration

    def remap(self, mapping: dict[int, int]) -> "ConditionalGate":
        return ConditionalGate(
            self.gate, tuple(mapping[q] for q in self.qubits), self.condition_bit
        )


@dataclass
class ClassicalOperation(Operation):
    """Classical operation interleaved with the quantum logic.

    The paper's host/accelerator split encapsulates quantum logic in
    classical control structures; these operations model the classical part
    that reaches the micro-architecture (e.g. binary-controlled gates, loop
    counters, result aggregation).
    """

    opcode: str = "nop"
    operands: tuple = field(default_factory=tuple)

    def __init__(self, opcode: str, operands: tuple = (), qubits: tuple[int, ...] = ()):
        super().__init__(tuple(qubits))
        self.opcode = opcode
        self.operands = tuple(operands)

    @property
    def name(self) -> str:
        return self.opcode

    def remap(self, mapping: dict[int, int]) -> "ClassicalOperation":
        return ClassicalOperation(
            self.opcode, self.operands, tuple(mapping.get(q, q) for q in self.qubits)
        )
