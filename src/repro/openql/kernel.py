"""OpenQL-style kernels.

A kernel is the unit of quantum logic the host offloads to the accelerator:
a straight-line sequence of gates plus measurements, optionally repeated or
conditioned by classical control flow at the program level.  The kernel API
mirrors OpenQL's: ``k.gate('h', 0)``, ``k.cnot(0, 1)``, ``k.measure(0)``.
"""

from __future__ import annotations

from repro.core.circuit import Circuit
from repro.openql.platform import Platform


class Kernel:
    """A named block of quantum logic targeting a platform."""

    def __init__(self, name: str, platform: Platform, num_qubits: int | None = None):
        self.name = name
        self.platform = platform
        qubits = num_qubits if num_qubits is not None else platform.num_qubits
        if qubits > platform.num_qubits:
            raise ValueError(
                f"kernel requests {qubits} qubits, platform {platform.name!r} has "
                f"{platform.num_qubits}"
            )
        self.circuit = Circuit(qubits, name=name)

    # ------------------------------------------------------------------ #
    # OpenQL-style gate API
    # ------------------------------------------------------------------ #
    def gate(self, name: str, *qubits: int, angle: float | None = None) -> "Kernel":
        """Append a named gate, e.g. ``gate('h', 0)`` or ``gate('rx', 0, angle=0.5)``."""
        params = (angle,) if angle is not None else ()
        self.circuit.add_gate(name.lower(), *qubits, params=params)
        return self

    def x(self, qubit: int) -> "Kernel":
        return self.gate("x", qubit)

    def y(self, qubit: int) -> "Kernel":
        return self.gate("y", qubit)

    def z(self, qubit: int) -> "Kernel":
        return self.gate("z", qubit)

    def hadamard(self, qubit: int) -> "Kernel":  # contract: ignore[REPRO010] OpenQL API parity
        return self.gate("h", qubit)

    def h(self, qubit: int) -> "Kernel":
        return self.gate("h", qubit)

    def s(self, qubit: int) -> "Kernel":
        return self.gate("s", qubit)

    def t(self, qubit: int) -> "Kernel":
        return self.gate("t", qubit)

    def rx(self, qubit: int, angle: float) -> "Kernel":
        return self.gate("rx", qubit, angle=angle)

    def ry(self, qubit: int, angle: float) -> "Kernel":
        return self.gate("ry", qubit, angle=angle)

    def rz(self, qubit: int, angle: float) -> "Kernel":
        return self.gate("rz", qubit, angle=angle)

    def cnot(self, control: int, target: int) -> "Kernel":
        return self.gate("cnot", control, target)

    def cz(self, control: int, target: int) -> "Kernel":
        return self.gate("cz", control, target)

    def swap(self, qubit_a: int, qubit_b: int) -> "Kernel":
        return self.gate("swap", qubit_a, qubit_b)

    def toffoli(self, control_a: int, control_b: int, target: int) -> "Kernel":
        return self.gate("toffoli", control_a, control_b, target)

    def measure(self, qubit: int) -> "Kernel":
        self.circuit.measure(qubit)
        return self

    def measure_all(self) -> "Kernel":
        self.circuit.measure_all()
        return self

    def barrier(self, *qubits: int) -> "Kernel":
        self.circuit.barrier(*qubits)
        return self

    def prepz(self, qubit: int) -> "Kernel":  # contract: ignore[REPRO010] OpenQL API parity
        """Prepare a qubit in |0>.

        Registers always start in the all-zeros state, so this is a no-op at
        the circuit level; the method exists for API parity with OpenQL.
        """
        self.circuit._check_qubits((qubit,))
        return self

    # ------------------------------------------------------------------ #
    def extend(self, circuit: Circuit) -> "Kernel":
        """Append an existing circuit's operations to this kernel.

        The kernel's classical register widens to cover the source
        circuit's, so cross-mapped measurements and conditional bits beyond
        the qubit count stay addressable through compilation.
        """
        for op in circuit.operations:
            self.circuit.append(op)
        self.circuit.num_bits = max(self.circuit.num_bits, circuit.num_bits)
        return self

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    def gate_count(self) -> int:
        return self.circuit.gate_count()

    def depth(self) -> int:
        return self.circuit.depth()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Kernel({self.name!r}, qubits={self.num_qubits}, gates={self.gate_count()})"
