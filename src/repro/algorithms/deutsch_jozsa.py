"""Deutsch-Jozsa algorithm.

Decides whether a promise function f: {0,1}^n -> {0,1} is constant or
balanced with a single oracle query; classically 2^(n-1) + 1 queries are
needed in the worst case.  Used as a stack smoke-test kernel and in the
compiler benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.circuit import Circuit
from repro.qx.simulator import QXSimulator


@dataclass
class DeutschJozsaResult:
    is_constant: bool
    measured_bits: str
    oracle_queries: int = 1


class DeutschJozsa:
    """Deutsch-Jozsa with phase oracles for constant / balanced functions."""

    def __init__(self, num_qubits: int):
        if num_qubits < 1 or num_qubits > 16:
            raise ValueError("DeutschJozsa supports 1 to 16 input qubits")
        self.num_qubits = num_qubits

    # ------------------------------------------------------------------ #
    def circuit(self, oracle: str = "balanced", mask: int | None = None) -> Circuit:
        """Build the algorithm circuit with a built-in oracle.

        ``oracle='constant'`` uses f(x) = 0; ``oracle='balanced'`` uses
        f(x) = parity of (x & mask), a standard balanced family.
        """
        if oracle not in ("constant", "balanced"):
            raise ValueError("oracle must be 'constant' or 'balanced'")
        if mask is None:
            mask = (1 << self.num_qubits) - 1
        circuit = Circuit(self.num_qubits, f"dj_{oracle}_{self.num_qubits}")
        for qubit in range(self.num_qubits):
            circuit.h(qubit)
        if oracle == "balanced":
            # Phase oracle for f(x) = parity(x & mask): Z on each masked qubit.
            for qubit in range(self.num_qubits):
                if (mask >> qubit) & 1:
                    circuit.z(qubit)
        for qubit in range(self.num_qubits):
            circuit.h(qubit)
        for qubit in range(self.num_qubits):
            circuit.measure(qubit)
        return circuit

    def run(self, oracle: str = "balanced", mask: int | None = None, seed: int | None = None) -> DeutschJozsaResult:
        """Execute on the QX simulator and interpret the measurement."""
        circuit = self.circuit(oracle, mask)
        result = QXSimulator(seed=seed).run(circuit, shots=1)
        bits = result.most_frequent()
        return DeutschJozsaResult(is_constant=(set(bits) == {"0"}), measured_bits=bits)
