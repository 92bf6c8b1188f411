"""Variational Quantum Eigensolver (VQE).

A second hybrid quantum-classical kernel for the near-term accelerator model
of Section 3.3: a hardware-efficient ansatz (layers of Ry rotations and a
CNOT entangler ladder) is optimised to minimise the expectation value of a
Pauli-string Hamiltonian.  Used in the hybrid-accelerator example and the
optimisation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from repro.core.circuit import Circuit
from repro.qx.statevector import StateVector


@dataclass
class PauliTerm:
    """A weighted Pauli string, e.g. 0.5 * Z0 Z1."""

    coefficient: float
    paulis: dict[int, str]

    def __post_init__(self) -> None:
        for qubit, pauli in self.paulis.items():
            if pauli not in ("x", "y", "z"):
                raise ValueError(f"invalid Pauli {pauli!r} on qubit {qubit}")


@dataclass
class VQEResult:
    energy: float
    parameters: np.ndarray
    iterations: int
    circuit_executions: int
    history: list[float] = field(default_factory=list)


_PAULI_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class VQE:
    """Hardware-efficient-ansatz VQE with an exact expectation evaluator."""

    def __init__(
        self,
        num_qubits: int,
        layers: int = 2,
        max_iterations: int = 200,
        seed: int | np.random.SeedSequence | None = None,
    ):
        if num_qubits < 1 or num_qubits > 12:
            raise ValueError("VQE supports 1 to 12 qubits")
        self.num_qubits = num_qubits
        self.layers = layers
        self.max_iterations = max_iterations
        self.rng = np.random.default_rng(seed)
        self._executions = 0

    @property
    def num_parameters(self) -> int:
        return self.num_qubits * (self.layers + 1)

    # ------------------------------------------------------------------ #
    def ansatz(self, parameters: np.ndarray) -> Circuit:
        """Hardware-efficient ansatz: Ry layers separated by CNOT ladders."""
        parameters = np.asarray(parameters, dtype=float)
        if parameters.size != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} parameters, got {parameters.size}"
            )
        circuit = Circuit(self.num_qubits, f"vqe_ansatz_l{self.layers}")
        index = 0
        for qubit in range(self.num_qubits):
            circuit.ry(qubit, float(parameters[index]))
            index += 1
        for _ in range(self.layers):
            for qubit in range(self.num_qubits - 1):
                circuit.cnot(qubit, qubit + 1)
            for qubit in range(self.num_qubits):
                circuit.ry(qubit, float(parameters[index]))
                index += 1
        return circuit

    # ------------------------------------------------------------------ #
    def expectation(self, hamiltonian: list[PauliTerm], parameters: np.ndarray) -> float:
        """<psi(theta)| H |psi(theta)> evaluated on the statevector."""
        circuit = self.ansatz(parameters)
        state = StateVector(self.num_qubits, rng=self.rng)
        for op in circuit.gate_operations():
            state.apply_gate(op.gate.matrix, op.qubits)
        self._executions += 1
        psi = state.amplitudes
        total = 0.0
        for term in hamiltonian:
            phi = psi.copy().reshape([2] * self.num_qubits)
            for qubit, pauli in term.paulis.items():
                axis = self.num_qubits - 1 - qubit
                phi = np.moveaxis(phi, axis, 0)
                phi = np.tensordot(_PAULI_MATRICES[pauli], phi, axes=(1, 0))
                phi = np.moveaxis(phi, 0, axis)
            total += term.coefficient * float(np.real(np.vdot(psi, phi.reshape(-1))))
        return total

    def minimize(self, hamiltonian: list[PauliTerm]) -> VQEResult:
        """Run the classical optimisation loop."""
        self._executions = 0
        history: list[float] = []

        def objective(params: np.ndarray) -> float:
            value = self.expectation(hamiltonian, params)
            history.append(value)
            return value

        initial = self.rng.uniform(-0.5, 0.5, size=self.num_parameters)
        result = optimize.minimize(
            objective,
            initial,
            method="COBYLA",
            options={"maxiter": self.max_iterations},
        )
        return VQEResult(
            energy=float(result.fun),
            parameters=np.asarray(result.x),
            iterations=int(result.get("nit", len(history))),
            circuit_executions=self._executions,
            history=history,
        )
