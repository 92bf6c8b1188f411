"""Quantum Approximate Optimisation Algorithm (QAOA).

The gate-model route to QUBO problems in Section 3.3: "QAOA is a variational
algorithm where the classical optimiser specifies a low-depth quantum
circuit to find the lowest energy configuration of a problem Hamiltonian."
The implementation is a full hybrid quantum-classical loop: the parameterised
circuit is built on the circuit IR, executed on the QX simulator, and the
parameters are optimised by a classical optimiser (scipy or a built-in
coordinate search) running in the host CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from repro.annealing.ising import IsingModel
from repro.annealing.qubo import QUBO
from repro.core.circuit import Circuit
from repro.qx.statevector import StateVector


@dataclass
class QAOAResult:
    """Outcome of a QAOA optimisation run."""

    best_bitstring: np.ndarray
    best_energy: float
    expectation: float
    parameters: np.ndarray
    iterations: int
    circuit_executions: int
    history: list[float] = field(default_factory=list)
    #: Most probable computational basis states of the final circuit, as
    #: (bitstring array, probability) pairs sorted by decreasing probability.
    top_bitstrings: list[tuple[np.ndarray, float]] = field(default_factory=list)


class QAOA:
    """Depth-p QAOA for Ising / QUBO Hamiltonians."""

    def __init__(
        self,
        depth: int = 1,
        optimizer: str = "cobyla",
        max_iterations: int = 150,
        shots: int | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if optimizer not in ("cobyla", "nelder-mead", "grid"):
            raise ValueError("optimizer must be 'cobyla', 'nelder-mead' or 'grid'")
        self.depth = depth
        self.optimizer = optimizer
        self.max_iterations = max_iterations
        self.shots = shots
        self.rng = np.random.default_rng(seed)
        self._executions = 0

    # ------------------------------------------------------------------ #
    # Circuit construction
    # ------------------------------------------------------------------ #
    def circuit(self, model: IsingModel, gammas: np.ndarray, betas: np.ndarray) -> Circuit:
        """Build the depth-p QAOA circuit for an Ising Hamiltonian."""
        n = model.num_spins
        circuit = Circuit(n, f"qaoa_p{self.depth}")
        for qubit in range(n):
            circuit.h(qubit)
        for layer in range(self.depth):
            gamma = float(gammas[layer])
            beta = float(betas[layer])
            # Problem unitary: exp(-i gamma H_problem).
            for i in range(n):
                if model.h[i] != 0.0:
                    circuit.rz(i, 2.0 * gamma * model.h[i])
            for (i, j) in model.edges():
                weight = model.couplings[i, j]
                circuit.cnot(i, j)
                circuit.rz(j, 2.0 * gamma * weight)
                circuit.cnot(i, j)
            # Mixer unitary: exp(-i beta sum X).
            for qubit in range(n):
                circuit.rx(qubit, 2.0 * beta)
        return circuit

    # ------------------------------------------------------------------ #
    # Expectation evaluation
    # ------------------------------------------------------------------ #
    def _expectation(self, model: IsingModel, params: np.ndarray) -> float:
        gammas = params[: self.depth]
        betas = params[self.depth :]
        circuit = self.circuit(model, gammas, betas)
        state = StateVector(model.num_spins, rng=self.rng)
        for op in circuit.gate_operations():
            state.apply_gate(op.gate.matrix, op.qubits)
        self._executions += 1
        probabilities = state.probabilities()
        if self.shots is not None:
            sampled = self.rng.choice(probabilities.size, size=self.shots, p=probabilities)
            counts = np.bincount(sampled, minlength=probabilities.size)
            probabilities = counts / self.shots
        energies = _all_energies(model)
        return float(np.dot(probabilities, energies))

    # ------------------------------------------------------------------ #
    def solve_ising(self, model: IsingModel) -> QAOAResult:
        """Run the hybrid optimisation loop and return the best sample."""
        if model.num_spins > 20:
            raise ValueError("QAOA statevector evaluation limited to 20 spins")
        self._executions = 0
        history: list[float] = []

        def objective(params: np.ndarray) -> float:
            value = self._expectation(model, np.asarray(params))
            history.append(value)
            return value

        initial = np.concatenate(
            [
                self.rng.uniform(0.1, math.pi / 2, size=self.depth),
                self.rng.uniform(0.1, math.pi / 4, size=self.depth),
            ]
        )
        if self.optimizer == "grid" or self.depth == 1 and self.optimizer == "grid":
            best_params, best_value = self._grid_search(objective)
            iterations = len(history)
        else:
            method = "COBYLA" if self.optimizer == "cobyla" else "Nelder-Mead"
            result = optimize.minimize(
                objective,
                initial,
                method=method,
                options={"maxiter": self.max_iterations},
            )
            best_params, best_value = result.x, float(result.fun)
            iterations = int(result.get("nit", len(history)))

        # Sample the final circuit for the best bit-string.
        gammas = best_params[: self.depth]
        betas = best_params[self.depth :]
        circuit = self.circuit(model, np.asarray(gammas), np.asarray(betas))
        state = StateVector(model.num_spins, rng=self.rng)
        for op in circuit.gate_operations():
            state.apply_gate(op.gate.matrix, op.qubits)
        probabilities = state.probabilities()
        energies = _all_energies(model)
        # Among high-probability states pick the lowest energy.
        threshold = probabilities.max() * 0.05
        candidates = np.nonzero(probabilities >= threshold)[0]
        best_index = int(candidates[np.argmin(energies[candidates])])
        bitstring = np.array(
            [(best_index >> q) & 1 for q in range(model.num_spins)], dtype=int
        )
        spins = 2 * bitstring - 1
        top_order = np.argsort(probabilities)[::-1][:64]
        top_bitstrings = [
            (
                np.array([(int(idx) >> q) & 1 for q in range(model.num_spins)], dtype=int),
                float(probabilities[idx]),
            )
            for idx in top_order
            if probabilities[idx] > 1e-9
        ]
        return QAOAResult(
            best_bitstring=bitstring,
            best_energy=float(model.energy(spins)),
            expectation=float(best_value),
            parameters=np.asarray(best_params),
            iterations=iterations,
            circuit_executions=self._executions,
            history=history,
            top_bitstrings=top_bitstrings,
        )

    def solve_qubo(self, qubo: QUBO) -> QAOAResult:
        """Solve a QUBO by conversion to Ising (energies reported in QUBO units)."""
        ising, offset = qubo.to_ising()
        result = self.solve_ising(ising)
        result.best_energy += offset
        result.expectation += offset
        return result

    # ------------------------------------------------------------------ #
    def _grid_search(self, objective, resolution: int = 12):
        """Coarse grid search over (gamma, beta) for depth-1 QAOA."""
        best_value = np.inf
        best_params = np.zeros(2 * self.depth)
        gammas = np.linspace(0.05, math.pi, resolution)
        betas = np.linspace(0.05, math.pi / 2, resolution)
        for gamma in gammas:
            for beta in betas:
                params = np.array([gamma] * self.depth + [beta] * self.depth)
                value = objective(params)
                if value < best_value:
                    best_value = value
                    best_params = params
        return best_params, float(best_value)


def _all_energies(model: IsingModel) -> np.ndarray:
    """Ising energy of every computational basis state (qubit q -> spin via bit q)."""
    n = model.num_spins
    indices = np.arange(2 ** n)
    spins = np.empty((2 ** n, n))
    for qubit in range(n):
        spins[:, qubit] = 2.0 * ((indices >> qubit) & 1) - 1.0
    linear = spins @ model.h
    quadratic = np.einsum("bi,ij,bj->b", spins, model.couplings, spins)
    return linear + quadratic
