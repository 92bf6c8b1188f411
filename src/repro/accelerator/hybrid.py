"""Hybrid quantum-classical execution loop.

"This model of Hybrid Quantum-Classical (HQC) algorithms requires fast
feedback between the quantum accelerator and the real-time
circuit/instruction generator ... the expected probability of the solution
state can be calculated inside the quantum accelerator itself, aggregating
the measurements over multiple runs." (Section 3.2/3.3)

:class:`HybridExecutor` runs that loop explicitly: a parameterised circuit
generator, the accelerator executing bursts of shots, aggregation of the
measured expectation inside the accelerator, and a classical parameter
update on the host, iterated until convergence or an iteration budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.circuit import Circuit
from repro.qx.simulator import QXSimulator
from repro.qx.error_models import ErrorModel, NoError


@dataclass
class HybridResult:
    """Outcome of a hybrid variational optimisation."""

    best_value: float
    best_parameters: np.ndarray
    iterations: int
    total_shots: int
    quantum_executions: int
    history: list[float] = field(default_factory=list)


class HybridExecutor:
    """Generic hybrid loop: circuit generator + expectation estimator + optimiser."""

    def __init__(
        self,
        circuit_generator: Callable[[np.ndarray], Circuit],
        expectation_from_counts: Callable[[dict[str, int]], float],
        num_parameters: int,
        shots_per_burst: int = 256,
        max_iterations: int = 50,
        learning_rate: float = 0.3,
        error_model: ErrorModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ):
        self.circuit_generator = circuit_generator
        self.expectation_from_counts = expectation_from_counts
        self.num_parameters = num_parameters
        self.shots_per_burst = shots_per_burst
        self.max_iterations = max_iterations
        self.learning_rate = learning_rate
        self.error_model = error_model or NoError()
        self.rng = np.random.default_rng(seed)
        self._executions = 0
        self._shots = 0

    # ------------------------------------------------------------------ #
    def _evaluate(self, parameters: np.ndarray) -> float:
        """One burst: generate circuit, run shots, aggregate inside the accelerator."""
        circuit = self.circuit_generator(parameters)
        simulator = QXSimulator(
            error_model=self.error_model, seed=int(self.rng.integers(2 ** 31))
        )
        result = simulator.run(circuit, shots=self.shots_per_burst)
        self._executions += 1
        self._shots += self.shots_per_burst
        return self.expectation_from_counts(result.counts)

    def run(self, initial_parameters: np.ndarray | None = None) -> HybridResult:
        """SPSA-style optimisation: two bursts per iteration, fast feedback."""
        parameters = (
            np.asarray(initial_parameters, dtype=float)
            if initial_parameters is not None
            else self.rng.uniform(-np.pi / 4, np.pi / 4, size=self.num_parameters)
        )
        self._executions = 0
        self._shots = 0
        best_value = np.inf
        best_parameters = parameters.copy()
        history: list[float] = []

        for iteration in range(1, self.max_iterations + 1):
            perturbation = self.rng.choice([-1.0, 1.0], size=self.num_parameters)
            step = 0.2 / iteration ** 0.3
            value_plus = self._evaluate(parameters + step * perturbation)
            value_minus = self._evaluate(parameters - step * perturbation)
            gradient = (value_plus - value_minus) / (2.0 * step) * perturbation
            parameters = parameters - self.learning_rate / iteration ** 0.6 * gradient
            current = min(value_plus, value_minus)
            history.append(current)
            if current < best_value:
                best_value = current
                best_parameters = parameters.copy()

        return HybridResult(
            best_value=float(best_value),
            best_parameters=best_parameters,
            iterations=self.max_iterations,
            total_shots=self._shots,
            quantum_executions=self._executions,
            history=history,
        )
