"""Unit tests for quantum phase estimation and quantum counting."""

import math

import numpy as np
import pytest

from oracles.operator_reference import is_unitary
from repro.algorithms.grover import optimal_grover_iterations
from repro.algorithms.phase_estimation import (
    CountingResult,
    controlled_unitary_gate,
    estimate_phase,
    phase_estimation_circuit,
    quantum_counting,
)
from repro.core.gates import rz_gate


def _phase_unitary(phase: float) -> np.ndarray:
    """diag(1, e^{2 pi i phase}) whose |1> eigenphase is ``phase``."""
    return np.diag([1.0, np.exp(2j * np.pi * phase)])


class TestControlledUnitary:
    def test_matrix_structure(self):
        gate = controlled_unitary_gate(_phase_unitary(0.25))
        assert gate.num_qubits == 2
        assert is_unitary(gate)
        np.testing.assert_allclose(gate.matrix[:2, :2], np.eye(2), atol=1e-12)

    def test_power_raises_unitary(self):
        gate = controlled_unitary_gate(_phase_unitary(0.125), power=2)
        np.testing.assert_allclose(
            gate.matrix[2:, 2:], _phase_unitary(0.25), atol=1e-12
        )

    def test_rejects_multi_qubit_unitary(self):
        with pytest.raises(ValueError):
            controlled_unitary_gate(np.eye(4))


class TestPhaseEstimation:
    @pytest.mark.parametrize("phase", [0.25, 0.5, 0.125, 0.375])
    def test_exactly_representable_phases_are_recovered(self, phase):
        result = estimate_phase(_phase_unitary(phase), counting_qubits=4, shots=128, seed=3)
        assert result.estimated_phase == pytest.approx(phase)
        assert result.probability > 0.9

    def test_non_representable_phase_close(self):
        result = estimate_phase(_phase_unitary(0.3), counting_qubits=5, shots=256, seed=4)
        assert abs(result.estimated_phase - 0.3) <= 2 * result.resolution()

    def test_circuit_layout(self):
        circuit = phase_estimation_circuit(_phase_unitary(0.25), counting_qubits=3)
        assert circuit.num_qubits == 4
        assert len(circuit.measurements()) == 3

    def test_counting_register_size_validation(self):
        with pytest.raises(ValueError):
            phase_estimation_circuit(_phase_unitary(0.1), counting_qubits=0)

    def test_rz_eigenphase(self):
        # Rz(theta) has |1> eigenvalue e^{i theta / 2}: phase = theta / (4 pi).
        theta = math.pi
        result = estimate_phase(rz_gate(theta).matrix, counting_qubits=4, shots=128, seed=5)
        assert result.estimated_phase == pytest.approx(theta / (4 * math.pi), abs=1 / 16)


class TestQuantumCounting:
    def test_validation(self):
        with pytest.raises(ValueError):
            quantum_counting(16, 0)
        with pytest.raises(ValueError):
            quantum_counting(16, 17)

    @pytest.mark.parametrize("marked", [1, 4, 16, 64])
    def test_estimates_close_to_true_count(self, marked):
        result = quantum_counting(256, marked, counting_qubits=10, seed=marked)
        assert isinstance(result, CountingResult)
        assert abs(result.estimated_solutions - marked) <= max(2.0, 0.3 * marked)

    def test_rounded_estimate_feeds_grover_iteration_count(self):
        """The counting result picks a near-optimal Grover iteration number."""
        database = 1024
        marked = 9
        result = quantum_counting(database, marked, counting_qubits=11, seed=2)
        estimated_iterations = optimal_grover_iterations(database, max(1, result.rounded()))
        true_iterations = optimal_grover_iterations(database, marked)
        assert abs(estimated_iterations - true_iterations) <= 3

    def test_phase_fields_consistent(self):
        result = quantum_counting(64, 8, counting_qubits=9, seed=3)
        assert 0.0 <= result.true_phase <= 0.5
        assert abs(result.estimated_phase - result.true_phase) < 0.05
