"""Unit tests for the matrix-product-state engine."""

import numpy as np
import pytest

from repro.core.circuit import Circuit, ghz_circuit, qft_circuit, random_circuit
from repro.qx.mps import MPSState
from repro.qx.simulator import QXSimulator


def _apply_circuit(state: MPSState, circuit: Circuit) -> MPSState:
    for op in circuit.gate_operations():
        state.apply_gate(np.asarray(op.gate.matrix, dtype=complex), op.qubits)
    return state


def _bond_dimensions(state: MPSState) -> list[int]:
    """Current bond dimension at each of the ``n - 1`` internal bonds."""
    return [tensor.shape[2] for tensor in state.tensors[:-1]]


def _schmidt_values(state: MPSState, bond: int) -> np.ndarray:
    """Schmidt coefficients across the cut between sites ``bond``/``bond+1``."""
    state._move_centre(bond)
    d_left, _, d_right = state.tensors[bond].shape
    return np.linalg.svd(state.tensors[bond].reshape(d_left * 2, d_right), compute_uv=False)


class TestExactEvolution:
    """With an unbounded bond the MPS engine is the dense engine, reshaped."""

    @pytest.mark.parametrize("num_qubits", [2, 3, 6])
    def test_ghz_matches_statevector(self, num_qubits):
        circuit = ghz_circuit(num_qubits)
        state = _apply_circuit(MPSState(num_qubits), circuit)
        reference = QXSimulator(seed=0).statevector(circuit)
        np.testing.assert_allclose(state.to_statevector(), reference, atol=1e-10)
        assert state.truncation_error == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_circuit_matches_statevector(self, seed):
        """Random circuits include non-adjacent 2q gates (swap-in/swap-out)."""
        circuit = random_circuit(5, 8, seed=seed, two_qubit_fraction=0.4)
        state = _apply_circuit(MPSState(5), circuit)
        reference = QXSimulator(seed=0).statevector(circuit)
        np.testing.assert_allclose(state.to_statevector(), reference, atol=1e-10)
        assert state.truncation_error == 0.0

    def test_qft_matches_statevector(self):
        circuit = qft_circuit(5)
        state = _apply_circuit(MPSState(5), circuit)
        reference = QXSimulator(seed=0).statevector(circuit)
        np.testing.assert_allclose(state.to_statevector(), reference, atol=1e-10)

    def test_operand_order_respected(self):
        """cnot(1, 0) is not cnot(0, 1): operand 0 is the matrix msb."""
        circuit = Circuit(2)
        circuit.x(1)
        circuit.cnot(1, 0)
        state = _apply_circuit(MPSState(2), circuit)
        reference = QXSimulator(seed=0).statevector(circuit)
        np.testing.assert_allclose(state.to_statevector(), reference, atol=1e-12)

    def test_ghz_bond_dimension_stays_two(self):
        state = _apply_circuit(MPSState(24), ghz_circuit(24))
        assert max(_bond_dimensions(state)) == 2
        assert state.max_bond_reached == 2

    def test_schmidt_values_ghz(self):
        state = _apply_circuit(MPSState(8), ghz_circuit(8))
        for bond in range(7):
            values = _schmidt_values(state, bond)
            np.testing.assert_allclose(
                np.sort(values[values > 1e-12]), [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-10
            )

    def test_norm_preserved(self):
        state = _apply_circuit(MPSState(6), random_circuit(6, 6, seed=9))
        assert state.norm() == pytest.approx(1.0, abs=1e-10)


class TestTruncation:
    def test_max_bond_caps_dimensions(self):
        circuit = random_circuit(8, 10, seed=4, two_qubit_fraction=0.5)
        state = MPSState(8, max_bond=3)
        _apply_circuit(state, circuit)
        assert max(_bond_dimensions(state)) <= 3

    def test_truncation_error_grows_as_bond_shrinks(self):
        circuit = random_circuit(8, 10, seed=4, two_qubit_fraction=0.5)
        errors = []
        for max_bond in (1, 2, 4, None):
            state = MPSState(8, max_bond=max_bond)
            _apply_circuit(state, circuit)
            errors.append(state.truncation_error)
        assert errors[-1] == 0.0  # unbounded bond is exact
        assert errors[0] >= errors[1] >= errors[2] >= errors[3]
        assert errors[0] > 0.0

    def test_truncated_state_stays_normalised(self):
        state = MPSState(8, max_bond=2)
        _apply_circuit(state, random_circuit(8, 10, seed=4, two_qubit_fraction=0.5))
        assert state.norm() == pytest.approx(1.0, abs=1e-10)

    def test_ghz_exact_at_max_bond_two(self):
        """GHZ is Schmidt-rank 2 across every cut: max_bond=2 is lossless."""
        state = MPSState(48, max_bond=2)
        _apply_circuit(state, ghz_circuit(48))
        assert state.truncation_error == 0.0

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            MPSState(2, max_bond=0)
        with pytest.raises(ValueError):
            MPSState(2, truncation_threshold=-1.0)
        with pytest.raises(ValueError):
            MPSState(0)


class TestMeasurement:
    def test_measure_collapses(self):
        state = _apply_circuit(MPSState(4, rng=np.random.default_rng(3)), ghz_circuit(4))
        outcome = state.measure(0)
        # GHZ correlations: every other qubit collapsed to the same value.
        for qubit in range(1, 4):
            assert state.probability_of_one(qubit) == pytest.approx(float(outcome), abs=1e-10)

    def test_collapse_zero_probability_rejected(self):
        state = MPSState(2)
        with pytest.raises(ValueError):
            state.collapse(0, 1)

    def test_expectation_z(self):
        state = MPSState(3)
        state.apply_pauli("x", 1)
        assert state.expectation_z(0) == pytest.approx(1.0)
        assert state.expectation_z(1) == pytest.approx(-1.0)

    def test_measurement_distribution(self):
        ones = 0
        rng = np.random.default_rng(11)
        for _ in range(300):
            state = MPSState(1, rng=rng)
            state.apply_gate(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), (0,))
            ones += state.measure(0)
        assert 100 < ones < 200

    def test_large_gate_rejected(self):
        state = MPSState(4)
        with pytest.raises(ValueError):
            state.apply_gate(np.eye(8, dtype=complex), (0, 1, 2))


class TestSampling:
    def test_sample_counts_matches_statevector_distribution(self):
        circuit = random_circuit(5, 6, seed=7)
        state = _apply_circuit(MPSState(5, rng=np.random.default_rng(0)), circuit)
        probabilities = np.abs(QXSimulator(seed=0).statevector(circuit)) ** 2
        counts = state.sample_counts(4000)
        for index, probability in enumerate(probabilities):
            key = format(index, "05b")
            assert abs(counts.get(key, 0) / 4000 - probability) < 0.05

    def test_sample_does_not_collapse(self):
        state = _apply_circuit(MPSState(3, rng=np.random.default_rng(1)), ghz_circuit(3))
        state.sample_counts(50)
        assert state.probability_of_one(0) == pytest.approx(0.5, abs=1e-10)

    def test_sample_subset_and_order(self):
        state = MPSState(3, rng=np.random.default_rng(2))
        state.apply_pauli("x", 2)
        # qubits=(2, 0): last listed target is the leftmost character.
        assert state.sample_counts(10, qubits=(2, 0)) == {"01": 10}

    def test_ghz_sampling_perfectly_correlated_at_scale(self):
        state = _apply_circuit(MPSState(60, rng=np.random.default_rng(5)), ghz_circuit(60))
        counts = state.sample_counts(500)
        assert set(counts) <= {"0" * 60, "1" * 60}
        assert sum(counts.values()) == 500


class TestMPSBackend:
    """Circuits reach the MPS engine through ``QXSimulator(backend="mps")``."""

    def test_terminal_measurement_counts(self):
        circuit = ghz_circuit(4)
        circuit.measure_all()
        counts = QXSimulator(seed=1, backend="mps").run(circuit, shots=300).counts
        assert set(counts) <= {"0000", "1111"}
        assert sum(counts.values()) == 300

    def test_feedback_falls_back_to_trajectories(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.measure(0)
        circuit.conditional_gate("x", 0, 1)
        circuit.measure(1)
        counts = QXSimulator(seed=2, backend="mps").run(circuit, shots=100).counts
        assert set(counts) <= {"00", "11"}

    def test_cross_mapped_bits(self):
        circuit = Circuit(3)
        circuit.x(0)
        circuit.measure(0, bit=2)
        circuit.measure(1, bit=0)
        assert QXSimulator(seed=3, backend="mps").run(circuit, shots=5).counts == {"10": 5}

    def test_truncation_report(self):
        circuit = random_circuit(8, 10, seed=4, two_qubit_fraction=0.5)
        circuit.measure_all()
        result = QXSimulator(seed=0, backend="mps", max_bond=2).run(circuit, shots=10)
        assert result.truncation_error > 0.0
        assert result.backend == "mps"

    def test_peak_bond_reaches_the_cap(self):
        circuit = random_circuit(8, 10, seed=4, two_qubit_fraction=0.5)
        state = _apply_circuit(MPSState(8, max_bond=2), circuit)
        assert state.max_bond_reached == 2
