"""Unit tests for error models and the density-matrix cross-check engine."""

import numpy as np
import pytest
from oracles import density_reference as oracle

from repro.core.circuit import Circuit, bell_pair_circuit
from repro.core.qubits import PERFECT, REAL_TRANSMON, REALISTIC
from repro.qx.channels import compile_circuit
from repro.qx.density import DensityMatrixSimulator
from repro.qx.error_models import (
    CompositeError,
    DecoherenceError,
    DepolarizingError,
    MeasurementError,
    NoError,
    error_model_for,
)
from repro.qx.simulator import QXSimulator
from repro.qx.statevector import StateVector


class TestErrorModels:
    def test_no_error_injects_nothing(self):
        state = StateVector(2)
        rng = np.random.default_rng(0)
        assert NoError().apply_after_gate(state, (0, 1), 100.0, rng) == 0
        assert NoError().flip_measurement(1, rng) == 1

    def test_depolarizing_rate_validation(self):
        with pytest.raises(ValueError):
            DepolarizingError(1.5)

    def test_depolarizing_injection_rate(self):
        rng = np.random.default_rng(1)
        model = DepolarizingError(0.5)
        state = StateVector(1, rng=rng)
        injected = sum(model.apply_after_gate(state, (0,), 20.0, rng) for _ in range(1000))
        assert 400 < injected < 600

    def test_depolarizing_two_qubit_rate_used(self):
        rng = np.random.default_rng(2)
        model = DepolarizingError(0.0, two_qubit_error_rate=1.0)
        state = StateVector(2, rng=rng)
        assert model.apply_after_gate(state, (0, 1), 20.0, rng) == 2
        assert model.apply_after_gate(state, (0,), 20.0, rng) == 0

    def test_measurement_error_flip_probability_one(self):
        rng = np.random.default_rng(3)
        model = MeasurementError(1.0)
        assert model.flip_measurement(0, rng) == 1
        assert model.flip_measurement(1, rng) == 0

    def test_measurement_error_validation(self):
        with pytest.raises(ValueError):
            MeasurementError(-0.1)

    def test_decoherence_short_times_inject_often(self):
        rng = np.random.default_rng(4)
        model = DecoherenceError(t1_ns=10.0, t2_ns=10.0)
        state = StateVector(1, rng=rng)
        state.apply_pauli("x", 0)
        injected = model.apply_after_gate(state, (0,), 1000.0, rng)
        assert injected >= 1
        # After amplitude damping the excited state must have relaxed.
        assert state.probability_of_one(0) == pytest.approx(0.0)

    def test_decoherence_infinite_times_inject_nothing(self):
        rng = np.random.default_rng(5)
        model = DecoherenceError(t1_ns=float("inf"), t2_ns=float("inf"))
        state = StateVector(1, rng=rng)
        assert model.apply_after_gate(state, (0,), 1e6, rng) == 0

    def test_composite_combines_models(self):
        composite = CompositeError(DepolarizingError(1.0), MeasurementError(1.0))
        rng = np.random.default_rng(6)
        state = StateVector(1, rng=rng)
        assert composite.apply_after_gate(state, (0,), 20.0, rng) == 1
        assert composite.flip_measurement(0, rng) == 1
        assert "depolarizing" in composite.describe()

    def test_error_model_for_perfect_is_none(self):
        assert isinstance(error_model_for(PERFECT), NoError)

    def test_error_model_for_realistic_is_composite(self):
        model = error_model_for(REALISTIC)
        assert not isinstance(model, NoError)
        assert "depolarizing" in model.describe()

    def test_error_model_for_real_transmon_includes_measurement(self):
        model = error_model_for(REAL_TRANSMON)
        rng = np.random.default_rng(7)
        flips = sum(model.flip_measurement(0, rng) for _ in range(2000))
        expected = REAL_TRANSMON.measurement_error_rate * 2000
        assert 0.2 * expected < flips < 3.0 * expected


class TestDensityMatrix:
    def test_qubit_limit(self):
        from repro.qx.density import DENSITY_MAX_QUBITS

        with pytest.raises(ValueError):
            DensityMatrixSimulator(DENSITY_MAX_QUBITS + 1)

    def test_pure_state_purity_one(self):
        dm = DensityMatrixSimulator(2)
        dm.run_channels(compile_circuit(bell_pair_circuit(), None))
        assert dm.purity() == pytest.approx(1.0)
        assert dm.trace() == pytest.approx(1.0)

    def test_depolarizing_reduces_purity(self):
        dm = DensityMatrixSimulator(2)
        dm.run_channels(compile_circuit(bell_pair_circuit(), DepolarizingError(0.1)))
        assert dm.purity() < 1.0
        assert dm.trace() == pytest.approx(1.0)

    def test_probabilities_match_statevector_for_no_noise(self):
        circuit = Circuit(3)
        circuit.h(0).cnot(0, 1).t(1).cnot(1, 2)
        dm = DensityMatrixSimulator(3)
        dm.run_channels(compile_circuit(circuit, None))
        statevector = QXSimulator(seed=0).statevector(circuit)
        np.testing.assert_allclose(dm.probabilities(), np.abs(statevector) ** 2, atol=1e-10)

    def test_trajectory_average_matches_exact_channel(self):
        """Many state-vector trajectories must converge to the density matrix."""
        rate = 0.15
        circuit = Circuit(2)
        circuit.h(0).cnot(0, 1)
        dm = DensityMatrixSimulator(2)
        dm.run_channels(compile_circuit(circuit, DepolarizingError(rate)))
        exact = dm.expectation_z(0)

        simulator = QXSimulator(error_model=DepolarizingError(rate), seed=13)
        total = 0.0
        shots = 600
        for _ in range(shots):
            state = StateVector(2, rng=simulator.rng)
            for op in circuit.gate_operations():
                state.apply_gate(op.gate.matrix, op.qubits)
                simulator.error_model.apply_after_gate(state, op.qubits, 20.0, simulator.rng)
            total += state.expectation_z(0)
        trajectory_average = total / shots
        assert abs(trajectory_average - exact) < 0.1

    def test_fidelity_with_pure_state(self):
        dm = DensityMatrixSimulator(2)
        dm.run_channels(compile_circuit(bell_pair_circuit(), None))
        bell = QXSimulator(seed=0).statevector(bell_pair_circuit())
        assert np.real(bell.conj() @ dm.rho @ bell) == pytest.approx(1.0)


class TestTensorContraction:
    """apply_unitary/apply_depolarizing by tensor contraction must equal the
    full 2^n x 2^n matrix conjugation they replaced."""

    @staticmethod
    def _random_unitary(rng, k):
        raw = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        q, _ = np.linalg.qr(raw)
        return q

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_apply_unitary_matches_expand_gate(self, num_qubits):
        from repro.core.circuit import _expand_gate

        rng = np.random.default_rng(num_qubits)
        sim = DensityMatrixSimulator(num_qubits)
        reference = sim.rho.copy()
        for _ in range(8):
            k = int(rng.integers(1, 3))
            qubits = tuple(int(q) for q in rng.choice(num_qubits, size=k, replace=False))
            unitary = self._random_unitary(rng, k)
            oracle.apply_unitary(sim, unitary, qubits)
            full = _expand_gate(unitary, qubits, num_qubits)
            reference = full @ reference @ full.conj().T
            assert np.allclose(sim.rho, reference, atol=1e-12)

    def test_depolarizing_matches_kraus_reference(self):
        from repro.core.circuit import _expand_gate

        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        rng = np.random.default_rng(9)
        sim = DensityMatrixSimulator(3)
        oracle.apply_unitary(sim, self._random_unitary(rng, 2), (0, 2))
        for qubit, probability in ((0, 0.12), (1, 0.4), (2, 0.05)):
            reference = (1.0 - probability) * sim.rho
            for pauli in paulis:
                full = _expand_gate(pauli, (qubit,), 3)
                reference = reference + (probability / 3.0) * (full @ sim.rho @ full.conj().T)
            oracle.apply_depolarizing(sim, qubit, probability)
            assert np.allclose(sim.rho, reference, atol=1e-12)

    def test_trace_preserved_and_purity_decays_under_noise(self):
        """Regression: a noisy random circuit keeps trace 1 exactly while
        purity falls monotonically from 1 toward the mixed-state floor."""
        circuit = Circuit(4)
        circuit.h(0).cnot(0, 1).ry(2, 0.7).cnot(1, 2).rz(3, 1.1).cnot(2, 3).h(3)
        rate = 0.05
        sim = DensityMatrixSimulator(4)
        purities = [sim.purity()]
        for op in circuit.operations:
            oracle.apply_unitary(sim, op.gate.matrix, op.qubits)
            for qubit in op.qubits:
                oracle.apply_depolarizing(sim, qubit, rate)
            assert sim.trace() == pytest.approx(1.0, abs=1e-12)
            purities.append(sim.purity())
        assert purities[0] == pytest.approx(1.0, abs=1e-12)
        assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:], strict=False))
        assert purities[-1] < 0.8
        assert sim.purity() >= 1.0 / 2**4 - 1e-12

    def test_depolarizing_handles_non_contiguous_rho(self):
        """In-place block updates must survive a user-assigned transposed
        (non-C-contiguous) rho instead of silently writing to a copy."""
        sim = DensityMatrixSimulator(2)
        oracle.apply_unitary(sim, np.array([[0, 1], [1, 0]], dtype=complex), (0,))
        sim.rho = sim.rho.T  # non-contiguous view, still a valid state
        before = sim.rho.copy()
        oracle.apply_depolarizing(sim, 0, 0.3)
        assert not np.allclose(sim.rho, before)
        assert sim.trace() == pytest.approx(1.0, abs=1e-12)

    def test_contraction_keeps_hermiticity(self):
        sim = DensityMatrixSimulator(3)
        circuit = Circuit(3)
        circuit.h(0).cnot(0, 1).cnot(1, 2).s(2).h(1)
        sim.run_channels(compile_circuit(circuit, DepolarizingError(0.1)))
        assert np.allclose(sim.rho, sim.rho.conj().T, atol=1e-12)
        probabilities = sim.probabilities()
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-12)
