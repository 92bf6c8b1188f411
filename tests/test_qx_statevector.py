"""Unit tests for the state-vector engine."""


import numpy as np
import pytest

from repro.core.gates import build_gate
from helpers import ghz_state, uniform_superposition
from repro.qx.statevector import StateVector, zero_state


def test_initial_state_is_all_zeros():
    state = StateVector(3)
    assert state.probabilities()[0] == pytest.approx(1.0)
    assert state.norm() == pytest.approx(1.0)


def test_qubit_limit_enforced():
    with pytest.raises(ValueError):
        StateVector(27)
    with pytest.raises(ValueError):
        StateVector(0)


def test_set_basis_state():
    state = StateVector(2)
    state.set_basis_state(3)
    assert state.probabilities()[3] == pytest.approx(1.0)
    with pytest.raises(IndexError):
        state.set_basis_state(4)


def test_set_state_normalises():
    state = StateVector(1)
    state.set_state(np.array([3.0, 4.0]))
    assert state.norm() == pytest.approx(1.0)
    assert state.probabilities()[1] == pytest.approx(16.0 / 25.0)


def test_set_state_rejects_zero_vector():
    state = StateVector(1)
    with pytest.raises(ValueError):
        state.set_state(np.zeros(2))


def test_apply_hadamard_creates_superposition():
    state = StateVector(1)
    state.apply_gate(build_gate("h").matrix, (0,))
    np.testing.assert_allclose(state.probabilities(), [0.5, 0.5], atol=1e-12)


def test_apply_gate_validates_operands():
    state = StateVector(2)
    with pytest.raises(IndexError):
        state.apply_gate(build_gate("x").matrix, (5,))
    with pytest.raises(ValueError):
        state.apply_gate(build_gate("cnot").matrix, (0, 0))
    with pytest.raises(ValueError):
        state.apply_gate(build_gate("x").matrix, (0, 1))


def test_cnot_entangles():
    state = StateVector(2)
    state.apply_gate(build_gate("h").matrix, (0,))
    state.apply_gate(build_gate("cnot").matrix, (0, 1))
    probs = state.probabilities()
    np.testing.assert_allclose(probs[[0, 3]], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(probs[[1, 2]], [0.0, 0.0], atol=1e-12)


def test_gate_on_high_qubit_index():
    state = StateVector(4)
    state.apply_gate(build_gate("x").matrix, (3,))
    assert state.probabilities()[0b1000] == pytest.approx(1.0)


def test_norm_preserved_by_random_gates():
    rng = np.random.default_rng(0)
    state = StateVector(4, rng=rng)
    for name in ("h", "t", "s", "x", "y", "z"):
        qubit = int(rng.integers(4))
        state.apply_gate(build_gate(name).matrix, (qubit,))
    state.apply_gate(build_gate("cnot").matrix, (0, 3))
    assert state.norm() == pytest.approx(1.0)


def test_apply_pauli_by_name():
    state = StateVector(1)
    state.apply_pauli("x", 0)
    assert state.probabilities()[1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        state.apply_pauli("q", 0)


def test_measurement_collapses_state():
    rng = np.random.default_rng(5)
    state = StateVector(1, rng=rng)
    state.apply_gate(build_gate("h").matrix, (0,))
    outcome = state.measure(0)
    assert outcome in (0, 1)
    assert state.probability_of_one(0) == pytest.approx(float(outcome))


def test_measure_statistics_of_plus_state():
    rng = np.random.default_rng(7)
    ones = 0
    for _ in range(400):
        state = StateVector(1, rng=rng)
        state.apply_gate(build_gate("h").matrix, (0,))
        ones += state.measure(0)
    assert 140 < ones < 260


def test_collapse_to_zero_probability_raises():
    state = StateVector(1)
    with pytest.raises(ValueError):
        state.collapse(0, 1)


def test_sample_counts_does_not_collapse():
    rng = np.random.default_rng(11)
    state = StateVector(2, rng=rng)
    state.apply_gate(build_gate("h").matrix, (0,))
    counts = state.sample_counts(100)
    assert set(counts) <= {"00", "01"}
    # State unchanged after sampling.
    assert state.probability_of_one(0) == pytest.approx(0.5)


def test_expectation_z_values():
    state = StateVector(1)
    assert state.expectation_z(0) == pytest.approx(1.0)
    state.apply_pauli("x", 0)
    assert state.expectation_z(0) == pytest.approx(-1.0)


def test_expectation_z_of_bell_state():
    state = StateVector(2)
    state.set_state(ghz_state(2))
    assert state.expectation_z(0) == pytest.approx(0.0)


def test_fidelity_between_states():
    state = StateVector(2)
    assert state.fidelity(zero_state(2)) == pytest.approx(1.0)
    assert state.fidelity(ghz_state(2)) == pytest.approx(0.5)


def test_entropy_of_uniform_superposition():
    state = StateVector(3)
    state.set_state(uniform_superposition(3))
    assert state.entropy() == pytest.approx(3.0)
    fresh = StateVector(3)
    assert fresh.entropy() == pytest.approx(0.0)


def test_copy_independent():
    state = StateVector(1)
    clone = state.copy()
    clone.apply_pauli("x", 0)
    assert state.probabilities()[0] == pytest.approx(1.0)
    assert clone.probabilities()[1] == pytest.approx(1.0)


def test_reset_restores_ground_state():
    state = StateVector(2)
    state.apply_pauli("x", 1)
    state.reset()
    assert state.probabilities()[0] == pytest.approx(1.0)
