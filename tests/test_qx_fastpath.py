"""Property and regression tests for the QX fast path.

The in-place kernels (:mod:`repro.qx.kernels`) and the fused kernel
programs (:mod:`repro.qx.compiled`) must be indistinguishable — up to a
global phase and floating-point reassociation — from the generic reference
pipeline (``kernels.apply_gate_generic``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import assert_equivalent_up_to_phase
from repro.core.circuit import Circuit, ghz_circuit, qft_circuit, random_circuit
from repro.core.gates import build_gate, standard_gate_set
from repro.qx import kernels
from repro.qx.compiled import GATE, lower, program_for
from repro.qx.simulator import QXSimulator
from repro.qx.statevector import StateVector, zero_state

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    gaussian = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gaussian)
    diagonal = np.diag(r)
    return q * (diagonal / np.abs(diagonal))


def _random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    amplitudes = rng.normal(size=2 ** num_qubits) + 1j * rng.normal(size=2 ** num_qubits)
    return amplitudes / np.linalg.norm(amplitudes)


# Works on state vectors as well as matrices (unravel_index on a 1-D shape).
_assert_states_equal_up_to_phase = assert_equivalent_up_to_phase


# ---------------------------------------------------------------------- #
# Kernels vs the generic reference pipeline
# ---------------------------------------------------------------------- #
@SETTINGS
@given(seed=st.integers(0, 10_000), num_qubits=st.integers(1, 6))
def test_random_1q_unitary_matches_generic(seed, num_qubits):
    rng = np.random.default_rng(seed)
    matrix = _random_unitary(2, rng)
    qubit = int(rng.integers(num_qubits))
    initial = _random_state(num_qubits, rng)

    fast = StateVector(num_qubits)
    fast.set_state(initial)
    fast.apply_gate(matrix, (qubit,))
    reference = kernels.apply_gate_generic(initial, matrix, (qubit,))
    np.testing.assert_allclose(fast.amplitudes, reference, atol=1e-10)


@SETTINGS
@given(seed=st.integers(0, 10_000), num_qubits=st.integers(2, 6))
def test_random_2q_unitary_matches_generic(seed, num_qubits):
    rng = np.random.default_rng(seed)
    matrix = _random_unitary(4, rng)
    qubit_a, qubit_b = rng.choice(num_qubits, size=2, replace=False)
    initial = _random_state(num_qubits, rng)

    fast = StateVector(num_qubits)
    fast.set_state(initial)
    fast.apply_gate(matrix, (int(qubit_a), int(qubit_b)))
    reference = kernels.apply_gate_generic(initial, matrix, (int(qubit_a), int(qubit_b)))
    np.testing.assert_allclose(fast.amplitudes, reference, atol=1e-10)


@pytest.mark.parametrize("name", sorted(gate.name for gate in standard_gate_set()))
def test_every_library_gate_matches_generic(name):
    gate = build_gate(name)
    num_qubits = max(3, gate.num_qubits)
    rng = np.random.default_rng(sum(map(ord, name)))
    initial = _random_state(num_qubits, rng)
    qubits = tuple(int(q) for q in rng.choice(num_qubits, size=gate.num_qubits, replace=False))

    fast = StateVector(num_qubits)
    fast.set_state(initial)
    fast.apply_gate(gate.matrix, qubits)
    reference = kernels.apply_gate_generic(initial, gate.matrix, qubits)
    np.testing.assert_allclose(fast.amplitudes, reference, atol=1e-10)


@SETTINGS
@given(seed=st.integers(0, 10_000), num_qubits=st.integers(1, 6), depth=st.integers(1, 10))
def test_fused_program_matches_generic_on_random_circuits(seed, num_qubits, depth):
    circuit = random_circuit(num_qubits, depth, seed=seed)
    fast = QXSimulator(seed=0).statevector(circuit)
    reference = zero_state(num_qubits)
    for op in circuit.gate_operations():
        reference = kernels.apply_gate_generic(reference, op.gate.matrix, op.qubits)
    _assert_states_equal_up_to_phase(fast, reference)


def test_fused_program_matches_generic_on_qft():
    circuit = qft_circuit(6)
    fast = QXSimulator(seed=0).statevector(circuit)
    reference = zero_state(6)
    for op in circuit.gate_operations():
        reference = kernels.apply_gate_generic(reference, op.gate.matrix, op.qubits)
    _assert_states_equal_up_to_phase(fast, reference)


# ---------------------------------------------------------------------- #
# Fusion structure
# ---------------------------------------------------------------------- #
def test_fusion_collapses_single_qubit_runs():
    circuit = Circuit(2)
    circuit.h(0).t(0).s(0).rz(0, 0.3).h(1)
    circuit.cnot(0, 1)
    circuit.x(0).y(0)
    program = lower(circuit, fuse=True)
    gate_ops = [op for op in program.ops if op.kind == GATE]
    # h·t·s·rz fuse to one op, h(1) is one, cnot one, x·y fuse to one.
    assert len(gate_ops) == 4


def test_fusion_drops_exact_identity_runs():
    circuit = Circuit(1)
    circuit.i(0).i(0)
    program = lower(circuit, fuse=True)
    assert not program.ops


def test_unfused_program_keeps_every_gate():
    circuit = Circuit(2)
    circuit.h(0).t(0).i(0).cnot(0, 1)
    program = lower(circuit, fuse=False)
    assert len(program.ops) == 4


def test_program_cache_recompiles_after_append():
    circuit = Circuit(2)
    circuit.h(0)
    first = program_for(circuit, fuse=True)
    assert program_for(circuit, fuse=True) is first
    circuit.cnot(0, 1)
    second = program_for(circuit, fuse=True)
    assert second is not first
    assert len(second.ops) == 2


# ---------------------------------------------------------------------- #
# Measurement and sampling regressions
# ---------------------------------------------------------------------- #
def test_measure_all_collapses_and_is_consistent():
    state = StateVector(4, rng=np.random.default_rng(21))
    state.set_state(_random_state(4, np.random.default_rng(3)))
    bits = state.measure_all()
    outcome = sum(bit << q for q, bit in enumerate(bits))
    assert state.probabilities()[outcome] == pytest.approx(1.0)


def test_measure_all_respects_ghz_correlations():
    for seed in range(20):
        state = StateVector(5, rng=np.random.default_rng(seed))
        for op in ghz_circuit(5).gate_operations():
            state.apply_gate(op.gate.matrix, op.qubits)
        bits = state.measure_all()
        assert len(set(bits)) == 1


def test_measure_all_is_deterministic_under_fixed_seed():
    def run():
        state = StateVector(3, rng=np.random.default_rng(77))
        state.apply_gate(build_gate("h").matrix, (0,))
        state.apply_gate(build_gate("h").matrix, (2,))
        return state.measure_all()

    assert run() == run()


def test_measure_all_distribution_of_plus_state():
    rng = np.random.default_rng(13)
    ones = 0
    for _ in range(400):
        state = StateVector(1, rng=rng)
        state.apply_gate(build_gate("h").matrix, (0,))
        ones += state.measure_all()[0]
    assert 140 < ones < 260


def test_sample_counts_is_deterministic_under_fixed_seed():
    def run():
        state = StateVector(3, rng=np.random.default_rng(99))
        for op in ghz_circuit(3).gate_operations():
            state.apply_gate(op.gate.matrix, op.qubits)
        return state.sample_counts(500)

    first, second = run(), run()
    assert first == second
    assert set(first) <= {"000", "111"}
    assert sum(first.values()) == 500


def test_sample_counts_subset_and_duplicate_targets():
    state = StateVector(3, rng=np.random.default_rng(5))
    state.apply_gate(build_gate("x").matrix, (1,))
    assert state.sample_counts(10, qubits=(1,)) == {"1": 10}
    assert state.sample_counts(10, qubits=(0, 1)) == {"10": 10}
    assert state.sample_counts(10, qubits=(1, 1)) == {"11": 10}
    assert state.sample_counts(10, qubits=()) == {"": 10}


def test_run_counts_match_across_sampled_and_trajectory_paths():
    """Same seed, same circuit: both execution paths must agree in distribution."""
    circuit = ghz_circuit(4)
    circuit.measure_all()
    sampled = QXSimulator(seed=17).run(circuit, shots=2000).counts
    # Forcing trajectories by adding a no-op conditional keeps the physics.
    forced = Circuit(4)
    forced.h(0)
    for qubit in range(1, 4):
        forced.cnot(0, qubit)
    forced.measure_all()
    forced.conditional_gate("i", 0, 0)
    trajectories = QXSimulator(seed=17).run(forced, shots=2000).counts
    assert set(sampled) == set(trajectories) == {"0000", "1111"}
    for key in sampled:
        assert abs(sampled[key] - trajectories[key]) < 200


def test_trajectory_classical_bits_are_python_ints():
    circuit = Circuit(2)
    circuit.h(0)
    circuit.measure(0)
    circuit.conditional_gate("x", 0, 1)
    circuit.measure(1)
    result = QXSimulator(seed=3).run(circuit, shots=20)
    assert len(result.classical_bits) == 20
    for bits in result.classical_bits:
        assert all(isinstance(bit, int) for bit in bits)
        assert bits[0] == bits[1]


def test_counts_to_bits_matches_reference_expansion():
    from repro.qx.keying import counts_to_bits

    def reference(counts, qubits, shots):
        # sample_counts() writes character j of the key for reversed(qubits)[j]
        # (qubit 0 rightmost), so expansion reads the key in the same order.
        # The seed implementation paired reversed qubits with reversed
        # characters — a double reversal that swapped bits for asymmetric
        # keys; this is the corrected semantics.
        all_bits = []
        size = max(qubits) + 1 if qubits else 0
        for bitstring, count in counts.items():
            bits = [0] * size
            for position, qubit in enumerate(reversed(qubits)):
                bits[qubit] = int(bitstring[position])
            all_bits.extend([list(bits)] * count)
        return all_bits[:shots]

    cases = [
        ({"01": 3, "10": 2}, (0, 1), 5),
        ({"110": 4, "001": 1}, (0, 2, 3), 5),
        ({"1": 7}, (2,), 7),
        ({"11": 2}, (1, 1), 2),
        ({"01": 3, "10": 2}, (0, 1), 4),
    ]
    for counts, qubits, shots in cases:
        assert counts_to_bits(counts, qubits, shots) == reference(counts, qubits, shots)


def test_out_of_order_measurements_agree_across_paths():
    """Sampled and trajectory histograms must use the same key convention
    (qubit 0 rightmost) even when measurements are not in qubit order."""
    from repro.qx.error_models import DepolarizingError

    def build():
        circuit = Circuit(2)
        circuit.x(0)
        circuit.measure(1)
        circuit.measure(0)
        return circuit

    sampled = QXSimulator(seed=1).run(build(), shots=5).counts
    trajectory = QXSimulator(seed=1, error_model=DepolarizingError(0.0)).run(
        build(), shots=5
    ).counts
    assert sampled == trajectory == {"01": 5}


def test_cross_mapped_measurement_bits_agree_across_paths():
    """Measurements with bit != qubit (what mapping/remap produces) must give
    identical bit-keyed histograms and classical bits on both paths."""
    from repro.qx.error_models import DepolarizingError

    def build():
        circuit = Circuit(2)
        circuit.x(1)
        circuit.measure(0, bit=1)
        circuit.measure(1, bit=0)
        return circuit

    sampled = QXSimulator(seed=2).run(build(), shots=6)
    trajectory = QXSimulator(seed=2, error_model=DepolarizingError(0.0)).run(build(), shots=6)
    assert sampled.counts == trajectory.counts == {"01": 6}
    assert sampled.classical_bits == trajectory.classical_bits == [[1, 0]] * 6


def test_wide_histogram_keys_beyond_64_bits():
    """Trajectory histograms must not pack keys into 64-bit integers."""
    circuit = Circuit(2, num_bits=70)
    circuit.h(0)
    for bit in range(66):
        circuit.measure(0, bit=bit)
    circuit.conditional_gate("i", 0, 1)  # force the trajectory path
    result = QXSimulator(seed=12).run(circuit, shots=30)
    assert sum(result.counts.values()) == 30
    assert set(result.counts) <= {"0" * 66, "1" * 66}
    assert len(result.counts) == 2  # both outcomes appear over 30 shots


def test_sampled_classical_bits_consistent_with_counts():
    """Asymmetric regression for the seed's double-reversal expansion bug."""
    circuit = Circuit(2)
    circuit.x(0)
    circuit.measure_all()
    result = QXSimulator(seed=0).run(circuit, shots=10)
    assert result.counts == {"01": 10}
    assert result.classical_bits == [[1, 0]] * 10
    assert result.expectation_z(0) == pytest.approx(-1.0)
    assert result.expectation_z(1) == pytest.approx(1.0)


# ---------------------------------------------------------------------- #
# In-place statistics helpers
# ---------------------------------------------------------------------- #
@SETTINGS
@given(seed=st.integers(0, 10_000), num_qubits=st.integers(1, 6))
def test_probability_of_one_matches_definition(seed, num_qubits):
    rng = np.random.default_rng(seed)
    state = StateVector(num_qubits)
    state.set_state(_random_state(num_qubits, rng))
    probs = state.probabilities()
    indices = np.arange(probs.size)
    for qubit in range(num_qubits):
        expected = float(np.sum(probs[(indices >> qubit) & 1 == 1]))
        assert state.probability_of_one(qubit) == pytest.approx(expected, abs=1e-12)


def test_collapse_in_place_matches_projection():
    rng = np.random.default_rng(31)
    state = StateVector(4)
    state.set_state(_random_state(4, rng))
    expected = state.amplitudes.copy()
    qubit, outcome = 2, 1
    keep = (np.arange(expected.size) >> qubit) & 1 == outcome
    expected = np.where(keep, expected, 0.0)
    expected /= np.linalg.norm(expected)
    state.collapse(qubit, outcome)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)
    with pytest.raises(ValueError):
        state.collapse(qubit, 1 - outcome)
