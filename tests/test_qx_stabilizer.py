"""Unit tests for the stabilizer (Clifford) simulator."""

import numpy as np
import pytest

from oracles import stabilizer_reference as oracle
from repro.core.circuit import Circuit, bell_pair_circuit, ghz_circuit
from repro.qx.compiled import lower
from repro.qx.simulator import QXSimulator
from repro.qx.stabilizer import StabilizerSimulator, StabilizerState


def _basis_clifford_circuit(num_qubits, depth, rng):
    """Random Clifford circuit from basis-preserving gates (x, y, z, cnot,
    swap): every measurement outcome is deterministic, so both engines must
    produce the exact same histogram."""
    circuit = Circuit(num_qubits, "basis_clifford")
    gates = ["x", "y", "z", "i"]
    for _ in range(depth):
        for qubit in range(num_qubits):
            roll = rng.random()
            if num_qubits > 1 and roll < 0.3:
                other = int(rng.integers(num_qubits - 1))
                if other >= qubit:
                    other += 1
                if roll < 0.15:
                    circuit.cnot(qubit, other)
                else:
                    circuit.swap(qubit, other)
            else:
                circuit.add_gate(gates[int(rng.integers(len(gates)))], qubit)
    return circuit


def _clifford_random_circuit(num_qubits, depth, seed):
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits, f"clifford_{seed}")
    singles = ["h", "s", "x", "z", "sdag", "y"]
    for _ in range(depth):
        for qubit in range(num_qubits):
            if num_qubits > 1 and rng.random() < 0.3:
                other = int(rng.integers(num_qubits - 1))
                if other >= qubit:
                    other += 1
                circuit.cnot(qubit, other)
            else:
                circuit.add_gate(singles[int(rng.integers(len(singles)))], qubit)
    return circuit


class TestStabilizerState:
    def test_initial_stabilizers_are_z(self):
        state = StabilizerState(3)
        assert state.stabilizer_strings() == ["+ZII", "+IZI", "+IIZ"]

    def test_x_flips_measurement(self):
        state = StabilizerState(1)
        state.apply_x(0)
        assert state.measure(0) == 1

    def test_hadamard_gives_random_outcomes(self):
        rng = np.random.default_rng(3)
        outcomes = set()
        for _ in range(30):
            state = StabilizerState(1, rng=rng)
            state.apply_h(0)
            outcomes.add(state.measure(0))
        assert outcomes == {0, 1}

    def test_measurement_is_repeatable_after_collapse(self):
        rng = np.random.default_rng(4)
        state = StabilizerState(1, rng=rng)
        state.apply_h(0)
        first = state.measure(0)
        assert state.measure(0) == first

    def test_bell_state_stabilizers(self):
        state = StabilizerState(2)
        state.apply_h(0)
        state.apply_cnot(0, 1)
        strings = set(state.stabilizer_strings())
        assert strings == {"+XX", "+ZZ"}

    def test_bell_state_correlated_measurements(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = StabilizerState(2, rng=rng)
            state.apply_h(0)
            state.apply_cnot(0, 1)
            assert state.measure(0) == state.measure(1)

    def test_deterministic_expectation(self):
        state = StabilizerState(2)
        assert state.expectation_z_deterministic(0) == 1
        state.apply_x(0)
        assert state.expectation_z_deterministic(0) == -1
        state.apply_h(1)
        assert state.expectation_z_deterministic(1) is None

    def test_s_gate_phase_visible_via_hadamard_conjugation(self):
        # H S S H |0> = H Z H |0> = X |0> = |1>.
        state = StabilizerState(1)
        state.apply_h(0)
        state.apply_s(0)
        state.apply_s(0)
        state.apply_h(0)
        assert state.measure(0) == 1

    def test_sdag_inverts_s(self):
        state = StabilizerState(1)
        state.apply_h(0)
        state.apply_s(0)
        state.apply_sdag(0)
        state.apply_h(0)
        assert state.measure(0) == 0

    def test_swap_moves_excitation(self):
        state = StabilizerState(2)
        state.apply_x(0)
        state.apply_swap(0, 1)
        assert state.measure(0) == 0
        assert state.measure(1) == 1

    def test_unknown_gate_rejected(self):
        state = StabilizerState(1)
        with pytest.raises(ValueError):
            state.apply_gate("t", (0,))

    def test_copy_is_independent(self):
        state = StabilizerState(1)
        clone = state.copy()
        clone.apply_x(0)
        assert state.measure(0) == 0

    def test_copy_does_not_share_rng(self):
        """Probe measurements on a copy must not perturb the parent stream."""
        state = StabilizerState(2, rng=np.random.default_rng(7))
        state.apply_h(0)
        clone = state.copy()
        assert clone.rng is not state.rng
        for _ in range(5):
            clone.copy().measure(0)  # probes consume only derived streams
        # The parent's stream is exactly where a fresh seed-7 generator is.
        expected = np.random.default_rng(7).integers(1 << 30)
        assert int(state.rng.integers(1 << 30)) == int(expected)

    def test_expectation_z_deterministic_does_not_mutate(self):
        state = StabilizerState(2, rng=np.random.default_rng(3))
        state.apply_x(0)
        state.apply_h(1)
        x_before = state.x.copy()
        z_before = state.z.copy()
        r_before = state.r.copy()
        assert state.expectation_z_deterministic(0) == -1
        assert state.expectation_z_deterministic(1) is None
        assert np.array_equal(state.x, x_before)
        assert np.array_equal(state.z, z_before)
        assert np.array_equal(state.r, r_before)
        # No random draw happened either: the stream is still at seed start.
        expected = np.random.default_rng(3).integers(1 << 30)
        assert int(state.rng.integers(1 << 30)) == int(expected)

    def test_deterministic_sign_tracks_y_products(self):
        """Phase bookkeeping through Y: S X S^dag = Y, and H Y H = -Y."""
        state = StabilizerState(1)
        state.apply_h(0)
        state.apply_s(0)
        # |+i>: measuring Z is random.
        assert state.expectation_z_deterministic(0) is None
        state.apply_sdag(0)
        state.apply_h(0)
        assert state.expectation_z_deterministic(0) == 1

    def test_batched_measurement_collapse_matches_sequential_semantics(self):
        """A 30-qubit GHZ collapse exercises the broadcast anticommuting-row
        sweep: after the first (random) outcome all others are determined."""
        rng = np.random.default_rng(11)
        for _ in range(5):
            state = StabilizerState(30, rng=rng)
            state.apply_h(0)
            for qubit in range(29):
                state.apply_cnot(qubit, qubit + 1)
            first = state.measure(0)
            assert all(state.measure(q) == first for q in range(1, 30))


class TestStabilizerSimulator:
    def test_bell_counts(self):
        circuit = bell_pair_circuit()
        circuit.measure_all()
        counts = StabilizerSimulator(seed=1).run(circuit, shots=300)
        assert set(counts) <= {"00", "11"}
        assert 100 < counts.get("00", 0) < 200

    def test_large_ghz_counts(self):
        """Far beyond state-vector reach: a 60-qubit GHZ state."""
        circuit = ghz_circuit(60)
        circuit.measure_all()
        counts = StabilizerSimulator(seed=2).run(circuit, shots=20)
        assert set(counts) <= {"0" * 60, "1" * 60}

    def test_is_clifford_circuit_detection(self):
        clifford = bell_pair_circuit()
        assert StabilizerSimulator.is_clifford_circuit(clifford)
        non_clifford = Circuit(1)
        non_clifford.t(0)
        assert not StabilizerSimulator.is_clifford_circuit(non_clifford)

    def test_final_state_rejects_measurements(self):
        circuit = Circuit(1)
        circuit.measure(0)
        with pytest.raises(ValueError):
            StabilizerSimulator().final_state(circuit)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_agrees_with_statevector_on_deterministic_observables(self, seed):
        """Cross-validation: <Z_q> from the tableau matches the state vector."""
        circuit = _clifford_random_circuit(4, 6, seed)
        tableau = StabilizerSimulator(seed=0).final_state(circuit)
        statevector = QXSimulator(seed=0).statevector(circuit)
        probabilities = np.abs(statevector) ** 2
        for qubit in range(4):
            indices = np.arange(probabilities.size)
            expectation = float(np.sum((1 - 2 * ((indices >> qubit) & 1)) * probabilities))
            deterministic = tableau.expectation_z_deterministic(qubit)
            if deterministic is not None:
                assert expectation == pytest.approx(float(deterministic), abs=1e-9)
            else:
                assert abs(expectation) < 1e-9

    @pytest.mark.parametrize("seed", [7, 8])
    def test_measurement_distribution_matches_statevector(self, seed):
        circuit = _clifford_random_circuit(3, 5, seed)
        circuit.measure_all()
        stab_counts = StabilizerSimulator(seed=11).run(circuit, shots=600)
        sv_counts = QXSimulator(seed=11).run(circuit, shots=600).counts
        # Compare support and rough frequencies.
        assert set(stab_counts) == set(sv_counts)
        for key in stab_counts:
            assert abs(stab_counts[key] - sv_counts[key]) < 120


class TestCrossEngineKeying:
    """The stabilizer engine must key histograms exactly like QX: by
    classical bit, sorted, lowest bit rightmost, last write wins."""

    def test_bit_cross_map_keying(self):
        circuit = Circuit(3)
        circuit.x(0)
        circuit.measure(0, bit=2)
        circuit.measure(1, bit=0)
        stab = StabilizerSimulator(seed=1).run(circuit, shots=5)
        qx = QXSimulator(seed=1).run(circuit, shots=5).counts
        assert stab == qx == {"10": 5}

    def test_out_of_order_measurements(self):
        circuit = Circuit(3)
        circuit.x(2)
        circuit.measure(2)
        circuit.measure(0)
        stab = StabilizerSimulator(seed=2).run(circuit, shots=4)
        qx = QXSimulator(seed=2).run(circuit, shots=4).counts
        assert stab == qx == {"10": 4}

    def test_repeated_measurement_keeps_single_key_character(self):
        """The seed implementation duplicated repeated measurements in the
        key ("11" for one twice-measured qubit); both engines now emit one
        character per classical bit."""
        circuit = Circuit(2)
        circuit.x(0)
        circuit.measure(0)
        circuit.measure(0)
        stab = StabilizerSimulator(seed=3).run(circuit, shots=6)
        qx = QXSimulator(seed=3).run(circuit, shots=6).counts
        assert stab == qx == {"1": 6}

    def test_repeated_measurement_after_collapse_is_stable(self):
        """Measuring a superposed qubit twice: the second outcome equals the
        first in both engines, so only the collapsed keys appear."""
        circuit = Circuit(1)
        circuit.h(0)
        circuit.measure(0)
        circuit.measure(0)
        stab = StabilizerSimulator(seed=5).run(circuit, shots=200)
        qx = QXSimulator(seed=6).run(circuit, shots=200).counts
        assert set(stab) <= {"0", "1"}
        assert set(qx) <= {"0", "1"}
        assert sum(stab.values()) == 200

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_clifford_with_remapped_bits_agree_exactly(self, seed):
        """Deterministic-outcome Clifford circuits with shuffled/overlapping
        bit maps and repeated measurements: histograms must be identical."""
        rng = np.random.default_rng(seed)
        num_qubits = 4
        circuit = _basis_clifford_circuit(num_qubits, 4, rng)
        bit_map = rng.permutation(num_qubits)
        order = rng.permutation(num_qubits)
        for qubit in order:
            circuit.measure(int(qubit), bit=int(bit_map[qubit]))
        # A repeated measurement of one qubit into another bit (last wins).
        repeat = int(order[0])
        circuit.measure(repeat, bit=int(bit_map[repeat]))
        stab = StabilizerSimulator(seed=seed).run(circuit, shots=8)
        qx = QXSimulator(seed=seed).run(circuit, shots=8).counts
        assert stab == qx
        assert len(next(iter(stab))) == num_qubits

    @pytest.mark.parametrize("seed", [13, 14])
    def test_random_clifford_superpositions_same_support(self, seed):
        circuit = _clifford_random_circuit(3, 5, seed)
        # Out-of-order, partially remapped measurements.
        circuit.measure(2, bit=0)
        circuit.measure(0, bit=2)
        circuit.measure(1)
        stab = StabilizerSimulator(seed=21).run(circuit, shots=600)
        qx = QXSimulator(seed=21).run(circuit, shots=600).counts
        assert set(stab) == set(qx)
        for key in stab:
            assert abs(stab[key] - qx[key]) < 120

    def test_conditional_clifford_feedback(self):
        """Entangle, measure, correct: the conditional X always resets q1."""
        circuit = Circuit(2)
        circuit.h(0)
        circuit.cnot(0, 1)
        circuit.measure(0)
        circuit.conditional_gate("x", 0, 1)
        circuit.measure(1)
        stab = StabilizerSimulator(seed=4).run(circuit, shots=100)
        qx = QXSimulator(seed=4).run(circuit, shots=100).counts
        # Key character 0 is bit 1 (sorted, lowest rightmost): always 0.
        assert set(stab) == set(qx) == {"00", "01"}
        assert sum(stab.values()) == 100

    def test_is_clifford_rejects_non_clifford_conditionals(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.measure(0)
        circuit.conditional_gate("t", 0, 1)
        assert not StabilizerSimulator.is_clifford_circuit(circuit)
        clifford = Circuit(2)
        clifford.h(0)
        clifford.measure(0)
        clifford.conditional_gate("x", 0, 1)
        assert StabilizerSimulator.is_clifford_circuit(clifford)


def _feedback_clifford_circuit(seed):
    """Seeded random Clifford circuit exercising every lowering feature the
    tableau must honour: 1q runs that fuse (and runs that multiply out to
    the identity and are dropped: ``h h``, ``s s s s``, ``x x``), 2q gates,
    barriers that cut runs, cross-mapped and repeated measurements, and
    conditional gates on bits measured earlier."""
    rng = np.random.default_rng(seed)
    num_qubits = 4
    circuit = Circuit(num_qubits, num_bits=6)
    one_qubit = ["h", "s", "sdag", "x", "y", "z", "i"]
    identities = [("h", "h"), ("s", "s", "s", "s"), ("x", "x"), ("sdag", "s")]
    written = []
    for _ in range(14):
        roll = rng.random()
        qubit = int(rng.integers(num_qubits))
        if roll < 0.3:
            for _ in range(int(rng.integers(1, 4))):
                circuit.add_gate(one_qubit[int(rng.integers(len(one_qubit)))], qubit)
        elif roll < 0.4:
            for name in identities[int(rng.integers(len(identities)))]:
                circuit.add_gate(name, qubit)
        elif roll < 0.6:
            other = (qubit + 1 + int(rng.integers(num_qubits - 1))) % num_qubits
            circuit.add_gate(("cnot", "cz", "swap")[int(rng.integers(3))], qubit, other)
        elif roll < 0.7:
            circuit.barrier(qubit)
        elif roll < 0.85:
            bit = int(rng.integers(6))
            circuit.measure(qubit, bit=bit)
            written.append(bit)
        elif written:
            name = ("x", "z", "h", "s")[int(rng.integers(4))]
            circuit.conditional_gate(name, written[int(rng.integers(len(written)))], qubit)
    for qubit in range(num_qubits):
        circuit.measure(qubit, bit=(qubit + 2) % 6)
    return circuit


class TestTableauOnPrograms:
    """The tableau runs lowered programs: fused or not, its histograms are
    the circuit-level loop's (``tests/oracles/stabilizer_reference.py``)."""

    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_program_histograms_match_circuit_oracle(self, seed, fuse):
        circuit = _feedback_clifford_circuit(seed)
        expected = oracle.run(circuit, 200, np.random.default_rng(seed))
        program = lower(circuit, fuse=fuse)
        via_program = QXSimulator(seed=seed, backend="stabilizer").run_program(
            program, shots=200
        )
        assert via_program.backend == "stabilizer"
        assert via_program.counts == expected
        assert QXSimulator(seed=seed, backend="stabilizer").run(circuit, 200).counts == expected
        assert StabilizerSimulator(seed=seed).run(circuit, 200) == expected

    def test_fused_runs_keep_every_gate_name(self):
        circuit = Circuit(2)
        circuit.h(0).s(0).h(0).x(1).x(1).cnot(0, 1)
        circuit.measure_all()
        names = [op.names for op in lower(circuit, fuse=True).ops]
        # x x on q1 multiplies out to exactly the identity and is dropped.
        assert names == [("h", "s", "h"), ("cnot",), (), ()]
        assert [op.names for op in lower(circuit, fuse=False).ops][:5] == [
            ("h",), ("s",), ("h",), ("x",), ("x",)
        ]
