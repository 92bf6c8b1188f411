"""Unit tests for the QEC codes, surface code and decoders."""

import numpy as np
import pytest
from oracles import surface_code_reference as oracle

from repro.qec.codes import RepetitionCode, ShorCode, SteaneCode
from repro.qec.decoder import LookupDecoder, MatchingDecoder
from repro.qec.surface_code import PlanarSurfaceCode
from repro.qx.simulator import QXSimulator


class TestRepetitionCode:
    def test_distance_validation(self):
        with pytest.raises(ValueError):
            RepetitionCode(2)
        with pytest.raises(ValueError):
            RepetitionCode(4)

    def test_encoding_produces_logical_states(self):
        code = RepetitionCode(3)
        zero = QXSimulator(seed=0).statevector(code.encoding_circuit(logical_one=False))
        one = QXSimulator(seed=0).statevector(code.encoding_circuit(logical_one=True))
        assert abs(zero[0]) == pytest.approx(1.0)
        assert abs(one[-1]) == pytest.approx(1.0)

    def test_majority_decode(self):
        code = RepetitionCode(3)
        assert code.decode_majority([0, 0, 1]) == 0
        assert code.decode_majority([1, 0, 1]) == 1

    def test_syndrome_of_single_flip(self):
        code = RepetitionCode(3)
        assert code.syndrome([0, 1, 0]) == [1, 1]
        assert code.syndrome([0, 0, 0]) == [0, 0]

    def test_logical_error_rate_suppression_below_half(self):
        code = RepetitionCode(3)
        physical = 0.05
        logical = code.logical_error_rate(physical, trials=20000, seed=1)
        # Theory: 3 p^2 (1-p) + p^3 ~ 0.00725.
        assert logical < physical
        assert logical == pytest.approx(3 * physical ** 2 * (1 - physical) + physical ** 3, abs=0.004)

    def test_longer_code_is_better_below_threshold(self):
        p = 0.05
        rate3 = RepetitionCode(3).logical_error_rate(p, trials=20000, seed=2)
        rate5 = RepetitionCode(5).logical_error_rate(p, trials=20000, seed=3)
        assert rate5 < rate3

    def test_circuit_level_estimate_agrees_roughly(self):
        code = RepetitionCode(3)
        classical = code.logical_error_rate(0.2, trials=20000, seed=4)
        circuit_level = code.logical_error_rate_circuit(0.2, trials=150, seed=5)
        assert abs(classical - circuit_level) < 0.12

    def test_phase_variant_encodes_plus_states(self):
        code = RepetitionCode(3, basis="phase")
        state = QXSimulator(seed=0).statevector(code.encoding_circuit())
        # |+++> plus |---> structure: all amplitudes equal magnitude.
        assert np.allclose(np.abs(state), np.abs(state[0]), atol=1e-9)


class TestShorCode:
    def test_parameters(self):
        assert ShorCode.parameters.physical_qubits == 9
        assert ShorCode.parameters.distance == 3

    @pytest.mark.parametrize("pauli", ["x", "z", "y"])
    @pytest.mark.parametrize("qubit", [0, 4, 8])
    def test_single_errors_corrected(self, pauli, qubit):
        assert ShorCode().recovery_fidelity(pauli, qubit) == pytest.approx(1.0, abs=1e-9)

    def test_no_error_recovered(self):
        assert ShorCode().recovery_fidelity("i", 3) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_pauli_rejected(self):
        with pytest.raises(ValueError):
            ShorCode().apply_error(ShorCode().encoding_circuit(), 0, "w")


def _steane_codeword_support() -> set[int]:
    """Basis-state indices (qubit 0 = LSB) that the Steane code's |0>_L is supported on."""
    rows = [sum(1 << q for q in check) for check in SteaneCode.PARITY_CHECKS]
    support = set()
    for mask in range(8):
        word = 0
        for bit, row in enumerate(rows):
            if (mask >> bit) & 1:
                word ^= row
        support.add(word)
    return support


class TestSteaneCode:
    def test_codeword_support_is_simplex_code(self):
        code = SteaneCode()
        state = QXSimulator(seed=0).statevector(code.encoding_circuit())
        support = {i for i, amp in enumerate(state) if abs(amp) > 1e-9}
        assert support == _steane_codeword_support()
        assert len(support) == 8

    def test_logical_one_is_complement(self):
        code = SteaneCode()
        one = QXSimulator(seed=0).statevector(code.encoding_circuit(logical_one=True))
        support_one = {i for i, amp in enumerate(one) if abs(amp) > 1e-9}
        complement = {(~i) & 0b1111111 for i in _steane_codeword_support()}
        assert support_one == complement

    def test_syndrome_identifies_single_flip(self):
        code = SteaneCode()
        for qubit in range(7):
            syndrome = code.syndrome_of_flips({qubit})
            assert code.decode_syndrome(syndrome) == qubit

    def test_zero_syndrome_means_no_correction(self):
        assert SteaneCode().decode_syndrome((0, 0, 0)) is None

    def test_all_single_flips_corrected(self):
        code = SteaneCode()
        assert code.logical_error_rate(0.0, trials=10) == 0.0
        # Single-error correction: at tiny p the logical rate is O(p^2).
        p = 0.01
        rate = code.logical_error_rate(p, trials=40000, seed=7)
        assert rate < 3 * p

    def test_suppression_improves_at_lower_p(self):
        code = SteaneCode()
        high = code.logical_error_rate(0.05, trials=20000, seed=8)
        low = code.logical_error_rate(0.01, trials=20000, seed=9)
        assert low < high


class TestSurfaceCode:
    def test_distance_validation(self):
        with pytest.raises(ValueError):
            PlanarSurfaceCode(2)

    def test_layout_counts(self):
        code = PlanarSurfaceCode(3)
        assert code.num_data == 9
        # Rotated d=3 code has 4 Z-type stabilisers.
        assert code.num_ancilla == 4
        assert code.num_physical_qubits == 13

    def test_every_single_error_detected(self):
        code = PlanarSurfaceCode(3)
        for qubit in range(code.num_data):
            errors = np.zeros(code.num_data, dtype=np.int8)
            errors[qubit] = 1
            assert code.syndrome(errors).any(), f"error on data qubit {qubit} undetected"

    def test_logical_operator_is_undetected_and_flips_observable(self):
        code = PlanarSurfaceCode(5)
        logical = oracle.minimum_weight_logical(code)
        assert not code.syndrome(logical).any()
        assert code.error_crossing_parity(logical) == 1

    def test_x_stabilisers_are_undetectable_and_trivial(self):
        """An X-stabiliser applied as an error pattern is invisible: zero
        syndrome and no change of the logical observable."""
        for distance in (3, 5):
            code = PlanarSurfaceCode(distance)
            stabilizers = oracle.x_stabilizers(code)
            assert len(stabilizers) + code.num_ancilla == distance ** 2 - 1
            for support in stabilizers:
                errors = np.zeros(code.num_data, dtype=np.int8)
                for qubit in support:
                    errors[qubit] ^= 1
                assert not code.syndrome(errors).any()
                assert code.error_crossing_parity(errors) == 0

    def test_no_errors_no_failures(self):
        code = PlanarSurfaceCode(3)
        result = code.run_memory_experiment(0.0, trials=20, seed=1)
        assert result.logical_failures == 0
        assert result.total_defects == 0

    def test_single_error_always_corrected(self):
        code = PlanarSurfaceCode(3)
        decoder = MatchingDecoder(code)
        for qubit in range(code.num_data):
            errors = np.zeros(code.num_data, dtype=np.int8)
            errors[qubit] = 1
            syndrome = code.syndrome(errors)
            defects = [(0, int(a)) for a in np.nonzero(syndrome)[0]]
            assert decoder.decode(defects) == code.error_crossing_parity(errors)

    def test_low_error_rate_suppressed_vs_high(self):
        code = PlanarSurfaceCode(3)
        low = code.logical_error_rate(0.005, trials=200, seed=2)
        high = code.logical_error_rate(0.10, trials=200, seed=3)
        assert low < high

    def test_distance_helps_below_threshold(self):
        p = 0.01
        rate3 = PlanarSurfaceCode(3).logical_error_rate(p, trials=400, seed=4)
        rate5 = PlanarSurfaceCode(5).logical_error_rate(p, trials=400, seed=5)
        assert rate5 <= rate3 + 0.01

    def test_measurement_errors_increase_defect_count(self):
        code = PlanarSurfaceCode(3)
        clean = code.run_memory_experiment(0.02, measurement_error_rate=0.0, trials=50, seed=6)
        noisy = code.run_memory_experiment(0.02, measurement_error_rate=0.05, trials=50, seed=6)
        assert noisy.total_defects > clean.total_defects


class TestDecoders:
    def test_lookup_decoder_for_steane_checks(self):
        code = SteaneCode()
        table = {code.syndrome_of_flips(set()): ()}
        for qubit in range(7):
            table.setdefault(code.syndrome_of_flips({qubit}), (qubit,))
        decoder = LookupDecoder(table)
        assert len(decoder) == 8
        assert decoder.decode((0, 0, 0)) == ()
        for qubit in range(7):
            syndrome = code.syndrome_of_flips({qubit})
            assert decoder.decode(syndrome) == (qubit,) == (code.decode_syndrome(syndrome),)

    def test_lookup_decoder_unknown_syndrome_returns_empty(self):
        decoder = LookupDecoder({(0,): (), (1, 0): (2,)})
        assert decoder.decode((1,)) == ()
        assert decoder.decode([1, 0]) == (2,)

    def test_matching_decoder_empty_defects(self):
        code = PlanarSurfaceCode(3)
        assert MatchingDecoder(code).decode([]) == 0

    def test_matching_decoder_pairs_time_defects_without_flip(self):
        """A pure measurement error creates two time-separated defects on the
        same ancilla; matching them must not flip the logical observable."""
        code = PlanarSurfaceCode(3)
        decoder = MatchingDecoder(code)
        assert decoder.decode([(0, 0), (1, 0)]) == 0


class TestVectorizedSurfaceCode:
    """The incidence-matrix syndrome and batched memory experiment must be
    exact reimplementations of the per-plaquette/per-round reference."""

    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_syndrome_matches_reference(self, distance):
        code = PlanarSurfaceCode(distance)
        rng = np.random.default_rng(distance)
        for _ in range(25):
            errors = (rng.random(code.num_data) < 0.3).astype(np.int8)
            assert np.array_equal(code.syndrome(errors), oracle.syndrome_reference(code, errors))

    def test_syndrome_batch_matches_single(self):
        code = PlanarSurfaceCode(5)
        rng = np.random.default_rng(1)
        errors = (rng.random((12, code.num_data)) < 0.2).astype(np.int8)
        batched = code.syndrome_batch(errors)
        assert batched.shape == (12, code.num_ancilla)
        for row in range(12):
            assert np.array_equal(batched[row], code.syndrome(errors[row]))

    def test_incidence_matrix_structure(self):
        code = PlanarSurfaceCode(5)
        assert code.incidence.shape == (code.num_ancilla, code.num_data)
        for index, plaquette in enumerate(code.plaquettes):
            assert code.incidence[index].sum() == len(plaquette)
            assert set(np.nonzero(code.incidence[index])[0]) == set(plaquette)

    @pytest.mark.parametrize(
        "distance,p,q",
        [(3, 0.04, None), (3, 0.02, 0.08), (5, 0.03, None)],
    )
    def test_memory_experiment_bit_identical_to_reference(self, distance, p, q):
        """Same seed, same uniform-draw consumption order: the vectorized
        experiment reproduces the reference failures and defects exactly."""
        code = PlanarSurfaceCode(distance)
        fast = code.run_memory_experiment(
            p, trials=30, measurement_error_rate=q, seed=17
        )
        slow = oracle.run_memory_experiment_reference(
            code, p, trials=30, measurement_error_rate=q, seed=17
        )
        assert fast.logical_failures == slow.logical_failures
        assert fast.total_defects == slow.total_defects
        assert fast.rounds == slow.rounds

    def test_memory_experiment_accepts_seed_sequence(self):
        code = PlanarSurfaceCode(3)
        sequence = np.random.SeedSequence(entropy=5, spawn_key=(1, 2))
        a = code.run_memory_experiment(0.03, trials=10, seed=sequence)
        b = code.run_memory_experiment(
            0.03, trials=10, seed=np.random.SeedSequence(entropy=5, spawn_key=(1, 2))
        )
        assert a.logical_failures == b.logical_failures
        assert a.total_defects == b.total_defects


class TestDecoderFastPaths:
    """decode()'s 1- and 2-defect shortcuts must agree with blossom."""

    @staticmethod
    def _general_decode(decoder, defects):
        """The general matching path, bypassing the small-case shortcuts."""
        matching = decoder._match(defects)
        parity = 0
        for (kind_a, index_a), (kind_b, index_b) in matching:
            if kind_a == "boundary" and kind_b == "boundary":
                continue
            if kind_a == "defect" and kind_b == "defect":
                parity ^= decoder._pair_parity(defects[index_a], defects[index_b])
            else:
                defect_index = index_a if kind_a == "defect" else index_b
                parity ^= decoder._boundary_parity(defects[defect_index])
        return parity

    @pytest.mark.parametrize("distance", [3, 5])
    def test_single_defect_matches_blossom(self, distance):
        code = PlanarSurfaceCode(distance)
        decoder = MatchingDecoder(code)
        for ancilla in range(code.num_ancilla):
            for round_index in (0, 1):
                defects = [(round_index, ancilla)]
                assert decoder.decode(defects) == self._general_decode(decoder, defects)

    @pytest.mark.parametrize("distance", [3, 5])
    def test_defect_pairs_match_blossom(self, distance):
        code = PlanarSurfaceCode(distance)
        decoder = MatchingDecoder(code)
        for a in range(code.num_ancilla):
            for b in range(a + 1, code.num_ancilla):
                for rounds in ((0, 0), (0, 2)):
                    defects = [(rounds[0], a), (rounds[1], b)]
                    assert decoder.decode(defects) == self._general_decode(
                        decoder, defects
                    ), defects
