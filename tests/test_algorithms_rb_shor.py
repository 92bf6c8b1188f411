"""Unit tests for randomised benchmarking and Shor's algorithm."""


import numpy as np
import pytest

from repro.algorithms.randomized_benchmarking import (
    _CLIFFORD_SEQUENCES,
    RandomizedBenchmarking,
    _fit_exponential,
    _sequence_unitary,
)
from repro.algorithms.shor import period_finding_classical, shor_factor
from repro.qx.error_models import DepolarizingError, NoError
from repro.qx.simulator import QXSimulator


class TestRandomizedBenchmarking:
    def test_clifford_table_has_24_elements(self):
        assert len(_CLIFFORD_SEQUENCES) == 24

    def test_all_cliffords_are_unitary(self):
        for sequence in _CLIFFORD_SEQUENCES:
            unitary = _sequence_unitary(sequence)
            np.testing.assert_allclose(unitary @ unitary.conj().T, np.eye(2), atol=1e-9)

    def test_cliffords_are_distinct_up_to_phase(self):
        unitaries = [_sequence_unitary(s) for s in _CLIFFORD_SEQUENCES]
        for i in range(len(unitaries)):
            for j in range(i + 1, len(unitaries)):
                overlap = abs(np.trace(unitaries[i].conj().T @ unitaries[j])) / 2.0
                assert overlap < 0.999, f"cliffords {i} and {j} coincide"

    def test_noiseless_sequences_always_return_to_zero(self):
        rb = RandomizedBenchmarking(error_model=NoError(), seed=1)
        for length in (1, 5, 20):
            circuit = rb.sequence_circuit(length)
            result = QXSimulator(seed=2).run(circuit, shots=50)
            assert result.counts == {"0": 50}

    def test_noiseless_rb_survival_is_one(self):
        rb = RandomizedBenchmarking(error_model=NoError(), seed=3)
        result = rb.run(sequence_lengths=[1, 4, 8], shots=50, sequences_per_length=2)
        assert all(p == pytest.approx(1.0) for p in result.survival_probabilities)

    def test_noisy_rb_decays_with_length(self):
        rb = RandomizedBenchmarking(error_model=DepolarizingError(0.02), seed=4)
        result = rb.run(sequence_lengths=[1, 8, 32], shots=150, sequences_per_length=4)
        assert result.survival_probabilities[0] > result.survival_probabilities[-1]
        assert 0.0 < result.decay_constant < 1.0
        assert result.error_per_clifford > 0.0

    def test_higher_noise_gives_higher_epc(self):
        low = RandomizedBenchmarking(error_model=DepolarizingError(0.005), seed=5).run(
            sequence_lengths=[1, 8, 24], shots=150, sequences_per_length=4
        )
        high = RandomizedBenchmarking(error_model=DepolarizingError(0.05), seed=5).run(
            sequence_lengths=[1, 8, 24], shots=150, sequences_per_length=4
        )
        assert high.error_per_clifford > low.error_per_clifford

    def test_fit_exponential_recovers_known_decay(self):
        lengths = [1, 2, 4, 8, 16, 32]
        decay = 0.97
        survival = [0.5 + 0.5 * decay ** m for m in lengths]
        fitted, amplitude, offset = _fit_exponential(lengths, survival)
        assert fitted == pytest.approx(decay, abs=0.01)
        assert offset == 0.5

    def test_result_rows_helper(self):
        rb = RandomizedBenchmarking(error_model=NoError(), seed=6)
        result = rb.run(sequence_lengths=[1, 2], shots=20, sequences_per_length=1)
        rows = list(zip(result.sequence_lengths, result.survival_probabilities, strict=True))
        assert rows[0][0] == 1 and rows[1][0] == 2
        assert result.shots_per_point == 20


class TestShor:
    def test_classical_period_finding(self):
        assert period_finding_classical(7, 15) == 4
        assert period_finding_classical(2, 21) == 6
        with pytest.raises(ValueError):
            period_finding_classical(6, 15)

    @pytest.mark.parametrize("n,expected", [(15, {3, 5}), (21, {3, 7}), (33, {3, 11})])
    def test_factors_small_semiprimes(self, n, expected):
        result = shor_factor(n, seed=1)
        assert result.factors is not None
        assert set(result.factors) == expected

    def test_even_numbers_short_circuit(self):
        result = shor_factor(14, seed=2)
        assert set(result.factors) == {2, 7}
        assert not result.used_quantum_order_finding

    def test_perfect_square_short_circuit(self):
        result = shor_factor(49, seed=3)
        assert result.factors == (7, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            shor_factor(3)

    def test_quantum_order_finding_used_for_small_n(self):
        result = shor_factor(15, seed=5)
        assert result.factors is not None
        # The quantum subroutine fits comfortably for N = 15.
        assert result.used_quantum_order_finding or result.attempts >= 1
