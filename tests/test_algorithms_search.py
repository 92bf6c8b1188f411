"""Unit tests for the search-style algorithms: Grover, Deutsch-Jozsa, Bernstein-Vazirani."""

import math

import numpy as np
import pytest

from repro.algorithms.bernstein_vazirani import BernsteinVazirani
from repro.algorithms.deutsch_jozsa import DeutschJozsa
from repro.algorithms.grover import (
    GroverSearch,
    classical_search_queries,
    grover_circuit,
    optimal_grover_iterations,
)
from repro.qx.simulator import QXSimulator


class TestGroverIterationCount:
    def test_known_values(self):
        assert optimal_grover_iterations(4) == 1
        assert optimal_grover_iterations(1024) == 25
        assert optimal_grover_iterations(1024, num_solutions=4) == 12

    def test_scaling_is_sqrt(self):
        small = optimal_grover_iterations(2 ** 10)
        large = optimal_grover_iterations(2 ** 14)
        assert large / small == pytest.approx(4.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_grover_iterations(8, num_solutions=0)
        with pytest.raises(ValueError):
            optimal_grover_iterations(8, num_solutions=9)

    def test_classical_queries_linear(self):
        assert classical_search_queries(100) == pytest.approx(50.5)
        assert classical_search_queries(1000) / classical_search_queries(100) == pytest.approx(
            9.91, rel=0.01
        )


class TestGroverGateLevel:
    @pytest.mark.parametrize("marked", range(8))
    def test_three_qubit_search_finds_any_marked_state(self, marked):
        circuit = grover_circuit(3, marked)
        circuit.measure_all()
        result = QXSimulator(seed=marked).run(circuit, shots=100)
        expected = format(marked, "03b")
        assert result.most_frequent() == expected
        assert result.probability(expected) > 0.8

    def test_two_qubit_search_is_deterministic(self):
        for marked in range(4):
            circuit = grover_circuit(2, marked)
            circuit.measure_all()
            result = QXSimulator(seed=1).run(circuit, shots=50)
            assert result.probability(format(marked, "02b")) == pytest.approx(1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            grover_circuit(4, 0)
        with pytest.raises(ValueError):
            grover_circuit(3, 9)


class TestGroverStateVectorLevel:
    def test_success_probability_near_one(self):
        search = GroverSearch(12, rng=np.random.default_rng(1))
        result = search.run(marked=1234)
        assert result.best_index == 1234
        assert result.success_probability > 0.99
        assert result.oracle_queries == optimal_grover_iterations(2 ** 12)

    def test_multiple_marked_entries(self):
        search = GroverSearch(10, rng=np.random.default_rng(2))
        marked = {5, 100, 800}
        result = search.run(marked=marked)
        assert result.best_index in marked
        assert result.success_probability > 0.95

    def test_sampling_follows_amplified_distribution(self):
        search = GroverSearch(8, rng=np.random.default_rng(3))
        result = search.run(marked=17)
        samples = search.sample(result, shots=200)
        assert samples.count(17) > 180

    def test_non_uniform_initial_state(self):
        search = GroverSearch(4, rng=np.random.default_rng(4))
        amplitudes = np.zeros(16)
        amplitudes[:8] = 1.0
        result = search.run(marked=3, initial_amplitudes=amplitudes)
        # The marked entry is amplified well above its initial 1/8 weight and
        # ends up as the most likely outcome even from a non-uniform start.
        assert result.best_index == 3
        assert result.success_probability > 0.3

    def test_quadratic_speedup_vs_classical(self):
        for num_qubits in (8, 12, 16):
            database = 2 ** num_qubits
            quantum = optimal_grover_iterations(database)
            classical = classical_search_queries(database)
            assert quantum < math.sqrt(database) * 1.1
            assert classical / quantum > math.sqrt(database) / 3

    def test_marked_index_validation(self):
        search = GroverSearch(3)
        with pytest.raises(IndexError):
            search.run(marked=100)
        with pytest.raises(ValueError):
            search.run(marked=set())


class TestDeutschJozsa:
    def test_constant_oracle_detected(self):
        result = DeutschJozsa(5).run("constant", seed=1)
        assert result.is_constant
        assert result.measured_bits == "00000"

    def test_balanced_oracle_detected(self):
        result = DeutschJozsa(5).run("balanced", seed=2)
        assert not result.is_constant

    @pytest.mark.parametrize("mask", [0b1, 0b101, 0b1111])
    def test_balanced_masks(self, mask):
        result = DeutschJozsa(4).run("balanced", mask=mask, seed=3)
        assert not result.is_constant

    def test_single_query_vs_classical(self):
        assert DeutschJozsa(10).run("constant", seed=4).oracle_queries == 1

    def test_invalid_oracle_name(self):
        with pytest.raises(ValueError):
            DeutschJozsa(3).circuit("sideways")

    def test_size_validation(self):
        with pytest.raises(ValueError):
            DeutschJozsa(0)


class TestBernsteinVazirani:
    @pytest.mark.parametrize("secret", [0, 1, 0b1010, 0b111111])
    def test_recovers_secret_in_one_query(self, secret):
        algorithm = BernsteinVazirani(6)
        result = algorithm.run(secret, seed=secret + 1)
        assert result.success
        assert result.recovered == secret
        assert result.oracle_queries == 1

    def test_classical_needs_n_queries(self):
        assert BernsteinVazirani.classical_queries(12) == 12

    def test_secret_out_of_range(self):
        with pytest.raises(ValueError):
            BernsteinVazirani(3).circuit(100)

    def test_circuit_gate_structure(self):
        circuit = BernsteinVazirani(4).circuit(0b1001)
        assert circuit.gate_count("h") == 8
        assert circuit.gate_count("z") == 2
