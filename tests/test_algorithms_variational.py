"""Unit tests for the variational algorithms (QAOA, VQE) and the QFT module."""

import math

import numpy as np
import pytest

from repro.algorithms.qaoa import QAOA, _all_energies
from helpers import ising_hamiltonian, random_ising
from repro.algorithms.qft import inverse_quantum_fourier_transform, quantum_fourier_transform
from repro.algorithms.vqe import VQE, PauliTerm
from repro.annealing.qubo import maxcut_qubo


class TestQFTModule:
    def test_qft_times_inverse_is_identity(self):
        qft = quantum_fourier_transform(3)
        iqft = inverse_quantum_fourier_transform(3)
        product = qft.compose(iqft).to_unitary()
        np.testing.assert_allclose(product, np.eye(8), atol=1e-9)

    def test_rotation_count_formula(self):
        assert quantum_fourier_transform(5).gate_count("cr") == 10


class TestQAOA:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QAOA(depth=0)
        with pytest.raises(ValueError):
            QAOA(optimizer="adam")

    def test_all_energies_matches_model(self):
        model = random_ising(4, density=0.8, seed=1)
        energies = _all_energies(model)
        for index in (0, 5, 15):
            spins = np.array([2 * ((index >> q) & 1) - 1 for q in range(4)])
            assert energies[index] == pytest.approx(model.energy(spins))

    def test_circuit_structure(self):
        model = random_ising(4, density=0.6, seed=2)
        qaoa = QAOA(depth=2, seed=3)
        circuit = qaoa.circuit(model, np.array([0.3, 0.4]), np.array([0.2, 0.1]))
        assert circuit.gate_count("h") == 4
        assert circuit.gate_count("rx") == 8  # one mixer rotation per qubit per layer
        assert circuit.gate_count("cnot") == 2 * 2 * len(model.edges())

    def test_solves_triangle_maxcut(self):
        qubo = maxcut_qubo([(0, 1), (1, 2), (0, 2)], 3)
        _, optimum = qubo.brute_force()
        result = QAOA(depth=2, seed=4, max_iterations=60).solve_qubo(qubo)
        assert result.best_energy == pytest.approx(optimum, abs=1e-9)
        assert result.circuit_executions > 0
        assert len(result.history) >= result.iterations

    def test_grid_optimizer_depth_one(self):
        qubo = maxcut_qubo([(0, 1), (1, 2)], 3)
        _, optimum = qubo.brute_force()
        result = QAOA(depth=1, optimizer="grid", seed=5).solve_qubo(qubo)
        assert result.best_energy == pytest.approx(optimum, abs=1e-9)

    def test_expectation_improves_over_random_guess(self):
        model = random_ising(5, density=0.5, seed=6)
        energies = _all_energies(model)
        random_average = float(np.mean(energies))
        result = QAOA(depth=2, seed=7, max_iterations=60).solve_ising(model)
        assert result.expectation < random_average

    def test_approximation_ratio_bounds(self):
        """The variational expectation lies between the exact optimum and worst
        energy, so the approximation ratio is in [0, 1]."""
        qubo = maxcut_qubo([(0, 1), (1, 2), (0, 2)], 3)
        ising, offset = qubo.to_ising()
        energies = _all_energies(ising)
        result = QAOA(depth=2, seed=8, max_iterations=50).solve_ising(ising)
        optimal, worst = float(energies.min()), float(energies.max())
        ratio = (worst - result.expectation) / (worst - optimal)
        assert 0.0 <= ratio <= 1.0 + 1e-9

    def test_top_bitstrings_sorted_by_probability(self):
        model = random_ising(3, density=1.0, seed=9)
        result = QAOA(depth=1, seed=10, max_iterations=20).solve_ising(model)
        probabilities = [p for _, p in result.top_bitstrings]
        assert probabilities == sorted(probabilities, reverse=True)
        assert sum(probabilities) <= 1.0 + 1e-6

    def test_qubit_limit(self):
        with pytest.raises(ValueError):
            QAOA(depth=1).solve_ising(random_ising(21, seed=11))

    def test_shot_based_expectation_runs(self):
        qubo = maxcut_qubo([(0, 1)], 2)
        result = QAOA(depth=1, shots=256, seed=12, max_iterations=15).solve_qubo(qubo)
        assert result.best_energy <= 0.0


class TestVQE:
    def test_parameter_count(self):
        vqe = VQE(4, layers=3)
        assert vqe.num_parameters == 4 * 4

    def test_ansatz_validates_parameter_length(self):
        vqe = VQE(3, layers=1)
        with pytest.raises(ValueError):
            vqe.ansatz(np.zeros(2))

    def test_pauli_term_validation(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, {0: "w"})

    def test_expectation_of_z_on_ground_state(self):
        vqe = VQE(2, layers=1, seed=1)
        params = np.zeros(vqe.num_parameters)
        value = vqe.expectation([PauliTerm(1.0, {0: "z"})], params)
        assert value == pytest.approx(1.0)

    def test_expectation_of_x_after_rotation(self):
        vqe = VQE(1, layers=0, seed=2)
        params = np.array([math.pi / 2])  # Ry(pi/2)|0> = |+>
        value = vqe.expectation([PauliTerm(1.0, {0: "x"})], params)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_minimize_single_qubit_z(self):
        vqe = VQE(1, layers=1, seed=3, max_iterations=100)
        result = vqe.minimize([PauliTerm(1.0, {0: "z"})])
        assert result.energy == pytest.approx(-1.0, abs=1e-2)

    def test_minimize_ising_chain_reaches_ground_state(self):
        ising = random_ising(3, density=1.0, seed=4)
        _, exact = ising.brute_force()
        hamiltonian = ising_hamiltonian(ising.h, ising.couplings)
        result = VQE(3, layers=2, seed=5, max_iterations=200).minimize(hamiltonian)
        assert result.energy <= exact + 0.15
        assert result.circuit_executions == len(result.history)

    def test_qubit_limit(self):
        with pytest.raises(ValueError):
            VQE(13)

    def test_ising_hamiltonian_term_count(self):
        ising = random_ising(4, density=1.0, seed=6)
        terms = ising_hamiltonian(ising.h, ising.couplings)
        expected = np.count_nonzero(ising.h) + len(ising.edges())
        assert len(terms) == expected
