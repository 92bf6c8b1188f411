"""Unit tests for the QUBO and Ising models and their inter-conversion."""

import numpy as np
import pytest

from helpers import ising_to_qubo, random_ising
from repro.annealing.ising import IsingModel
from repro.annealing.qubo import QUBO, maxcut_qubo, random_qubo
from repro.annealing.simulated_annealing import SimulatedAnnealer


class TestQUBO:
    def test_requires_square_matrix(self):
        with pytest.raises(ValueError):
            QUBO(np.zeros((2, 3)))

    def test_canonicalises_to_upper_triangular(self):
        matrix = np.array([[1.0, 0.0], [2.0, -1.0]])
        qubo = QUBO(matrix)
        assert qubo.matrix[0, 1] == 2.0
        assert qubo.matrix[1, 0] == 0.0

    def test_from_dict_accumulates_terms(self):
        qubo = QUBO.from_dict(3, {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 0.5})
        assert qubo.matrix[0, 0] == 1.0
        assert qubo.matrix[0, 1] == 2.5

    def test_energy_evaluation(self):
        qubo = QUBO.from_dict(2, {(0, 0): -1.0, (1, 1): -1.0, (0, 1): 2.0})
        assert qubo.energy(np.array([0, 0])) == 0.0
        assert qubo.energy(np.array([1, 0])) == -1.0
        assert qubo.energy(np.array([1, 1])) == 0.0

    def test_energy_rejects_wrong_length(self):
        qubo = QUBO.empty(3)
        with pytest.raises(ValueError):
            qubo.energy(np.array([1, 0]))

    def test_brute_force_finds_optimum(self):
        qubo = QUBO.from_dict(2, {(0, 0): -1.0, (1, 1): -1.0, (0, 1): 2.0})
        best, energy = qubo.brute_force()
        assert energy == -1.0
        assert best.sum() == 1

    def test_brute_force_size_limit(self):
        with pytest.raises(ValueError):
            QUBO.empty(25).brute_force()

    def test_quadratic_terms_and_edges(self):
        qubo = QUBO.from_dict(3, {(0, 1): 1.0, (1, 2): -2.0})
        assert qubo.quadratic_terms() == {(0, 1): 1.0, (1, 2): -2.0}
        assert qubo.interaction_graph_edges() == [(0, 1), (1, 2)]

    def test_maxcut_qubo_optimum_cuts_all_edges(self):
        # A 4-cycle is bipartite: the optimum cuts all four edges.
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        qubo = maxcut_qubo(edges, 4)
        _, energy = qubo.brute_force()
        assert energy == -4.0

    def test_random_qubo_reproducible(self):
        a = random_qubo(6, seed=1)
        b = random_qubo(6, seed=1)
        np.testing.assert_allclose(a.matrix, b.matrix)


class TestIsing:
    def test_coupling_shape_validation(self):
        with pytest.raises(ValueError):
            IsingModel(h=np.zeros(3), couplings=np.zeros((2, 2)))

    def test_energy_ferromagnetic_pair(self):
        model = IsingModel(h=np.zeros(2), couplings=np.array([[0.0, -1.0], [0.0, 0.0]]))
        assert model.energy(np.array([1, 1])) == -1.0
        assert model.energy(np.array([1, -1])) == 1.0

    def test_energy_delta_matches_explicit_flip(self):
        """The annealer tracks its energy as a running sum of single-flip deltas
        from local fields; it must land on the explicitly evaluated energy."""
        model = random_ising(6, density=0.7, seed=2)
        result = SimulatedAnnealer(num_sweeps=50, num_reads=1, seed=3).solve_ising(model)
        assert result.energy == pytest.approx(model.energy(result.spins))
        assert result.energy_trace[-1] == pytest.approx(result.energy)

    def test_brute_force_ground_state_of_frustration_free_model(self):
        couplings = np.zeros((3, 3))
        couplings[0, 1] = couplings[1, 2] = -1.0
        model = IsingModel(h=np.zeros(3), couplings=couplings)
        spins, energy = model.brute_force()
        assert energy == -2.0
        assert abs(spins.sum()) == 3  # all aligned

    def test_edges_listed(self):
        model = IsingModel(h=np.zeros(3), couplings=np.array(
            [[0, 1.0, 0], [0, 0, -1.0], [0, 0, 0]]
        ))
        assert model.edges() == [(0, 1), (1, 2)]


class TestConversions:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_qubo_to_ising_energy_consistency(self, seed):
        qubo = random_qubo(6, density=0.6, seed=seed)
        ising, offset = qubo.to_ising()
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x = rng.integers(0, 2, size=6)
            spins = 2 * x - 1
            assert qubo.energy(x) == pytest.approx(ising.energy(spins) + offset)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_ising_to_qubo_energy_consistency(self, seed):
        ising = random_ising(5, density=0.7, seed=seed)
        qubo, offset = ising_to_qubo(ising)
        back, back_offset = qubo.to_ising()
        rng = np.random.default_rng(seed)
        for _ in range(20):
            spins = rng.choice([-1, 1], size=5)
            x = (spins + 1) // 2
            assert ising.energy(spins) == pytest.approx(qubo.energy(x) + offset)
            assert ising.energy(spins) == pytest.approx(back.energy(spins) + back_offset + offset)

    def test_round_trip_preserves_ground_state(self):
        qubo = random_qubo(8, density=0.5, seed=9)
        ising, offset = qubo.to_ising()
        x_best, e_qubo = qubo.brute_force()
        s_best, e_ising = ising.brute_force()
        assert e_qubo == pytest.approx(e_ising + offset)
