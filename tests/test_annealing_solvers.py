"""Unit tests for the annealing-style solvers (SA, SQA, digital annealer)."""

import numpy as np
import pytest

from helpers import random_ising
from repro.annealing.digital_annealer import DigitalAnnealer
from repro.annealing.qubo import QUBO, maxcut_qubo, random_qubo
from repro.annealing.quantum_annealer import SimulatedQuantumAnnealer
from repro.annealing.simulated_annealing import SimulatedAnnealer


@pytest.fixture(scope="module")
def small_qubo():
    return random_qubo(8, density=0.6, seed=10)


@pytest.fixture(scope="module")
def small_qubo_optimum(small_qubo):
    _, energy = small_qubo.brute_force()
    return energy


class TestSimulatedAnnealer:
    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SimulatedAnnealer(schedule="exotic")

    def test_betas_monotone_increasing(self):
        for schedule in ("geometric", "linear"):
            betas = SimulatedAnnealer(num_sweeps=50, schedule=schedule).betas()
            assert len(betas) == 50
            assert np.all(np.diff(betas) > 0)

    def test_finds_optimum_of_small_qubo(self, small_qubo, small_qubo_optimum):
        result = SimulatedAnnealer(num_sweeps=300, num_reads=8, seed=1).solve_qubo(small_qubo)
        assert result.energy == pytest.approx(small_qubo_optimum, abs=1e-9)
        assert result.spins.shape == (8,)
        assert set(np.unique(result.spins)) <= {-1, 1}

    def test_solution_energy_matches_reported(self, small_qubo):
        result = SimulatedAnnealer(num_sweeps=200, num_reads=4, seed=2).solve_qubo(small_qubo)
        assert small_qubo.energy(result.binary()) == pytest.approx(result.energy)

    def test_ferromagnetic_chain_ground_state(self):
        couplings = np.zeros((10, 10))
        for i in range(9):
            couplings[i, i + 1] = -1.0
        from repro.annealing.ising import IsingModel

        model = IsingModel(h=np.zeros(10), couplings=couplings)
        result = SimulatedAnnealer(num_sweeps=200, num_reads=4, seed=3).solve_ising(model)
        assert result.energy == pytest.approx(-9.0)
        assert abs(result.spins.sum()) == 10

    def test_energy_trace_recorded(self, small_qubo):
        result = SimulatedAnnealer(num_sweeps=50, num_reads=2, seed=4).solve_qubo(small_qubo)
        assert len(result.energy_trace) == 100

    def test_more_sweeps_not_worse(self, small_qubo, small_qubo_optimum):
        short = SimulatedAnnealer(num_sweeps=5, num_reads=1, seed=5).solve_qubo(small_qubo)
        long = SimulatedAnnealer(num_sweeps=400, num_reads=8, seed=5).solve_qubo(small_qubo)
        assert long.energy <= short.energy + 1e-9


class TestSimulatedQuantumAnnealer:
    def test_replica_validation(self):
        with pytest.raises(ValueError):
            SimulatedQuantumAnnealer(num_replicas=1)

    def test_replica_coupling_grows_as_gamma_shrinks(self):
        sqa = SimulatedQuantumAnnealer()
        assert sqa._replica_coupling(0.1) > sqa._replica_coupling(2.0)
        assert sqa._replica_coupling(2.0) >= 0.0

    def test_finds_optimum_of_small_qubo(self, small_qubo, small_qubo_optimum):
        sqa = SimulatedQuantumAnnealer(num_sweeps=120, num_reads=3, num_replicas=8, seed=6)
        result = sqa.solve_qubo(small_qubo)
        assert result.energy <= small_qubo_optimum + 0.2
        assert result.solver == "simulated_quantum_annealing"

    def test_maxcut_ground_state(self):
        qubo = maxcut_qubo([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
        sqa = SimulatedQuantumAnnealer(num_sweeps=80, num_reads=2, num_replicas=6, seed=7)
        assert sqa.solve_qubo(qubo).energy == pytest.approx(-4.0)


class TestDigitalAnnealer:
    def test_capacity_check(self):
        annealer = DigitalAnnealer(num_nodes=4)
        assert annealer.capacity_check(QUBO.empty(4))
        assert not annealer.capacity_check(QUBO.empty(5))
        with pytest.raises(ValueError):
            annealer.solve_qubo(QUBO.empty(5))

    def test_finds_optimum_of_small_qubo(self, small_qubo, small_qubo_optimum):
        annealer = DigitalAnnealer(num_sweeps=800, num_reads=3, seed=8)
        result = annealer.solve_qubo(small_qubo)
        assert result.energy == pytest.approx(small_qubo_optimum, abs=1e-9)
        assert result.solver == "digital_annealer"

    def test_reported_energy_consistent(self, small_qubo):
        annealer = DigitalAnnealer(num_sweeps=300, num_reads=2, seed=9)
        result = annealer.solve_qubo(small_qubo)
        assert small_qubo.energy(result.binary()) == pytest.approx(result.energy)

    def test_default_capacity_is_8192_nodes(self):
        assert DigitalAnnealer().num_nodes == 8192


class TestSolverComparison:
    def test_all_solvers_agree_on_easy_instance(self):
        qubo = maxcut_qubo([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 5)
        _, optimum = qubo.brute_force()
        sa = SimulatedAnnealer(num_sweeps=200, num_reads=5, seed=1).solve_qubo(qubo).energy
        sqa = SimulatedQuantumAnnealer(num_sweeps=80, num_reads=2, num_replicas=6, seed=2).solve_qubo(qubo).energy
        da = DigitalAnnealer(num_sweeps=400, num_reads=2, seed=3).solve_qubo(qubo).energy
        for energy in (sa, sqa, da):
            assert energy == pytest.approx(optimum, abs=1e-9)

    def test_spin_glass_energies_close_to_exact(self):
        ising = random_ising(10, density=0.5, seed=11)
        _, exact = ising.brute_force()
        sa = SimulatedAnnealer(num_sweeps=300, num_reads=6, seed=12).solve_ising(ising).energy
        assert sa <= exact + 0.5
