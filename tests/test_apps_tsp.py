"""Unit tests for the TSP optimisation accelerator."""

import numpy as np
import pytest

from oracles.tsp_reference import branch_and_bound_tsp, qubo_constant_offset, tour_to_assignment
from repro.annealing.digital_annealer import DigitalAnnealer
from repro.annealing.simulated_annealing import SimulatedAnnealer
from repro.apps.tsp.solvers import (
    brute_force_tsp,
    monte_carlo_tsp,
    nearest_neighbour_tsp,
    solve_tsp_with_annealer,
    solve_tsp_with_qaoa,
    two_opt_tsp,
)
from repro.apps.tsp.tsp import PAPER_OPTIMAL_COST, TSPInstance, netherlands_tsp, random_tsp
from repro.apps.tsp.tsp_qubo import (
    decode_tour,
    tour_is_valid,
    tsp_to_qubo,
    variable_index,
)


class TestTSPInstance:
    def test_netherlands_instance_matches_paper(self):
        tsp = netherlands_tsp()
        assert tsp.num_cities == 4
        assert tsp.qubit_requirement() == 16  # "We need 16 qubits to encode the example TSP"
        optimum = brute_force_tsp(tsp)
        assert optimum.cost == pytest.approx(PAPER_OPTIMAL_COST, abs=1e-9)

    def test_weight_matrix_validation(self):
        with pytest.raises(ValueError):
            TSPInstance(names=["a", "b"], weights=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            TSPInstance(names=["a", "b"], weights=np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_tour_cost_requires_permutation(self):
        tsp = netherlands_tsp()
        with pytest.raises(ValueError):
            tsp.tour_cost([0, 1, 2, 2])

    def test_all_tours_enumeration_size(self):
        assert len(netherlands_tsp().all_tours()) == 6  # (4-1)!

    def test_random_tsp_symmetric_and_reproducible(self):
        a = random_tsp(6, seed=5)
        b = random_tsp(6, seed=5)
        np.testing.assert_allclose(a.weights, b.weights)
        np.testing.assert_allclose(a.weights, a.weights.T)

    def test_qubit_requirement_grows_as_n_squared(self):
        # "The amount of qubits needed to solve the problem grows as N^2."
        for n in (4, 6, 9):
            assert random_tsp(n, seed=1).qubit_requirement() == n * n


class TestTSPQubo:
    def test_variable_indexing(self):
        assert variable_index(2, 1, 4) == 9

    def test_feasible_assignment_energy_equals_tour_cost(self):
        tsp = netherlands_tsp()
        qubo = tsp_to_qubo(tsp)
        offset = qubo_constant_offset(tsp)
        for tour in tsp.all_tours():
            assignment = tour_to_assignment(tour, 4)
            assert qubo.energy(assignment) + offset == pytest.approx(tsp.tour_cost(tour))

    def test_constraint_violation_costs_more_than_any_tour(self):
        tsp = netherlands_tsp()
        qubo = tsp_to_qubo(tsp)
        offset = qubo_constant_offset(tsp)
        worst_tour = max(tsp.tour_cost(t) for t in tsp.all_tours())
        violating = np.zeros(16, dtype=int)  # nothing assigned at all
        assert qubo.energy(violating) + offset > worst_tour

    def test_brute_force_of_qubo_recovers_optimal_tour(self):
        tsp = netherlands_tsp()
        qubo = tsp_to_qubo(tsp)
        best, energy = qubo.brute_force()
        tour = decode_tour(best, 4)
        assert tour is not None
        assert tsp.tour_cost(tour) == pytest.approx(PAPER_OPTIMAL_COST, abs=1e-9)

    def test_decode_rejects_invalid_assignments(self):
        assert decode_tour(np.zeros(16, dtype=int), 4) is None
        double = np.zeros(16, dtype=int)
        double[0] = double[1] = 1
        assert decode_tour(double, 4) is None

    def test_tour_assignment_round_trip(self):
        tour = [2, 0, 3, 1]
        assignment = tour_to_assignment(tour, 4)
        assert tour_is_valid(assignment, 4)
        assert decode_tour(assignment, 4) == tour


class TestClassicalSolvers:
    @pytest.fixture(scope="class")
    def instance(self):
        return random_tsp(7, seed=17)

    def test_brute_force_and_branch_and_bound_agree(self, instance):
        exact = brute_force_tsp(instance)
        pruned = branch_and_bound_tsp(instance)
        assert pruned.cost == pytest.approx(exact.cost)
        assert pruned.evaluations <= exact.evaluations

    def test_nearest_neighbour_within_reason(self, instance):
        exact = brute_force_tsp(instance)
        greedy = nearest_neighbour_tsp(instance)
        assert greedy.cost >= exact.cost - 1e-12
        assert greedy.cost < 2.0 * exact.cost

    def test_two_opt_improves_or_matches_nearest_neighbour(self, instance):
        greedy = nearest_neighbour_tsp(instance)
        improved = two_opt_tsp(instance)
        assert improved.cost <= greedy.cost + 1e-12

    def test_monte_carlo_finds_good_tour(self, instance):
        exact = brute_force_tsp(instance)
        heuristic = monte_carlo_tsp(instance, iterations=4000, seed=3)
        assert heuristic.cost < 1.25 * exact.cost

    def test_solution_tours_are_valid_permutations(self, instance):
        for solution in (
            brute_force_tsp(instance),
            nearest_neighbour_tsp(instance),
            two_opt_tsp(instance),
            monte_carlo_tsp(instance, iterations=500, seed=4),
        ):
            assert sorted(solution.tour) == list(range(instance.num_cities))


class TestQuantumSolvers:
    def test_annealer_path_recovers_paper_optimum(self):
        tsp = netherlands_tsp()
        solution = solve_tsp_with_annealer(
            tsp, SimulatedAnnealer(num_sweeps=400, num_reads=15, seed=7)
        )
        assert solution.valid
        assert solution.cost == pytest.approx(PAPER_OPTIMAL_COST, abs=1e-9)

    def test_digital_annealer_path(self):
        tsp = netherlands_tsp()
        solution = solve_tsp_with_annealer(
            tsp, DigitalAnnealer(num_sweeps=1500, num_reads=4, seed=8)
        )
        assert solution.valid
        assert solution.cost <= PAPER_OPTIMAL_COST * 1.2

    def test_qaoa_path_produces_valid_or_repaired_tour(self):
        tsp = netherlands_tsp()
        solution = solve_tsp_with_qaoa(tsp, depth=1, seed=9, max_iterations=25)
        assert sorted(solution.tour) == [0, 1, 2, 3]
        assert solution.cost <= PAPER_OPTIMAL_COST * 1.3

    def test_qaoa_rejects_oversized_instances(self):
        with pytest.raises(ValueError):
            solve_tsp_with_qaoa(random_tsp(5, seed=10))
