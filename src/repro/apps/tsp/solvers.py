"""TSP solvers: classical baselines and quantum-accelerated paths.

Classical: exact enumeration / branch-and-bound style pruning, the
nearest-neighbour constructive heuristic, 2-opt local search and Monte-Carlo
annealing ("Heuristics like Monte Carlo methods are used for larger
inputs").  Quantum-accelerated: QUBO + (simulated quantum) annealing, and
QUBO + QAOA on the gate model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.annealing.simulated_annealing import SimulatedAnnealer
from repro.apps.tsp.tsp import TSPInstance
from repro.apps.tsp.tsp_qubo import decode_tour, tsp_to_qubo


@dataclass
class TSPSolution:
    """A tour plus bookkeeping about how it was obtained."""

    tour: list[int]
    cost: float
    solver: str
    evaluations: int = 0
    valid: bool = True


# ---------------------------------------------------------------------- #
# Classical solvers
# ---------------------------------------------------------------------- #
def brute_force_tsp(instance: TSPInstance) -> TSPSolution:
    """Exact optimum by enumerating all (n-1)! tours (Figure 9's method)."""
    best_tour: list[int] | None = None
    best_cost = np.inf
    evaluations = 0
    for perm in itertools.permutations(range(1, instance.num_cities)):
        tour = [0, *perm]
        cost = instance.tour_cost(tour)
        evaluations += 1
        if cost < best_cost:
            best_cost = cost
            best_tour = tour
    assert best_tour is not None
    return TSPSolution(tour=best_tour, cost=float(best_cost), solver="brute_force",
                       evaluations=evaluations)


def nearest_neighbour_tsp(instance: TSPInstance, start: int = 0) -> TSPSolution:
    """Greedy constructive heuristic."""
    n = instance.num_cities
    tour = [start]
    unvisited = set(range(n)) - {start}
    evaluations = 0
    while unvisited:
        last = tour[-1]
        next_city = min(unvisited, key=lambda city: instance.weights[last, city])
        evaluations += len(unvisited)
        tour.append(next_city)
        unvisited.discard(next_city)
    return TSPSolution(tour=tour, cost=instance.tour_cost(tour), solver="nearest_neighbour",
                       evaluations=evaluations)


def two_opt_tsp(instance: TSPInstance, start_tour: list[int] | None = None) -> TSPSolution:
    """2-opt local search started from the nearest-neighbour tour."""
    tour = list(start_tour) if start_tour else nearest_neighbour_tsp(instance).tour
    n = len(tour)
    evaluations = 0
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                evaluations += 1
                candidate = tour[:i] + tour[i : j + 1][::-1] + tour[j + 1 :]
                if instance.tour_cost(candidate) < instance.tour_cost(tour) - 1e-12:
                    tour = candidate
                    improved = True
    return TSPSolution(tour=tour, cost=instance.tour_cost(tour), solver="two_opt",
                       evaluations=evaluations)


def monte_carlo_tsp(
    instance: TSPInstance,
    iterations: int = 5000,
    temperature: float = 1.0,
    cooling: float = 0.999,
    seed: int | np.random.SeedSequence | None = None,
) -> TSPSolution:
    """Simulated-annealing Monte Carlo over tour permutations (swap moves)."""
    rng = np.random.default_rng(seed)
    n = instance.num_cities
    tour = list(rng.permutation(n))
    cost = instance.tour_cost(tour)
    best_tour, best_cost = list(tour), cost
    evaluations = 0
    for _ in range(iterations):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        candidate = tour[:i] + tour[i : j + 1][::-1] + tour[j + 1 :]
        candidate_cost = instance.tour_cost(candidate)
        evaluations += 1
        delta = candidate_cost - cost
        if delta <= 0 or rng.random() < np.exp(-delta / max(temperature, 1e-9)):
            tour, cost = candidate, candidate_cost
            if cost < best_cost:
                best_tour, best_cost = list(tour), cost
        temperature *= cooling
    return TSPSolution(tour=best_tour, cost=float(best_cost), solver="monte_carlo",
                       evaluations=evaluations)


# ---------------------------------------------------------------------- #
# Quantum-accelerated solvers
# ---------------------------------------------------------------------- #
def solve_tsp_with_annealer(
    instance: TSPInstance,
    annealer=None,
    penalty: float | None = None,
) -> TSPSolution:
    """QUBO + annealing path (quantum annealer accelerator model).

    ``annealer`` may be any object with ``solve_qubo(qubo) -> AnnealResult``
    (simulated annealing, simulated quantum annealing or the digital
    annealer); defaults to :class:`SimulatedAnnealer`.
    """
    qubo = tsp_to_qubo(instance, penalty=penalty)
    solver = annealer if annealer is not None else SimulatedAnnealer(num_sweeps=400, num_reads=20, seed=0)
    result = solver.solve_qubo(qubo)
    assignment = result.binary()
    tour = decode_tour(assignment, instance.num_cities)
    if tour is None:
        # Constraint violation: report the nearest-neighbour repair so the
        # caller still gets a tour, flagged as invalid.
        repair = nearest_neighbour_tsp(instance)
        return TSPSolution(tour=repair.tour, cost=repair.cost,
                           solver=f"annealer[{result.solver}]+repair",
                           evaluations=result.num_sweeps * result.num_reads, valid=False)
    return TSPSolution(tour=tour, cost=instance.tour_cost(tour),
                       solver=f"annealer[{result.solver}]",
                       evaluations=result.num_sweeps * result.num_reads)


def solve_tsp_with_qaoa(
    instance: TSPInstance,
    depth: int = 2,
    seed: int | np.random.SeedSequence | None = None,
    max_iterations: int = 60,
    penalty: float | None = None,
) -> TSPSolution:
    """QUBO + QAOA path (gate-model accelerator).

    Statevector QAOA is limited to 20 qubits, i.e. TSP instances of at most
    4 cities (16 QUBO variables) — exactly the scale of the paper's example.
    """
    from repro.algorithms.qaoa import QAOA

    if instance.qubit_requirement() > 20:
        raise ValueError(
            f"QAOA path needs {instance.qubit_requirement()} qubits; "
            "only instances up to 4 cities are simulable"
        )
    qubo = tsp_to_qubo(instance, penalty=penalty)
    qaoa = QAOA(depth=depth, seed=seed, max_iterations=max_iterations)
    result = qaoa.solve_qubo(qubo)
    # Scan the most probable measurement outcomes for the best valid tour —
    # this is the "aggregating the measurements over multiple runs" step the
    # paper assigns to the accelerator's classical logic.
    best_tour: list[int] | None = None
    best_cost = np.inf
    candidates = [(result.best_bitstring, 1.0)] + list(result.top_bitstrings)
    for bitstring, _probability in candidates:
        tour = decode_tour(bitstring, instance.num_cities)
        if tour is None:
            continue
        cost = instance.tour_cost(tour)
        if cost < best_cost:
            best_cost = cost
            best_tour = tour
    if best_tour is None:
        repair = nearest_neighbour_tsp(instance)
        return TSPSolution(tour=repair.tour, cost=repair.cost, solver="qaoa+repair",
                           evaluations=result.circuit_executions, valid=False)
    return TSPSolution(tour=best_tour, cost=float(best_cost), solver="qaoa",
                       evaluations=result.circuit_executions)
