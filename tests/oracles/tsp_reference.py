"""Reference TSP pieces: an exact solver and the QUBO encoding's inverse.

:func:`branch_and_bound_tsp` is a second exact solver the brute-force
optimum is checked against; :func:`tour_to_assignment` and
:func:`qubo_constant_offset` turn a tour back into the one-hot assignment
and energy offset of :func:`~repro.apps.tsp.tsp_qubo.tsp_to_qubo`, so the
tests can check that a feasible assignment's QUBO energy is its tour cost.
"""

from __future__ import annotations

import numpy as np

from repro.apps.tsp.solvers import TSPSolution
from repro.apps.tsp.tsp import TSPInstance
from repro.apps.tsp.tsp_qubo import variable_index


def branch_and_bound_tsp(instance: TSPInstance) -> TSPSolution:
    """Depth-first branch and bound with a running-cost prune.

    Explores partial tours and prunes branches whose partial cost already
    exceeds the best complete tour found so far.
    """
    n = instance.num_cities
    best_cost = np.inf
    best_tour: list[int] | None = None
    evaluations = 0

    def recurse(partial: list[int], cost: float) -> None:
        nonlocal best_cost, best_tour, evaluations
        if cost >= best_cost:
            return
        if len(partial) == n:
            total = cost + instance.weights[partial[-1], partial[0]]
            evaluations += 1
            if total < best_cost:
                best_cost = total
                best_tour = list(partial)
            return
        last = partial[-1]
        remaining = sorted(
            (city for city in range(n) if city not in partial),
            key=lambda city: instance.weights[last, city],
        )
        for city in remaining:
            recurse(partial + [city], cost + instance.weights[last, city])

    recurse([0], 0.0)
    assert best_tour is not None
    return TSPSolution(
        tour=best_tour, cost=float(best_cost), solver="branch_and_bound", evaluations=evaluations
    )


def qubo_constant_offset(instance: TSPInstance, penalty: float | None = None) -> float:
    """Constant dropped by the QUBO expansion of the one-hot constraints.

    ``(sum x - 1)^2`` contributes a constant ``penalty`` per constraint, so
    the true tour cost of a feasible assignment is
    ``qubo.energy(x) + 2 * n * penalty``.
    """
    n = instance.num_cities
    if penalty is None:
        penalty = 2.0 * float(np.max(instance.weights)) * n
    return 2.0 * n * penalty


def tour_to_assignment(tour: list[int], num_cities: int) -> np.ndarray:
    """One-hot encoding of a tour (inverse of :func:`~repro.apps.tsp.tsp_qubo.decode_tour`)."""
    assignment = np.zeros(num_cities * num_cities, dtype=int)
    for time, city in enumerate(tour):
        assignment[variable_index(city, time, num_cities)] = 1
    return assignment
