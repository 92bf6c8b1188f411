"""TSP -> QUBO reduction (Section 3.3).

Variables ``x[(c, t)]`` indicate that city ``c`` is visited at time slot
``t``; there are N^2 of them ("We need 16 qubits to encode the example TSP
into a QUBO", and "the amount of qubits needed to solve the problem grows as
N^2").  The QUBO interactions follow the paper's four categories:

  (i)   every node must be assigned (reward for assigning each city once),
  (ii)  the same node assigned to two different time slots is penalised,
  (iii) the same time slot assigned to two different nodes is penalised,
  (iv)  the cost of the edge between consecutive time slots is added.
"""

from __future__ import annotations

import numpy as np

from repro.annealing.qubo import QUBO
from repro.apps.tsp.tsp import TSPInstance


def variable_index(city: int, time: int, num_cities: int) -> int:
    """Linear index of x[(city, time)]."""
    return city * num_cities + time


def tsp_to_qubo(instance: TSPInstance, penalty: float | None = None) -> QUBO:
    """Encode a TSP instance as a QUBO with one-hot city/time constraints."""
    n = instance.num_cities
    if penalty is None:
        # A constraint violation must always cost more than any tour edge.
        penalty = 2.0 * float(np.max(instance.weights)) * n
    qubo = QUBO.empty(n * n)

    # (i) + (ii): each city appears in exactly one time slot:
    # penalty * (sum_t x[c,t] - 1)^2 expanded into QUBO terms.
    for city in range(n):
        for t1 in range(n):
            index_1 = variable_index(city, t1, n)
            qubo.add_term(index_1, index_1, -penalty)
            for t2 in range(t1 + 1, n):
                index_2 = variable_index(city, t2, n)
                qubo.add_term(index_1, index_2, 2.0 * penalty)

    # (iii): each time slot holds exactly one city.
    for time in range(n):
        for c1 in range(n):
            index_1 = variable_index(c1, time, n)
            qubo.add_term(index_1, index_1, -penalty)
            for c2 in range(c1 + 1, n):
                index_2 = variable_index(c2, time, n)
                qubo.add_term(index_1, index_2, 2.0 * penalty)

    # (iv): tour cost between consecutive time slots (cyclic).
    for c1 in range(n):
        for c2 in range(n):
            if c1 == c2:
                continue
            weight = float(instance.weights[c1, c2])
            if weight == 0.0:
                continue
            for time in range(n):
                next_time = (time + 1) % n
                qubo.add_term(
                    variable_index(c1, time, n),
                    variable_index(c2, next_time, n),
                    weight,
                )
    return qubo


def decode_tour(assignment: np.ndarray, num_cities: int) -> list[int] | None:
    """Decode a binary assignment into a tour (None when constraints are violated)."""
    assignment = np.asarray(assignment).reshape(num_cities, num_cities)
    tour: list[int] = []
    for time in range(num_cities):
        cities = np.nonzero(assignment[:, time])[0]
        if cities.size != 1:
            return None
        tour.append(int(cities[0]))
    if sorted(tour) != list(range(num_cities)):
        return None
    return tour


def tour_is_valid(assignment: np.ndarray, num_cities: int) -> bool:
    return decode_tour(assignment, num_cities) is not None
