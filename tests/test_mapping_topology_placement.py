"""Unit tests for topologies and initial placement."""

import networkx as nx
import pytest

from oracles.placement_reference import placement_cost
from repro.core.circuit import Circuit, random_circuit
from repro.mapping.placement import (
    greedy_placement,
    interaction_graph,
    trivial_placement,
)
from repro.mapping.topology import (
    Topology,
    fully_connected_topology,
    grid_topology,
    ibm_heavy_hex_like,
    linear_topology,
    square_grid_topology,
    surface7_topology,
    surface17_topology,
)


class TestTopology:
    def test_linear_topology_structure(self):
        topo = linear_topology(5)
        assert topo.num_qubits == 5
        assert topo.are_adjacent(0, 1)
        assert not topo.are_adjacent(0, 2)
        assert topo.distance(0, 4) == 4
        assert topo.diameter() == 4

    def test_grid_topology_degree_and_distance(self):
        topo = grid_topology(3, 3)
        assert topo.num_qubits == 9
        # Centre qubit has four neighbours.
        assert len(topo.neighbours(4)) == 4
        # Manhattan distance between opposite corners.
        assert topo.distance(0, 8) == 4

    def test_fully_connected_all_adjacent(self):
        topo = fully_connected_topology(6)
        assert all(topo.are_adjacent(i, j) for i in range(6) for j in range(6) if i != j)
        assert topo.diameter() == 1

    def test_surface7_connected_with_seven_qubits(self):
        topo = surface7_topology()
        assert topo.num_qubits == 7
        assert topo.is_connected()

    def test_surface17_connected_with_seventeen_qubits(self):
        topo = surface17_topology()
        assert topo.num_qubits == 17
        assert topo.is_connected()

    def test_heavy_hex_connected(self):
        topo = ibm_heavy_hex_like(20)
        assert topo.num_qubits == 20
        assert topo.is_connected()

    def test_shortest_path_endpoints(self):
        topo = grid_topology(3, 3)
        path = topo.shortest_path(0, 8)
        assert path[0] == 0 and path[-1] == 8
        assert all(topo.are_adjacent(a, b) for a, b in zip(path, path[1:], strict=False))

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError):
            Topology(nx.Graph())

    def test_distance_unreachable_raises(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        topo = Topology(graph)
        with pytest.raises(ValueError):
            topo.distance(0, 1)

    def test_average_degree(self):
        topo = linear_topology(4)
        degrees = [len(topo.neighbours(site)) for site in range(topo.num_qubits)]
        assert degrees == [1, 2, 2, 1]
        assert sum(degrees) / topo.num_qubits == pytest.approx(2 * 3 / 4)

    @pytest.mark.parametrize(
        "topo",
        [grid_topology(4, 5), linear_topology(7), surface17_topology(), ibm_heavy_hex_like(20)],
        ids=["grid", "linear", "surface17", "heavy_hex"],
    )
    def test_distances_match_networkx_reference(self, topo):
        reference = dict(nx.all_pairs_shortest_path_length(topo.graph))
        for a in range(topo.num_qubits):
            for b in range(topo.num_qubits):
                assert topo.distance(a, b) == reference[a][b]
                assert int(topo.distance_matrix[a, b]) == reference[a][b]

    @pytest.mark.parametrize(
        "topo", [grid_topology(5, 3), linear_topology(9)], ids=["grid", "linear"]
    )
    def test_closed_form_shortest_paths_are_valid(self, topo):
        for a in range(topo.num_qubits):
            for b in range(topo.num_qubits):
                path = topo.shortest_path(a, b)
                assert path[0] == a and path[-1] == b
                assert len(path) == topo.distance(a, b) + 1
                assert all(topo.graph.has_edge(u, v) for u, v in zip(path, path[1:], strict=False))

    def test_grid_adjacency_matches_graph(self):
        topo = grid_topology(3, 4)
        for a in range(topo.num_qubits):
            for b in range(topo.num_qubits):
                assert topo.are_adjacent(a, b) == topo.graph.has_edge(a, b)

    def test_square_grid_topology_covers_requested_sites(self):
        topo = square_grid_topology(1000)
        assert topo.grid_shape == (32, 32)
        assert topo.num_qubits == 1024
        assert square_grid_topology(9).grid_shape == (3, 3)

    def test_large_grid_distance_needs_no_all_pairs_structure(self):
        topo = grid_topology(32, 32)
        assert topo.distance(0, 1023) == 31 + 31
        assert topo._distance_matrix is None  # closed form: nothing materialised

    def test_grid_diameter_closed_form(self):
        assert grid_topology(3, 3).diameter() == 4
        assert linear_topology(5).diameter() == 4


class TestPlacement:
    def test_interaction_graph_weights(self):
        circuit = Circuit(3)
        circuit.cnot(0, 1).cnot(0, 1).cnot(1, 2)
        graph = interaction_graph(circuit)
        assert graph[0][1]["weight"] == 2
        assert graph[1][2]["weight"] == 1

    def test_trivial_placement_is_identity(self):
        circuit = random_circuit(4, 5, seed=1)
        placement = trivial_placement(circuit, grid_topology(2, 2))
        assert placement == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_placement_rejects_too_small_topology(self):
        circuit = random_circuit(5, 5, seed=1)
        with pytest.raises(ValueError):
            trivial_placement(circuit, grid_topology(2, 2))
        with pytest.raises(ValueError):
            greedy_placement(circuit, grid_topology(2, 2))

    def test_greedy_placement_is_bijective(self):
        circuit = random_circuit(8, 15, seed=2)
        placement = greedy_placement(circuit, grid_topology(3, 3))
        assert len(placement) == 8
        assert len(set(placement.values())) == 8

    def test_greedy_not_worse_than_trivial_on_structured_circuit(self):
        # A circuit whose interaction pattern is deliberately misaligned with
        # the identity placement on a linear topology.
        circuit = Circuit(6)
        for _ in range(4):
            circuit.cnot(0, 5).cnot(1, 4).cnot(2, 3)
        topo = linear_topology(6)
        trivial_cost = placement_cost(circuit, topo, trivial_placement(circuit, topo))
        greedy_cost = placement_cost(circuit, topo, greedy_placement(circuit, topo))
        assert greedy_cost <= trivial_cost

    def test_greedy_placement_rejects_disconnected_topology(self):
        # The vectorized candidate scan must not silently drop a qubit onto
        # an occupied site when every reachable site is taken.
        graph = nx.Graph([(0, 1), (2, 3)])
        topo = Topology(graph)
        circuit = Circuit(3)
        circuit.cnot(0, 1).cnot(1, 2)
        with pytest.raises(ValueError, match="no reachable free site|no path"):
            greedy_placement(circuit, topo)

    def test_placement_cost_counts_adjacent_as_one(self):
        circuit = Circuit(2)
        circuit.cnot(0, 1)
        topo = linear_topology(2)
        assert placement_cost(circuit, topo, {0: 0, 1: 1}) == 1
