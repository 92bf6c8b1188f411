"""Unit tests for the Chimera topology and minor embedding."""

import networkx as nx
import pytest

from repro.annealing.chimera import ChimeraGraph, chimera_topology, dwave_2000q_graph
from repro.annealing.embedding import (
    EmbeddingResult,
    MinorEmbedder,
    chimera_clique_embedding,
)


class TestChimera:
    def test_unit_cell_is_complete_bipartite(self):
        cell = ChimeraGraph(1, 1, 4)
        assert cell.num_qubits == 8
        assert cell.graph.number_of_edges() == 16
        for left in range(4):
            for right in range(4):
                assert cell.graph.has_edge(
                    cell.linear_index(0, 0, 0, left), cell.linear_index(0, 0, 1, right)
                )

    def test_intercell_couplers(self):
        graph = ChimeraGraph(2, 2, 4)
        # Left-shore qubits couple vertically.
        assert graph.graph.has_edge(
            graph.linear_index(0, 0, 0, 0), graph.linear_index(1, 0, 0, 0)
        )
        # Right-shore qubits couple horizontally.
        assert graph.graph.has_edge(
            graph.linear_index(0, 0, 1, 2), graph.linear_index(0, 1, 1, 2)
        )

    def test_dwave_2000q_dimensions(self):
        dwave = dwave_2000q_graph()
        assert dwave.num_qubits == 2048

    def test_coordinate_round_trip(self):
        graph = ChimeraGraph(3, 3, 4)
        for linear in (0, 17, 54, graph.num_qubits - 1):
            coord = graph.coordinate(linear)
            assert graph.linear_index(coord.row, coord.column, coord.shore, coord.index) == linear

    def test_degree_bounded_by_six(self):
        graph = ChimeraGraph(3, 3, 4)
        assert max(dict(graph.graph.degree()).values()) <= 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ChimeraGraph(0, 1, 4)

    def test_chimera_topology_helper_returns_graph(self):
        assert isinstance(chimera_topology(2, 2, 2), nx.Graph)


class TestMinorEmbedder:
    def test_rejects_oversized_problem(self):
        embedder = MinorEmbedder(nx.path_graph(3))
        result = embedder.embed(nx.complete_graph(5))
        assert not result.success
        assert "more logical variables" in result.failure_reason

    def test_identity_embedding_of_subgraph(self):
        hardware = chimera_topology(2, 2, 4)
        embedder = MinorEmbedder(hardware, seed=1)
        problem = nx.cycle_graph(6)
        result = embedder.embed(problem)
        assert result.success
        assert embedder.verify(problem, result)
        assert result.max_chain_length >= 1

    def test_small_clique_embeds_heuristically(self):
        hardware = chimera_topology(4, 4, 4)
        embedder = MinorEmbedder(hardware, seed=2)
        problem = nx.complete_graph(5)
        result = embedder.embed(problem)
        assert result.success
        assert embedder.verify(problem, result)

    def test_verify_rejects_broken_chains(self):
        hardware = chimera_topology(2, 2, 4)
        embedder = MinorEmbedder(hardware, seed=3)
        problem = nx.complete_graph(3)
        result = embedder.embed(problem)
        assert result.success
        # Corrupt the embedding: give two variables the same chain.
        broken = EmbeddingResult(
            success=True,
            chains={**result.chains, 1: result.chains[0]},
            num_physical_qubits_used=result.num_physical_qubits_used,
            max_chain_length=result.max_chain_length,
        )
        assert not embedder.verify(problem, broken)

    def test_empty_hardware_rejected(self):
        with pytest.raises(ValueError):
            MinorEmbedder(nx.Graph())


class TestCliqueEmbedding:
    def test_capacity_bound(self):
        chimera = ChimeraGraph(4, 4, 4)
        assert chimera_clique_embedding(chimera, 17).success is False
        assert chimera_clique_embedding(chimera, 16).success

    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_clique_embedding_verifies(self, size):
        chimera = ChimeraGraph(4, 4, 4)
        result = chimera_clique_embedding(chimera, size)
        assert result.success
        embedder = MinorEmbedder(chimera.graph)
        assert embedder.verify(nx.complete_graph(size), result)
        assert result.max_chain_length == 5  # m + 1 for m = 4

    def test_requires_chimera_graph(self):
        with pytest.raises(TypeError):
            chimera_clique_embedding(nx.complete_graph(4), 2)

    def test_chains_disjoint(self):
        chimera = ChimeraGraph(4, 4, 4)
        result = chimera_clique_embedding(chimera, 12)
        seen = set()
        for chain in result.chains.values():
            assert not (seen & set(chain))
            seen.update(chain)


class TestEmbeddingCapacity:
    def test_capacity_sweep_monotone(self):
        hardware = chimera_topology(2, 2, 4)
        embedder = MinorEmbedder(hardware, seed=4, tries=2)
        feasibility = {}
        for size in [2, 4, 10, 16]:
            problem = nx.complete_graph(size)
            result = embedder.embed(problem)
            feasibility[size] = result.success and embedder.verify(problem, result)
        assert feasibility[2]
        # Once a size fails, larger sizes should not magically succeed for cliques.
        failed = [size for size, ok in feasibility.items() if not ok]
        if failed:
            assert all(not feasibility[s] for s in feasibility if s >= min(failed))
