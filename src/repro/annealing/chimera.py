"""Chimera topology of D-Wave-style quantum annealers.

A Chimera graph C(m, n, t) is an m x n grid of unit cells, each cell a
complete bipartite graph K_{t,t}; left-shore qubits couple vertically to the
neighbouring cells, right-shore qubits horizontally.  The D-Wave 2000Q is
C(16, 16, 4) with 2048 qubits — the machine the paper says can embed TSP
instances of at most ~9 cities.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx


@dataclass(frozen=True)
class ChimeraCoordinate:
    """(row, column, shore, index-in-shore) coordinate of a Chimera qubit."""

    row: int
    column: int
    shore: int  # 0 = left (vertical couplers), 1 = right (horizontal couplers)
    index: int


class ChimeraGraph:
    """Chimera graph C(rows, cols, shore_size) with linear qubit indices."""

    def __init__(self, rows: int = 16, cols: int = 16, shore_size: int = 4):
        if rows < 1 or cols < 1 or shore_size < 1:
            raise ValueError("rows, cols and shore_size must be positive")
        self.rows = rows
        self.cols = cols
        self.shore_size = shore_size
        self.graph = self._build()

    # ------------------------------------------------------------------ #
    def _build(self) -> nx.Graph:
        graph = nx.Graph()
        for row in range(self.rows):
            for col in range(self.cols):
                # Intra-cell K_{t,t}.
                for left in range(self.shore_size):
                    for right in range(self.shore_size):
                        graph.add_edge(
                            self.linear_index(row, col, 0, left),
                            self.linear_index(row, col, 1, right),
                        )
                # Inter-cell couplers.
                for k in range(self.shore_size):
                    if row + 1 < self.rows:
                        graph.add_edge(
                            self.linear_index(row, col, 0, k),
                            self.linear_index(row + 1, col, 0, k),
                        )
                    if col + 1 < self.cols:
                        graph.add_edge(
                            self.linear_index(row, col, 1, k),
                            self.linear_index(row, col + 1, 1, k),
                        )
        return graph

    def linear_index(self, row: int, col: int, shore: int, index: int) -> int:
        cell = row * self.cols + col
        return cell * 2 * self.shore_size + shore * self.shore_size + index

    def coordinate(self, linear: int) -> ChimeraCoordinate:
        per_cell = 2 * self.shore_size
        cell, offset = divmod(linear, per_cell)
        row, col = divmod(cell, self.cols)
        shore, index = divmod(offset, self.shore_size)
        return ChimeraCoordinate(row=row, column=col, shore=shore, index=index)

    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return self.rows * self.cols * 2 * self.shore_size

    def degree(self) -> float:
        return 2.0 * self.graph.number_of_edges() / self.num_qubits


def chimera_topology(rows: int = 16, cols: int = 16, shore_size: int = 4) -> nx.Graph:
    """Convenience constructor returning the bare networkx graph."""
    return ChimeraGraph(rows, cols, shore_size).graph


def dwave_2000q_graph() -> ChimeraGraph:
    """The C(16,16,4), 2048-qubit Chimera graph of the D-Wave 2000Q."""
    return ChimeraGraph(16, 16, 4)
