"""Syndrome decoders.

:class:`MatchingDecoder` implements minimum-weight perfect matching over the
space-time defect graph of the surface code (networkx blossom matching),
pairing defects either with each other or with the nearest open boundary —
the real-time graph-processing task the paper assigns to the
micro-architecture's "quantum error decoder" system-on-chip.

:class:`LookupDecoder` is the table-based decoder appropriate for small
codes (repetition, Steane) where the syndrome uniquely identifies the most
likely single error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import networkx as nx
import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.qec.surface_code import PlanarSurfaceCode


class MatchingDecoder:
    """Minimum-weight perfect matching decoder for the planar surface code.

    ``decode(defects)`` receives space-time defects ``(round, ancilla)`` and
    returns the *crossing parity* of the implied correction with respect to
    the code's reference row: 1 when the correction flips the logical
    observable, 0 otherwise.  Comparing this parity with the true error
    parity decides logical success, which avoids materialising the full
    correction chain.

    All geometry is memoised against the code's incidence layout at
    construction: the ancilla-by-ancilla Chebyshev distance matrix, the
    per-ancilla boundary distance, and the crossing-parity indicators.
    ``decode`` only combines these tables with the defects' round indices,
    so repeated calls (one per trial in a memory experiment) no longer
    recompute all-pairs plaquette distances from the centre coordinates.
    """

    def __init__(self, code: "PlanarSurfaceCode", time_weight: float = 1.0):
        self.code = code
        self.time_weight = time_weight
        centres = np.asarray(code.plaquette_centres, dtype=float)
        self._rows = centres[:, 0]
        #: Chebyshev spatial distance between every pair of plaquettes,
        #: memoised once per decoder instead of per decode call.
        self._spatial = np.maximum(
            np.abs(self._rows[:, None] - self._rows[None, :]),
            np.abs(centres[:, 1][:, None] - centres[:, 1][None, :]),
        )
        #: Distance from each plaquette to its nearest open boundary.
        self._boundary_dist = np.minimum(self._rows + 0.5, (code.distance - 0.5) - self._rows)
        #: 1 when the plaquette sits above the reference row (rows are
        #: half-integers, never equal to the integer reference row).
        above = self._rows < code.reference_row
        self._above = above.astype(np.int8)
        #: Crossing parity of the chain to the nearest boundary: it crosses
        #: the reference row iff the defect and its nearest boundary lie on
        #: opposite sides of it.
        nearest_top = self._rows + 0.5 <= (code.distance - 0.5) - self._rows
        self._boundary_par = (nearest_top & ~above).astype(np.int8) | (
            ~nearest_top & above
        ).astype(np.int8)

    # ------------------------------------------------------------------ #
    def decode(self, defects: list[tuple[int, int]]) -> int:
        if not defects:
            return 0
        # Small defect sets — the common case below threshold — are matched
        # exactly without building the blossom graph: one defect can only
        # pair with its boundary, two defects have exactly two candidate
        # matchings.  Weight ties fall through to blossom so tie-breaking is
        # identical to the general path.
        if len(defects) == 1:
            return self._boundary_parity(defects[0])
        if len(defects) == 2:
            pair_weight = self._spacetime_weight(defects[0], defects[1])
            split_weight = self._boundary_weight(defects[0]) + self._boundary_weight(defects[1])
            if pair_weight < split_weight:
                return self._pair_parity(defects[0], defects[1])
            if pair_weight > split_weight:
                return self._boundary_parity(defects[0]) ^ self._boundary_parity(defects[1])
        matching = self._match(defects)
        parity = 0
        for (kind_a, index_a), (kind_b, index_b) in matching:
            if kind_a == "boundary" and kind_b == "boundary":
                continue
            if kind_a == "defect" and kind_b == "defect":
                parity ^= self._pair_parity(defects[index_a], defects[index_b])
            else:
                defect_index = index_a if kind_a == "defect" else index_b
                parity ^= self._boundary_parity(defects[defect_index])
        return parity

    def _pair_parity(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """Crossing parity of the correction chain joining two defects."""
        return int(self._above[a[1]] ^ self._above[b[1]])

    def _boundary_parity(self, defect: tuple[int, int]) -> int:
        """Crossing parity of a chain from a defect to its nearest boundary
        (top when closer to the top)."""
        return int(self._boundary_par[defect[1]])

    # ------------------------------------------------------------------ #
    def _spacetime_weight(self, a: tuple[int, int], b: tuple[int, int]) -> float:
        return float(self._spatial[a[1], b[1]]) + self.time_weight * abs(a[0] - b[0])

    def _boundary_weight(self, defect: tuple[int, int]) -> float:
        return float(self._boundary_dist[defect[1]])

    def _match(self, defects: list[tuple[int, int]]):
        """Blossom matching over defects plus one virtual boundary node each.

        All pairwise weights come from the memoised distance tables in one
        vectorized gather; only the graph assembly and blossom search remain
        per-call work.
        """
        count = len(defects)
        times = np.asarray([t for t, _ in defects], dtype=float)
        ancillas = np.asarray([a for _, a in defects], dtype=np.intp)
        weights = self._spatial[np.ix_(ancillas, ancillas)] + self.time_weight * np.abs(
            times[:, None] - times[None, :]
        )
        boundary_weights = self._boundary_dist[ancillas]
        graph = nx.Graph()
        nodes = [("defect", i) for i in range(count)]
        boundary_nodes = [("boundary", i) for i in range(count)]
        large = 1e6
        for i, node_a in enumerate(nodes):
            for j in range(i + 1, count):
                graph.add_edge(node_a, nodes[j], weight=large - weights[i, j])
            graph.add_edge(node_a, boundary_nodes[i], weight=large - boundary_weights[i])
        for i, boundary_a in enumerate(boundary_nodes):
            for j in range(i + 1, count):
                graph.add_edge(boundary_a, boundary_nodes[j], weight=large)
        matching = nx.max_weight_matching(graph, maxcardinality=True)
        return list(matching)


#: Names accepted by :func:`decoder_for` (and the runtime's ``decoder=`` knob).
DECODER_NAMES = ("matching", "union_find")


def decoder_for(code: "PlanarSurfaceCode", name: str, time_weight: float = 1.0):
    """Instantiate a surface-code decoder by registry name.

    ``"matching"`` is the exact blossom decoder (cross-check fallback);
    ``"union_find"`` is the almost-linear weighted-growth decoder that keeps
    d >= 15 decoding tractable.  Both share the ``decode(defects) -> parity``
    interface.
    """
    if name == "matching":
        return MatchingDecoder(code, time_weight=time_weight)
    if name == "union_find":
        from repro.qec.union_find import UnionFindDecoder

        return UnionFindDecoder(code, time_weight=time_weight)
    raise ValueError(f"unknown decoder {name!r}; expected one of {DECODER_NAMES}")


class LookupDecoder:
    """Table-based decoder: syndrome tuple -> correction (set of qubits)."""

    def __init__(self, table: dict[tuple[int, ...], tuple[int, ...]]):
        self.table = dict(table)

    def decode(self, syndrome: tuple[int, ...]) -> tuple[int, ...]:
        """Return the qubits to flip, or the empty tuple when unknown."""
        return self.table.get(tuple(syndrome), ())

    def __len__(self) -> int:
        return len(self.table)
