"""Qubit-state routing: SWAP insertion for nearest-neighbour constraints.

When a two-qubit gate targets logical qubits whose physical sites are not
adjacent, the router inserts SWAP operations until they meet — the "MOVE
operation for the run-time routing logic" of the paper.  The router keeps
the evolving logical→physical map, so later gates see the updated placement.

The router is **hybrid-aware**: a :class:`ConditionalGate` is routed exactly
like its underlying gate — a two-qubit conditional is brought adjacent and a
single-qubit conditional has its operand remapped through the live placement
— and its classical condition bit rides along untouched, so teleportation
and QEC-feedback programs survive compilation (they previously lost every
conditional operation).

Two SWAP-selection modes are provided:

* ``"path"`` — walk along one shortest path (optionally from both endpoints
  towards the middle so the two swap chains can issue in parallel);
* ``"sabre"`` — SABRE-style lookahead scoring: each candidate SWAP on an
  edge incident to the gate's sites is scored by the distance gain it gives
  the current gate plus an exponentially decaying gain over a window of
  future two-qubit gates, so the router trades a slightly longer route now
  for fewer SWAPs later instead of committing to one shortest path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.circuit import Circuit
from repro.core.operations import (
    Barrier,
    ClassicalOperation,
    ConditionalGate,
    GateOperation,
    Measurement,
)
from repro.mapping.placement import trivial_placement
from repro.mapping.topology import Topology

#: Supported SWAP-selection modes.
ROUTER_MODES = ("path", "sabre")


@dataclass
class RoutingResult:
    """Output of the router."""

    circuit: Circuit
    initial_placement: dict[int, int]
    final_placement: dict[int, int]
    swaps_inserted: int = 0
    original_gate_count: int = 0
    mode: str = "path"

    @property
    def overhead(self) -> float:
        """Fractional gate-count increase caused by routing."""
        if self.original_gate_count == 0:
            return 0.0
        return self.circuit.gate_count() / self.original_gate_count - 1.0


def _is_two_qubit(op) -> bool:
    """Operations the router must bring adjacent (plain and conditional gates)."""
    return isinstance(op, (GateOperation, ConditionalGate)) and len(op.qubits) == 2


class Router:
    """SWAP-insertion router with shortest-path and SABRE-lookahead modes."""

    def __init__(
        self,
        topology: Topology,
        use_lookahead: bool = True,
        mode: str = "path",
        lookahead_window: int = 20,
        decay: float = 0.7,
    ):
        if mode not in ROUTER_MODES:
            raise ValueError(f"mode must be one of {ROUTER_MODES}, got {mode!r}")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if lookahead_window < 0:
            raise ValueError("lookahead_window must be >= 0")
        self.topology = topology
        self.use_lookahead = use_lookahead
        self.mode = mode
        self.lookahead_window = lookahead_window
        self.decay = decay
        self._decay_powers = tuple(decay ** (k + 1) for k in range(lookahead_window))

    def route(
        self,
        circuit: Circuit,
        initial_placement: dict[int, int] | None = None,
    ) -> RoutingResult:
        """Insert SWAPs so every two-qubit gate acts on adjacent physical sites.

        The returned circuit is expressed over *physical* qubit indices and
        is therefore directly executable on the constrained device/simulator.
        Classical bits are never rewritten: measurements and conditional
        gates keep their original bit operands, so the routed circuit's
        histogram is keyed identically to the unmapped circuit's.
        """
        if circuit.num_qubits > self.topology.num_qubits:
            raise ValueError(
                f"circuit needs {circuit.num_qubits} qubits, topology offers "
                f"{self.topology.num_qubits}"
            )
        placement = dict(initial_placement or trivial_placement(circuit, self.topology))
        logical_to_physical = dict(placement)
        physical_to_logical = {p: l for l, p in logical_to_physical.items()}
        routed = Circuit(
            self.topology.num_qubits,
            name=f"{circuit.name}_routed",
            num_bits=max(circuit.num_bits, self.topology.num_qubits),
        )
        # Logical operand pairs of every two-qubit operation, in program
        # order: the SABRE scorer reads a decaying window of this list.
        future_pairs = [op.qubits for op in circuit.operations if _is_two_qubit(op)]
        pair_cursor = 0
        swaps = 0

        for op in circuit.operations:
            if _is_two_qubit(op):
                pair_cursor += 1
                swaps += self._bring_adjacent(
                    op.qubits[0],
                    op.qubits[1],
                    logical_to_physical,
                    physical_to_logical,
                    routed,
                    future_pairs[pair_cursor : pair_cursor + self.lookahead_window],
                )
                routed.append(op.remap(logical_to_physical))
            elif isinstance(op, (GateOperation, ConditionalGate, Measurement)):
                routed.append(op.remap(logical_to_physical))
            elif isinstance(op, Barrier):
                routed.append(Barrier(tuple(sorted(logical_to_physical[q] for q in op.qubits))))
            elif isinstance(op, ClassicalOperation):
                routed.append(op.remap(logical_to_physical))

        return RoutingResult(
            circuit=routed,
            initial_placement=placement,
            final_placement=logical_to_physical,
            swaps_inserted=swaps,
            original_gate_count=circuit.gate_count(),
            mode=self.mode,
        )

    # ------------------------------------------------------------------ #
    def _bring_adjacent(
        self,
        logical_a: int,
        logical_b: int,
        logical_to_physical: dict[int, int],
        physical_to_logical: dict[int, int],
        routed: Circuit,
        future_pairs: list[tuple[int, ...]],
    ) -> int:
        """Insert SWAPs until the two logical qubits are on adjacent sites."""
        site_a = logical_to_physical[logical_a]
        site_b = logical_to_physical[logical_b]
        if self.topology.are_adjacent(site_a, site_b):
            return 0
        if self.mode == "sabre":
            return self._route_sabre(
                logical_a, logical_b, logical_to_physical, physical_to_logical, routed, future_pairs
            )
        return self._route_path(site_a, site_b, logical_to_physical, physical_to_logical, routed)

    # ------------------------------------------------------------------ #
    # Shortest-path mode
    # ------------------------------------------------------------------ #
    def _route_path(
        self,
        site_a: int,
        site_b: int,
        logical_to_physical: dict[int, int],
        physical_to_logical: dict[int, int],
        routed: Circuit,
    ) -> int:
        path = self.topology.shortest_path(site_a, site_b)
        swaps = 0
        if self.use_lookahead and len(path) > 3:
            # Walk both endpoints towards the middle of the path so the two
            # swap chains are independent and can be issued in parallel:
            # A ends on path[meet], B ends on path[meet + 1].
            meet = (len(path) - 2) // 2
            forward = path[: meet + 1]
            backward = list(reversed(path[meet + 1 :]))
            swaps += self._walk(
                forward, logical_to_physical, physical_to_logical, routed, stop_short=False
            )
            swaps += self._walk(
                backward, logical_to_physical, physical_to_logical, routed, stop_short=False
            )
        else:
            # Walk only qubit A along the path until it sits next to B.
            swaps += self._walk(
                path, logical_to_physical, physical_to_logical, routed, stop_short=True
            )
        return swaps

    def _walk(
        self,
        path: list[int],
        logical_to_physical: dict[int, int],
        physical_to_logical: dict[int, int],
        routed: Circuit,
        stop_short: bool = True,
    ) -> int:
        """Swap the state at path[0] along the path, stopping one hop early."""
        swaps = 0
        end = len(path) - 1 if stop_short else len(path)
        for index in range(end - 1):
            self._apply_swap(
                path[index], path[index + 1], logical_to_physical, physical_to_logical, routed
            )
            swaps += 1
        return swaps

    # ------------------------------------------------------------------ #
    # SABRE lookahead mode
    # ------------------------------------------------------------------ #
    def _route_sabre(
        self,
        logical_a: int,
        logical_b: int,
        logical_to_physical: dict[int, int],
        physical_to_logical: dict[int, int],
        routed: Circuit,
        future_pairs: list[tuple[int, ...]],
    ) -> int:
        topology = self.topology
        swaps = 0
        last_swap: tuple[int, int] | None = None
        initial = topology.distance(logical_to_physical[logical_a], logical_to_physical[logical_b])
        budget = 4 * initial + 8
        while True:
            site_a = logical_to_physical[logical_a]
            site_b = logical_to_physical[logical_b]
            if topology.are_adjacent(site_a, site_b):
                return swaps
            if swaps >= budget:
                # The decaying score admits locally neutral moves; if they
                # ever stop converging, finish deterministically along one
                # shortest path.
                return swaps + self._route_path(
                    site_a, site_b, logical_to_physical, physical_to_logical, routed
                )
            choice = self._best_swap(site_a, site_b, logical_to_physical, future_pairs, last_swap)
            self._apply_swap(choice[0], choice[1], logical_to_physical, physical_to_logical, routed)
            last_swap = choice
            swaps += 1

    def _best_swap(
        self,
        site_a: int,
        site_b: int,
        logical_to_physical: dict[int, int],
        future_pairs: list[tuple[int, ...]],
        last_swap: tuple[int, int] | None,
    ) -> tuple[int, int]:
        """Highest-scoring SWAP on an edge incident to the gate's sites.

        Score = distance gain for the current gate (weight 1) plus
        ``decay**(k + 1)`` times the gain for the k-th upcoming two-qubit
        gate.  Ties break towards the larger current-gate gain, then the
        smallest edge, so routing is fully deterministic.
        """
        topology = self.topology
        distance = topology.distance
        # Pre-resolve the future pairs' sites once per selection, indexed by
        # site: a SWAP across (u, v) only changes the distance of pairs that
        # touch u or v, so everything else scores zero and is never visited.
        touching: dict[int, list[tuple[int, int, float]]] = {}
        for k, (qa, qb) in enumerate(future_pairs):
            site_x = logical_to_physical[qa]
            site_y = logical_to_physical[qb]
            weight = self._decay_powers[k]
            touching.setdefault(site_x, []).append((site_x, site_y, weight))
            touching.setdefault(site_y, []).append((site_x, site_y, weight))
        base = distance(site_a, site_b)
        best_key: tuple[float, int, int, int] | None = None
        best_edge: tuple[int, int] | None = None
        for anchor in (site_a, site_b):
            for neighbour in topology.neighbours(anchor):
                edge = (anchor, neighbour) if anchor < neighbour else (neighbour, anchor)
                if edge == last_swap:
                    continue  # never immediately undo the previous SWAP
                gain = base - distance(self._moved(site_a, edge), self._moved(site_b, edge))
                score = float(gain)
                for site in edge:
                    for site_x, site_y, weight in touching.get(site, ()):
                        if site_x in edge and site_y in edge:
                            continue  # the pair spans the edge: distance unchanged
                        score += weight * (
                            distance(site_x, site_y)
                            - distance(self._moved(site_x, edge), self._moved(site_y, edge))
                        )
                key = (score, gain, -edge[0], -edge[1])
                if best_key is None or key > best_key:
                    best_key = key
                    best_edge = edge
        assert best_edge is not None  # every site has at least one neighbour
        return best_edge

    @staticmethod
    def _moved(site: int, edge: tuple[int, int]) -> int:
        """Where a state at ``site`` ends up after swapping across ``edge``."""
        if site == edge[0]:
            return edge[1]
        if site == edge[1]:
            return edge[0]
        return site

    # ------------------------------------------------------------------ #
    @staticmethod
    def _apply_swap(
        here: int,
        there: int,
        logical_to_physical: dict[int, int],
        physical_to_logical: dict[int, int],
        routed: Circuit,
    ) -> None:
        """Emit one SWAP and update both placement maps."""
        routed.swap(here, there)
        logical_here = physical_to_logical.get(here)
        logical_there = physical_to_logical.get(there)
        if logical_here is not None:
            logical_to_physical[logical_here] = there
        if logical_there is not None:
            logical_to_physical[logical_there] = here
        physical_to_logical[here], physical_to_logical[there] = logical_there, logical_here
