"""Qubit-state traffic analysis (Section 5: towards in-memory computing).

The paper argues that quantum computing is naturally an in-memory
architecture — "the quantum logic is directly applied on the qubits and the
qubits do not need to be transported to any Quantum ALU" — but that the
nearest-neighbour constraint re-introduces data movement through qubit-state
routing: "the routing of qubit states is therefore also a very important
problem ... qubits need to be put on the quantum chip in a way that the
movement of qubit states is as minimal as possible".

:class:`TrafficAnalyzer` quantifies that movement for a (routed) circuit:
how many times each logical qubit's state is moved, the total hop count, the
fraction of executed gates that are pure data movement (SWAPs), and a
locality score that is 1.0 for a perfectly in-memory execution (no movement
at all).  The mapping benchmarks use it to compare placements and
topologies; it is the measurable form of the paper's in-memory argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.circuit import Circuit
from repro.core.operations import ConditionalGate, GateOperation
from repro.mapping.routing import RoutingResult


@dataclass
class TrafficReport:
    """Data-movement accounting of one circuit execution."""

    total_gates: int
    movement_gates: int
    compute_gates: int
    total_hops: int
    moves_per_qubit: dict[int, int] = field(default_factory=dict)

    @property
    def movement_fraction(self) -> float:
        """Fraction of gates that only move state around (SWAP overhead)."""
        if self.total_gates == 0:
            return 0.0
        return self.movement_gates / self.total_gates

    @property
    def locality_score(self) -> float:
        """1.0 = perfectly in-memory (no movement), approaching 0 = movement dominated."""
        return 1.0 - self.movement_fraction

    def moved_qubit_count(self) -> int:
        return sum(1 for moves in self.moves_per_qubit.values() if moves > 0)


class TrafficAnalyzer:
    """Measure qubit-state movement in circuits and routing results."""

    def analyze_circuit(self, circuit: Circuit) -> TrafficReport:
        """Count SWAP-induced movement in an already-routed circuit.

        Hybrid-aware: conditional gates are compute, exactly like their
        unconditional counterparts, so feedback-heavy circuits are not
        scored as movement-dominated just for being hybrid.
        """
        movement = 0
        compute = 0
        hops = 0
        moves: dict[int, int] = {q: 0 for q in range(circuit.num_qubits)}
        for op in circuit.operations:
            if not isinstance(op, (GateOperation, ConditionalGate)):
                continue
            if op.name == "swap":
                movement += 1
                hops += 1
                for qubit in op.qubits:
                    moves[qubit] += 1
            else:
                compute += 1
        return TrafficReport(
            total_gates=movement + compute,
            movement_gates=movement,
            compute_gates=compute,
            total_hops=hops,
            moves_per_qubit=moves,
        )

    def analyze_routing(self, result: RoutingResult) -> TrafficReport:
        """Traffic of a routing result, attributed to *logical* qubit states.

        Every inserted SWAP moves (at most) two logical states by one hop.
        The per-qubit counts are expressed in logical indices by replaying
        the placement evolution from the initial placement.
        """
        report = self.analyze_circuit(result.circuit)
        physical_to_logical = {p: l for l, p in result.initial_placement.items()}
        logical_moves: dict[int, int] = {l: 0 for l in result.initial_placement}
        for op in result.circuit.gate_operations():
            if op.name != "swap":
                continue
            a, b = op.qubits
            logical_a = physical_to_logical.get(a)
            logical_b = physical_to_logical.get(b)
            if logical_a is not None:
                logical_moves[logical_a] += 1
            if logical_b is not None:
                logical_moves[logical_b] += 1
            physical_to_logical[a], physical_to_logical[b] = logical_b, logical_a
        report.moves_per_qubit = logical_moves
        return report

    def compare(self, unrouted: Circuit, routed: RoutingResult) -> dict:
        """Side-by-side in-memory metrics before and after routing."""
        ideal = self.analyze_circuit(unrouted)
        real = self.analyze_routing(routed)
        return {
            "ideal_locality": ideal.locality_score,
            "routed_locality": real.locality_score,
            "movement_gates_added": real.movement_gates - ideal.movement_gates,
            "hops": real.total_hops,
            "moved_logical_qubits": real.moved_qubit_count(),
        }
