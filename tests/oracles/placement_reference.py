"""Reference placement cost: the distance sum placements are judged by."""

from __future__ import annotations

from repro.core.circuit import Circuit
from repro.mapping.topology import Topology


def placement_cost(circuit: Circuit, topology: Topology, placement: dict[int, int]) -> int:
    """Total weighted distance of all two-qubit gates under a placement.

    A cost equal to the number of two-qubit gates means every interaction is
    already nearest-neighbour (distance 1).
    """
    total = 0
    for op in circuit.gate_operations():
        if len(op.qubits) == 2:
            a, b = op.qubits
            total += topology.distance(placement[a], placement[b])
    return total
