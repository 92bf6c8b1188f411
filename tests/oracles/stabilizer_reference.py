"""Reference circuit-level tableau execution: the loop before lowered programs.

The tableau engine now executes a lowered
:class:`~repro.qx.compiled.KernelProgram` (fused single-qubit runs apply
every gate they folded; runs that multiply out to the identity are
dropped).  This module keeps the loop it replaced, which walks the source
:class:`~repro.core.circuit.Circuit` operation by operation, as the oracle
the program path is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.operations import ConditionalGate, GateOperation, Measurement
from repro.qx.stabilizer import StabilizerState


def run_shot(circuit, rng: np.random.Generator) -> dict[int, int]:
    """One tableau execution of ``circuit``; returns the classical bits it wrote."""
    state = StabilizerState(circuit.num_qubits, rng=rng)
    bits: dict[int, int] = {}
    for op in circuit.operations:
        if isinstance(op, GateOperation):
            state.apply_gate(op.name, op.qubits)
        elif isinstance(op, Measurement):
            bits[op.bit] = state.measure(op.qubit)
        elif isinstance(op, ConditionalGate):
            if bits.get(op.condition_bit, 0):
                state.apply_gate(op.gate.name, op.qubits)
    return bits


def run(circuit, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Histogram ``shots`` executions under the shared keying convention."""
    counts: dict[str, int] = {}
    for _ in range(shots):
        bits = run_shot(circuit, rng)
        if bits:
            # Lowest classical bit rightmost, as repro.qx.keying keys histograms.
            key = "".join(str(bits[bit]) for bit in sorted(bits, reverse=True))
            counts[key] = counts.get(key, 0) + 1
    return counts
