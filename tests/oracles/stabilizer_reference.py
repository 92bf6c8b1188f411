"""Reference circuit-level tableau execution: the loop before lowered programs.

The tableau engine now executes a lowered
:class:`~repro.qx.compiled.KernelProgram` (fused single-qubit runs apply
every gate they folded; runs that multiply out to the identity are
dropped).  This module keeps the loop it replaced, which walks the source
:class:`~repro.core.circuit.Circuit` operation by operation, as the oracle
the program path is tested against, plus three read-only views of a
tableau the tests judge it by: :func:`is_clifford_circuit`,
:func:`expectation_z_deterministic` and :func:`stabilizer_strings`.
"""

from __future__ import annotations

import numpy as np

from repro.core.operations import ConditionalGate, GateOperation, Measurement
from repro.qx.stabilizer import CLIFFORD_GATES, StabilizerState


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


def is_clifford_circuit(circuit) -> bool:
    """True when every (conditional) gate is in the tableau's Clifford set."""
    for op in circuit.operations:
        if isinstance(op, GateOperation) and op.name not in CLIFFORD_GATES:
            return False
        if isinstance(op, ConditionalGate) and op.gate.name not in CLIFFORD_GATES:
            return False
    return True


def expectation_z_deterministic(state: StabilizerState, qubit: int) -> int | None:
    """+1/-1 if ``<Z_q>`` is deterministic, None if the outcome is random.

    Reads the outcome the way :meth:`StabilizerState.measure` does on its
    deterministic branch, without touching the tableau or the rng.
    """
    n = state.num_qubits
    if state.x[n:, qubit].any():
        return None
    return 1 if state._deterministic_outcome(qubit) == 0 else -1


def stabilizer_strings(state: StabilizerState) -> list[str]:
    """Human-readable stabilizer generators (e.g. ``+XXI``)."""
    letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    n = state.num_qubits
    return [
        ("-" if state.r[p] else "+")
        + "".join(letters[(state.x[p, q], state.z[p, q])] for q in range(n))
        for p in range(n, 2 * n)
    ]
