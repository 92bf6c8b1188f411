"""Reference per-shot trajectory execution: the dense loop before shot stacking.

The stacked engine (:mod:`repro.qx.trajectories`) evolves a block of shots
as one ``(rows, 2**n)`` array from a pre-drawn tape; this module keeps the
one-state-per-shot loop it replaced, unchanged, as the oracle it is
property-tested against.  The per-model error injection is kept as it was
written too (one ``apply_after_gate`` body per model), so the oracle does
not share the error models' declared draw schedules with the code under
test — only their parameter helpers (``rate_for``, ``decay_probabilities``,
``pauli_probabilities``, ``spectators_for``).
"""

from __future__ import annotations

import numpy as np

from repro.qx import kernels
from repro.qx.compiled import COND_GATE, GATE, MEASURE
from repro.qx.error_models import (
    AsymmetricPauliError,
    CompositeError,
    CrosstalkError,
    DecoherenceError,
    DepolarizingError,
    MeasurementError,
)
from repro.qx.keying import bits_histogram
from repro.qx.simulator import SimulationResult
from repro.qx.statevector import StateVector


def apply_after_gate(model, state, qubits, duration_ns, rng) -> int:
    """Inject one gate's errors into ``state``: the per-model bodies as written."""
    if isinstance(model, CompositeError):
        return sum(apply_after_gate(m, state, qubits, duration_ns, rng) for m in model.models)
    injected = 0
    if isinstance(model, DepolarizingError):
        rate = model.rate_for(qubits)
        for qubit in qubits:
            if rng.random() < rate:
                pauli = ("x", "y", "z")[int(rng.integers(3))]
                state.apply_pauli(pauli, qubit)
                injected += 1
    elif isinstance(model, DecoherenceError):
        for qubit in qubits:
            p_decay, p_dephase = model.decay_probabilities(duration_ns)
            if rng.random() < p_decay:
                outcome = state.measure(qubit)
                if outcome == 1:
                    state.apply_pauli("x", qubit)
                injected += 1
                continue
            if rng.random() < p_dephase:
                state.apply_pauli("z", qubit)
                injected += 1
    elif isinstance(model, AsymmetricPauliError):
        p_x, p_y, p_z = model.pauli_probabilities()
        for qubit in qubits:
            draw = rng.random()
            if draw < p_x:
                state.apply_pauli("x", qubit)
                injected += 1
            elif draw < p_x + p_y:
                state.apply_pauli("y", qubit)
                injected += 1
            elif draw < p_x + p_y + p_z:
                state.apply_pauli("z", qubit)
                injected += 1
    elif isinstance(model, CrosstalkError):
        for spectator in model.spectators_for(qubits):
            if spectator < state.num_qubits and rng.random() < model.spectator_error_rate:
                state.apply_pauli("z", spectator)
                injected += 1
    return injected


def flip_measurement(model, outcome: int, rng) -> int:
    """Possibly flip a read-out: the per-model bodies as written."""
    if isinstance(model, CompositeError):
        for member in model.models:
            outcome = flip_measurement(member, outcome, rng)
        return outcome
    if isinstance(model, MeasurementError) and rng.random() < model.flip_probability:
        return 1 - outcome
    return outcome


def run_trajectories(
    program, error_model, num_qubits, shots, rng, keep_final_state=False, initial_state=None
) -> SimulationResult:
    """One state per shot, one kernel call and one injection per op."""
    result = SimulationResult(num_qubits=num_qubits, shots=shots)
    num_bits = max(program.num_bits, num_qubits)
    measured_any = program.num_measurements > 0
    all_bits = np.zeros((shots, num_bits), dtype=np.int64)
    errors = 0
    for shot in range(shots):
        state = StateVector(num_qubits, rng=rng)
        if initial_state is not None:
            state.set_state(initial_state)
        bits = all_bits[shot]
        for op in program.ops:
            kind = op.kind
            if kind == GATE:
                state.amplitudes = kernels.apply_gate_inplace(
                    state.amplitudes, op.matrix, op.qubits, structure=op.structure
                )
                errors += apply_after_gate(error_model, state, op.qubits, op.duration, rng)
            elif kind == MEASURE:
                outcome = state.measure(op.qubits[0])
                outcome = flip_measurement(error_model, outcome, rng)
                bits[op.bit] = outcome
            elif kind == COND_GATE:
                if bits[op.condition_bit]:
                    state.amplitudes = kernels.apply_gate_inplace(
                        state.amplitudes, op.matrix, op.qubits, structure=op.structure
                    )
                    errors += apply_after_gate(error_model, state, op.qubits, op.duration, rng)
        if keep_final_state and shot == shots - 1:
            result.final_state = state.amplitudes.copy()
    result.errors_injected = errors
    if measured_any:
        result.counts = bits_histogram(all_bits, program.measured_bits)
        result.classical_bits = all_bits.tolist()
    return result


def fidelity_with_ideal(program, ideal, error_model, num_qubits, shots, rng) -> float:
    """Average overlap of per-shot noisy evolutions of a measurement-free program."""
    total = 0.0
    for _ in range(shots):
        state = StateVector(num_qubits, rng=rng)
        for op in program.ops:
            if op.kind == GATE:
                state.amplitudes = kernels.apply_gate_inplace(
                    state.amplitudes, op.matrix, op.qubits, structure=op.structure
                )
                apply_after_gate(error_model, state, op.qubits, op.duration, rng)
        total += float(abs(np.vdot(ideal, state.amplitudes)) ** 2)
    return total / shots
