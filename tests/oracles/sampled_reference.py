"""Reference single-run evolve-once bodies: QX's sampled paths before ``_prepare``.

``QXSimulator.run_program`` now evolves every evolve-once run (dense or MPS
with noise-free terminal measurements, and the density engine) through the
one preparation step ``run_program_shards`` uses, and draws dense and
density shots through ``PreparedIndexSampler``.  This module keeps the
single-run bodies that step replaced, as they were written: dense and
density draw through ``Generator.choice`` (:func:`sample_index_counts`, the
sampler ``StateVector.sample_counts`` and the density path used), and the
MPS body evolves its own state.
They are the oracle the new path is tested against, field by field.
"""

from __future__ import annotations

import numpy as np

from repro.qx.channels import compile_channels
from repro.qx.compiled import GATE
from repro.qx.density import DensityMatrixSimulator
from repro.qx.error_models import NoError
from repro.qx.keying import bits_histogram, counts_to_bits
from repro.qx.mps import MPSState
from repro.qx.simulator import SimulationResult, _confuse
from repro.qx.statevector import StateVector


def sample_index_counts(probabilities, shots, targets, rng):
    """Draw ``shots`` basis indices with ``Generator.choice``; histogram ``targets``.

    Character ``j`` of a key is qubit ``targets[-1 - j]``; keys are inserted
    in ascending order of the first basis index that produced them, the
    order ``PreparedIndexSampler`` must reproduce.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    outcomes = rng.choice(len(probabilities), size=shots, p=probabilities / probabilities.sum())
    if not targets:
        return {"": shots}
    values, frequencies = np.unique(outcomes, return_counts=True)
    counts = {}
    for value, frequency in zip(values.tolist(), frequencies.tolist(), strict=True):
        key = "".join(str((value >> qubit) & 1) for qubit in reversed(targets))
        counts[key] = counts.get(key, 0) + frequency
    return counts


def run_sampled(program, num_qubits, shots, rng, keep_final_state=False, initial_state=None):
    """One dense evolution, every shot sampled from the final amplitudes."""
    state = StateVector(num_qubits, rng=rng)
    if initial_state is not None:
        state.set_state(initial_state)
    state.amplitudes = program.apply_unitaries(state.amplitudes)
    result = SimulationResult(num_qubits=num_qubits, shots=shots)
    if program.num_measurements:
        ordered_bits, sources = program.sample_sources()
        result.counts = sample_index_counts(state.probabilities(), shots, sources, rng)
        result.classical_bits = counts_to_bits(
            result.counts,
            tuple(ordered_bits),
            shots,
            size=max(program.num_bits, num_qubits),
        )
    if keep_final_state or not program.num_measurements:
        result.final_state = state.amplitudes.copy()
    return result


def run_density(program, error_model, num_qubits, shots, rng):
    """Exact channel evolution, read-out confusion, then one sampled draw."""
    error_model = None if isinstance(error_model, NoError) else error_model
    channels = compile_channels(program, error_model, num_qubits=num_qubits)
    engine = DensityMatrixSimulator(num_qubits)
    engine.run_channels(channels)
    result = SimulationResult(num_qubits=num_qubits, shots=shots, backend="density")
    if program.num_measurements:
        ordered_bits, sources = program.sample_sources()
        probabilities = engine.probabilities()
        if channels.confusion is not None:
            probabilities = _confuse(probabilities, channels.confusion, sources)
        result.counts = sample_index_counts(probabilities, shots, sources, rng)
        result.classical_bits = counts_to_bits(
            result.counts,
            tuple(ordered_bits),
            shots,
            size=max(program.num_bits, num_qubits),
        )
    return result


def run_mps_sampled(
    program, num_qubits, shots, rng, keep_final_state=False, max_bond=None,
    truncation_threshold=1e-12,
):
    """One MPS evolution, every shot drawn by right-to-left conditional sampling."""
    state = MPSState(
        num_qubits, max_bond=max_bond, truncation_threshold=truncation_threshold, rng=rng
    )
    for op in program.ops:
        if op.kind == GATE:
            state.apply_gate(op.matrix, op.qubits)
    result = SimulationResult(num_qubits=num_qubits, shots=shots, backend="mps")
    if program.num_measurements:
        samples = state.sample_bits(shots)
        all_bits = np.zeros((shots, max(program.num_bits, num_qubits)), dtype=np.int64)
        for bit, source in program.bit_sources.items():
            all_bits[:, bit] = samples[:, source]
        result.counts = bits_histogram(all_bits, tuple(sorted(program.bit_sources)))
        result.classical_bits = all_bits.tolist()
    result.truncation_error = state.truncation_error
    if keep_final_state or not program.num_measurements:
        result.final_state = state.to_statevector()
    return result
