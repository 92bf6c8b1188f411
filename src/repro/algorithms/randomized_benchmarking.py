"""Randomised benchmarking (RB).

The experimental kernel of the superconducting full stack (Section 3.1):
"We have been focusing on randomised bench-marking experiments for one or
two qubits which was written in OpenQL."  A random sequence of m Clifford
gates followed by the recovery Clifford ideally returns the qubit to |0>;
with realistic qubits the survival probability decays as A * p^m + B, and
the decay constant p yields the average error per Clifford.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.circuit import Circuit
from repro.qx.error_models import ErrorModel, NoError
from repro.qx.simulator import QXSimulator

#: The 24 single-qubit Cliffords as pulse sequences over {X, Y, +/-90-degree
#: X and Y rotations} — the standard decomposition used by superconducting
#: control software (applied left to right in circuit order).
_CLIFFORD_SEQUENCES: list[list[str]] = [
    [],                        # 0: I
    ["x"],                     # 1: X
    ["y"],                     # 2: Y
    ["y", "x"],                # 3: Z (up to phase)
    ["x90", "y90"],            # 4
    ["x90", "my90"],           # 5
    ["mx90", "y90"],           # 6
    ["mx90", "my90"],          # 7
    ["y90", "x90"],            # 8
    ["y90", "mx90"],           # 9
    ["my90", "x90"],           # 10
    ["my90", "mx90"],          # 11
    ["x90"],                   # 12
    ["mx90"],                  # 13
    ["y90"],                   # 14
    ["my90"],                  # 15
    ["mx90", "y90", "x90"],    # 16
    ["mx90", "my90", "x90"],   # 17
    ["x", "y90"],              # 18
    ["x", "my90"],             # 19
    ["y", "x90"],              # 20
    ["y", "mx90"],             # 21
    ["x90", "y90", "x90"],     # 22
    ["mx90", "y90", "mx90"],   # 23
]


@dataclass
class RBResult:
    """Survival-probability decay curve and fitted error per Clifford."""

    sequence_lengths: list[int]
    survival_probabilities: list[float]
    decay_constant: float
    error_per_clifford: float
    amplitude: float = 0.0
    offset: float = 0.0
    shots_per_point: int = 0


class RandomizedBenchmarking:
    """Single-qubit randomised benchmarking on the QX simulator."""

    def __init__(
        self,
        error_model: ErrorModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ):
        self.error_model = error_model or NoError()
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    def clifford_circuit(self, index: int, qubit: int, circuit: Circuit) -> None:
        """Append Clifford ``index`` (0..23) to a circuit."""
        for name in _CLIFFORD_SEQUENCES[index % len(_CLIFFORD_SEQUENCES)]:
            circuit.add_gate(name, qubit)

    def sequence_circuit(self, length: int, qubit: int = 0, num_qubits: int = 1) -> Circuit:
        """Random RB sequence of ``length`` Cliffords plus the recovery Clifford.

        The recovery element is found by searching the Clifford table for the
        element equal (up to global phase) to the inverse of the accumulated
        unitary, so the emitted circuit contains native pulses only and can be
        compiled and executed by the hardware-like platforms unchanged.
        """
        circuit = Circuit(num_qubits, f"rb_m{length}")
        unitary = np.eye(2, dtype=complex)
        for _ in range(length):
            index = int(self.rng.integers(len(_CLIFFORD_SEQUENCES)))
            self.clifford_circuit(index, qubit, circuit)
            unitary = _sequence_unitary(_CLIFFORD_SEQUENCES[index]) @ unitary
        recovery_index = _inverse_clifford_index(unitary)
        self.clifford_circuit(recovery_index, qubit, circuit)
        circuit.measure(qubit)
        return circuit

    # ------------------------------------------------------------------ #
    def run(
        self,
        sequence_lengths: list[int] | None = None,
        shots: int = 200,
        sequences_per_length: int = 5,
    ) -> RBResult:
        """Measure the survival probability versus sequence length and fit it."""
        lengths = sequence_lengths or [1, 2, 4, 8, 16, 32]
        survival: list[float] = []
        for length in lengths:
            probabilities = []
            for _ in range(sequences_per_length):
                circuit = self.sequence_circuit(length)
                simulator = QXSimulator(
                    error_model=self.error_model,
                    seed=int(self.rng.integers(2 ** 31)),
                )
                result = simulator.run(circuit, shots=shots)
                probabilities.append(result.counts.get("0", 0) / shots)
            survival.append(float(np.mean(probabilities)))
        decay, amplitude, offset = _fit_exponential(lengths, survival)
        error_per_clifford = (1.0 - decay) / 2.0
        return RBResult(
            sequence_lengths=list(lengths),
            survival_probabilities=survival,
            decay_constant=decay,
            error_per_clifford=error_per_clifford,
            amplitude=amplitude,
            offset=offset,
            shots_per_point=shots,
        )


def _sequence_unitary(names: list[str]) -> np.ndarray:
    from repro.core.gates import build_gate

    unitary = np.eye(2, dtype=complex)
    for name in names:
        unitary = build_gate(name).matrix @ unitary
    return unitary


def _inverse_clifford_index(unitary: np.ndarray) -> int:
    """Index of the Clifford equal to the inverse of ``unitary`` up to phase."""
    target = unitary.conj().T
    for index, sequence in enumerate(_CLIFFORD_SEQUENCES):
        candidate = _sequence_unitary(sequence)
        overlap = abs(np.trace(candidate.conj().T @ target)) / 2.0
        if overlap > 1.0 - 1e-9:
            return index
    raise RuntimeError("accumulated RB unitary is not a Clifford (table inconsistent)")


def _fit_exponential(lengths: list[int], survival: list[float]) -> tuple[float, float, float]:
    """Fit survival = A * p^m + B; returns (p, A, B).

    Uses a log-linear fit on (survival - B) with B fixed to 0.5 (the fully
    depolarised limit), falling back to a robust two-point estimate when the
    data is too flat or too noisy for the fit.
    """
    lengths_arr = np.asarray(lengths, dtype=float)
    survival_arr = np.asarray(survival, dtype=float)
    offset = 0.5
    shifted = survival_arr - offset
    positive = shifted > 1e-6
    if np.count_nonzero(positive) >= 2:
        coeffs = np.polyfit(lengths_arr[positive], np.log(shifted[positive]), 1)
        decay = float(np.exp(coeffs[0]))
        amplitude = float(np.exp(coeffs[1]))
    else:
        decay = 0.0
        amplitude = 0.5
    decay = min(max(decay, 0.0), 1.0)
    return decay, amplitude, offset
