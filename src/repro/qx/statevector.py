"""Dense state-vector engine.

The engine stores the full ``2**n`` amplitude vector (qubit 0 is the least
significant bit of the basis index).  One- and two-qubit gates are applied
in place by the stride kernels of :mod:`repro.qx.kernels`; larger gates use
the generic axis-permutation contraction, which keeps the cost of a k-qubit
gate at ``O(2**n * 2**k)`` instead of building the full operator.  The
amplitude array is always kept C-contiguous — the invariant the in-place
kernels rely on.
"""

from __future__ import annotations

import math

import numpy as np

from repro.qx import kernels
from repro.qx.keying import PreparedIndexSampler

PAULI_MATRICES = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class StateVector:
    """Pure quantum state of ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, rng: np.random.Generator | None = None):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        if num_qubits > 26:
            raise ValueError("state vector limited to 26 qubits (memory)")
        self.num_qubits = int(num_qubits)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.amplitudes = np.zeros(2 ** self.num_qubits, dtype=complex)
        self.amplitudes[0] = 1.0

    # ------------------------------------------------------------------ #
    # State initialisation and inspection
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Return to the all-zeros computational basis state."""
        self.amplitudes[:] = 0
        self.amplitudes[0] = 1.0

    def set_basis_state(self, basis_index: int) -> None:
        if not 0 <= basis_index < self.amplitudes.size:
            raise IndexError(f"basis index {basis_index} out of range")
        self.amplitudes[:] = 0
        self.amplitudes[basis_index] = 1.0

    def set_state(self, amplitudes: np.ndarray) -> None:
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != self.amplitudes.shape:
            raise ValueError("amplitude vector has the wrong dimension")
        norm = np.linalg.norm(amplitudes)
        if norm < 1e-12:
            raise ValueError("cannot set a zero state")
        self.amplitudes = amplitudes / norm

    def copy(self) -> "StateVector":
        # The clone gets a spawned child generator: sharing the parent's
        # would let probe measurements on the copy advance the parent's
        # stream (REPRO007).
        clone = StateVector(self.num_qubits, rng=self.rng.spawn(1)[0])
        clone.amplitudes = self.amplitudes.copy()
        return clone

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def probability_of(self, basis_index: int) -> float:
        return float(abs(self.amplitudes[basis_index]) ** 2)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def fidelity(self, other: "StateVector | np.ndarray") -> float:
        """Squared overlap with another pure state."""
        other_amp = other.amplitudes if isinstance(other, StateVector) else np.asarray(other)
        return float(abs(np.vdot(self.amplitudes, other_amp)) ** 2)

    def entropy(self) -> float:
        """Shannon entropy (bits) of the measurement distribution."""
        probs = self.probabilities()
        probs = probs[probs > 1e-15]
        return float(-np.sum(probs * np.log2(probs)))

    # ------------------------------------------------------------------ #
    # Gate application
    # ------------------------------------------------------------------ #
    def _check_gate_operands(self, matrix: np.ndarray, qubits: tuple[int, ...]) -> None:
        k = len(qubits)
        if matrix.shape != (2 ** k, 2 ** k):
            raise ValueError("gate matrix dimension does not match qubit count")
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise IndexError(f"qubit {q} out of range")
        if len(set(qubits)) != k:
            raise ValueError("duplicate qubits in gate operands")

    def apply_gate(self, matrix: np.ndarray, qubits: tuple[int, ...]) -> None:
        """Apply a ``2**k x 2**k`` unitary to the listed qubits.

        One- and two-qubit gates go through the in-place stride kernels of
        :mod:`repro.qx.kernels`; larger gates use the generic reference
        pipeline (:func:`repro.qx.kernels.apply_gate_generic`).
        """
        self._check_gate_operands(matrix, qubits)
        self.amplitudes = kernels.apply_gate_inplace(self.amplitudes, matrix, tuple(qubits))

    def apply_pauli(self, pauli: str, qubit: int) -> None:
        """Apply a single Pauli error/gate by name ('i', 'x', 'y' or 'z')."""
        if pauli not in PAULI_MATRICES:
            raise ValueError(f"unknown Pauli {pauli!r}")
        if pauli != "i":
            self.apply_gate(PAULI_MATRICES[pauli], (qubit,))

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #
    def measure(self, qubit: int, collapse: bool = True) -> int:
        """Measure one qubit in the computational basis.

        Returns 0 or 1, and (by default) collapses the state accordingly.
        """
        prob_one = self.probability_of_one(qubit)
        outcome = 1 if self.rng.random() < prob_one else 0
        if collapse:
            self.collapse(qubit, outcome)
        return outcome

    def probability_of_one(self, qubit: int) -> float:
        if not 0 <= qubit < self.num_qubits:
            raise IndexError(f"qubit {qubit} out of range")
        return kernels.probability_of_one(self.amplitudes, qubit)

    def collapse(self, qubit: int, outcome: int) -> None:
        """Project onto ``|outcome>`` of ``qubit`` and renormalise (in place)."""
        if outcome not in (0, 1):
            raise ValueError(f"measurement outcome must be 0 or 1, got {outcome}")
        kernels.collapse(self.amplitudes, qubit, outcome)

    def measure_all(self) -> list[int]:
        """Measure every qubit; returns a list of bits indexed by qubit.

        Samples one basis index from the full distribution and collapses to
        it — equivalent in distribution to n sequential single-qubit
        measurements, but a single O(2**n) pass instead of n of them.
        """
        probs = self.probabilities()
        cumulative = np.cumsum(probs)
        draw = self.rng.random() * cumulative[-1]
        outcome = int(np.searchsorted(cumulative, draw, side="right"))
        outcome = min(outcome, probs.size - 1)
        self.set_basis_state(outcome)
        return [(outcome >> q) & 1 for q in range(self.num_qubits)]

    def sample_counts(self, shots: int, qubits: tuple[int, ...] | None = None) -> dict[str, int]:
        """Sample measurement outcomes without collapsing the live state.

        Returns a histogram keyed by bit-string with qubit 0 as the rightmost
        character (cQASM display convention).  Sampling and keying are the
        shared :class:`repro.qx.keying.PreparedIndexSampler`, so the dense
        and density engines key identically by construction.
        """
        targets = qubits if qubits is not None else tuple(range(self.num_qubits))
        return PreparedIndexSampler(self.probabilities(), targets).sample(shots, self.rng)

    def expectation_z(self, qubit: int) -> float:
        """Expectation value of Pauli-Z on a qubit."""
        return 1.0 - 2.0 * self.probability_of_one(qubit)

    def expectation_zz(self, qubit_a: int, qubit_b: int) -> float:
        """Expectation value of Z_a Z_b, used by QAOA/Ising energy evaluation."""
        return kernels.pair_parity_expectation(self.amplitudes, qubit_a, qubit_b)


def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(2 ** num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def ghz_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(2 ** num_qubits, dtype=complex)
    state[0] = 1.0 / math.sqrt(2.0)
    state[-1] = 1.0 / math.sqrt(2.0)
    return state


def uniform_superposition(num_qubits: int) -> np.ndarray:
    dim = 2 ** num_qubits
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
