"""Quantum associative memory for the sliced reference database.

The reference genome is sliced into k-mers and stored as an
index-entangled superposition

    |DB> = (1/sqrt(M)) * sum_i |i>_index (x) |slice_i>_data

so that a pattern query can amplify the index of the closest match
("Due to the reference database and index being entangled, the
closest-match index can be estimated", Section 3.2).  The memory is backed
by the state-vector engine, so storage and recall both run on the QX layer.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.qgs.dna import encode_sequence, hamming_distance
from repro.qx.statevector import StateVector


class QuantumAssociativeMemory:
    """Index-entangled superposed storage of equal-length DNA slices."""

    def __init__(self, slices: list[str], rng: np.random.Generator | None = None):
        if not slices:
            raise ValueError("need at least one slice to store")
        lengths = {len(s) for s in slices}
        if len(lengths) != 1:
            raise ValueError("all slices must have equal length")
        self.slices = list(slices)
        self.slice_length = lengths.pop()
        self.num_entries = len(slices)
        self.address_qubits = max(1, math.ceil(math.log2(self.num_entries)))
        self.data_qubits = 2 * self.slice_length
        self.total_qubits = self.address_qubits + self.data_qubits
        if self.total_qubits > 24:
            raise ValueError(
                f"database needs {self.total_qubits} qubits; reduce genome or slice size"
            )
        self.rng = rng if rng is not None else np.random.default_rng()
        self._state = self._build_state()

    # ------------------------------------------------------------------ #
    def _basis_index(self, address: int, data_code: int) -> int:
        """Address register in the low qubits, data register in the high qubits."""
        return address | (data_code << self.address_qubits)

    def _build_state(self) -> StateVector:
        state = StateVector(self.total_qubits, rng=self.rng)
        amplitudes = np.zeros(2 ** self.total_qubits, dtype=complex)
        normalisation = 1.0 / math.sqrt(self.num_entries)
        for address, sequence in enumerate(self.slices):
            code = encode_sequence(sequence)
            amplitudes[self._basis_index(address, code)] = normalisation
        state.set_state(amplitudes)
        return state

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> StateVector:
        return self._state

    def amplitudes(self) -> np.ndarray:
        return self._state.amplitudes.copy()

    def capacity_advantage(self) -> float:
        """Classical bits needed to store the database per qubit used.

        The headline "exponential increase in capacity": M slices of L bases
        occupy M * 2L classical bits but only ceil(log2 M) + 2L qubits.
        """
        classical_bits = self.num_entries * 2 * self.slice_length
        return classical_bits / self.total_qubits

    # ------------------------------------------------------------------ #
    def marked_addresses(self, query: str, max_mismatches: int = 0) -> list[int]:
        """Addresses whose stored slice is within ``max_mismatches`` of the query."""
        if len(query) != self.slice_length:
            raise ValueError("query length must equal the slice length")
        return [
            address
            for address, sequence in enumerate(self.slices)
            if hamming_distance(sequence, query) <= max_mismatches
        ]

    def oracle_phase_flip(self, amplitudes: np.ndarray, addresses: list[int]) -> np.ndarray:
        """Flip the phase of every database entry whose address is marked.

        This is the content-addressable oracle: it acts on the joint
        index (x) data state produced by :meth:`_build_state`.
        """
        flipped = amplitudes.copy()
        for address, sequence in enumerate(self.slices):
            if address in set(addresses):
                code = encode_sequence(sequence)
                flipped[self._basis_index(address, code)] *= -1.0
        return flipped

    def measure_address(self, amplitudes: np.ndarray) -> int:
        """Sample the address register from a (possibly amplified) state."""
        probabilities = np.abs(amplitudes) ** 2
        probabilities = probabilities / probabilities.sum()
        outcome = int(self.rng.choice(probabilities.size, p=probabilities))
        return outcome & ((1 << self.address_qubits) - 1)
