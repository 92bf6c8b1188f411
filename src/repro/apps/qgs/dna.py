"""Artificial DNA generation, read sampling and binary encoding.

"For testing the functionality of the algorithm, we use artificial DNA
sequences that preserve the statistical and entropic complexity of the base
pairs in biological genomes; yet in a reduced size so that they can be
efficiently simulated in a classical architecture with qubit limitations."
(Section 3.2)

The generator uses a first-order Markov chain over the four bases with
transition statistics representative of the human genome (CpG suppression,
mild AT richness), which reproduces the dinucleotide entropy structure of
real sequences at any length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BASES = "ACGT"
_BASE_TO_BITS = {"A": (0, 0), "C": (0, 1), "G": (1, 0), "T": (1, 1)}
_BITS_TO_BASE = {bits: base for base, bits in _BASE_TO_BITS.items()}

#: First-order transition matrix (rows: from-base A,C,G,T) with the CpG
#: suppression characteristic of mammalian genomes (low C->G probability).
_HUMAN_LIKE_TRANSITIONS = np.array(
    [
        [0.33, 0.17, 0.28, 0.22],  # from A
        [0.35, 0.25, 0.05, 0.35],  # from C  (suppressed C->G)
        [0.28, 0.21, 0.25, 0.26],  # from G
        [0.22, 0.20, 0.25, 0.33],  # from T
    ]
)


def encode_sequence(sequence: str) -> int:
    """Pack a DNA string into an integer, two bits per base (A=00, C=01, G=10, T=11).

    The first base occupies the most significant bit pair so that
    lexicographic order of sequences matches numeric order of codes.
    """
    value = 0
    for base in sequence.upper():
        if base not in _BASE_TO_BITS:
            raise ValueError(f"invalid base {base!r}")
        high, low = _BASE_TO_BITS[base]
        value = (value << 2) | (high << 1) | low
    return value


def decode_sequence(value: int, length: int) -> str:
    """Inverse of :func:`encode_sequence`."""
    bases = []
    for position in range(length):
        shift = 2 * (length - 1 - position)
        bits = (value >> shift) & 0b11
        bases.append(_BITS_TO_BASE[((bits >> 1) & 1, bits & 1)])
    return "".join(bases)


def hamming_distance(seq_a: str, seq_b: str) -> int:
    """Number of mismatching positions between two equal-length sequences."""
    if len(seq_a) != len(seq_b):
        raise ValueError("sequences must have equal length")
    return sum(1 for a, b in zip(seq_a, seq_b, strict=False) if a != b)


@dataclass
class Read:
    """A short read sampled from a genome."""

    sequence: str
    true_position: int
    errors: int = 0

    def __len__(self) -> int:
        return len(self.sequence)


class ArtificialGenome:
    """Markov-chain artificial genome with read sampling."""

    def __init__(
        self,
        length: int,
        seed: int | np.random.SeedSequence | None = None,
        transitions: np.ndarray | None = None,
    ):
        if length < 4:
            raise ValueError("genome length must be at least 4")
        self.length = length
        self.rng = np.random.default_rng(seed)
        self.transitions = (
            np.asarray(transitions) if transitions is not None else _HUMAN_LIKE_TRANSITIONS
        )
        if self.transitions.shape != (4, 4):
            raise ValueError("transition matrix must be 4x4")
        self.sequence = self._generate()

    def _generate(self) -> str:
        bases = [int(self.rng.integers(4))]
        for _ in range(self.length - 1):
            current = bases[-1]
            probs = self.transitions[current]
            bases.append(int(self.rng.choice(4, p=probs / probs.sum())))
        return "".join(BASES[b] for b in bases)

    # ------------------------------------------------------------------ #
    def sample_read(self, read_length: int, error_rate: float = 0.0) -> Read:
        """Sample one read from a random position with per-base substitution errors."""
        if read_length > self.length:
            raise ValueError("read longer than genome")
        position = int(self.rng.integers(self.length - read_length + 1))
        bases = list(self.sequence[position : position + read_length])
        errors = 0
        for index in range(read_length):
            if self.rng.random() < error_rate:
                alternatives = [b for b in BASES if b != bases[index]]
                bases[index] = alternatives[int(self.rng.integers(3))]
                errors += 1
        return Read(sequence="".join(bases), true_position=position, errors=errors)

    def sample_reads(self, count: int, read_length: int, error_rate: float = 0.0) -> list[Read]:
        return [self.sample_read(read_length, error_rate) for _ in range(count)]

    # ------------------------------------------------------------------ #
    def gc_content(self) -> float:
        """Fraction of G/C bases (a basic realism statistic)."""
        gc = sum(1 for base in self.sequence if base in "GC")
        return gc / self.length

    def shannon_entropy(self, order: int = 1) -> float:
        """Entropy (bits per symbol) of the k-mer distribution of the sequence."""
        counts: dict[str, int] = {}
        for i in range(self.length - order + 1):
            kmer = self.sequence[i : i + order]
            counts[kmer] = counts.get(kmer, 0) + 1
        total = sum(counts.values())
        probs = np.array([c / total for c in counts.values()])
        return float(-np.sum(probs * np.log2(probs)))

    def qubits_required(self, slice_length: int) -> int:
        """Address + data qubits needed to hold the sliced reference database.

        This is the resource estimate behind the paper's remark that a human
        genome would need "around 150 logical qubits": address qubits to
        index the slices plus two qubits per base of the slice.
        """
        num_slices = self.length - slice_length + 1
        address = max(1, int(np.ceil(np.log2(num_slices))))
        return address + 2 * slice_length
