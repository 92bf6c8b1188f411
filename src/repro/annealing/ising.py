"""Classical Ising spin model.

``E(s) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j`` with spins in {-1, +1}.
Quantum annealers natively minimise this form (Section 3.3: "Quantum
annealers use the Ising model of spin variables ... isomorphic to the QUBO
model").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class IsingModel:
    """Ising Hamiltonian with local fields ``h`` and couplings ``J`` (upper-triangular)."""

    h: np.ndarray
    couplings: np.ndarray

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=float)
        couplings = np.asarray(self.couplings, dtype=float)
        if couplings.shape != (self.h.size, self.h.size):
            raise ValueError("couplings must be an n x n matrix")
        self.couplings = np.triu(couplings, 1) + np.tril(couplings, -1).T

    @property
    def num_spins(self) -> int:
        return self.h.size

    # ------------------------------------------------------------------ #
    def energy(self, spins: np.ndarray) -> float:
        s = np.asarray(spins, dtype=float)
        if s.shape != (self.num_spins,):
            raise ValueError("spin vector has the wrong length")
        return float(self.h @ s + s @ self.couplings @ s)

    def brute_force(self) -> tuple[np.ndarray, float]:
        """Exact ground state by enumeration (up to 24 spins)."""
        n = self.num_spins
        if n > 24:
            raise ValueError("brute force limited to 24 spins")
        best_energy = np.inf
        best = np.ones(n, dtype=int)
        for value in range(2 ** n):
            spins = np.array([1 if (value >> i) & 1 else -1 for i in range(n)], dtype=float)
            energy = self.energy(spins)
            if energy < best_energy:
                best_energy = energy
                best = spins.astype(int)
        return best, float(best_energy)

    # ------------------------------------------------------------------ #
    def edges(self) -> list[tuple[int, int]]:
        """Spin pairs with non-zero coupling."""
        rows, cols = np.nonzero(self.couplings)
        return sorted((int(i), int(j)) for i, j in zip(rows, cols, strict=True))

    def __repr__(self) -> str:  # pragma: no cover
        return f"IsingModel(spins={self.num_spins}, couplings={len(self.edges())})"
