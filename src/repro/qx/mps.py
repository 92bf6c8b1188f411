"""Matrix-product-state (MPS) simulation engine.

The dense state-vector engine walls out at 26 qubits (a ``2**26`` complex
array is 1 GiB); the stabilizer tableau goes far beyond but only for
Clifford circuits.  This engine opens the third regime the paper's
full-stack vision needs: **low-entanglement circuits on large registers**
(50-100+ qubits) with *controllable* accuracy.

The state is stored as a chain of site tensors ``A[i]`` of shape
``(D_left, 2, D_right)``, site ``i`` holding qubit ``i`` (qubit 0 is the
least-significant bit of a basis index, matching the dense engine).  The
chain is kept in **mixed-canonical form** around a moving orthogonality
centre: tensors left of the centre are left-canonical, tensors right of it
right-canonical, so

* single-qubit gates contract into one site tensor (unitaries preserve the
  canonical conditions — no gauge work at all);
* a nearest-neighbour two-qubit gate contracts the two site tensors into a
  ``(D, 4, D)`` block, applies the gate, and splits back by SVD — the
  singular values at the split are exactly the **Schmidt coefficients** of
  that bond, so truncation (``max_bond`` / ``truncation_threshold``) keeps
  the optimal low-rank approximation and the discarded weight is a faithful
  per-bond error measure, accumulated in :attr:`MPSState.truncation_error`;
* non-adjacent two-qubit gates are routed by a deterministic
  swap-in/swap-out ladder of nearest-neighbour SWAPs (each an exact rank-2
  split under ``max_bond=None``);
* measurement probabilities read off the centre tensor alone, and
  multi-shot sampling walks the chain **right-to-left**, conditioning a
  per-shot boundary vector on the outcomes drawn so far (perfect sampling,
  ``O(shots * n * D**2)``, no dense vector ever materialised).

With ``max_bond=None`` and the default threshold the engine is numerically
exact and agrees with the dense engine bit-for-bit under the shared
measurement-randomness contract (one uniform draw per measurement,
``outcome = 1 iff draw < p_one``).  Circuits run on this engine through
:class:`~repro.qx.simulator.QXSimulator` with ``backend="mps"``, which keys
histograms by ``Measurement.bit`` under the shared :mod:`repro.qx.keying`
convention.
"""

from __future__ import annotations

import math

import numpy as np

from repro.qx.keying import bits_histogram

_SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

#: Default relative singular-value cutoff: Schmidt coefficients below
#: ``threshold * ||schmidt||`` are numerical noise and are dropped even when
#: ``max_bond`` is unbounded, keeping exact simulations at their true rank.
DEFAULT_TRUNCATION_THRESHOLD = 1e-12

#: Discarded Schmidt weight below this is double-precision dust (squares of
#: coefficients that are exact zeros up to round-off); it is not accumulated,
#: so exact evolutions report a truncation error of exactly 0.0.
_NUMERICAL_ZERO_WEIGHT = 1e-24

#: Largest register :meth:`MPSState.to_statevector` will materialise
#: densely (2**26 complex doubles = 1 GiB, the same wall as the dense
#: engine).  The backend capability rules reference this constant, so
#: feasibility checks and the engine can never disagree.
DENSE_MATERIALISE_LIMIT = 26


class MPSState:
    """Pure quantum state of ``num_qubits`` qubits in MPS form."""

    def __init__(
        self,
        num_qubits: int,
        max_bond: int | None = None,
        truncation_threshold: float = DEFAULT_TRUNCATION_THRESHOLD,
        rng: np.random.Generator | None = None,
    ):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        if max_bond is not None and max_bond < 1:
            raise ValueError("max_bond must be >= 1 (or None for unbounded)")
        if truncation_threshold < 0.0:
            raise ValueError("truncation_threshold must be >= 0")
        self.num_qubits = int(num_qubits)
        self.max_bond = max_bond
        self.truncation_threshold = float(truncation_threshold)
        self.rng = rng if rng is not None else np.random.default_rng()
        #: tensors[i]: (D_left, 2, D_right); the |0...0> product state.
        zero = np.zeros((1, 2, 1), dtype=complex)
        zero[0, 0, 0] = 1.0
        self.tensors = [zero.copy() for _ in range(self.num_qubits)]
        #: Orthogonality centre: tensors < centre are left-canonical,
        #: tensors > centre right-canonical.
        self.centre = 0
        #: Cumulative discarded Schmidt weight over every truncated split —
        #: an additive upper-bound proxy for 1 - fidelity with the untruncated
        #: evolution.  Exactly 0.0 while no split ever discards weight.
        self.truncation_error = 0.0
        #: Largest bond dimension reached at any point of the evolution.
        self.max_bond_reached = 1

    # ------------------------------------------------------------------ #
    # Canonical-form maintenance
    # ------------------------------------------------------------------ #
    def _shift_centre_right(self) -> None:
        c = self.centre
        tensor = self.tensors[c]
        d_left, _, d_right = tensor.shape
        q, r = np.linalg.qr(tensor.reshape(d_left * 2, d_right))
        self.tensors[c] = q.reshape(d_left, 2, -1)
        self.tensors[c + 1] = np.tensordot(r, self.tensors[c + 1], axes=(1, 0))
        self.centre = c + 1

    def _shift_centre_left(self) -> None:
        c = self.centre
        tensor = self.tensors[c]
        d_left, _, d_right = tensor.shape
        # LQ decomposition via QR of the conjugate transpose: A = L Q with
        # Q right-canonical on the (physical, right-bond) pair.
        q, r = np.linalg.qr(tensor.reshape(d_left, 2 * d_right).conj().T)
        self.tensors[c] = q.conj().T.reshape(-1, 2, d_right)
        self.tensors[c - 1] = np.tensordot(self.tensors[c - 1], r.conj().T, axes=(2, 0))
        self.centre = c - 1

    def _move_centre(self, site: int) -> None:
        while self.centre < site:
            self._shift_centre_right()
        while self.centre > site:
            self._shift_centre_left()

    # ------------------------------------------------------------------ #
    # Gate application
    # ------------------------------------------------------------------ #
    def apply_gate(self, matrix: np.ndarray, qubits: tuple[int, ...]) -> None:
        """Apply a ``2**k x 2**k`` unitary (k <= 2) to the listed qubits.

        Operand 0 is the most significant bit of the gate-matrix index, the
        convention shared with the dense engine.  Non-adjacent two-qubit
        gates are routed by a deterministic swap-in/swap-out ladder.
        """
        matrix = np.asarray(matrix, dtype=complex)
        k = len(qubits)
        if matrix.shape != (2**k, 2**k):
            raise ValueError("gate matrix dimension does not match qubit count")
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise IndexError(f"qubit {qubit} out of range")
        if k == 1:
            self._apply_1q(matrix, qubits[0])
            return
        if k != 2:
            raise ValueError(
                f"the MPS engine applies 1- and 2-qubit gates; got a {k}-qubit gate "
                "(decompose larger gates first)"
            )
        if qubits[0] == qubits[1]:
            raise ValueError("duplicate qubits in gate operands")
        self._apply_2q(matrix, qubits[0], qubits[1])

    def apply_pauli(self, pauli: str, qubit: int) -> None:
        """Apply a single Pauli error/gate by name — the error-model hook."""
        if pauli == "i":
            return
        table = {
            "x": np.array([[0, 1], [1, 0]], dtype=complex),
            "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        if pauli not in table:
            raise ValueError(f"unknown Pauli {pauli!r}")
        self._apply_1q(table[pauli], qubit)

    def _apply_1q(self, matrix: np.ndarray, qubit: int) -> None:
        # A unitary on the physical leg preserves both canonical conditions,
        # so no gauge movement is needed.
        self.tensors[qubit] = np.einsum("ab,lbr->lar", matrix, self.tensors[qubit])

    def _apply_2q(self, matrix: np.ndarray, qubit_a: int, qubit_b: int) -> None:
        low, high = sorted((qubit_a, qubit_b))
        if qubit_a > qubit_b:
            # Orient the matrix so index bit 1 (msb) addresses the lower site.
            matrix = matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        if high == low + 1:
            self._apply_2q_adjacent(matrix, low)
            return
        # Deterministic swap-in: walk the higher qubit's tensor down until it
        # sits right of the lower one, apply, then swap back out in reverse.
        for site in range(high - 1, low, -1):
            self._apply_2q_adjacent(_SWAP_MATRIX, site)
        self._apply_2q_adjacent(matrix, low)
        for site in range(low + 1, high):
            self._apply_2q_adjacent(_SWAP_MATRIX, site)

    def _apply_2q_adjacent(self, matrix: np.ndarray, site: int) -> None:
        """Contract sites ``site``/``site+1``, apply the gate, split by SVD."""
        if self.centre < site:
            self._move_centre(site)
        elif self.centre > site + 1:
            self._move_centre(site + 1)
        left = self.tensors[site]
        right = self.tensors[site + 1]
        d_left = left.shape[0]
        d_right = right.shape[2]
        theta = np.tensordot(left, right, axes=(2, 0))  # (D_l, s_i, s_i+1, D_r)
        gate = matrix.reshape(2, 2, 2, 2)
        theta = np.einsum("abcd,lcdr->labr", gate, theta)
        u, schmidt, vh = np.linalg.svd(
            theta.reshape(d_left * 2, 2 * d_right), full_matrices=False
        )
        keep = self._truncation_rank(schmidt)
        total_weight = float(np.dot(schmidt, schmidt))
        kept = schmidt[:keep]
        kept_weight = float(np.dot(kept, kept))
        if total_weight > 0.0:
            discarded = 1.0 - kept_weight / total_weight
            if discarded > _NUMERICAL_ZERO_WEIGHT:
                self.truncation_error += discarded
        # Renormalise the kept spectrum so the state norm is preserved (the
        # discarded weight is tracked separately, not silently leaked).
        if kept_weight > 0.0:
            kept = kept * math.sqrt(total_weight / kept_weight)
        self.tensors[site] = u[:, :keep].reshape(d_left, 2, keep)
        self.tensors[site + 1] = (kept[:, None] * vh[:keep]).reshape(keep, 2, d_right)
        self.centre = site + 1
        if keep > self.max_bond_reached:
            self.max_bond_reached = keep

    def _truncation_rank(self, schmidt: np.ndarray) -> int:
        """How many Schmidt coefficients the per-bond knobs keep (>= 1)."""
        norm = float(np.linalg.norm(schmidt))
        if norm == 0.0:
            return 1
        keep = int(np.count_nonzero(schmidt > self.truncation_threshold * norm))
        keep = max(keep, 1)
        if self.max_bond is not None:
            keep = min(keep, self.max_bond)
        return keep

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #
    def probability_of_one(self, qubit: int) -> float:
        """Marginal probability of measuring ``|1>`` on one qubit."""
        if not 0 <= qubit < self.num_qubits:
            raise IndexError(f"qubit {qubit} out of range")
        self._move_centre(qubit)
        tensor = self.tensors[qubit]
        total = float(np.vdot(tensor, tensor).real)
        ones = tensor[:, 1, :]
        return float(np.vdot(ones, ones).real) / total

    def measure(self, qubit: int, collapse: bool = True) -> int:
        """Measure one qubit in the computational basis.

        Follows the shared measurement-randomness contract: exactly one
        uniform draw, ``outcome = 1 iff draw < p_one`` — so a trajectory
        consumes the random stream identically on every engine.
        """
        prob_one = self.probability_of_one(qubit)
        outcome = 1 if self.rng.random() < prob_one else 0
        if collapse:
            self.collapse(qubit, outcome)
        return outcome

    def collapse(self, qubit: int, outcome: int) -> None:
        """Project onto ``|outcome>`` of ``qubit`` and renormalise."""
        if outcome not in (0, 1):
            raise ValueError(f"measurement outcome must be 0 or 1, got {outcome}")
        self._move_centre(qubit)
        tensor = self.tensors[qubit].copy()
        tensor[:, 1 - outcome, :] = 0.0
        norm = float(np.linalg.norm(tensor))
        if norm < 1e-12:
            raise ValueError(f"cannot collapse qubit {qubit} to {outcome}: zero probability")
        # The projector only touches the centre tensor, so the canonical
        # structure of the rest of the chain is untouched.
        self.tensors[qubit] = tensor / norm

    def expectation_z(self, qubit: int) -> float:
        return 1.0 - 2.0 * self.probability_of_one(qubit)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_bits(self, shots: int) -> np.ndarray:
        """Sample ``shots`` full-register outcomes without collapsing.

        Right-to-left conditional (perfect) sampling: with the centre parked
        on the last site, every site left of a partially-sampled suffix is
        left-canonical, so the conditional outcome distribution at site ``i``
        is read from ``A[i]`` contracted with the per-shot boundary vector
        of the outcomes already drawn.  Returns a ``(shots, num_qubits)``
        int64 array (column ``q`` = qubit ``q``).
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        self._move_centre(self.num_qubits - 1)
        bits = np.zeros((shots, self.num_qubits), dtype=np.int64)
        # Per-shot boundary vector over the right bond of the current site.
        boundary = np.ones((shots, 1), dtype=complex)
        for site in range(self.num_qubits - 1, -1, -1):
            tensor = self.tensors[site]
            # (D_l, s, D_r) x (shots, D_r) -> (shots, D_l, s)
            conditioned = np.einsum("lsr,nr->nls", tensor, boundary, optimize=True)
            weights = np.sum(np.abs(conditioned) ** 2, axis=1)  # (shots, 2)
            totals = weights.sum(axis=1)
            prob_one = np.divide(
                weights[:, 1], totals, out=np.zeros_like(totals), where=totals > 0
            )
            outcomes = (self.rng.random(shots) < prob_one).astype(np.int64)
            bits[:, site] = outcomes
            boundary = conditioned[np.arange(shots), :, outcomes]
            norms = np.linalg.norm(boundary, axis=1, keepdims=True)
            boundary = np.divide(boundary, norms, out=boundary, where=norms > 0)
        return bits

    def sample_counts(self, shots: int, qubits: tuple[int, ...] | None = None) -> dict[str, int]:
        """Histogram of sampled outcomes over ``qubits`` (default: all).

        Key layout matches :meth:`StateVector.sample_counts`: character ``j``
        of a key is qubit ``qubits[-1 - j]`` (the last listed qubit is the
        leftmost character).
        """
        bits = self.sample_bits(shots)
        targets = qubits if qubits is not None else tuple(range(self.num_qubits))
        if not targets:
            return {"": shots}
        # bits_histogram keys column list reversed(sorted); feed it columns
        # relabelled so that position matches the requested target order.
        ordered = bits[:, list(targets)]
        return bits_histogram(ordered, tuple(range(len(targets))))

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def norm(self) -> float:
        self._move_centre(0)
        return float(np.linalg.norm(self.tensors[0]))

    def to_statevector(self) -> np.ndarray:
        """Materialise the dense ``2**n`` amplitude vector (small n only)."""
        if self.num_qubits > DENSE_MATERIALISE_LIMIT:
            raise ValueError(
                f"cannot materialise a dense state beyond {DENSE_MATERIALISE_LIMIT} qubits"
            )
        psi = np.ones((1, 1), dtype=complex)
        for tensor in self.tensors:
            # (dim, D) x (D, s, D') -> (s, dim, D') flattened with the new
            # qubit as the most significant of the accumulated little-endian
            # index block.
            grown = np.einsum("jc,csd->sjd", psi, tensor)
            psi = grown.reshape(-1, tensor.shape[2])
        return psi.reshape(-1)

    def fidelity(self, other: "MPSState | np.ndarray") -> float:
        """Squared overlap with another state (dense or MPS, small n)."""
        other_vector = other.to_statevector() if isinstance(other, MPSState) else other
        return float(abs(np.vdot(self.to_statevector(), np.asarray(other_vector))) ** 2)
