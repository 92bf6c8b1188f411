"""Reference density-matrix evolution: the per-gate contraction engine.

The channel-native engine (:mod:`repro.qx.density`) applies one fused
Pauli-transfer matrix per circuit position; this module keeps what it
replaced, unchanged, as the oracle it is tested against and the baseline
the channel-fusion benchmarks measure:

* :class:`ContractionDensityMatrix` — gates contract into a dense complex
  ``2**n x 2**n`` matrix one at a time, noise applies as a separate Kraus
  block-update per qubit;
* :func:`apply_unitary` and :func:`apply_depolarizing` — the per-gate API
  the channel engine once exposed, applied to a
  :class:`~repro.qx.density.DensityMatrixSimulator` one PTM at a time.
"""

from __future__ import annotations

import numpy as np

from repro.core.circuit import Circuit
from repro.core.operations import GateOperation, Measurement
from repro.qx.channels import ptm_of_unitary
from repro.qx.density import DENSITY_MAX_QUBITS, DensityMatrixSimulator, _scale_diagonal_1q


def apply_unitary(
    sim: DensityMatrixSimulator, matrix: np.ndarray, qubits: tuple[int, ...]
) -> None:
    """Apply ``U rho U^dagger`` to ``sim`` as a single PTM application."""
    sim.apply_ptm(ptm_of_unitary(np.asarray(matrix, dtype=complex)), qubits)


def apply_depolarizing(sim: DensityMatrixSimulator, qubit: int, probability: float) -> None:
    """Apply the exact single-qubit depolarising channel (diagonal PTM) to ``sim``."""
    if probability <= 0:
        return
    scale = 1.0 - 4.0 * probability / 3.0
    _scale_diagonal_1q(sim.vector, np.array([1.0, scale, scale, scale]), qubit)


def _contract(tensor: np.ndarray, matrix: np.ndarray, qubits, num_qubits: int, offset: int):
    """Contract a ``2**k x 2**k`` gate into a ``(2,) * 2n`` density tensor.

    ``offset`` selects the index group: 0 applies the matrix to the row
    indices (``U rho``), ``num_qubits`` to the column indices (``rho U^T``,
    so pass the conjugate matrix for ``rho U^dagger``).  Qubit q of the flat
    index is axis ``offset + n - 1 - q`` (little-endian flat index, C-order
    tensor axes); gate operand 0 is the most significant bit of the gate
    index, matching ``repro.core.circuit._expand_gate``.
    """
    k = len(qubits)
    reshaped = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
    axes = [offset + num_qubits - 1 - q for q in qubits]
    contracted = np.tensordot(reshaped, tensor, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(contracted, list(range(k)), axes)


class ContractionDensityMatrix:
    """The pre-channel per-gate-contraction engine, kept verbatim.

    Ground truth for the PTM kernels' property tests and the baseline the
    channel-fusion benchmarks measure against: gates contract into a dense
    complex ``2**n x 2**n`` matrix one at a time, noise applies as a
    separate Kraus block-update per qubit.
    """

    def __init__(self, num_qubits: int, depolarizing_rate: float = 0.0):
        if num_qubits > DENSITY_MAX_QUBITS:
            raise ValueError(
                f"density-matrix engine limited to {DENSITY_MAX_QUBITS} qubits"
            )
        if not 0.0 <= depolarizing_rate <= 1.0:
            raise ValueError("depolarizing_rate outside [0, 1]")
        self.num_qubits = num_qubits
        self.depolarizing_rate = depolarizing_rate
        dim = 2**num_qubits
        self.rho = np.zeros((dim, dim), dtype=complex)
        self.rho[0, 0] = 1.0

    def reset(self) -> None:
        self.rho[:] = 0
        self.rho[0, 0] = 1.0

    def apply_unitary(self, matrix: np.ndarray, qubits: tuple[int, ...]) -> None:
        """Apply ``U rho U^dagger`` by tensor contraction on the gate's axes.

        Cost is ``O(4**k * 4**n)`` for a k-qubit gate instead of the
        ``O(8**n)`` of materialising the full ``2**n x 2**n`` unitary and
        taking two dense matrix products.
        """
        matrix = np.asarray(matrix, dtype=complex)
        tensor = self.rho.reshape((2,) * (2 * self.num_qubits))
        tensor = _contract(tensor, matrix, qubits, self.num_qubits, 0)
        tensor = _contract(tensor, matrix.conj(), qubits, self.num_qubits, self.num_qubits)
        self.rho = np.ascontiguousarray(tensor).reshape(self.rho.shape)

    def apply_depolarizing(self, qubit: int, probability: float) -> None:
        """Apply the exact single-qubit depolarising channel.

        Uses the closed block form: splitting rho into 2x2 blocks over the
        target qubit, ``(X rho X + Y rho Y + Z rho Z)`` equals
        ``[[A + 2D, -B], [-C, D + 2A]]``, so the channel mixes the diagonal
        blocks and damps the off-diagonal ones in place — no Pauli matrices
        are ever expanded.
        """
        if probability <= 0:
            return
        n = self.num_qubits
        high = 2 ** (n - 1 - qubit)
        low = 2**qubit
        # The block update mutates reshape views in place, which requires a
        # C-contiguous rho (reshaping a non-contiguous array returns a copy
        # and the writes would be silently discarded).
        if not self.rho.flags.c_contiguous:
            self.rho = np.ascontiguousarray(self.rho)
        blocks = self.rho.reshape(high, 2, low, high, 2, low)
        mix = 2.0 * probability / 3.0
        damp = 1.0 - 4.0 * probability / 3.0
        top = blocks[:, 0, :, :, 0, :].copy()
        bottom = blocks[:, 1, :, :, 1, :]
        blocks[:, 0, :, :, 0, :] = (1.0 - mix) * top + mix * bottom
        blocks[:, 1, :, :, 1, :] = (1.0 - mix) * bottom + mix * top
        blocks[:, 0, :, :, 1, :] *= damp
        blocks[:, 1, :, :, 0, :] *= damp

    def run(self, circuit: Circuit) -> None:
        """Evolve the density matrix through a measurement-free circuit."""
        if circuit.num_qubits > self.num_qubits:
            raise ValueError("circuit does not fit")
        for op in circuit.operations:
            if isinstance(op, Measurement):
                raise ValueError("density-matrix run() does not support measurements")
            if isinstance(op, GateOperation):
                self.apply_unitary(op.gate.matrix, op.qubits)
                if self.depolarizing_rate > 0:
                    for qubit in op.qubits:
                        self.apply_depolarizing(qubit, self.depolarizing_rate)

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.rho)).clip(min=0.0)

    def expectation_z(self, qubit: int) -> float:
        probs = self.probabilities()
        indices = np.arange(probs.size)
        signs = 1.0 - 2.0 * ((indices >> qubit) & 1)
        return float(np.sum(signs * probs))

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def fidelity_with_pure(self, state: np.ndarray) -> float:
        state = np.asarray(state, dtype=complex)
        return float(np.real(state.conj() @ self.rho @ state))

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))
