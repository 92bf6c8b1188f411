"""Reference operator checks: unitarity, phase equivalence and CPTP.

The engines never ask these questions at run time — a gate or channel is
built correct by construction — so the checks live here, as the oracles
the gate library and the channel constructors are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.gates import Gate
from repro.qx.channels import Channel, pauli_elements


def is_unitary(gate: Gate, atol: float = 1e-9) -> bool:
    """True when the gate matrix is unitary within ``atol``."""
    ident = np.eye(gate.matrix.shape[0])
    return bool(np.allclose(gate.matrix @ gate.matrix.conj().T, ident, atol=atol))


def equivalent_to(gate: Gate, other: Gate, atol: float = 1e-8) -> bool:
    """True when two gates are equal up to a global phase."""
    if gate.num_qubits != other.num_qubits:
        return False
    a, b = gate.matrix, other.matrix
    # Find the largest entry of b to fix the phase.
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a, phase * b, atol=atol))


def choi(channel: Channel) -> np.ndarray:
    """The Choi matrix ``sum_ij ptm[i, j] B_i (x) conj(B_j)``.

    Positive semidefinite iff the channel is completely positive.
    """
    elements = pauli_elements(channel.num_qubits)
    return np.einsum("ij,iab,jcd->acbd", channel.ptm, elements, elements.conj()).reshape(
        channel.ptm.shape
    )


def is_trace_preserving(channel: Channel, atol: float = 1e-9) -> bool:
    """``traces @ ptm == traces``, with ``traces`` the trace of each basis element."""
    traces = np.einsum("iaa->i", pauli_elements(channel.num_qubits))
    return bool(np.allclose(traces @ channel.ptm, traces, atol=atol))


def is_cptp(channel: Channel, atol: float = 1e-9) -> bool:
    """Complete positivity (Choi spectrum) plus trace preservation."""
    if not is_trace_preserving(channel, atol):
        return False
    return bool(np.linalg.eigvalsh(choi(channel)).min() > -atol)
