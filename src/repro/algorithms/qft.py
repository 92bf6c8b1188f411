"""Quantum Fourier transform kernels."""

from __future__ import annotations

from repro.core.circuit import Circuit, qft_circuit


def quantum_fourier_transform(num_qubits: int, with_swaps: bool = True) -> Circuit:
    """QFT circuit implementing the DFT matrix in little-endian ordering."""
    return qft_circuit(num_qubits, with_swaps=with_swaps)


def inverse_quantum_fourier_transform(num_qubits: int, with_swaps: bool = True) -> Circuit:
    """Inverse QFT: the adjoint of :func:`quantum_fourier_transform`."""
    circuit = quantum_fourier_transform(num_qubits, with_swaps=with_swaps).inverse()
    circuit.name = f"iqft_{num_qubits}"
    return circuit
