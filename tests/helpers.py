"""Importable assertion helpers shared by the unit tests.

Kept out of ``conftest.py`` on purpose: pytest imports every ``conftest.py``
under a bare ``conftest`` module name, so ``from conftest import ...`` in a
test module resolves to whichever conftest happens to land on ``sys.path``
first (historically ``benchmarks/conftest.py``, breaking collection).
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from repro.algorithms.vqe import PauliTerm
from repro.annealing.ising import IsingModel
from repro.annealing.qubo import QUBO


def relabel_statevector(
    statevector: np.ndarray, mapping: dict[int, int], num_qubits: int
) -> np.ndarray:
    """Move amplitudes from physical to logical qubit ordering.

    ``mapping`` is a routing result's ``final_placement`` (logical ->
    physical); unplaced logical/physical indices are paired up in ascending
    order so the permutation is total.
    """
    used_physical = set(mapping.values())
    used_logical = set(mapping.keys())
    free_physical = [p for p in range(num_qubits) if p not in used_physical]
    free_logical = [l for l in range(num_qubits) if l not in used_logical]
    full_map = dict(mapping)
    full_map.update(dict(zip(free_logical, free_physical, strict=False)))
    out = np.zeros_like(statevector)
    for index in range(len(statevector)):
        new_index = 0
        for logical, physical in full_map.items():
            if (index >> physical) & 1:
                new_index |= 1 << logical
        out[new_index] = statevector[index]
    return out


def assert_equivalent_up_to_phase(matrix_a: np.ndarray, matrix_b: np.ndarray, atol: float = 1e-8):
    """Assert two unitaries are equal up to a global phase."""
    index = np.unravel_index(np.argmax(np.abs(matrix_b)), matrix_b.shape)
    assert abs(matrix_b[index]) > atol, "reference matrix is numerically zero"
    phase = matrix_a[index] / matrix_b[index]
    assert abs(abs(phase) - 1.0) < 1e-6, "matrices differ by more than a phase"
    np.testing.assert_allclose(matrix_a, phase * matrix_b, atol=atol)


#: Kwargs for every registry builder, small enough for every registry
#: platform (the 2x2 spin-qubit array is the narrowest at 4 qubits).
REGISTRY_BUILDER_KWARGS = {
    "bell": {},
    "ghz": {"num_qubits": 3},
    "qft": {"num_qubits": 3},
    "random": {"num_qubits": 4, "depth": 6, "seed": 1},
    "rotations": {"num_qubits": 4, "depth": 2, "seed": 3},
}
REGISTRY_PLATFORMS = ["perfect", "realistic", "superconducting", "surface17", "spin_qubit"]


# ---------------------------------------------------------------------- #
# Circuit builders referenced by specs as "helpers:<name>"
# ---------------------------------------------------------------------- #
def cross_measured_circuit(num_qubits: int = 3, depth: int = 2, seed: int = 0):
    """Rotation ladder measuring qubit ``i`` into bit ``num_qubits - 1 - i``.

    Exercises the cross-mapped ``measure q[i] -> b[j]`` keying path; used
    with ``measure="asis"`` so the explicit cross map survives spec building.
    """
    from repro.core.circuit import Circuit

    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    for _ in range(depth):
        for qubit in range(num_qubits):
            circuit.rz(qubit, float(rng.uniform(0, 2 * np.pi)))
            circuit.ry(qubit, float(rng.uniform(0, 2 * np.pi)))
        for qubit in range(num_qubits - 1):
            circuit.cnot(qubit, qubit + 1)
    for qubit in range(num_qubits):
        circuit.measure(qubit, num_qubits - 1 - qubit)
    return circuit


def flipped_bit_circuit(num_qubits: int = 2):
    """X on qubit 0, every qubit measured into the mirrored classical bit.

    Deterministic: every shot keys as ``"10...0"`` (qubit 0's outcome lands
    on the highest classical bit, the leftmost key character).
    """
    from repro.core.circuit import Circuit

    circuit = Circuit(num_qubits)
    circuit.x(0)
    for qubit in range(num_qubits):
        circuit.measure(qubit, num_qubits - 1 - qubit)
    return circuit


def ghz_toffoli_circuit(num_qubits: int = 5):
    """GHZ whose last entangler is a toffoli, then an ``ry`` layer.

    Qubits 0 and 1 agree in both GHZ branches, so the toffoli acts as the
    cnot it replaces; the 3-qubit gate keeps the stacked batch pass from
    taking the circuit, and the rotations spread its histogram.
    """
    from repro.core.circuit import Circuit

    circuit = Circuit(num_qubits, "ghz_toffoli")
    circuit.h(0)
    for qubit in range(1, num_qubits - 1):
        circuit.cnot(0, qubit)
    circuit.toffoli(0, 1, num_qubits - 1)
    for qubit in range(num_qubits):
        circuit.ry(qubit, 0.2 + 0.1 * qubit)
    return circuit


def toffoli_circuit():
    """Hadamards on two controls feeding a toffoli: a 3-qubit gate the
    stacked batch pass cannot take."""
    from repro.core.circuit import Circuit

    circuit = Circuit(3, "toffoli")
    circuit.h(0).h(1).toffoli(0, 1, 2)
    return circuit


def clifford_feedback_circuit(num_qubits: int = 21):
    """A Clifford circuit with mid-circuit measurement and feedback.

    Hadamards and a cnot chain spread the outcomes; qubit 0 is measured
    first and conditionally flips qubit 1, then every other qubit is
    measured.  Noise-free at 21+ qubits this is tableau territory.
    """
    from repro.core.circuit import Circuit

    circuit = Circuit(num_qubits, "clifford_feedback")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for qubit in range(num_qubits - 1):
        circuit.cnot(qubit, qubit + 1)
    circuit.s(num_qubits - 1).h(num_qubits - 1)
    circuit.measure(0)
    circuit.conditional_gate("x", 0, 1)
    for qubit in range(1, num_qubits):
        circuit.measure(qubit)
    return circuit


def layered_clifford_circuit(num_qubits: int = 30):
    """Six layers of random H/S on every qubit, each followed by CNOTs over
    a random pairing of the qubits.

    Noise-free and Clifford past the dense wall: the unbounded MPS cost
    estimate loses to the tableau, while a small ``max_bond`` cap makes the
    MPS engine the cheaper one.
    """
    from repro.core.circuit import Circuit

    rng = np.random.default_rng(0)
    circuit = Circuit(num_qubits, "layered_clifford")
    for _ in range(6):
        for qubit in range(num_qubits):
            circuit.add_gate("h" if rng.random() < 0.5 else "s", qubit)
        pairing = rng.permutation(num_qubits)
        for index in range(0, num_qubits - 1, 2):
            circuit.cnot(int(pairing[index]), int(pairing[index + 1]))
    return circuit


def openblas_thread_count() -> int | None:
    """This process's numpy OpenBLAS thread count (``None``: no OpenBLAS).

    Module-level, so a process pool can run it by reference.
    """
    from repro.runtime.worker import openblas_threads

    threads = openblas_threads()
    return None if threads is None else threads.value


def wait_for_path(path: str, timeout: float = 60.0) -> bool:
    """Block until ``path`` exists (``False`` on timeout).

    Module-level, so a test can park process-pool workers on it by
    reference and release them by creating the file.
    """
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def ghz_state(num_qubits: int) -> np.ndarray:
    """Amplitudes of ``(|0...0> + |1...1>) / sqrt2``."""
    state = np.zeros(2 ** num_qubits, dtype=complex)
    state[0] = state[-1] = 1.0 / math.sqrt(2.0)
    return state


def uniform_superposition(num_qubits: int) -> np.ndarray:
    """Amplitudes of the equal superposition over all basis states."""
    dim = 2 ** num_qubits
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)


def random_ising(num_spins: int, density: float = 0.5, seed: int | None = None) -> IsingModel:
    """Seeded random spin glass: uniform fields, +-1 couplings at ``density``."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(-1.0, 1.0, size=num_spins)
    couplings = np.zeros((num_spins, num_spins))
    for i in range(num_spins):
        for j in range(i + 1, num_spins):
            if rng.random() < density:
                couplings[i, j] = rng.choice([-1.0, 1.0])
    return IsingModel(h=h, couplings=couplings)


def ising_to_qubo(model: IsingModel) -> tuple[QUBO, float]:
    """The isomorphic QUBO under ``s_i = 2 x_i - 1``: ``E_ising(s) = E_qubo(x) + offset``."""
    n = model.num_spins
    matrix = np.diag(2.0 * np.asarray(model.h, dtype=float))
    offset = -float(np.sum(model.h))
    for i in range(n):
        for j in range(i + 1, n):
            j_ij = model.couplings[i, j]
            matrix[i, j] += 4.0 * j_ij
            matrix[i, i] -= 2.0 * j_ij
            matrix[j, j] -= 2.0 * j_ij
            offset += j_ij
    return QUBO(matrix), offset


def ising_hamiltonian(h: np.ndarray, couplings: np.ndarray) -> list[PauliTerm]:
    """Pauli-term representation of an Ising Hamiltonian (for VQE)."""
    terms = [PauliTerm(float(h[i]), {i: "z"}) for i in range(len(h)) if h[i] != 0.0]
    for i in range(len(h)):
        for j in range(i + 1, len(h)):
            if couplings[i, j] != 0.0:
                terms.append(PauliTerm(float(couplings[i, j]), {i: "z", j: "z"}))
    return terms
