"""Quantum gate definitions and the standard gate set.

The gate set mirrors the instruction vocabulary used throughout the
OpenQL / cQASM tool-chain of the paper: Pauli gates, Clifford generators,
T gates, parameterised rotations, and the two-qubit CNOT / CZ / SWAP
entangling gates.  Every gate knows its unitary matrix so the same objects
drive both the compiler (decomposition, inversion, commutation checks) and
the QX simulator (state evolution).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def _as_matrix(rows) -> np.ndarray:
    return np.array(rows, dtype=complex)


@dataclass(frozen=True)
class Gate:
    """A named unitary acting on a fixed number of qubits.

    Parameters
    ----------
    name:
        Canonical lower-case mnemonic used in cQASM (``h``, ``cnot``, ...).
    num_qubits:
        Number of qubits the gate acts on.
    matrix:
        ``2**n x 2**n`` unitary matrix.
    params:
        Optional tuple of real parameters (rotation angles, in radians).
    duration:
        Nominal duration in nanoseconds; refined per platform by the
        eQASM backend.
    """

    name: str
    num_qubits: int
    matrix: np.ndarray = field(compare=False, repr=False)
    params: tuple = ()
    duration: int = 20

    def __post_init__(self) -> None:
        dim = 2 ** self.num_qubits
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"gate {self.name!r} on {self.num_qubits} qubit(s) requires a "
                f"{dim}x{dim} matrix, got {self.matrix.shape}"
            )

    def dagger(self) -> "Gate":
        """Return the Hermitian adjoint of this gate."""
        return Gate(
            name=f"{self.name}dag" if not self.name.endswith("dag") else self.name[:-3],
            num_qubits=self.num_qubits,
            matrix=self.matrix.conj().T,
            params=tuple(-p for p in self.params),
            duration=self.duration,
        )


def identity_gate() -> Gate:
    return Gate("i", 1, _as_matrix([[1, 0], [0, 1]]), duration=20)


def x_gate() -> Gate:
    return Gate("x", 1, _as_matrix([[0, 1], [1, 0]]), duration=20)


def y_gate() -> Gate:
    return Gate("y", 1, _as_matrix([[0, -1j], [1j, 0]]), duration=20)


def z_gate() -> Gate:
    return Gate("z", 1, _as_matrix([[1, 0], [0, -1]]), duration=20)


def h_gate() -> Gate:
    return Gate(
        "h", 1, _SQRT2_INV * _as_matrix([[1, 1], [1, -1]]), duration=20
    )


def s_gate() -> Gate:
    return Gate("s", 1, _as_matrix([[1, 0], [0, 1j]]), duration=20)


def sdag_gate() -> Gate:
    return Gate("sdag", 1, _as_matrix([[1, 0], [0, -1j]]), duration=20)


def t_gate() -> Gate:
    return Gate("t", 1, _as_matrix([[1, 0], [0, cmath.exp(1j * math.pi / 4)]]), duration=20)


def tdag_gate() -> Gate:
    return Gate(
        "tdag", 1, _as_matrix([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]]), duration=20
    )


def x90_gate() -> Gate:
    return rx_gate(math.pi / 2.0, name="x90")


def mx90_gate() -> Gate:
    return rx_gate(-math.pi / 2.0, name="mx90")


def y90_gate() -> Gate:
    return ry_gate(math.pi / 2.0, name="y90")


def my90_gate() -> Gate:
    return ry_gate(-math.pi / 2.0, name="my90")


def rx_gate(theta: float, name: str = "rx") -> Gate:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return Gate(name, 1, _as_matrix([[c, -1j * s], [-1j * s, c]]), params=(theta,), duration=20)


def ry_gate(theta: float, name: str = "ry") -> Gate:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return Gate(name, 1, _as_matrix([[c, -s], [s, c]]), params=(theta,), duration=20)


def rz_gate(theta: float, name: str = "rz") -> Gate:
    phase = cmath.exp(1j * theta / 2.0)
    return Gate(
        name, 1, _as_matrix([[1.0 / phase, 0], [0, phase]]), params=(theta,), duration=20
    )


def phase_gate(theta: float) -> Gate:
    """Diagonal phase gate diag(1, e^{i theta})."""
    return Gate(
        "phase", 1, _as_matrix([[1, 0], [0, cmath.exp(1j * theta)]]), params=(theta,), duration=20
    )


def cnot_gate() -> Gate:
    return Gate(
        "cnot",
        2,
        _as_matrix(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        ),
        duration=40,
    )


def cz_gate() -> Gate:
    return Gate(
        "cz",
        2,
        _as_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
        duration=40,
    )


def swap_gate() -> Gate:
    return Gate(
        "swap",
        2,
        _as_matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        duration=120,
    )


def cr_gate(theta: float) -> Gate:
    """Controlled phase rotation, the workhorse of the QFT."""
    return Gate(
        "cr",
        2,
        _as_matrix(
            [
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, cmath.exp(1j * theta)],
            ]
        ),
        params=(theta,),
        duration=40,
    )


def crk_gate(k: int) -> Gate:
    """Controlled phase rotation by ``2*pi / 2**k`` (cQASM ``crk``)."""
    gate = cr_gate(2.0 * math.pi / (2 ** k))
    return Gate("crk", 2, gate.matrix, params=(float(k),), duration=40)


def toffoli_gate() -> Gate:
    mat = np.eye(8, dtype=complex)
    mat[6, 6] = 0
    mat[7, 7] = 0
    mat[6, 7] = 1
    mat[7, 6] = 1
    return Gate("toffoli", 3, mat, duration=240)


_PARAMETRIC_BUILDERS = {
    "rx": rx_gate,
    "ry": ry_gate,
    "rz": rz_gate,
    "cr": cr_gate,
    "phase": phase_gate,
}

_FIXED_BUILDERS = {
    "i": identity_gate,
    "x": x_gate,
    "y": y_gate,
    "z": z_gate,
    "h": h_gate,
    "s": s_gate,
    "sdag": sdag_gate,
    "t": t_gate,
    "tdag": tdag_gate,
    "x90": x90_gate,
    "mx90": mx90_gate,
    "y90": y90_gate,
    "my90": my90_gate,
    "cnot": cnot_gate,
    "cz": cz_gate,
    "swap": swap_gate,
    "toffoli": toffoli_gate,
}


class GateSet:
    """A registry of gates available to a platform.

    The compiler queries the gate set of the target platform to know what
    it may emit; the simulator queries it to obtain matrices.
    """

    def __init__(self, gates: dict[str, Gate] | None = None):
        self._gates: dict[str, Gate] = dict(gates or {})

    def add(self, gate: Gate) -> None:
        self._gates[gate.name] = gate

    def __contains__(self, name: str) -> bool:
        return name in self._gates or name in _PARAMETRIC_BUILDERS

    def __iter__(self):
        return iter(self._gates.values())

    def names(self) -> list[str]:
        return sorted(self._gates)

    def get(self, name: str, *params: float) -> Gate:
        """Return the gate instance for ``name``, building parametric gates on demand."""
        if params and name in _PARAMETRIC_BUILDERS:
            return _PARAMETRIC_BUILDERS[name](*params)
        if name == "crk" and params:
            return crk_gate(int(params[0]))
        if name in self._gates:
            return self._gates[name]
        if name in _FIXED_BUILDERS:
            return _FIXED_BUILDERS[name]()
        raise KeyError(f"unknown gate {name!r}")


def standard_gate_set() -> GateSet:
    """Return the default universal gate set used by OpenQL-style platforms."""
    gate_set = GateSet()
    for builder in _FIXED_BUILDERS.values():
        gate_set.add(builder())
    return gate_set


def build_gate(name: str, *params: float) -> Gate:
    """Construct a gate by mnemonic, e.g. ``build_gate('rx', 0.5)``.

    Dispatches straight to the gate's builder: constructing a one-off
    ``standard_gate_set()`` (sixteen gate matrices) per call made this the
    hot path of circuit construction and SWAP-heavy routing.
    """
    if params and name in _PARAMETRIC_BUILDERS:
        return _PARAMETRIC_BUILDERS[name](*params)
    if params and name == "crk":
        return crk_gate(int(params[0]))
    if not params and name in _FIXED_BUILDERS:
        return _FIXED_BUILDERS[name]()
    return standard_gate_set().get(name, *params)


PAULI_GATES = ("i", "x", "y", "z")
CLIFFORD_GENERATORS = ("h", "s", "cnot")
TWO_QUBIT_GATES = ("cnot", "cz", "swap", "cr", "crk")
HERMITIAN_GATES = ("i", "x", "y", "z", "h", "cnot", "cz", "swap", "toffoli")
