"""Quantum channels as Pauli-transfer matrices (PTMs).

The trajectory error models in :mod:`repro.qx.error_models` describe noise
operationally — "with probability p, apply X/Y/Z" — which forces the
density engine into per-gate Kraus contractions.  This module gives every
channel a single linear-algebra representation instead: a real
``4**k x 4**k`` matrix acting on the coefficient vector of the density
matrix in the normalised Pauli basis (the Pauli-transfer matrix).  In
that picture

* a unitary gate is a PTM (conjugation lifted to superoperator form),
* every noise channel is a PTM,
* channel composition is a plain matrix product, and
* the density matrix itself is a *real* vector of length ``4**n``.

That last point is what the compiler below exploits — the technique of
quantumsim's ``Operation.from_sequence(...).compile()``: each circuit
position (a gate *and* the noise channels trailing it) fuses into one
superoperator, adjacent single-qubit channels fold together, and identity
channels are elided, mirroring the :class:`~repro.qx.compiled
.KernelProgram` lowering (pending per-qubit runs, flushed at multi-qubit
boundaries).

Nothing here touches an engine: :mod:`repro.qx.density` executes the
compiled :class:`ChannelProgram` with stride-view superoperator kernels.
"""

from __future__ import annotations

import numpy as np

from repro.qx.compiled import GATE, MEASURE, KernelProgram, program_for

_ATOL = 1e-12

_SQRT2 = float(np.sqrt(2.0))

#: Unnormalised single-qubit Pauli matrices in the conventional order.
PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: The operator basis every PTM here is written in: the normalised Pauli
#: basis ``{I, X, Y, Z} / sqrt(2)``, orthonormal under the trace inner
#: product, in which PTMs of Pauli channels are diagonal and the state
#: vector is real.
_BASIS = np.stack([PAULIS[p] for p in "IXYZ"]) / _SQRT2


def pauli_elements(num_qubits: int = 1) -> np.ndarray:
    """All ``4**k`` elements of the k-qubit product Pauli basis.

    Element ``i`` is the Kronecker product over qubits with operand 0 as
    the *most* significant base-4 digit of ``i`` — the same textbook
    convention the gate kernels use for matrix indices.
    """
    elements = _BASIS
    for _ in range(num_qubits - 1):
        count, dim = elements.shape[0], elements.shape[1]
        elements = np.einsum("iab,jcd->ijacbd", elements, _BASIS).reshape(
            count * 4, dim * 2, dim * 2
        )
    return elements


# ---------------------------------------------------------------------- #
# State conversions
# ---------------------------------------------------------------------- #
def density_to_vector(rho: np.ndarray) -> np.ndarray:
    """Coefficient vector ``r_i = Tr[B_i^dag rho]`` of a density matrix.

    Qubit ``q`` occupies the base-4 digit of significance ``4**q`` in the
    flat index, matching the little-endian bit layout of the state-vector
    engine.  Real for Hermitian ``rho``; cost is ``O(n 4**n)`` via
    per-qubit partial transforms.
    """
    rho = np.asarray(rho, dtype=complex)
    num_qubits = rho.shape[0].bit_length() - 1
    # Interleave row/column bits per qubit: axes (r_0, c_0, r_1, c_1, ...)
    # with axis pair 2j belonging to qubit n-1-j.
    tensor = rho.reshape((2,) * (2 * num_qubits))
    order = [axis for q in range(num_qubits) for axis in (q, num_qubits + q)]
    tensor = np.transpose(tensor, order)
    contract = _BASIS.conj()  # r_i = sum_ab conj(B_i[a, b]) rho[a, b]
    for qubit_axis in range(num_qubits):
        axis = qubit_axis  # processed axes collapse 2 -> 1, so pairs stay put
        moved = np.tensordot(contract, tensor, axes=([1, 2], [axis, axis + 1]))
        tensor = np.moveaxis(moved, 0, axis)
    vector = tensor.reshape(-1)
    if np.max(np.abs(vector.imag)) > 1e-9 * max(1.0, np.max(np.abs(vector.real))):
        raise ValueError("density matrix is not Hermitian: coefficient vector is complex")
    return np.ascontiguousarray(vector.real)


def vector_to_density(vector: np.ndarray) -> np.ndarray:
    """Reassemble ``rho = sum_i r_i B_i`` from its coefficient vector."""
    vector = np.asarray(vector)
    num_qubits = (vector.size.bit_length() - 1) // 2
    tensor = vector.astype(complex).reshape((4,) * num_qubits)
    # Expand each base-4 axis into an interleaved (row, column) pair.
    for qubit_axis in range(num_qubits):
        axis = 2 * qubit_axis
        moved = np.tensordot(_BASIS, tensor, axes=([0], [axis]))
        tensor = np.moveaxis(moved, [0, 1], [axis, axis + 1])
    order = [2 * q for q in range(num_qubits)] + [2 * q + 1 for q in range(num_qubits)]
    dim = 1 << num_qubits
    return np.ascontiguousarray(np.transpose(tensor, order).reshape(dim, dim))


# ---------------------------------------------------------------------- #
# Channels
# ---------------------------------------------------------------------- #
class Channel:
    """A quantum channel represented by its Pauli-transfer matrix.

    ``ptm[i, j] = Tr[B_i^dag E(B_j)]`` over the k-qubit product Pauli
    basis; real for Hermiticity-preserving maps.  Operand 0 is the most
    significant base-4 digit of the PTM index.
    """

    __slots__ = ("ptm", "num_qubits")

    def __init__(self, ptm: np.ndarray):
        ptm = np.ascontiguousarray(ptm, dtype=np.float64)
        if ptm.ndim != 2 or ptm.shape[0] != ptm.shape[1]:
            raise ValueError("a PTM must be square")
        num_qubits = (ptm.shape[0].bit_length() - 1) // 2
        if 4**num_qubits != ptm.shape[0]:
            raise ValueError("PTM dimension must be a power of four")
        self.ptm = ptm
        self.num_qubits = num_qubits

    # -- constructors ---------------------------------------------------- #
    @classmethod
    def from_kraus(cls, kraus) -> "Channel":
        """Channel ``E(rho) = sum_k K rho K^dag`` from its Kraus operators."""
        kraus = [np.asarray(k, dtype=complex) for k in kraus]
        num_qubits = kraus[0].shape[0].bit_length() - 1
        elements = pauli_elements(num_qubits)
        images = np.zeros_like(elements)
        for operator in kraus:
            conjugated = np.einsum("ab,jbc,dc->jad", operator, elements, operator.conj())
            images = images + conjugated
        ptm = np.einsum("iab,jab->ij", elements.conj(), images)
        if np.max(np.abs(ptm.imag)) > 1e-10:
            raise ValueError("Kraus map is not Hermiticity-preserving")
        return cls(ptm.real)

    @classmethod
    def from_unitary(cls, matrix) -> "Channel":
        """The superoperator lift ``rho -> U rho U^dag`` of a unitary gate."""
        return cls.from_kraus([matrix])

    @classmethod
    def identity(cls, num_qubits: int = 1) -> "Channel":
        return cls(np.eye(4**num_qubits))

    @classmethod
    def pauli(cls, p_x: float, p_y: float, p_z: float) -> "Channel":
        """Biased Pauli channel: apply X/Y/Z with the given probabilities.

        Diagonal in the Pauli basis: each Pauli axis is damped by twice
        the weight of the anticommuting error probabilities.
        """
        diag = [
            1.0,
            1.0 - 2.0 * (p_y + p_z),
            1.0 - 2.0 * (p_x + p_z),
            1.0 - 2.0 * (p_x + p_y),
        ]
        return cls(np.diag(diag))

    @classmethod
    def depolarizing(cls, probability: float, num_qubits: int = 1) -> "Channel":
        """Uniform depolarising channel on ``num_qubits`` qubits.

        With probability ``p`` one of the ``4**k - 1`` non-identity k-qubit
        Paulis is applied uniformly — the exact channel of both the
        trajectory model (k=1) and the Pauli-frame sampler's two-qubit gate
        noise (k=2, uniform over 15); every non-identity axis is damped by
        ``1 - p * 4**k / (4**k - 1)``.
        """
        dim = 4**num_qubits
        scale = 1.0 - probability * dim / (dim - 1)
        diag = np.full(dim, scale)
        diag[0] = 1.0
        return cls(np.diag(diag))

    @classmethod
    def phase_flip(cls, probability: float) -> "Channel":
        """Apply Z with probability ``p`` (pure dephasing)."""
        return cls.pauli(0.0, 0.0, probability)

    @classmethod
    def amplitude_damping(cls, gamma: float) -> "Channel":
        """True T1 amplitude damping with decay probability ``gamma``."""
        kraus = [
            np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex),
            np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
        ]
        return cls.from_kraus(kraus)

    @classmethod
    def reset(cls, probability: float) -> "Channel":
        """Measure-and-reset-to-``|0>`` with probability ``p``.

        The exact ensemble of the trajectory picture's probabilistic
        collapse (measure, then X on outcome 1): Kraus ``{P0, |0><1|}``,
        i.e. ``E(rho) = Tr(rho) |0><0|`` on the firing branch.
        """
        fire = np.zeros((4, 4))
        fire[0, 0] = 1.0
        fire[3, 0] = 1.0
        return cls((1.0 - probability) * np.eye(4) + probability * fire)

    @classmethod
    def decoherence(cls, p_decay: float, p_dephase: float) -> "Channel":
        """The T1/T2 trajectory model's exact channel.

        With probability ``p_decay`` the qubit is measured and reset to
        ``|0>``; otherwise it dephases (Z) with probability ``p_dephase`` —
        exactly the branch structure of
        :class:`~repro.qx.error_models.DecoherenceError`, so trajectory
        averages converge to this channel (the trajectory approximation of
        amplitude damping, which unlike :meth:`amplitude_damping` destroys
        all coherence on the decay branch).
        """
        survive = cls.phase_flip(p_dephase).ptm
        collapse = cls.reset(1.0).ptm
        return cls((1.0 - p_decay) * survive + p_decay * collapse)

    # -- algebra --------------------------------------------------------- #
    def compose(self, other: "Channel") -> "Channel":
        """The channel "``other``, then ``self``" (``self`` applied after)."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot compose channels of different arity")
        return Channel(self.ptm @ other.ptm)

    def tensor(self, other: "Channel") -> "Channel":
        """Parallel composition; ``self`` takes the more significant digits."""
        return Channel(np.kron(self.ptm, other.ptm))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Channel(qubits={self.num_qubits})"


# PTMs of unitary lifts are recomputed for every gate position; circuits
# repeat a handful of matrices (h, cnot, rotations), so memoise by content
# exactly like the 2q structure classifier in repro.qx.kernels.
_PTM_CACHE: dict[bytes, np.ndarray] = {}
_PTM_CACHE_CAP = 512


def ptm_of_unitary(matrix: np.ndarray) -> np.ndarray:
    """Memoised ``Channel.from_unitary(matrix).ptm``."""
    key = np.ascontiguousarray(matrix).tobytes()
    cached = _PTM_CACHE.get(key)
    if cached is not None:
        return cached
    ptm = Channel.from_unitary(matrix).ptm
    if len(_PTM_CACHE) >= _PTM_CACHE_CAP:
        _PTM_CACHE.pop(next(iter(_PTM_CACHE)))
    _PTM_CACHE[key] = ptm
    return ptm


# ---------------------------------------------------------------------- #
# Compiled channel programs
# ---------------------------------------------------------------------- #
class ChannelOp:
    """One placed superoperator: a PTM bound to a qubit tuple."""

    __slots__ = ("ptm", "qubits")

    def __init__(self, ptm: np.ndarray, qubits: tuple[int, ...]):
        self.ptm = np.ascontiguousarray(ptm, dtype=np.float64)
        self.qubits = tuple(qubits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ChannelOp(qubits={self.qubits})"


class ChannelProgram:
    """A circuit + error model lowered to a flat list of superoperators.

    ``confusion`` is the classical read-out channel (a 2x2 row-stochastic
    matrix, or ``None`` for perfect read-out) applied to the outcome
    distribution of every measured qubit — measurement error lives on the
    classical side of the quantum/classical boundary, so it never enters
    the PTM stream.
    """

    __slots__ = ("num_qubits", "ops", "confusion", "fused", "gate_count")

    def __init__(
        self,
        num_qubits: int,
        ops: list[ChannelOp],
        confusion: np.ndarray | None = None,
        fused: bool = True,
        gate_count: int = 0,
    ):
        self.num_qubits = num_qubits
        self.ops = ops
        self.confusion = confusion
        self.fused = fused
        #: Gate positions in the source program (before fusion/elision).
        self.gate_count = gate_count

    @property
    def positions(self) -> int:
        """Superoperator applications the engine will execute."""
        return len(self.ops)


def _lift_noise_to(ptm: np.ndarray, noise_qubits, gate_qubits) -> np.ndarray:
    """Embed a noise PTM on (a subset of) a gate's qubits into the gate's arity."""
    noise_qubits = tuple(noise_qubits)
    gate_qubits = tuple(gate_qubits)
    if noise_qubits == gate_qubits:
        return ptm
    if set(noise_qubits) == set(gate_qubits):
        # Same qubits, different operand order: permute the PTM's per-qubit
        # axes (operand 0 is the most significant base-4 digit).
        k = len(gate_qubits)
        perm = [noise_qubits.index(qubit) for qubit in gate_qubits]
        tensor = ptm.reshape((4,) * (2 * k))
        return tensor.transpose(perm + [k + axis for axis in perm]).reshape(4**k, 4**k)
    if len(noise_qubits) != 1:
        raise ValueError(
            "noise channels must act on one qubit or exactly the gate's qubits"
        )
    factors = [ptm if qubit == noise_qubits[0] else np.eye(4) for qubit in gate_qubits]
    lifted = factors[0]
    for factor in factors[1:]:
        lifted = np.kron(lifted, factor)
    return lifted


def compile_channels(
    program: KernelProgram,
    error_model=None,
    *,
    num_qubits: int | None = None,
    fuse: bool = True,
) -> ChannelProgram:
    """Lower a :class:`KernelProgram` + error model into a channel program.

    Every gate position becomes one superoperator: the gate's PTM composed
    with the PTMs of the noise channels the error model attaches to it
    (``noise_channels``); spectator noise (crosstalk) emits separate ops.
    With ``fuse=True`` adjacent single-qubit superoperators on the same
    qubit fold into one PTM and near-identity PTMs are elided, mirroring
    the single-qubit run fusion of :func:`repro.qx.compiled.lower`; with
    ``fuse=False`` each gate and each noise channel stays its own op (the
    per-position baseline the benchmarks compare against).

    The program must be trajectory-free (no conditionals, no mid-circuit
    measurement) and, when noise is attached, lowered with ``fuse=False``
    so every physical gate keeps its noise-injection point.
    """
    register = num_qubits or program.num_qubits
    if program.needs_trajectories:
        raise ValueError(
            "channel compilation requires a trajectory-free program "
            "(no feedback, terminal measurements only)"
        )
    if error_model is not None and not getattr(error_model, "channel_exact", False):
        raise ValueError(
            f"error model {error_model.describe()} has no exact channel representation"
        )

    ops: list[ChannelOp] = []
    # qubit -> accumulated 4x4 PTM, mirroring lower()'s pending 1q runs.
    pending: dict[int, np.ndarray] = {}

    def flush(qubit: int) -> None:
        ptm = pending.pop(qubit, None)
        if ptm is None:
            return
        if fuse and np.allclose(ptm, np.eye(4), atol=_ATOL):
            return  # identity elision
        ops.append(ChannelOp(ptm, (qubit,)))

    def emit(ptm: np.ndarray, qubits: tuple[int, ...]) -> None:
        if len(qubits) == 1 and fuse:
            qubit = qubits[0]
            previous = pending.get(qubit)
            pending[qubit] = ptm if previous is None else ptm @ previous
            return
        for qubit in qubits:
            flush(qubit)
        if fuse and np.allclose(ptm, np.eye(ptm.shape[0]), atol=_ATOL):
            return
        ops.append(ChannelOp(ptm, qubits))

    gate_count = 0
    for op in program.ops:
        if op.kind == MEASURE:
            continue
        if op.kind != GATE:  # pragma: no cover - guarded by needs_trajectories
            raise ValueError("channel compilation hit a non-gate, non-measure op")
        gate_count += 1
        position = ptm_of_unitary(op.matrix)
        attached: list[tuple[tuple[int, ...], Channel]] = []
        if error_model is not None:
            attached = [
                (noise_qubits, channel)
                for noise_qubits, channel in error_model.noise_channels(op.qubits, op.duration)
                or []
                # Mirror the trajectory path: spectators outside the register
                # (crosstalk neighbours of edge qubits) are dropped, not errors.
                if all(qubit < register for qubit in noise_qubits)
            ]
        if attached and program.fused:
            raise ValueError("noisy channel compilation requires an unfused program")
        if fuse:
            # Fold trailing noise on the gate's own qubits into one
            # superoperator per circuit position; spectators stay separate.
            for noise_qubits, channel in attached:
                if set(noise_qubits) <= set(op.qubits):
                    lifted = _lift_noise_to(channel.ptm, noise_qubits, op.qubits)
                    position = lifted @ position
            emit(position, op.qubits)
            for noise_qubits, channel in attached:
                if not set(noise_qubits) <= set(op.qubits):
                    emit(channel.ptm, noise_qubits)
        else:
            emit(position, op.qubits)
            for noise_qubits, channel in attached:
                emit(channel.ptm, noise_qubits)
    for qubit in list(pending):
        flush(qubit)

    confusion = None
    if error_model is not None and program.num_measurements:
        confusion = error_model.confusion()
    return ChannelProgram(
        num_qubits=register,
        ops=ops,
        confusion=confusion,
        fused=fuse,
        gate_count=gate_count,
    )


def compile_circuit(
    circuit,
    error_model=None,
    *,
    num_qubits: int | None = None,
    fuse: bool = True,
) -> ChannelProgram:
    """Compile a circuit directly (lowering unfused so noise points survive)."""
    program = program_for(circuit, fuse=False)
    return compile_channels(program, error_model, num_qubits=num_qubits, fuse=fuse)
