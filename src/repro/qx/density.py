"""Channel-native density-matrix engine.

The density matrix is stored as a *real* coefficient vector of length
``4**n`` in the normalised Pauli basis (qubit ``q`` owns the base-4 digit
of stride ``4**q``), and every operation — unitary gates and noise
channels alike — is one Pauli-transfer-matrix application executed by
stride-view superoperator kernels in the style of :mod:`repro.qx.kernels`:
a strided reshape exposes any qubit's dim-4 axis directly, diagonal PTMs
(Pauli channels) scale blocks in place, and dense PTMs run double-buffered
matrix products against a single scratch buffer, so peak memory stays at
two real ``4**n`` buffers (half the footprint of one complex ``2**n x
2**n`` matrix).

The array module is duck-typed: ``numpy`` by default, ``cupy`` when
importable and requested (``device="gpu"``), so the same kernels run on a
GPU without code changes — :func:`gpu_available` reports the honest
capability.

Executing a compiled :class:`~repro.qx.channels.ChannelProgram` (one fused
superoperator per circuit position) replaces the per-gate Kraus
contraction of the previous engine; that path is kept verbatim as the
test-suite oracle ``tests/oracles/density_reference.py``, the ground truth
the kernels are tested against and the baseline the channel-fusion
benchmarks compare to.
"""

from __future__ import annotations

import numpy as np

from repro.qx.channels import ChannelProgram, density_to_vector, vector_to_density

#: Qubit cap of the density engine — the single source of truth shared with
#: the backend registry's feasibility check (same pattern as the MPS
#: engine's DENSE_MATERIALISE_LIMIT).  A 16-qubit Pauli vector is 4**16
#: float64 = 34 GB; two buffers fit large-memory hosts, and the register
#: cap is checked before any allocation happens.
DENSITY_MAX_QUBITS = 16

_ATOL = 1e-12


# ---------------------------------------------------------------------- #
# Array-module selection (numpy / cupy duck typing)
# ---------------------------------------------------------------------- #
_CUPY_MODULE = None
_CUPY_CHECKED = False


def _cupy():
    """The imported ``cupy`` module, or ``None`` when unavailable (cached)."""
    global _CUPY_MODULE, _CUPY_CHECKED
    if not _CUPY_CHECKED:
        _CUPY_CHECKED = True
        try:  # pragma: no cover - exercised only on GPU hosts
            import cupy

            cupy.zeros(1)  # fail fast when the driver is absent
            _CUPY_MODULE = cupy
        except Exception:
            _CUPY_MODULE = None
    return _CUPY_MODULE


def gpu_available() -> bool:
    """True when ``cupy`` imports and can allocate on a device."""
    return _cupy() is not None


def array_module(device: str = "auto"):
    """The array namespace for ``device``: ``"cpu"``, ``"gpu"`` or ``"auto"``.

    ``"gpu"`` raises when cupy is unavailable instead of silently falling
    back; ``"auto"`` prefers the GPU when one exists.
    """
    if device == "cpu":
        return np
    if device == "gpu":
        module = _cupy()
        if module is None:
            raise RuntimeError("device='gpu' requested but cupy is not importable")
        return module
    if device == "auto":
        return _cupy() or np
    raise ValueError(f"unknown device {device!r} (expected 'cpu', 'gpu' or 'auto')")


def _to_numpy(array) -> np.ndarray:
    """Bring a possibly-on-device array back to host numpy."""
    if hasattr(array, "get"):
        return np.asarray(array.get())
    return np.asarray(array)


# ---------------------------------------------------------------------- #
# Stride-view superoperator kernels
# ---------------------------------------------------------------------- #
# Qubit q occupies the base-4 digit of stride 4**q in the coefficient
# vector, so — exactly like the dim-2 views of repro.qx.kernels — a
# strided reshape (always a view on a C-contiguous vector) exposes its
# axis as (high, 4, 4**q).


def _is_diagonal(ptm: np.ndarray) -> bool:
    off = ptm - np.diag(np.diag(ptm))
    return bool(np.max(np.abs(off)) < _ATOL)


def _scale_diagonal_1q(vector, diag, qubit) -> None:
    view = vector.reshape(-1, 4, 4**qubit)
    for index in range(4):
        entry = float(diag[index])
        if abs(entry - 1.0) > _ATOL:
            view[:, index, :] *= entry


def _scale_diagonal_2q(vector, diag, q_low, q_high, swapped) -> None:
    low = 4**q_low
    mid = 4 ** (q_high - q_low - 1)
    view = vector.reshape(-1, 4, mid, 4, low)
    for index in range(16):
        entry = float(diag[index])
        if abs(entry - 1.0) > _ATOL:
            digit_0, digit_1 = index >> 2, index & 3
            if swapped:
                digit_0, digit_1 = digit_1, digit_0
            view[:, digit_0, :, digit_1, :] *= entry


def _apply_dense_1q(vector, scratch, ptm, qubit, xp):
    """Dense 4x4 PTM on one qubit; returns ``(result, spare)`` buffers."""
    if qubit == 0:
        # The qubit's digit is the fastest axis: one flat gemm, no copies.
        xp.matmul(vector.reshape(-1, 4), ptm.T, out=scratch.reshape(-1, 4))
    else:
        view = vector.reshape(-1, 4, 4**qubit)
        xp.matmul(ptm, view, out=scratch.reshape(view.shape))
    return scratch, vector


def _operand_ordered(ptm: np.ndarray, swapped: bool) -> np.ndarray:
    """PTM with its operand digits swapped when the memory order differs."""
    if not swapped:
        return ptm
    return np.ascontiguousarray(
        ptm.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)
    )


# Gather/scatter work buffers for the far-apart 2q kernel are sized so one
# chunk streams through the last-level cache region without TLB thrash; the
# engine keeps them alive across ops so large registers fault them in once.
_WORK_ELEMS = 8 << 20


def _work_buffers(work, elements, dtype, xp):
    """Two flat reusable buffers of at least ``elements`` entries each."""
    if work is None:
        work = {}
    buffers = work.get("2q")
    if buffers is None or buffers[0].size < elements or buffers[0].dtype != dtype:
        size = max(elements, _WORK_ELEMS)
        buffers = (xp.empty(size, dtype), xp.empty(size, dtype))
        work["2q"] = buffers
    return buffers


def _apply_dense_2q(vector, scratch, ptm, qubit_0, qubit_1, xp, work=None):
    """Dense 16x16 PTM on ``(qubit_0, qubit_1)``; operand 0 most significant."""
    q_low, q_high = (qubit_0, qubit_1) if qubit_0 < qubit_1 else (qubit_1, qubit_0)
    # Memory order puts q_high's digit first; reorder the PTM when the
    # gate's operand 0 is the *lower* qubit index.
    ordered = xp.asarray(_operand_ordered(np.asarray(ptm), swapped=qubit_0 == q_low))
    low = 4**q_low
    if q_high == q_low + 1:
        if low == 1:
            # The pair owns the two fastest digits: one flat gemm.
            xp.matmul(
                vector.reshape(-1, 16), ordered.T, out=scratch.reshape(-1, 16)
            )
            return scratch, vector
        # Adjacent digits form one contiguous dim-16 axis: plain gemm.
        view = vector.reshape(-1, 16, low)
        xp.matmul(ordered, view, out=scratch.reshape(view.shape))
        return scratch, vector
    mid = 4 ** (q_high - q_low - 1)
    view = vector.reshape(-1, 4, mid, 4, low)
    blocks_h = view.shape[0]
    out = scratch.reshape(view.shape)
    # Far-apart digits: gather each chunk into a contiguous (16, rest)
    # buffer, apply the PTM as one gemm, and scatter back.  A single
    # whole-vector tensordot would allocate (and page-fault) a full-size
    # temporary on every call and run orders of magnitude slower for
    # high-stride digit pairs.
    span = 16 * mid * low
    if span >= _WORK_ELEMS:
        # Chunk the mid axis; the outer h loop is short (h <= N / span).
        chunk = max(1, _WORK_ELEMS // (16 * low))
        gather, result = _work_buffers(work, 16 * chunk * low, vector.dtype, xp)
        gather = gather[: 16 * chunk * low].reshape(4, 4, chunk, low)
        result = result[: 16 * chunk * low].reshape(4, 4, chunk, low)
        for index in range(blocks_h):
            for start in range(0, mid, chunk):
                stop = min(mid, start + chunk)
                width = stop - start
                lhs = gather[:, :, :width, :]
                rhs = result[:, :, :width, :]
                lhs[...] = view[index, :, start:stop, :, :].transpose(0, 2, 1, 3)
                xp.matmul(ordered, lhs.reshape(16, -1), out=rhs.reshape(16, -1))
                out[index, :, start:stop, :, :] = rhs.transpose(0, 2, 1, 3)
        return scratch, vector
    # Small span: chunk the h axis instead so each gemm still covers a
    # cache-sized block of the vector.
    chunk = max(1, min(blocks_h, _WORK_ELEMS // span))
    gather, result = _work_buffers(work, chunk * span, vector.dtype, xp)
    gather = gather[: chunk * span].reshape(4, 4, chunk, mid, low)
    result = result[: chunk * span].reshape(4, 4, chunk, mid, low)
    for start in range(0, blocks_h, chunk):
        stop = min(blocks_h, start + chunk)
        width = stop - start
        lhs = gather[:, :, :width, :, :]
        rhs = result[:, :, :width, :, :]
        lhs[...] = view[start:stop].transpose(1, 3, 0, 2, 4)
        xp.matmul(ordered, lhs.reshape(16, -1), out=rhs.reshape(16, -1))
        out[start:stop] = rhs.transpose(2, 0, 3, 1, 4)
    return scratch, vector


def _apply_dense_generic(vector, ptm, qubits, num_qubits, xp):
    """Reference k-qubit PTM application (axis-permutation pipeline).

    Mirrors ``repro.qx.kernels.apply_gate_generic``; the execution path for
    k >= 3 superoperators, which are rare enough that specialised kernels
    are not worth their complexity.  Allocates instead of double-buffering.
    """
    k = len(qubits)
    tensor = vector.reshape((4,) * num_qubits)
    axes = [num_qubits - 1 - q for q in qubits]
    blocks = xp.asarray(np.asarray(ptm)).reshape((4,) * (2 * k))
    contracted = xp.tensordot(blocks, tensor, axes=(list(range(k, 2 * k)), axes))
    contracted = xp.moveaxis(contracted, list(range(k)), axes)
    return xp.ascontiguousarray(contracted).reshape(-1)


# ---------------------------------------------------------------------- #
# The engine
# ---------------------------------------------------------------------- #
class DensityMatrixSimulator:
    """Exact open-system simulation on the compiled-channel representation.

    The engine executes channel programs (:meth:`run_channels`); noise
    enters only through the :class:`~repro.qx.error_models.ErrorModel`
    compiled into them, e.g. ``run_channels(compile_circuit(circuit,
    DepolarizingError(p)))``.  The state lives as the real Pauli-basis
    vector ``self.vector``; the dense matrix is available (and assignable)
    through the ``rho`` property for diagnostics and small-register
    cross-checks.  ``xp`` overrides the array module directly (any
    numpy-like namespace); ``device`` selects it by name.
    """

    def __init__(
        self,
        num_qubits: int,
        device: str = "cpu",
        xp=None,
        dtype=np.float64,
    ):
        if num_qubits > DENSITY_MAX_QUBITS:
            raise ValueError(
                f"density-matrix engine limited to {DENSITY_MAX_QUBITS} qubits"
            )
        self.num_qubits = num_qubits
        self._xp = xp if xp is not None else array_module(device)
        self.dtype = dtype
        self.vector = self._xp.asarray(_ground_state_vector(num_qubits, dtype))
        self._scratch = None
        self._work: dict = {}

    # -- state access ---------------------------------------------------- #
    @property
    def rho(self) -> np.ndarray:
        """The dense density matrix (materialised on demand, host memory)."""
        return vector_to_density(_to_numpy(self.vector))

    @rho.setter
    def rho(self, matrix: np.ndarray) -> None:
        vector = density_to_vector(np.asarray(matrix, dtype=complex))
        if vector.size != 4**self.num_qubits:
            raise ValueError("density matrix does not match the register size")
        self.vector = self._xp.asarray(vector.astype(self.dtype))

    def reset(self) -> None:
        self.vector = self._xp.asarray(_ground_state_vector(self.num_qubits, self.dtype))

    def _ensure_scratch(self):
        if self._scratch is None:
            self._scratch = self._xp.empty_like(self.vector)
        return self._scratch

    # -- superoperator application --------------------------------------- #
    def apply_ptm(self, ptm: np.ndarray, qubits: tuple[int, ...]) -> None:
        """Apply one Pauli-transfer matrix to ``qubits`` (operand 0 high)."""
        xp = self._xp
        k = len(qubits)
        host_ptm = np.asarray(ptm, dtype=self.dtype)
        if k <= 2 and _is_diagonal(host_ptm):
            diag = np.diag(host_ptm)
            if k == 1:
                _scale_diagonal_1q(self.vector, diag, qubits[0])
            else:
                q_low, q_high = sorted(qubits)
                _scale_diagonal_2q(self.vector, diag, q_low, q_high, qubits[0] == q_low)
            return
        if k == 1:
            device_ptm = xp.asarray(host_ptm)
            self.vector, self._scratch = _apply_dense_1q(
                self.vector, self._ensure_scratch(), device_ptm, qubits[0], xp
            )
        elif k == 2:
            self.vector, self._scratch = _apply_dense_2q(
                self.vector,
                self._ensure_scratch(),
                host_ptm,
                qubits[0],
                qubits[1],
                xp,
                work=self._work,
            )
        else:
            self.vector = _apply_dense_generic(
                self.vector, host_ptm, qubits, self.num_qubits, xp
            )

    def run_channels(self, program: ChannelProgram) -> None:
        """Execute a compiled channel program (one PTM per fused position)."""
        if program.num_qubits > self.num_qubits:
            raise ValueError("channel program does not fit")
        for op in program.ops:
            self.apply_ptm(op.ptm, op.qubits)

    # -- observables ----------------------------------------------------- #
    def probabilities(self) -> np.ndarray:
        """Diagonal of rho in the computational basis (host numpy array).

        Only the ``{I, Z}**n`` sub-tensor of the coefficient vector
        contributes to the diagonal, so this is ``O(2**n)`` work on a
        ``4**n`` state — no dense matrix is ever materialised.
        """
        xp = self._xp
        izonly = self.vector.reshape((4,) * self.num_qubits)
        picker = [0, 3]
        for axis in range(self.num_qubits):
            index = (slice(None),) * axis + (picker,)
            izonly = izonly[index]
        flat = xp.ascontiguousarray(izonly).reshape(-1)
        # Per-qubit transform <b|B_I|b> = 1/sqrt2, <b|B_Z|b> = (1-2b)/sqrt2.
        half = 1.0 / np.sqrt(2.0)
        for axis in range(self.num_qubits):
            view = flat.reshape(-1, 2, 2 ** (self.num_qubits - 1 - axis))
            zero = view[:, 0, :].copy()
            one = view[:, 1, :]
            view[:, 0, :] = half * (zero + one)
            view[:, 1, :] = half * (zero - one)
        return _to_numpy(flat).clip(min=0.0)

    def expectation_z(self, qubit: int) -> float:
        probs = self.probabilities()
        indices = np.arange(probs.size)
        signs = 1.0 - 2.0 * ((indices >> qubit) & 1)
        return float(np.sum(signs * probs))

    def purity(self) -> float:
        """``Tr[rho^2]`` — the squared norm of the coefficient vector."""
        return float(_to_numpy(self.vector @ self.vector))

    def trace(self) -> float:
        return float(_to_numpy(self.vector[0])) * float(np.sqrt(2.0) ** self.num_qubits)


def _ground_state_vector(num_qubits: int, dtype) -> np.ndarray:
    """Coefficient vector of ``|0...0><0...0|``: ``(B_I + B_Z)/sqrt2`` per qubit."""
    vector = np.zeros(4**num_qubits, dtype=dtype)
    weight = (0.5**0.5) ** num_qubits
    patterns = np.arange(1 << num_qubits, dtype=np.int64)
    indices = np.zeros_like(patterns)
    for qubit in range(num_qubits):
        indices += ((patterns >> qubit) & 1) * 3 * 4**qubit
    vector[indices] = weight
    return vector
