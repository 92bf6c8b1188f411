"""In-place state-vector gate kernels.

The generic gate path in :mod:`repro.qx.statevector` moves the target axes
to the front of an n-dimensional tensor view, forces a contiguous reshape,
multiplies by the gate matrix and copies the result back — three to four
full ``2**n`` allocations per gate.  The kernels here instead exploit the
fixed stride structure of the amplitude vector: qubit ``q`` partitions the
vector into contiguous blocks of ``2**q`` amplitudes, so a strided reshape
(always a *view*, never a copy, because the vector is kept C-contiguous)
exposes the two half-spaces of any qubit directly.  Gates are then applied
in place with at most half-size temporaries, and structured matrices
(diagonal, anti-diagonal, controlled, swap) avoid even those.

All kernels mutate ``amplitudes`` in place and assume (without checking)
that the array is C-contiguous, one-dimensional, of length ``2**n`` — the
invariant :class:`~repro.qx.statevector.StateVector` maintains.

A large 1- or 2-qubit kernel call is cut into pieces along a non-gate axis
of its block views and the pieces run on helper threads (NumPy releases
the GIL in these elementwise loops), up to the thread budget that
:func:`thread_budget` sets for the calling context.  The budget defaults
to one thread; the runner raises it only around units it runs inline.
Every amplitude still gets the same arithmetic, so a split call is
bit-identical to a serial one.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from itertools import pairwise

import numpy as np

_ATOL = 1e-12


# ---------------------------------------------------------------------- #
# Thread budget
# ---------------------------------------------------------------------- #
#: Fewest amplitudes a kernel call must touch before it is split across
#: threads: a full 1q/dense call counts the whole state, a controlled or
#: swap call half, one diagonal 2q block a quarter.  Measured on GHZ-20 and
#: QFT-18 (docs/performance.md): on an idle host every threshold from 2**15
#: to 2**18 gains alike, and on a host that steals CPU time from the VM the
#: many small splits below 2**18 made QFT-18 up to 3.7x slower than serial.
#: A 2**18 state also fills one core's L2, so smaller states stay serial.
SPLIT_MIN_AMPLITUDES = 1 << 18

_threads: contextvars.ContextVar[int] = contextvars.ContextVar("kernel_threads", default=1)
#: This process's helper threads, started by the first split call.
_helpers: ThreadPoolExecutor | None = None
_helpers_lock = threading.Lock()


def _forget_helpers() -> None:
    # A forked child inherits the executor object but none of its threads:
    # work submitted to it would wait forever.  The child starts its own.
    global _helpers, _helpers_lock
    _helpers = None
    _helpers_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_helpers)


@contextmanager
def thread_budget(threads: int):
    """Let kernel calls made in this context use up to ``threads`` threads."""
    token = _threads.set(max(1, threads))
    try:
        yield
    finally:
        _threads.reset(token)


def _executor() -> ThreadPoolExecutor:
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(
                max_workers=max(1, (os.cpu_count() or 1) - 1), thread_name_prefix="qx-kernel"
            )
        return _helpers


def _run(body, blocks: tuple[np.ndarray, ...], *args) -> None:
    """``body(*blocks, *args)``, cut across the context's thread budget.

    ``blocks`` are same-shape views of disjoint amplitudes and ``body`` is
    elementwise over them, so the blocks are cut at the same indices along
    one axis — the first long enough to give every thread a piece — and
    piece 0 runs on the calling thread while helpers take the rest.
    """
    threads = _threads.get()
    if threads == 1 or len(blocks) * blocks[0].size < SPLIT_MIN_AMPLITUDES:
        body(*blocks, *args)
        return
    shape = blocks[0].shape
    axis = next(
        (axis for axis, length in enumerate(shape) if length >= threads),
        int(np.argmax(shape)),
    )
    pieces = min(threads, shape[axis])
    bounds = [shape[axis] * piece // pieces for piece in range(pieces + 1)]
    cuts = [(slice(None),) * axis + (slice(start, stop),) for start, stop in pairwise(bounds)]
    helpers = _executor()
    futures = [helpers.submit(body, *(block[cut] for block in blocks), *args) for cut in cuts[1:]]
    try:
        body(*(block[cuts[0]] for block in blocks), *args)
    finally:
        # The helpers write into the caller's array: never return before
        # they are done, even when piece 0 raised.
        wait(futures)
    for future in futures:
        future.result()


def _scale(block: np.ndarray, entry) -> None:
    block *= entry


def _exchange(b0: np.ndarray, b1: np.ndarray) -> None:
    swap = b0.copy()
    b0[...] = b1
    b1[...] = swap


def _exchange_scaled(b0: np.ndarray, b1: np.ndarray, m01, m10) -> None:
    swap = b0.copy()
    np.multiply(b1, m01, out=b0)
    np.multiply(swap, m10, out=b1)


def _two_level(b0: np.ndarray, b1: np.ndarray, m00, m01, m10, m11) -> None:
    # Dense 2x2: one half-size temporary.
    new0 = m00 * b0 + m01 * b1
    b1 *= m11
    b1 += m10 * b0
    b0[...] = new0


def _dense_4(b00: np.ndarray, b01: np.ndarray, b10: np.ndarray, b11: np.ndarray, matrix) -> None:
    # Dense 4x4: recombine the four blocks with quarter-size temporaries.
    blocks = (b00, b01, b10, b11)
    new_blocks = []
    for row in range(4):
        accumulator = matrix[row, 0] * blocks[0]
        for column in range(1, 4):
            entry = matrix[row, column]
            if abs(entry) > _ATOL:
                accumulator += entry * blocks[column]
        new_blocks.append(accumulator)
    for old, new in zip(blocks, new_blocks, strict=True):
        old[...] = new


# ---------------------------------------------------------------------- #
# Strided views
# ---------------------------------------------------------------------- #
def qubit_view(amplitudes: np.ndarray, qubit: int) -> np.ndarray:
    """View the vector as ``(high, 2, low)`` with axis 1 indexing ``qubit``."""
    return amplitudes.reshape(-1, 2, 1 << qubit)


def _pair_view(amplitudes: np.ndarray, q_low: int, q_high: int) -> np.ndarray:
    """View as ``(high, 2, mid, 2, low)``; axes 1 and 3 index ``q_high``/``q_low``."""
    low = 1 << q_low
    mid = 1 << (q_high - q_low - 1)
    return amplitudes.reshape(-1, 2, mid, 2, low)


def pair_parity_expectation(amplitudes: np.ndarray, qubit_a: int, qubit_b: int) -> float:
    """``<Z_a Z_b>``: signed probability sum over the four qubit-pair blocks.

    Uses the strided pair view directly instead of materialising a
    ``(-1)**parity`` table over all ``2**n`` basis indices per qubit pair.
    """
    if qubit_a == qubit_b:
        # Z_q Z_q = I: the parity is identically zero.
        return float(np.vdot(amplitudes, amplitudes).real)
    q_low, q_high = sorted((qubit_a, qubit_b))
    view = _pair_view(amplitudes, q_low, q_high)
    total = 0.0
    for bit_high in (0, 1):
        for bit_low in (0, 1):
            block = view[:, bit_high, :, bit_low, :]
            weight = float(np.vdot(block, block).real)
            total += weight if bit_high == bit_low else -weight
    return total


def probability_of_one(amplitudes: np.ndarray, qubit: int) -> float:
    """Weight of the ``|1>`` half-space of ``qubit``."""
    ones = qubit_view(amplitudes, qubit)[:, 1, :]
    return float(np.vdot(ones, ones).real)


def collapse(amplitudes: np.ndarray, qubit: int, outcome: int) -> None:
    """Project ``qubit`` onto ``|outcome>`` and renormalise, in place."""
    view = qubit_view(amplitudes, qubit)
    kept = view[:, outcome, :]
    norm = math.sqrt(float(np.vdot(kept, kept).real))
    if norm < 1e-12:
        raise ValueError(f"cannot collapse qubit {qubit} to {outcome}: zero probability")
    view[:, 1 - outcome, :] = 0.0
    amplitudes /= norm


# ---------------------------------------------------------------------- #
# Single-qubit kernel
# ---------------------------------------------------------------------- #
def apply_1q(amplitudes: np.ndarray, matrix: np.ndarray, qubit: int) -> None:
    """Apply a 2x2 unitary to ``qubit`` in place."""
    view = qubit_view(amplitudes, qubit)
    a0 = view[:, 0, :]
    a1 = view[:, 1, :]
    m00, m01 = matrix[0, 0], matrix[0, 1]
    m10, m11 = matrix[1, 0], matrix[1, 1]
    if abs(m01) < _ATOL and abs(m10) < _ATOL:
        # Diagonal (z, s, t, rz, phase): two scalings, no temporaries.
        if abs(m00 - 1.0) > _ATOL:
            _run(_scale, (a0,), m00)
        if abs(m11 - 1.0) > _ATOL:
            _run(_scale, (a1,), m11)
        return
    if abs(m00) < _ATOL and abs(m11) < _ATOL:
        # Anti-diagonal (x, y): swap the half-spaces, scaling if needed.
        _run(_exchange_scaled, (a0, a1), m01, m10)
        return
    _run(_two_level, (a0, a1), m00, m01, m10, m11)


# ---------------------------------------------------------------------- #
# Two-qubit kernel
# ---------------------------------------------------------------------- #
#: Structure tags returned by :func:`classify_2q`.
DIAGONAL_2Q = "diagonal"
CONTROLLED_2Q = "controlled"
SWAP_2Q = "swap"
DENSE_2Q = "dense"


_CLASSIFY_CACHE: dict[bytes, str] = {}
_CLASSIFY_CACHE_CAP = 512


def classify_2q(matrix: np.ndarray) -> str:
    """Classify a 4x4 unitary's structure for kernel dispatch.

    Called once per lowered op by the precompiler (stored on the
    ``KernelOp``), so the matrix scans here are not paid per shot.
    Memoised by matrix content: fleets of structurally identical circuits
    lower the same few two-qubit matrices (cnot, cz, swap) thousands of
    times, and hashing 256 bytes is ~20x cheaper than the structure scan.
    """
    key = np.ascontiguousarray(matrix).tobytes()
    cached = _CLASSIFY_CACHE.get(key)
    if cached is not None:
        return cached
    structure = _classify_2q_scan(matrix)
    if len(_CLASSIFY_CACHE) >= _CLASSIFY_CACHE_CAP:
        _CLASSIFY_CACHE.pop(next(iter(_CLASSIFY_CACHE)))
    _CLASSIFY_CACHE[key] = structure
    return structure


def _classify_2q_scan(matrix: np.ndarray) -> str:
    off_diagonal = matrix - np.diag(np.diag(matrix))
    if np.max(np.abs(off_diagonal)) < _ATOL:
        return DIAGONAL_2Q
    identity_top = (
        abs(matrix[0, 0] - 1.0) < _ATOL
        and abs(matrix[1, 1] - 1.0) < _ATOL
        and np.max(np.abs(matrix[:2, 2:])) < _ATOL
        and np.max(np.abs(matrix[2:, :2])) < _ATOL
        and abs(matrix[0, 1]) < _ATOL
        and abs(matrix[1, 0]) < _ATOL
    )
    if identity_top:
        return CONTROLLED_2Q
    if _is_swap(matrix):
        return SWAP_2Q
    return DENSE_2Q


def apply_2q(
    amplitudes: np.ndarray,
    matrix: np.ndarray,
    qubit_0: int,
    qubit_1: int,
    structure: str | None = None,
) -> None:
    """Apply a 4x4 unitary to ``(qubit_0, qubit_1)`` in place.

    ``qubit_0`` is operand 0 and therefore the *most* significant bit of the
    gate-matrix index (textbook convention: the CNOT control is operand 0).
    ``structure`` is the precomputed :func:`classify_2q` tag; pass ``None``
    to classify on the fly.
    """
    if structure is None:
        structure = classify_2q(matrix)
    q_low, q_high = (qubit_0, qubit_1) if qubit_0 < qubit_1 else (qubit_1, qubit_0)
    view = _pair_view(amplitudes, q_low, q_high)

    def block(bit_0: int, bit_1: int) -> np.ndarray:
        if qubit_0 == q_high:
            return view[:, bit_0, :, bit_1, :]
        return view[:, bit_1, :, bit_0, :]

    if structure == DIAGONAL_2Q:
        # Diagonal (cz, cr, crk): scale at most four blocks, usually one.
        for index in range(4):
            entry = matrix[index, index]
            if abs(entry - 1.0) > _ATOL:
                _run(_scale, (block(index >> 1, index & 1),), entry)
        return
    if structure == CONTROLLED_2Q:
        # Controlled gate (cnot, controlled-U): the control = operand 0
        # subspace with bit 1 gets the lower-right 2x2; the rest is untouched.
        sub = matrix[2:, 2:]
        b10, b11 = block(1, 0), block(1, 1)
        s00, s01 = sub[0, 0], sub[0, 1]
        s10, s11 = sub[1, 0], sub[1, 1]
        if abs(s01) < _ATOL and abs(s10) < _ATOL:
            if abs(s00 - 1.0) > _ATOL:
                _run(_scale, (b10,), s00)
            if abs(s11 - 1.0) > _ATOL:
                _run(_scale, (b11,), s11)
            return
        if abs(s00) < _ATOL and abs(s11) < _ATOL:
            if s01 == 1.0 and s10 == 1.0:
                # cnot: straight block swap, no multiply passes.
                _run(_exchange, (b10, b11))
                return
            _run(_exchange_scaled, (b10, b11), s01, s10)
            return
        _run(_two_level, (b10, b11), s00, s01, s10, s11)
        return
    if structure == SWAP_2Q:
        _run(_exchange, (block(0, 1), block(1, 0)))
        return
    _run(_dense_4, (block(0, 0), block(0, 1), block(1, 0), block(1, 1)), matrix)


def _is_swap(matrix: np.ndarray) -> bool:
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 2] = expected[2, 1] = expected[3, 3] = 1.0
    return bool(np.max(np.abs(matrix - expected)) < _ATOL)


# ---------------------------------------------------------------------- #
# Batched kernels: many states, one gate position, per-state matrices
# ---------------------------------------------------------------------- #
# The batch runtime stacks same-shape state vectors into one C-contiguous
# ``(batch, 2**n)`` array and applies gate step t of every circuit at once.
# Every branch below mirrors the corresponding scalar branch's condition
# *and* expression shape per row: same products, same two-term sums, same
# skip thresholds.  Rows whose matrices take different scalar branches are
# partitioned by boolean masks and updated via fancy indexing (gather,
# elementwise op, scatter).  Per-row amplitudes agree with the scalar
# kernels to <= 1 ulp — not always bit-for-bit, because numpy selects
# different complex-multiply inner loops (FMA vs not) for in-place scalar
# operands than for fresh array operands.  The runtime's determinism
# contract is therefore stated (and property-tested) at the sampled
# *histogram* level, where identical seed streams make a flip require a
# uniform draw within ~1e-16 of a bin boundary.


_RIGHT_KRON_MAX_LOW = 16


def _per_row(values: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape per-row scalars ``(k,)`` to broadcast against ``(k, ...)`` blocks."""
    return values.reshape(-1, *([1] * (ndim - 1)))


def _two_level_batch(b0, b1, m00, m01, m10, m11, active) -> None:
    """Per-row two-level update of paired block views (the batched apply_1q core).

    ``b0``/``b1`` are the two half-space block views, leading axis = batch
    row; ``m__`` are the per-row matrix entries, shape ``(batch,)``;
    ``active`` masks the rows to touch (callers running one structure class
    of a mixed batch pass the class mask).  Shared between
    :func:`apply_1q_batch` and the controlled branch of
    :func:`apply_2q_batch`, exactly as the scalar kernels share their
    branch structure.
    """
    nd = b0.ndim
    diag = active & (np.abs(m01) < _ATOL) & (np.abs(m10) < _ATOL)
    anti = active & ~diag & (np.abs(m00) < _ATOL) & (np.abs(m11) < _ATOL)
    dense = active & ~diag & ~anti
    scale0 = diag & (np.abs(m00 - 1.0) > _ATOL)
    scale1 = diag & (np.abs(m11 - 1.0) > _ATOL)
    if scale0.any():
        if scale0.all():
            b0 *= _per_row(m00, nd)
        else:
            rows = np.flatnonzero(scale0)
            b0[rows] *= _per_row(m00[rows], nd)
    if scale1.any():
        if scale1.all():
            b1 *= _per_row(m11, nd)
        else:
            rows = np.flatnonzero(scale1)
            b1[rows] *= _per_row(m11[rows], nd)
    if anti.any():
        if anti.all():
            saved = b0.copy()
            np.multiply(b1, _per_row(m01, nd), out=b0)
            np.multiply(saved, _per_row(m10, nd), out=b1)
        else:
            rows = np.flatnonzero(anti)
            saved = b0[rows]
            b0[rows] = b1[rows] * _per_row(m01[rows], nd)
            b1[rows] = saved * _per_row(m10[rows], nd)
    if dense.any():
        if dense.all():
            c00, c01 = _per_row(m00, nd), _per_row(m01, nd)
            c10, c11 = _per_row(m10, nd), _per_row(m11, nd)
            new0 = c00 * b0 + c01 * b1
            b1 *= c11
            b1 += c10 * b0
            b0[...] = new0
        else:
            rows = np.flatnonzero(dense)
            sub0, sub1 = b0[rows], b1[rows]
            c00, c01 = _per_row(m00[rows], nd), _per_row(m01[rows], nd)
            c10, c11 = _per_row(m10[rows], nd), _per_row(m11[rows], nd)
            new0 = c00 * sub0 + c01 * sub1
            new1 = sub1 * c11 + c10 * sub0
            b0[rows] = new0
            b1[rows] = new1


def apply_1q_batch(
    stacked: np.ndarray,
    matrices: np.ndarray,
    qubit: int,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Apply per-row 2x2 unitaries to ``qubit`` of a ``(batch, 2**n)`` stack.

    ``matrices`` has shape ``(batch, 2, 2)``.  When every row carries the
    same matrix the whole stack collapses into one scalar kernel call: the
    batch axis folds into the "high" axis of the strided view, which keeps
    per-element arithmetic (and therefore bit-identity) unchanged.

    ``scratch`` is an optional same-shape buffer for double-buffered
    execution: the dense gemm paths then write their result *into* it
    (gemm cannot safely write over its own input, so the in-place variant
    materialises a temporary and copies back — a full extra traversal of
    the stack).  Returns the array holding the updated amplitudes: the
    scratch when a dense path consumed it, otherwise ``stacked`` (updated
    in place).  Callers double-buffering must swap their buffers whenever
    the return value is the scratch.  Values are identical either way.
    """
    batch = stacked.shape[0]
    if batch == 0:
        return stacked
    if bool((matrices == matrices[0]).all()):
        apply_1q(stacked.reshape(-1), matrices[0], qubit)
        return stacked
    low = 1 << qubit
    view = stacked.reshape(batch, -1, 2, low)
    m00, m01 = matrices[:, 0, 0], matrices[:, 0, 1]
    m10, m11 = matrices[:, 1, 0], matrices[:, 1, 1]
    diag = (np.abs(m01) < _ATOL) & (np.abs(m10) < _ATOL)
    anti = (np.abs(m00) < _ATOL) & (np.abs(m11) < _ATOL)
    if not (diag.all() or anti.all()):
        # Dense rows go through batched gemms rather than the strided
        # masked update (~2-3x less wall time).  Wide panes contract on the
        # left, (2, 2) @ (2, low); narrow panes make tiny gemms with
        # crushing dispatch overhead, so they contract on the right over
        # the contiguous (2 * low)-wide pair blocks with (matrix ⊗ I_low)ᵀ
        # — identical two-term row sums, one wide gemm per row.  The
        # scale-only classes stay on the masked path, which touches far
        # less memory for them.
        if low > _RIGHT_KRON_MAX_LOW:
            if scratch is not None:
                out = scratch.reshape(batch, -1, 2, low)
                np.matmul(matrices[:, None, :, :], view, out=out)
                return scratch
            view[...] = np.matmul(matrices[:, None, :, :], view)
        else:
            width = 2 * low
            wide = stacked.reshape(batch, -1, width)
            kron = np.kron(matrices, np.eye(low))
            if scratch is not None:
                out = scratch.reshape(batch, -1, width)
                np.matmul(wide, kron.transpose(0, 2, 1), out=out)
                return scratch
            wide[...] = np.matmul(wide, kron.transpose(0, 2, 1))
        return stacked
    _two_level_batch(
        view[:, :, 0, :],
        view[:, :, 1, :],
        m00,
        m01,
        m10,
        m11,
        np.ones(batch, dtype=bool),
    )
    return stacked


def apply_2q_batch(
    stacked: np.ndarray,
    matrices: np.ndarray,
    qubit_0: int,
    qubit_1: int,
    structures=None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Apply per-row 4x4 unitaries to ``(qubit_0, qubit_1)`` of a stack.

    ``matrices`` has shape ``(batch, 4, 4)``; ``structures`` is the per-row
    :func:`classify_2q` tag sequence (classified on the fly when omitted).
    Rows are partitioned by structure class and each class mirrors the
    scalar :func:`apply_2q` branch row by row.  Like :func:`apply_1q_batch`,
    an optional ``scratch`` buffer enables a double-buffered gemm path —
    taken for all-dense rows on adjacent qubits with operand 0 high, where
    the two gate bits form one contiguous axis — and the returned array is
    whichever buffer holds the result.
    """
    batch = stacked.shape[0]
    if batch == 0:
        return stacked
    if structures is None:
        structures = [classify_2q(matrix) for matrix in matrices]
    if bool((matrices == matrices[0]).all()):
        apply_2q(stacked.reshape(-1), matrices[0], qubit_0, qubit_1, structure=structures[0])
        return stacked
    q_low, q_high = (qubit_0, qubit_1) if qubit_0 < qubit_1 else (qubit_1, qubit_0)
    low = 1 << q_low
    mid = 1 << (q_high - q_low - 1)
    if (
        scratch is not None
        and mid == 1
        and qubit_0 == q_high
        and all(tag == DENSE_2Q for tag in structures)
    ):
        # Adjacent qubits, operand 0 high: the two gate bits are one
        # contiguous axis of size 4, so dense rows contract exactly like
        # the 1q gemm paths (matrix index = 2 * bit(q_high) + bit(q_low),
        # the textbook operand order).
        if low > _RIGHT_KRON_MAX_LOW:
            quad = stacked.reshape(batch, -1, 4, low)
            out = scratch.reshape(batch, -1, 4, low)
            np.matmul(matrices[:, None, :, :], quad, out=out)
            return scratch
        width = 4 * low
        wide = stacked.reshape(batch, -1, width)
        kron = np.kron(matrices, np.eye(low))
        out = scratch.reshape(batch, -1, width)
        np.matmul(wide, kron.transpose(0, 2, 1), out=out)
        return scratch
    view = stacked.reshape(batch, -1, 2, mid, 2, low)

    def block(bit_0: int, bit_1: int) -> np.ndarray:
        if qubit_0 == q_high:
            return view[:, :, bit_0, :, bit_1, :]
        return view[:, :, bit_1, :, bit_0, :]

    tags = np.array(structures)
    mask = tags == DIAGONAL_2Q
    if mask.any():
        for index in range(4):
            entries = matrices[:, index, index]
            scale = mask & (np.abs(entries - 1.0) > _ATOL)
            if not scale.any():
                continue
            blk = block(index >> 1, index & 1)
            if scale.all():
                blk *= _per_row(entries, blk.ndim)
            else:
                rows = np.flatnonzero(scale)
                blk[rows] *= _per_row(entries[rows], blk.ndim)
    mask = tags == CONTROLLED_2Q
    if mask.any():
        _two_level_batch(
            block(1, 0),
            block(1, 1),
            matrices[:, 2, 2],
            matrices[:, 2, 3],
            matrices[:, 3, 2],
            matrices[:, 3, 3],
            mask,
        )
    mask = tags == SWAP_2Q
    if mask.any():
        b01, b10 = block(0, 1), block(1, 0)
        if mask.all():
            saved = b01.copy()
            b01[...] = b10
            b10[...] = saved
        else:
            rows = np.flatnonzero(mask)
            saved = b01[rows]
            b01[rows] = b10[rows]
            b10[rows] = saved
    mask = tags == DENSE_2Q
    if mask.any():
        blocks = [block(0, 0), block(0, 1), block(1, 0), block(1, 1)]
        nd = blocks[0].ndim
        # slice(None) keeps views (no gather) when every row is dense; the
        # write-back below only happens after all four new blocks exist, so
        # reads always see original values either way.
        rows = slice(None) if mask.all() else np.flatnonzero(mask)
        gathered = [blk[rows] for blk in blocks]
        new_blocks = []
        for row in range(4):
            accumulator = _per_row(matrices[rows, row, 0], nd) * gathered[0]
            for column in range(1, 4):
                entries = matrices[rows, row, column]
                add = np.abs(entries) > _ATOL
                if add.all():
                    accumulator += _per_row(entries, nd) * gathered[column]
                elif add.any():
                    # Rows whose entry is ~0 skip the term, exactly like the
                    # scalar kernel's per-entry threshold.
                    sel = np.flatnonzero(add)
                    accumulator[sel] += _per_row(entries[sel], nd) * gathered[column][sel]
            new_blocks.append(accumulator)
        for blk, new in zip(blocks, new_blocks, strict=True):
            blk[rows] = new
    return stacked


_PERMUTATION_CACHE: dict[tuple, np.ndarray | None] = {}
_PERMUTATION_CACHE_CAP = 64


def permutation_index(matrix: np.ndarray, qubits: tuple[int, ...], num_qubits: int):
    """Basis-index gather map of a 0/1 permutation gate, or ``None``.

    When ``matrix`` has exactly one ``1.0`` per row and column and zeros
    elsewhere (cnot, swap, x, ...), applying it moves amplitudes between
    basis states without arithmetic: ``new = old[indices]``.  Returns that
    ``indices`` array over the full ``2**num_qubits`` space, with qubit
    ``qubits[0]`` the most significant bit of the gate index (the operand
    convention of :func:`apply_gate_inplace`).  Chains of such gates
    compose by ``first[second]`` gather-of-gather, which is how the batch
    planner collapses a cnot ladder into one indexed pass.  Memoised by
    matrix content: a fleet's entangler layers reuse the same few gates at
    the same positions every layer and every chunk.
    """
    key = (np.ascontiguousarray(matrix).tobytes(), qubits, num_qubits)
    if key in _PERMUTATION_CACHE:
        return _PERMUTATION_CACHE[key]
    indices = _permutation_index_scan(matrix, qubits, num_qubits)
    if len(_PERMUTATION_CACHE) >= _PERMUTATION_CACHE_CAP:
        _PERMUTATION_CACHE.pop(next(iter(_PERMUTATION_CACHE)))
    _PERMUTATION_CACHE[key] = indices
    return indices


def _permutation_index_scan(matrix: np.ndarray, qubits: tuple[int, ...], num_qubits: int):
    if ((matrix != 0.0) & (matrix != 1.0)).any():
        return None
    ones = matrix == 1.0
    if (ones.sum(axis=0) != 1).any() or (ones.sum(axis=1) != 1).any():
        return None
    # new[j] = old[inverse(j)] where matrix[j, inverse(j)] == 1.
    inverse_sub = np.argmax(ones, axis=1)
    k = len(qubits)
    indices = np.arange(1 << num_qubits)
    sub = np.zeros_like(indices)
    for position, qubit in enumerate(qubits):
        sub |= ((indices >> qubit) & 1) << (k - 1 - position)
    new_sub = inverse_sub[sub]
    strip = indices.copy()
    for qubit in qubits:
        strip &= ~(1 << qubit)
    for position, qubit in enumerate(qubits):
        strip |= ((new_sub >> (k - 1 - position)) & 1) << qubit
    return strip


def permute_basis_batch(
    stacked: np.ndarray, indices: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Gather ``stacked[:, indices]`` for every row — exact amplitude moves.

    With ``scratch``, gathers straight into it (one read + one write pass)
    and returns it; otherwise updates ``stacked`` in place through a
    temporary.  Being a pure relabelling, the result is bit-identical to
    applying the permutation gates one by one.
    """
    if scratch is not None:
        np.take(stacked, indices, axis=1, out=scratch)
        return scratch
    stacked[...] = stacked[:, indices]
    return stacked


def apply_gate_batch(
    stacked: np.ndarray,
    matrices: np.ndarray,
    qubits: tuple[int, ...],
    structures=None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Batched :func:`apply_gate_inplace`: per-row matrices, one gate position.

    Only 1- and 2-qubit gates have batched kernels; the batch planner routes
    programs containing larger gates to per-circuit execution instead.
    Returns the array holding the result — ``stacked``, or ``scratch`` when
    a double-buffered dense path wrote into it (see :func:`apply_1q_batch`).
    """
    k = len(qubits)
    if k == 1:
        return apply_1q_batch(stacked, matrices, qubits[0], scratch=scratch)
    if k == 2:
        return apply_2q_batch(
            stacked, matrices, qubits[0], qubits[1], structures=structures, scratch=scratch
        )
    raise ValueError(f"no batched kernel for {k}-qubit gates")


# ---------------------------------------------------------------------- #
# Bit-string keys
# ---------------------------------------------------------------------- #
def bitstring_keys(bit_rows: np.ndarray) -> list[str]:
    """Render a ``(k, width)`` 0/1 matrix as histogram key strings.

    The single place the key convention lives: row order is preserved and
    column 0 is the leftmost character (callers order columns so that the
    lowest qubit/bit index lands rightmost).
    """
    if bit_rows.shape[1] == 0:
        return [""] * bit_rows.shape[0]
    characters = (bit_rows + ord("0")).astype(np.uint8)
    return [row.tobytes().decode("ascii") for row in characters]


# ---------------------------------------------------------------------- #
# Dispatch
# ---------------------------------------------------------------------- #
def apply_gate_inplace(
    amplitudes: np.ndarray,
    matrix: np.ndarray,
    qubits: tuple[int, ...],
    structure: str | None = None,
) -> np.ndarray:
    """Apply a gate through the fastest available kernel.

    Returns the (possibly reallocated) amplitude array: 1- and 2-qubit gates
    mutate in place and return the same array; larger gates fall back to the
    generic reference pipeline and return a fresh array.  ``structure`` is
    the precompiled :func:`classify_2q` tag for 2-qubit gates, if known.
    """
    k = len(qubits)
    if k == 1:
        apply_1q(amplitudes, matrix, qubits[0])
        return amplitudes
    if k == 2:
        apply_2q(amplitudes, matrix, qubits[0], qubits[1], structure=structure)
        return amplitudes
    return apply_gate_generic(amplitudes, matrix, qubits)


def apply_gate_generic(
    amplitudes: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...]
) -> np.ndarray:
    """Reference gate application (axis-permutation pipeline).

    Kept as the ground truth the kernels are property-tested against, and as
    the execution path for k >= 3 qubit gates, which are rare enough that
    specialized kernels are not worth their complexity.
    """
    k = len(qubits)
    n = amplitudes.size.bit_length() - 1
    # Qubit q lives on axis n-1-q of the (2,)*n tensor view; the target axes
    # move to the front (operand 0 first: the most significant bit of the
    # gate-matrix index), are contracted with the gate matrix, and move back.
    tensor = amplitudes.reshape([2] * n)
    axes = [n - 1 - q for q in qubits]
    tensor = np.moveaxis(tensor, axes, range(k))
    shape = tensor.shape
    tensor = tensor.reshape(2**k, -1)
    tensor = (matrix @ tensor).reshape(shape)
    tensor = np.moveaxis(tensor, range(k), axes)
    return np.ascontiguousarray(tensor.reshape(-1))
