"""The shared measurement-histogram keying convention.

Every simulation engine in the stack — state vector, stabilizer tableau,
density matrix and matrix-product state — must emit histograms under one
convention so results stay comparable (and mergeable by the runtime) no
matter which engine executed the circuit:

* keys are ordered by **classical bit** (``Measurement.bit``), honouring
  cross-maps such as ``measure q[3] -> b[0]``;
* character ``j`` of a key is the outcome of bit ``sorted(bits)[-1 - j]``
  (the lowest bit is the rightmost character, cQASM display convention);
* a repeated measurement into one bit keeps only the **last** outcome.

The helpers here are the single implementation of that convention.  Engines
must not re-derive keys locally; the cross-engine regression tests pin each
engine's histogram path to these functions.
"""

from __future__ import annotations

import numpy as np

from repro.qx import kernels


def bits_histogram(all_bits: np.ndarray, ordered_bits: tuple[int, ...]) -> dict[str, int]:
    """Histogram a ``(shots, bits)`` array by the shared keying convention.

    ``ordered_bits`` are the classical bits to key on, ascending; character
    ``j`` of a key is bit ``ordered_bits[-1 - j]`` (lowest rightmost).
    Unique-row based: no integer packing, so the key width is not limited by
    the 63 value bits of int64.
    """
    columns = all_bits[:, list(reversed(ordered_bits))]
    rows, frequencies = np.unique(columns, axis=0, return_counts=True)
    return {
        key: int(frequency)
        for key, frequency in zip(kernels.bitstring_keys(rows), frequencies, strict=True)
    }


def _histogram_outcomes(
    outcomes: np.ndarray, shots: int, targets: tuple[int, ...]
) -> dict[str, int]:
    if not targets:
        return {"": shots}
    values, frequencies = np.unique(outcomes, return_counts=True)
    shifts = np.array(tuple(reversed(targets)))
    bit_rows = (values[:, None] >> shifts[None, :]) & 1
    counts: dict[str, int] = {}
    for key, frequency in zip(kernels.bitstring_keys(bit_rows), frequencies, strict=True):
        # Distinct basis indices can share a key when targets are a strict
        # subset of the register.
        counts[key] = counts.get(key, 0) + int(frequency)
    return counts


class PreparedIndexSampler:
    """Draw basis indices from one distribution and histogram ``targets``.

    The one basis-index sampler of the dense and density engines, behind
    :meth:`~repro.qx.statevector.StateVector.sample_counts` too.  Character
    ``j`` of a key is qubit ``targets[-1 - j]`` (the last listed target is
    the leftmost character); aggregation happens over the *unique* sampled
    indices, so the cost beyond the draw is independent of the shot count.

    The draw replays ``Generator.choice(n, size, p=p / p.sum())`` exactly:
    that call normalises ``p``, builds its cumulative distribution and then
    inverse-transform samples via ``cdf.searchsorted(rng.random(size),
    side="right")``.  The normalisation and cumulative sum happen once, at
    construction, and the batch runtime draws every shard of a circuit from
    the *same* sampler.  Each draw consumes the identical
    ``rng.random(shots)`` stream and applies the identical inverse
    transform, so the sampled indices are bit-for-bit those of
    ``Generator.choice`` with the same rng.
    """

    __slots__ = ("_cdf", "_targets")

    def __init__(self, probabilities: np.ndarray, targets: tuple[int, ...]) -> None:
        probabilities = np.asarray(probabilities, dtype=float)
        # Two-step normalisation mirrors Generator.choice(p=p / p.sum())
        # exactly: the caller-side division, then choice's re-normalisation
        # of its cumulative distribution by the final entry.
        normalized = probabilities / probabilities.sum()
        cdf = normalized.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        self._targets = targets

    def sample(self, shots: int, rng: np.random.Generator) -> dict[str, int]:
        outcomes = self._cdf.searchsorted(rng.random(shots), side="right")
        return _histogram_outcomes(outcomes, shots, self._targets)

    def sample_shards(self, shards) -> dict[str, int]:
        """One histogram over several ``(shots, rng)`` shards, keys sorted.

        Each shard draws exactly what :meth:`sample` would from its own rng;
        the outcome indices are pooled and histogrammed once, so the result
        equals merging the per-shard histograms key by key.
        """
        draws = [rng.random(shots) for shots, rng in shards]
        outcomes = self._cdf.searchsorted(np.concatenate(draws), side="right")
        counts = _histogram_outcomes(outcomes, len(outcomes), self._targets)
        return {key: counts[key] for key in sorted(counts)}


def counts_to_bits(
    counts: dict[str, int], bits: tuple[int, ...], shots: int, size: int | None = None
) -> list[list[int]]:
    """Expand a histogram into per-shot classical bit lists (bit-indexed).

    ``bits`` is the ascending classical-bit tuple the histogram was keyed
    on; column ``j`` of a key corresponds to bit ``reversed(bits)[j]``.
    ``size`` widens every row to a fixed register width (the trajectory
    paths emit ``max(num_bits, num_qubits)``-wide rows, and the sampled
    paths must match so the row shape does not depend on the execution
    path or engine).  Used by the sampled execution paths, which histogram
    first and only then materialise per-shot bit lists.
    """
    if not counts:
        return []
    if not bits:
        width = size or 0
        return [[0] * width for _ in range(min(shots, sum(counts.values())))]
    if size is None:
        size = max(bits) + 1
    keys = list(counts)
    repeats = np.fromiter((counts[key] for key in keys), dtype=np.int64, count=len(keys))
    characters = np.frombuffer("".join(keys).encode("ascii"), dtype=np.uint8)
    bit_rows = (characters - ord("0")).reshape(len(keys), len(bits)).astype(np.int64)
    rows = np.zeros((len(keys), size), dtype=np.int64)
    # Duplicate targets resolve to the last occurrence, as in a per-entry loop.
    rows[:, list(reversed(bits))] = bit_rows
    return np.repeat(rows, repeats, axis=0)[:shots].tolist()
