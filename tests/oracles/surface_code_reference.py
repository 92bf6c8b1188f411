"""Reference surface-code memory experiment: the per-round, per-plaquette loops.

:class:`~repro.qec.surface_code.PlanarSurfaceCode` computes syndromes with
one incidence-matrix product and processes every trial's rounds as one
batch; this module keeps the loops it replaced, unchanged, as the oracle
the vectorized code is tested and benchmarked against (bit-identical
failure counts and defect totals for equal seeds).

:func:`x_stabilizers` and :func:`minimum_weight_logical` write out the
code's X-stabiliser group and a logical operator, the patterns the
syndrome and observable are checked against.
"""

from __future__ import annotations

import numpy as np

from repro.qec.decoder import decoder_for
from repro.qec.surface_code import PlanarSurfaceCode, SurfaceCodeResult


def syndrome_reference(code: PlanarSurfaceCode, errors: np.ndarray) -> np.ndarray:
    """Parity of every Z-plaquette, one plaquette at a time."""
    result = np.zeros(code.num_ancilla, dtype=np.int8)
    for index, plaquette in enumerate(code.plaquettes):
        result[index] = int(np.sum(errors[list(plaquette)]) % 2)
    return result


def run_memory_experiment_reference(
    code: PlanarSurfaceCode,
    physical_error_rate: float,
    rounds: int | None = None,
    trials: int = 500,
    measurement_error_rate: float | None = None,
    seed: int | np.random.SeedSequence | None = None,
    decoder: str = "matching",
) -> SurfaceCodeResult:
    """Per-round, per-plaquette loop implementation of
    :meth:`~repro.qec.surface_code.PlanarSurfaceCode.run_memory_experiment`."""
    rng = np.random.default_rng(seed)
    rounds = rounds if rounds is not None else code.distance
    measurement_error_rate = (
        measurement_error_rate if measurement_error_rate is not None else physical_error_rate
    )
    decode = decoder_for(code, decoder).decode
    failures = 0
    total_defects = 0
    for _ in range(trials):
        errors = np.zeros(code.num_data, dtype=np.int8)
        previous = np.zeros(code.num_ancilla, dtype=np.int8)
        defects: list[tuple[int, int]] = []
        for round_index in range(rounds):
            new_errors = (rng.random(code.num_data) < physical_error_rate).astype(np.int8)
            errors ^= new_errors
            observed = syndrome_reference(code, errors)
            flips = (rng.random(code.num_ancilla) < measurement_error_rate).astype(np.int8)
            observed = observed ^ flips
            changed = observed ^ previous
            defects.extend((round_index, int(a)) for a in np.nonzero(changed)[0])
            previous = observed
        observed = syndrome_reference(code, errors)
        changed = observed ^ previous
        defects.extend((rounds, int(a)) for a in np.nonzero(changed)[0])
        total_defects += len(defects)

        correction_parity = decode(defects)
        if correction_parity != code.error_crossing_parity(errors):
            failures += 1
    return SurfaceCodeResult(
        distance=code.distance,
        rounds=rounds,
        trials=trials,
        physical_error_rate=physical_error_rate,
        measurement_error_rate=measurement_error_rate,
        logical_failures=failures,
        total_defects=total_defects,
        decoder=decoder,
    )


def x_stabilizers(code: PlanarSurfaceCode) -> list[tuple[int, ...]]:
    """Supports of the X-type stabilisers (the complementary checkerboard).

    X-stabilisers commute with every Z-plaquette (they overlap in 0 or 2
    data qubits), so applying one as an X-error pattern is undetectable
    *and* does not flip the logical observable — the property test of the
    stabiliser group structure.
    """
    d = code.distance
    stabilizers: list[tuple[int, ...]] = []
    for r in range(d - 1):
        for c in range(d - 1):
            if (r + c) % 2 == 1:
                stabilizers.append((r * d + c, r * d + c + 1, (r + 1) * d + c, (r + 1) * d + c + 1))
    for c in range(d - 1):
        if (-1 + c) % 2 == 1:
            stabilizers.append((c, c + 1))
        if ((d - 1) + c) % 2 == 1:
            stabilizers.append(((d - 1) * d + c, (d - 1) * d + c + 1))
    return stabilizers


def minimum_weight_logical(code: PlanarSurfaceCode) -> np.ndarray:
    """A minimum-weight logical X operator (one full column of X errors)."""
    errors = np.zeros(code.num_data, dtype=np.int8)
    errors[:: code.distance] = 1
    return errors
