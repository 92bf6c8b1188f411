"""Rotated planar surface code with error-syndrome measurement.

Pauli-frame simulation of the rotated distance-d surface code: d*d data
qubits sit on a d x d grid, Z-type ancillas measure plaquette parities every
round (detecting X errors), measurement outcomes may themselves be faulty,
and a matching-based decoder pairs up syndrome *defects* (changes between
consecutive rounds) in space-time.  This is the workload the paper describes
for realistic qubits: "after every sequence of quantum gates, the system
needs to measure out its state and interpret those measurements to see if an
error has been produced ... a very large graph needs to be processed and
interpreted in real-time".

Only the bit-flip (X error / Z stabiliser) sector is simulated; the
phase-flip sector is related by exchanging rows and columns and has
identical statistics under the symmetric error model used here.

Geometry conventions
--------------------
* data qubit (r, c) has index ``r * d + c``;
* Z-plaquette centres sit at half-integer coordinates; interior plaquettes
  have weight 4, boundary plaquettes (left and right columns) weight 2;
* X-error chains terminate on the top and bottom boundaries;
* the logical observable is the parity of X errors along the middle data
  row (a horizontal logical-Z line), so a logical failure is an X chain
  connecting top to bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.circuit import Circuit
from repro.qec.decoder import decoder_for
from repro.qec.pauli_frame import FrameNoise, PauliFrameSampler

#: Process-wide cache of compiled extraction-circuit samplers, keyed by
#: (distance, rounds).  The reference tableau run and schedule compilation
#: are pure functions of the geometry, so shards of a runtime sweep reuse
#: them instead of re-simulating the noiseless circuit per shard.
_SAMPLER_CACHE: dict[tuple[int, int], PauliFrameSampler] = {}


@dataclass
class SurfaceCodeResult:
    """Outcome of a multi-round logical-memory experiment."""

    distance: int
    rounds: int
    trials: int
    physical_error_rate: float
    measurement_error_rate: float
    logical_failures: int
    total_defects: int = 0
    noise_model: str = "phenomenological"
    decoder: str = "matching"

    @property
    def logical_error_rate(self) -> float:
        return self.logical_failures / max(self.trials, 1)

    @property
    def defects_per_round(self) -> float:
        return self.total_defects / max(self.trials * self.rounds, 1)


class PlanarSurfaceCode:
    """Rotated planar surface code of odd distance d (d*d data qubits)."""

    def __init__(self, distance: int = 3):
        if distance < 3 or distance % 2 == 0:
            raise ValueError("distance must be an odd integer >= 3")
        self.distance = distance
        self._build_layout()

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    def _build_layout(self) -> None:
        d = self.distance
        self.num_data = d * d
        self.plaquettes: list[tuple[int, ...]] = []
        self.plaquette_centres: list[tuple[float, float]] = []
        # Interior weight-4 Z-plaquettes on a checkerboard ((r + c) even).
        for r in range(d - 1):
            for c in range(d - 1):
                if (r + c) % 2 == 0:
                    self.plaquettes.append(
                        (r * d + c, r * d + c + 1, (r + 1) * d + c, (r + 1) * d + c + 1)
                    )
                    self.plaquette_centres.append((r + 0.5, c + 0.5))
        # Weight-2 boundary Z-plaquettes on the left (c = -1) and right
        # (c = d - 1) edges, continuing the checkerboard.
        for r in range(d - 1):
            if (r + (-1)) % 2 == 0:
                self.plaquettes.append((r * d, (r + 1) * d))
                self.plaquette_centres.append((r + 0.5, -0.5))
            if (r + (d - 1)) % 2 == 0:
                self.plaquettes.append((r * d + d - 1, (r + 1) * d + d - 1))
                self.plaquette_centres.append((r + 0.5, d - 0.5))
        self.num_ancilla = len(self.plaquettes)
        #: Plaquette incidence matrix: ``incidence[a, q] == 1`` when data
        #: qubit q is in the support of Z-plaquette a.  Syndrome extraction
        #: is one matrix product against it instead of a per-plaquette loop.
        self.incidence = np.zeros((self.num_ancilla, self.num_data), dtype=np.int8)
        for index, plaquette in enumerate(self.plaquettes):
            self.incidence[index, list(plaquette)] = 1
        #: Reference data row whose X-error parity is the logical observable.
        self.reference_row = d // 2

    def x_stabilizers(self) -> list[tuple[int, ...]]:
        """Supports of the X-type stabilisers (the complementary checkerboard).

        X-stabilisers commute with every Z-plaquette (they overlap in 0 or 2
        data qubits), so applying one as an X-error pattern is undetectable
        *and* does not flip the logical observable — the property test of the
        stabiliser group structure.
        """
        d = self.distance
        stabilizers: list[tuple[int, ...]] = []
        for r in range(d - 1):
            for c in range(d - 1):
                if (r + c) % 2 == 1:
                    stabilizers.append(
                        (r * d + c, r * d + c + 1, (r + 1) * d + c, (r + 1) * d + c + 1)
                    )
        for c in range(d - 1):
            if (-1 + c) % 2 == 1:
                stabilizers.append((c, c + 1))
            if ((d - 1) + c) % 2 == 1:
                stabilizers.append(((d - 1) * d + c, (d - 1) * d + c + 1))
        return stabilizers

    @property
    def num_physical_qubits(self) -> int:
        """Data plus ancilla qubits — the resource count the paper's NISQ
        argument is about (surface codes "require too many ancilla qubits")."""
        return self.num_data + self.num_ancilla

    # ------------------------------------------------------------------ #
    # Syndromes and logical observable
    # ------------------------------------------------------------------ #
    def syndrome(self, errors: np.ndarray) -> np.ndarray:
        """Parity of every Z-plaquette for a given X-error pattern."""
        errors = np.asarray(errors, dtype=np.int8)
        return (self.incidence @ errors) & 1

    def syndrome_batch(self, errors: np.ndarray) -> np.ndarray:
        """Syndromes of a ``(trials, num_data)`` block of error patterns."""
        errors = np.asarray(errors, dtype=np.int8)
        return (errors @ self.incidence.T) & 1

    def error_crossing_parity(self, errors: np.ndarray) -> int:
        """Parity of X errors on the reference row (logical observable)."""
        d = self.distance
        row = errors[self.reference_row * d : (self.reference_row + 1) * d]
        return int(np.sum(row) % 2)

    def minimum_weight_logical(self) -> np.ndarray:
        """A minimum-weight logical X operator (one full column of X errors)."""
        errors = np.zeros(self.num_data, dtype=np.int8)
        for r in range(self.distance):
            errors[r * self.distance] = 1
        return errors

    # ------------------------------------------------------------------ #
    # Syndrome-extraction circuit (circuit-level noise)
    # ------------------------------------------------------------------ #
    def extraction_circuit(self, rounds: int | None = None) -> Circuit:
        """Build the multi-round syndrome-extraction circuit.

        Data qubit ``r * d + c`` keeps its layout index; ancilla ``a`` is
        qubit ``num_data + a``.  Each round measures every Z-plaquette: a
        CNOT from each support data qubit onto the ancilla (in the
        plaquette's tuple order), a measurement of the ancilla into bit
        ``round * num_ancilla + a``, then the measure-then-``c-x`` reset
        idiom re-preparing the ancilla in |0> for the next round.  With all
        qubits starting in |0> every reference outcome is deterministically
        0, which is what :class:`~repro.qec.pauli_frame.PauliFrameSampler`
        requires.
        """
        rounds = rounds if rounds is not None else self.distance
        if rounds < 1:
            raise ValueError("extraction circuit needs at least one round")
        circuit = Circuit(
            self.num_physical_qubits,
            name=f"esm_d{self.distance}_r{rounds}",
            num_bits=rounds * self.num_ancilla,
        )
        for round_index in range(rounds):
            for ancilla, plaquette in enumerate(self.plaquettes):
                ancilla_qubit = self.num_data + ancilla
                bit = round_index * self.num_ancilla + ancilla
                for data_qubit in plaquette:
                    circuit.cnot(data_qubit, ancilla_qubit)
                circuit.measure(ancilla_qubit, bit)
                circuit.conditional_gate("x", bit, ancilla_qubit)
        return circuit

    def _sampler(self, rounds: int) -> PauliFrameSampler:
        key = (self.distance, rounds)
        sampler = _SAMPLER_CACHE.get(key)
        if sampler is None:
            sampler = PauliFrameSampler(self.extraction_circuit(rounds))
            _SAMPLER_CACHE[key] = sampler
        return sampler

    def run_circuit_memory_experiment(
        self,
        physical_error_rate: float,
        rounds: int | None = None,
        trials: int = 500,
        measurement_error_rate: float | None = None,
        seed: int | np.random.SeedSequence | None = None,
        decoder: str = "union_find",
    ) -> SurfaceCodeResult:
        """Logical memory experiment under circuit-level noise.

        The actual syndrome-extraction circuit runs through the Pauli-frame
        sampler: every CNOT suffers two-qubit depolarizing noise at
        ``physical_error_rate``, every ancilla measurement and reset flips
        at ``measurement_error_rate`` (defaulting to the physical rate).
        Defects are the round-to-round syndrome changes plus a final perfect
        read-out closing open chains, exactly as in the phenomenological
        :meth:`run_memory_experiment` — only the noise locations differ.

        ``decoder`` selects the registry entry (default ``"union_find"``:
        circuit-level volume is where blossom stops being tractable).
        """
        rounds = rounds if rounds is not None else self.distance
        measurement_error_rate = (
            measurement_error_rate if measurement_error_rate is not None else physical_error_rate
        )
        sampler = self._sampler(rounds)
        noise = FrameNoise(
            cnot_error_rate=physical_error_rate,
            measurement_error_rate=measurement_error_rate,
            reset_error_rate=measurement_error_rate,
        )
        sample = sampler.sample(trials, noise, seed=seed)
        observed = sample.bits.reshape(trials, rounds, self.num_ancilla)
        final_errors = sample.final_x[:, : self.num_data]
        final_syndromes = self.syndrome_batch(final_errors)
        syndromes = np.concatenate([observed, final_syndromes[:, np.newaxis, :]], axis=1)
        changed = syndromes.copy()
        changed[:, 1:, :] ^= syndromes[:, :-1, :]
        row_start = self.reference_row * self.distance
        true_parities = final_errors[:, row_start : row_start + self.distance].sum(axis=1) & 1
        decode = decoder_for(self, decoder).decode
        failures = 0
        total_defects = 0
        for trial in range(trials):
            times, ancillas = np.nonzero(changed[trial])
            defects = list(zip(times.tolist(), ancillas.tolist(), strict=True))
            total_defects += len(defects)
            if decode(defects) != int(true_parities[trial]):
                failures += 1
        return SurfaceCodeResult(
            distance=self.distance,
            rounds=rounds,
            trials=trials,
            physical_error_rate=physical_error_rate,
            measurement_error_rate=measurement_error_rate,
            logical_failures=failures,
            total_defects=total_defects,
            noise_model="circuit",
            decoder=decoder,
        )

    # ------------------------------------------------------------------ #
    # Memory experiment
    # ------------------------------------------------------------------ #
    def run_memory_experiment(
        self,
        physical_error_rate: float,
        rounds: int | None = None,
        trials: int = 500,
        measurement_error_rate: float | None = None,
        seed: int | np.random.SeedSequence | None = None,
        decoder: str = "matching",
    ) -> SurfaceCodeResult:
        """Logical memory experiment: accumulate errors over ESM rounds.

        Each round every data qubit suffers an X error with probability
        ``physical_error_rate`` and every ancilla reports a wrong parity with
        probability ``measurement_error_rate``.  Space-time defects are
        matched by :class:`~repro.qec.decoder.MatchingDecoder`; a trial fails
        when the decoder's correction disagrees with the true logical parity.

        Every trial's rounds are processed as one batch: a single uniform
        block per trial (consumed in the same order as the per-round loops of
        the reference implementation in
        ``tests/oracles/surface_code_reference.py``, so outcomes are
        bit-identical for equal seeds), a cumulative-XOR error history, and a
        single incidence-matrix product for all syndromes.
        """
        rng = np.random.default_rng(seed)
        rounds = rounds if rounds is not None else self.distance
        measurement_error_rate = (
            measurement_error_rate if measurement_error_rate is not None else physical_error_rate
        )
        decode = decoder_for(self, decoder).decode
        failures = 0
        total_defects = 0
        for _ in range(trials):
            # One draw per trial; columns split into data-error and
            # measurement-flip thresholds, row-major consumption matching the
            # reference implementation's per-round interleaving exactly.
            block = rng.random((rounds, self.num_data + self.num_ancilla))
            new_errors = (block[:, : self.num_data] < physical_error_rate).astype(np.int8)
            flips = (block[:, self.num_data :] < measurement_error_rate).astype(np.int8)
            # Row t of the accumulated history is the error pattern after
            # round t; syndromes of every round are one matrix product.
            history = np.bitwise_xor.accumulate(new_errors, axis=0)
            if rounds:
                observed = self.syndrome_batch(history) ^ flips
                final_errors = history[-1]
            else:
                observed = np.zeros((0, self.num_ancilla), dtype=np.int8)
                final_errors = np.zeros(self.num_data, dtype=np.int8)
            # Final perfect read-out round closes open defect chains in time.
            syndromes = np.vstack([observed, self.syndrome(final_errors)[np.newaxis, :]])
            changed = syndromes.copy()
            changed[1:] ^= syndromes[:-1]
            times, ancillas = np.nonzero(changed)
            defects = list(zip(times.tolist(), ancillas.tolist(), strict=True))
            total_defects += len(defects)

            correction_parity = decode(defects)
            if correction_parity != self.error_crossing_parity(final_errors):
                failures += 1
        return SurfaceCodeResult(
            distance=self.distance,
            rounds=rounds,
            trials=trials,
            physical_error_rate=physical_error_rate,
            measurement_error_rate=measurement_error_rate,
            logical_failures=failures,
            total_defects=total_defects,
            decoder=decoder,
        )

    def logical_error_rate(
        self,
        physical_error_rate: float,
        trials: int = 500,
        rounds: int | None = None,
        measurement_error_rate: float | None = None,
        seed: int | None = None,
        decoder: str = "matching",
    ) -> float:
        """Convenience wrapper returning only the logical error rate."""
        return self.run_memory_experiment(
            physical_error_rate,
            rounds=rounds,
            trials=trials,
            measurement_error_rate=measurement_error_rate,
            seed=seed,
            decoder=decoder,
        ).logical_error_rate
