"""The QX simulator front-end.

Executes :class:`~repro.core.circuit.Circuit` objects (or parsed cQASM
programs) against a pluggable set of simulation engines, with or without
error models, and aggregates multi-shot measurement statistics — the role
QX plays in the paper's full stack: the micro-architecture sends it
instructions, it executes them, measures, and returns results.

Four engines sit behind one front-end: the dense state vector (exact, up
to 26 qubits), the stabilizer tableau (Clifford-only, hundreds of qubits),
the density matrix (exact compiled channels, 16 qubits) and the
matrix-product state (low-entanglement circuits on 50-100+ qubits).  Which engine runs a
circuit is decided by the :func:`~repro.qx.backends.choose` cost model,
overridable per call with ``backend=``; every engine emits
histograms under the shared :mod:`repro.qx.keying` convention, so routing
only ever changes the cost, never the result format.

Every engine executes one form: the circuit lowered once through
:mod:`repro.qx.compiled` (fused when noise-free; unfused under noise, so
every gate keeps its error-injection point).  The deterministic path runs
a single evolution and samples the final distribution; the dense
trajectory path evolves blocks of shots as stacked rows
(:mod:`repro.qx.trajectories`); the tableau applies each op's gate names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.circuit import Circuit
from repro.core.operations import Measurement
from repro.core.qubits import PERFECT, QubitModel
from repro.qx.backends import choose, evolve_once_engine, profile_program, reads_clifford, validate
from repro.qx.channels import compile_channels
from repro.qx.compiled import COND_GATE, GATE, MEASURE, program_for
from repro.qx.density import DensityMatrixSimulator
from repro.qx.error_models import (
    ErrorModel,
    NoError,
    error_model_for,
    noise_kind,
)
from repro.qx.keying import PreparedIndexSampler, bits_histogram, counts_to_bits
from repro.qx.mps import DEFAULT_TRUNCATION_THRESHOLD, MPSState
from repro.qx.stabilizer import StabilizerSimulator
from repro.qx.statevector import StateVector
from repro.qx.trajectories import TrajectorySchedule

@dataclass
class SimulationResult:
    """Outcome of one or more shots of a circuit."""

    num_qubits: int
    shots: int
    counts: dict[str, int] = field(default_factory=dict)
    final_state: np.ndarray | None = None
    classical_bits: list[list[int]] = field(default_factory=list)
    errors_injected: int = 0
    #: Which engine executed the shots.
    backend: str = "statevector"
    #: Cumulative discarded Schmidt weight of an MPS run (averaged over
    #: shots on the trajectory path); 0.0 for exact engines.
    truncation_error: float = 0.0

    def probability(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / max(self.shots, 1)

    def most_frequent(self) -> str:
        if not self.counts:
            raise ValueError("no measurement results recorded")
        return max(self.counts.items(), key=lambda item: item[1])[0]

    def expectation_z(self, qubit: int) -> float:
        """Average Z expectation of a qubit over the recorded shots."""
        if not self.classical_bits:
            raise ValueError("no per-shot classical bits recorded")
        bits = np.asarray(self.classical_bits)
        return float(np.mean(1.0 - 2.0 * bits[:, qubit]))

    def success_probability(self, target: str) -> float:
        """Fraction of shots that produced the target bit-string."""
        return self.probability(target)


class QXSimulator:
    """Multi-shot circuit simulator with pluggable engines and error models.

    ``backend`` fixes the engine for every run of this simulator
    (``"statevector"``, ``"stabilizer"``, ``"density"`` or ``"mps"``);
    ``None`` lets the cost model choose per circuit.  ``max_bond`` and
    ``truncation_threshold`` are the MPS accuracy knobs (``None`` keeps the
    engine defaults: unbounded bond, i.e. exact); ``max_bond`` also feeds
    the cost model, so the engine is chosen on the configuration that
    runs.  Every evolve-once run (dense or MPS sampled, density) evolves
    through one preparation step, whether it serves one run or many seeded
    shards.
    """

    def __init__(
        self,
        num_qubits: int | None = None,
        error_model: ErrorModel | None = None,
        qubit_model: QubitModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
        backend: str | None = None,
        max_bond: int | None = None,
        truncation_threshold: float | None = None,
    ):
        if error_model is not None and qubit_model is not None:
            raise ValueError("pass either error_model or qubit_model, not both")
        if qubit_model is not None:
            error_model = error_model_for(qubit_model)
        self.error_model = error_model or NoError()
        self.qubit_model = qubit_model or PERFECT
        self.num_qubits = num_qubits
        self.rng = np.random.default_rng(seed)
        self.backend = backend
        self.max_bond = max_bond
        self.truncation_threshold = truncation_threshold

    # ------------------------------------------------------------------ #
    def run(
        self,
        circuit: Circuit,
        shots: int = 1,
        keep_final_state: bool = False,
        initial_state: np.ndarray | None = None,
        backend: str | None = None,
    ) -> SimulationResult:
        """Execute ``circuit`` for ``shots`` repetitions.

        The circuit is lowered (fused when noise-free) and executed by
        :meth:`run_program`, like every runtime shard.  When the error
        model is trivial and the circuit has no mid-circuit measurement
        feedback, all shots share a single evolution and the measurement
        histogram is sampled from the final distribution, which is
        exponentially cheaper than re-running.

        The engine is chosen by the dispatch cost model — dense
        state vector while it fits, the stabilizer tableau for QEC-scale
        Clifford circuits, the MPS engine beyond the dense wall — or fixed
        with ``backend=``.  An explicitly requested backend that cannot run
        the circuit raises :class:`~repro.qx.backends
        .UnsupportedBackendError` with the capability matrix instead of
        falling back silently.
        """
        num_qubits = self.num_qubits or circuit.num_qubits
        if circuit.num_qubits > num_qubits:
            raise ValueError("circuit does not fit the simulator register")
        # Fuse only when the error model permits it, so noisy runs never pay
        # for (or cache) a fused program they cannot use.
        program = program_for(circuit, fuse=isinstance(self.error_model, NoError))
        return self.run_program(program, shots, num_qubits, keep_final_state, initial_state, backend)

    def run_program(
        self,
        program,
        shots: int = 1,
        num_qubits: int | None = None,
        keep_final_state: bool = False,
        initial_state: np.ndarray | None = None,
        backend: str | None = None,
    ) -> SimulationResult:
        """Execute an already-lowered :class:`~repro.qx.compiled.KernelProgram`.

        Every engine runs here: :meth:`run` lowers its circuit and calls
        this, and so does the parallel experiment runtime
        (:mod:`repro.runtime`) for every unit that needs per-shot runs.  An
        evolve-once engine evolves through the same preparation step as
        :meth:`run_program_shards` and draws once from this simulator's
        generator.  Noisy execution requires an *unfused* program, because
        gate fusion removes error-injection points.
        """
        register, requested, profile = self._profile_program(
            program, shots, num_qubits, backend, initial_state, keep_final_state
        )
        name = requested if requested is not None else choose(profile, self.max_bond)
        if evolve_once_engine(profile, (shots,), name) is not None:
            sample, final_state, truncation_error = self._prepare(
                name, program, register, initial_state
            )
            counts, rows = sample(shots, self.rng)
            result = SimulationResult(
                num_qubits=register,
                shots=shots,
                counts=counts,
                backend=name,
                truncation_error=truncation_error,
            )
            if program.num_measurements:
                result.classical_bits = (
                    counts_to_bits(
                        counts,
                        program.sample_sources()[0],
                        shots,
                        size=max(program.num_bits, register),
                    )
                    if rows is None
                    else rows.tolist()
                )
            if keep_final_state or not program.num_measurements:
                result.final_state = final_state()
            return result
        if name == "stabilizer":
            return self._run_stabilizer(program, register, shots)
        if name == "mps":
            return self._run_mps(program, register, shots, keep_final_state)
        return self._run_trajectories(program, register, shots, keep_final_state, initial_state)

    def run_program_shards(
        self,
        program,
        shards,
        num_qubits: int | None = None,
        backend: str | None = None,
    ) -> list[SimulationResult]:
        """Execute one lowered program for many ``(shots, rng)`` shards.

        The runtime's evolve-once entry point.  When every shard size
        dispatches to one engine that serves all shots from a single
        evolution (:func:`~repro.qx.backends.evolve_once_engine`), the
        program evolves once and each shard samples the prepared
        distribution with its own generator, drawing exactly what
        :meth:`run_program` would draw on a simulator seeded with that
        generator — so every shard's histogram is bit-identical to
        its own ``run_program`` call.  Any other program runs
        :meth:`run_program` once per shard on the shard's generator.
        Results carry histograms only: per-shot classical bits are not
        materialised.
        """
        shards = list(shards)
        if not shards:
            return []
        sizes = [shots for shots, _ in shards]
        register, requested, profile = self._profile_program(
            program, min(sizes), num_qubits, backend
        )
        name = evolve_once_engine(profile, sizes, requested, self.max_bond)
        if name is None:
            results = []
            own_rng = self.rng
            try:
                for shots, rng in shards:
                    self.rng = rng
                    results.append(self.run_program(program, shots, register, backend=backend))
            finally:
                self.rng = own_rng
            return results
        sample, _, truncation_error = self._prepare(name, program, register)
        return [
            SimulationResult(
                num_qubits=register,
                shots=shots,
                counts=sample(shots, rng)[0],
                backend=name,
                truncation_error=truncation_error,
            )
            for shots, rng in shards
        ]

    def _profile_program(
        self, program, shots, num_qubits, backend, initial_state=None, keep_final_state=False
    ):
        """Validate one lowered-program run; returns ``(register, requested, profile)``."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        register = num_qubits or self.num_qubits or program.num_qubits
        if program.num_qubits > register:
            raise ValueError("program does not fit the simulator register")
        requested = backend if backend is not None else self.backend
        noise = noise_kind(self.error_model)
        profile = profile_program(
            program,
            shots=shots,
            num_qubits=register,
            noise=noise,
            has_initial_state=initial_state is not None,
            keep_final_state=keep_final_state,
            is_clifford=None if reads_clifford(requested, noise, register) else False,
        )
        if requested is not None:
            validate(requested, profile)
        if not profile.noise_free and program.fused:
            raise ValueError(
                "noisy execution requires an unfused program (lower with fuse=False)"
            )
        return register, requested, profile

    def _prepare(self, name, program, num_qubits, initial_state=None):
        """Evolve ``program`` once on an evolve-once engine.

        Returns ``(sample, final_state, truncation_error)``.  ``sample(shots,
        rng)`` draws one histogram from the final distribution under the
        shared keying convention and returns ``(counts, rows)``: the MPS
        engine draws per-shot bit rows and returns that ``(shots, bits)``
        array, the dense and density engines draw basis indices and return
        ``rows=None``.  ``final_state()`` builds the evolved state vector on
        demand (``None`` on the density engine).  ``initial_state`` seeds the
        dense engine only.
        """
        if name == "mps":
            state = self._mps_state(num_qubits)
            for op in program.ops:
                if op.kind == GATE:
                    state.apply_gate(op.matrix, op.qubits)
            ordered_bits = tuple(sorted(program.bit_sources))
            num_bits = max(program.num_bits, num_qubits)

            def sample(shots, rng):
                if not program.num_measurements:
                    return {}, None
                state.rng = rng
                samples = state.sample_bits(shots)
                rows = np.zeros((shots, num_bits), dtype=np.int64)
                for bit, source in program.bit_sources.items():
                    rows[:, bit] = samples[:, source]
                return bits_histogram(rows, ordered_bits), rows

            return sample, state.to_statevector, state.truncation_error
        if name == "density":
            probabilities = self._density_distribution(program, num_qubits)
            amplitudes = None
        else:
            state = StateVector(num_qubits, rng=self.rng)
            if initial_state is not None:
                state.set_state(initial_state)
            amplitudes = program.apply_unitaries(state.amplitudes)
            probabilities = np.abs(amplitudes) ** 2 if program.num_measurements else None
        if probabilities is None:
            return (lambda shots, rng: ({}, None)), lambda: amplitudes, 0.0
        sampler = PreparedIndexSampler(probabilities, program.sample_sources()[1])
        return (lambda shots, rng: (sampler.sample(shots, rng), None)), lambda: amplitudes, 0.0

    # ------------------------------------------------------------------ #
    def _run_trajectories(self, program, num_qubits, shots, keep_final_state, initial_state):
        """Per-shot trajectories, evolved as stacked row blocks.

        :mod:`repro.qx.trajectories` draws exactly the stream a
        one-state-per-shot loop would, so results are bit-identical to it.
        """
        result = SimulationResult(num_qubits=num_qubits, shots=shots)
        schedule = TrajectorySchedule(program, self.error_model, num_qubits)
        blocks = schedule.blocks(shots, self.rng, initial_state)
        bit_blocks = []
        for stack, bits, errors in blocks:
            bit_blocks.append(bits)
            result.errors_injected += errors
        if keep_final_state:
            result.final_state = stack[-1].copy()
        if program.num_measurements:
            all_bits = np.concatenate(bit_blocks)
            result.counts = bits_histogram(all_bits, program.measured_bits)
            result.classical_bits = all_bits.tolist()
        return result

    def _run_stabilizer(self, program, num_qubits, shots):
        """Per-shot tableau execution of a noise-free Clifford program.

        The loop is :meth:`~repro.qx.stabilizer.StabilizerSimulator
        .program_bits` — one source of truth with the standalone engine —
        and the histogram block is shared with :meth:`_run_trajectories`, so
        routing a program to the tableau changes only the cost, never the
        result format.
        """
        engine = StabilizerSimulator(rng=self.rng)
        all_bits = engine.program_bits(program, shots, num_qubits)
        result = SimulationResult(num_qubits=num_qubits, shots=shots, backend="stabilizer")
        result.counts = bits_histogram(all_bits, program.measured_bits)
        result.classical_bits = all_bits.tolist()
        return result

    # ------------------------------------------------------------------ #
    def _mps_state(self, num_qubits) -> MPSState:
        threshold = self.truncation_threshold
        return MPSState(
            num_qubits,
            max_bond=self.max_bond,
            truncation_threshold=DEFAULT_TRUNCATION_THRESHOLD if threshold is None else threshold,
            rng=self.rng,
        )

    def _run_mps(self, program, num_qubits, shots, keep_final_state):
        """Per-shot trajectories on the matrix-product-state engine.

        Feedback or noise runs each shot with the same error-model hooks as
        the dense engine (MPS states expose ``apply_pauli`` and
        ``measure``); the sampled MPS path evolves once in :meth:`_prepare`.
        """
        result = SimulationResult(num_qubits=num_qubits, shots=shots, backend="mps")
        all_bits = np.zeros((shots, max(program.num_bits, num_qubits)), dtype=np.int64)
        error_model = self.error_model
        rng = self.rng
        errors = 0
        truncation = 0.0
        for shot in range(shots):
            state = self._mps_state(num_qubits)
            bits = all_bits[shot]
            for op in program.ops:
                kind = op.kind
                if kind == GATE:
                    state.apply_gate(op.matrix, op.qubits)
                    errors += error_model.apply_after_gate(state, op.qubits, op.duration, rng)
                elif kind == MEASURE:
                    outcome = state.measure(op.qubits[0])
                    outcome = error_model.flip_measurement(outcome, rng)
                    bits[op.bit] = outcome
                elif kind == COND_GATE:
                    if bits[op.condition_bit]:
                        state.apply_gate(op.matrix, op.qubits)
                        errors += error_model.apply_after_gate(
                            state, op.qubits, op.duration, rng
                        )
            truncation += state.truncation_error
            if keep_final_state and shot == shots - 1:
                result.final_state = state.to_statevector()
        result.errors_injected = errors
        result.truncation_error = truncation / shots
        if program.num_measurements:
            result.counts = bits_histogram(all_bits, program.measured_bits)
            result.classical_bits = all_bits.tolist()
        return result

    def _density_distribution(self, program, num_qubits) -> np.ndarray | None:
        """Exact ensemble evolution on the density-matrix engine.

        The program compiles into one channel program — each gate's PTM
        fused with its trailing noise channels — and evolves the Pauli
        coefficient vector once, flat in shots.  No stochastic injection,
        so ``errors_injected`` stays 0; read-out error becomes the compiled
        classical confusion matrix applied to the exact outcome
        distribution.  Returns that distribution, flat over basis indices;
        ``None`` for a program that never measures.
        """
        error_model = None if isinstance(self.error_model, NoError) else self.error_model
        channels = compile_channels(program, error_model, num_qubits=num_qubits)
        engine = DensityMatrixSimulator(num_qubits)
        engine.run_channels(channels)
        if not program.num_measurements:
            return None
        probabilities = engine.probabilities()
        if channels.confusion is not None:
            probabilities = _confuse(probabilities, channels.confusion, program.sample_sources()[1])
        return probabilities

    # ------------------------------------------------------------------ #
    def statevector(self, circuit: Circuit) -> np.ndarray:
        """Final state vector of a measurement-free circuit (perfect qubits)."""
        program = program_for(circuit, fuse=True)
        if program.num_measurements:
            raise ValueError("statevector() requires a measurement-free circuit")
        state = StateVector(circuit.num_qubits, rng=self.rng)
        return program.apply_unitaries(state.amplitudes)

    def fidelity_with_ideal(self, circuit: Circuit, shots: int = 1) -> float:
        """Average fidelity of noisy trajectories against the ideal final state.

        Used by the error-model benchmarks (experiment E5) to quantify how a
        given physical error rate degrades a circuit of a given depth.
        """
        stripped = _strip_measurements(circuit)
        ideal = QXSimulator(seed=0).statevector(stripped)
        program = program_for(stripped, fuse=False)
        schedule = TrajectorySchedule(program, self.error_model, stripped.num_qubits)
        blocks = schedule.blocks(shots, self.rng)
        total = sum(float(np.sum(np.abs(stack @ ideal.conj()) ** 2)) for stack, _, _ in blocks)
        return total / shots


def _confuse(
    probabilities: np.ndarray, confusion: np.ndarray, qubits: tuple[int, ...]
) -> np.ndarray:
    """Mix a basis-state distribution through a read-out confusion matrix.

    ``probabilities`` is flat over basis indices with qubit ``q`` at bit
    ``q`` (the :class:`~repro.qx.keying.PreparedIndexSampler` convention);
    the row-stochastic 2x2 ``confusion`` maps the true outcome of each
    measured qubit to the reported one: ``P(report b) = sum_a P(a) C[a, b]``.
    """
    probabilities = np.ascontiguousarray(probabilities)
    for qubit in sorted(set(qubits)):
        view = probabilities.reshape(-1, 2, 2**qubit)
        zero = view[:, 0, :].copy()
        one = view[:, 1, :]
        view[:, 0, :] = confusion[0, 0] * zero + confusion[1, 0] * one
        view[:, 1, :] = confusion[0, 1] * zero + confusion[1, 1] * one
    return probabilities


def _strip_measurements(circuit: Circuit) -> Circuit:
    stripped = Circuit(circuit.num_qubits, circuit.name, num_bits=circuit.num_bits)
    for op in circuit.operations:
        if not isinstance(op, Measurement):
            stripped.append(op)
    return stripped
