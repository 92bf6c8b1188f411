"""Stabilizer (Clifford) simulator.

The realistic-qubit track of the paper needs to process "a very large graph
... in real-time" of syndrome measurements; state-vector simulation caps out
at a few tens of qubits, so QEC-scale circuits are simulated in the
stabilizer formalism instead.  This is an Aaronson-Gottesman CHP-style
tableau simulator: Clifford gates (H, S, CNOT, CZ, X, Y, Z, SWAP) in O(n)
per gate, measurements in O(n^2), hundreds of qubits comfortably.

All row algebra is whole-row numpy: the phase of a Pauli-row product is one
vectorized expression over the X/Z bit-planes (no per-qubit Python loop),
and a measurement's anticommuting-row sweep updates every affected row in a
single broadcast operation against the pivot row.

The engine is validated against the state-vector engine on small circuits in
the test suite and is used by the QEC layer for circuit-level experiments
that would not fit in a state vector.  Like every QX engine it executes a
lowered :class:`~repro.qx.compiled.KernelProgram`, applying each op's gate
*names* (a fused single-qubit run applies every gate it folded).
Measurement histograms follow the same keying convention as
:class:`~repro.qx.simulator.QXSimulator`: keys are ordered by *classical
bit* (``Measurement.bit``), lowest bit rightmost, and a repeated
measurement into one bit keeps only the last outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.circuit import Circuit
from repro.core.operations import Barrier, ConditionalGate, GateOperation, Measurement
from repro.qx.compiled import GATE, MEASURE, program_for
from repro.qx.keying import bits_histogram

#: Gates the stabilizer engine accepts, mapped to their tableau update.
CLIFFORD_GATES = ("i", "x", "y", "z", "h", "s", "sdag", "cnot", "cz", "swap")


def _pauli_phase(x1, z1, x2, z2):
    """Summed phase exponents of multiplying source rows into target rows.

    ``(x1, z1)`` is the source Pauli row and ``(x2, z2)`` the target row(s);
    the return value is the sum over qubits of Aaronson-Gottesman ``g`` —
    the exponent of ``i`` picked up by multiplying the rows, taken along the
    last axis.  Broadcasting a single ``(n,)`` source against an ``(m, n)``
    block of targets yields all ``m`` phase sums in one expression.
    """
    x1 = x1.astype(np.int16)
    z1 = z1.astype(np.int16)
    x2 = x2.astype(np.int16)
    z2 = z2.astype(np.int16)
    g = x1 * z1 * (z2 - x2) + x1 * (1 - z1) * z2 * (2 * x2 - 1) + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    return g.sum(axis=-1)


class StabilizerState:
    """Tableau representation of an n-qubit stabilizer state.

    The tableau holds 2n rows (n destabilizers followed by n stabilizers);
    each row is a Pauli string stored as X and Z bit-vectors plus a sign bit.
    """

    def __init__(self, num_qubits: int, rng: np.random.Generator | None = None):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = num_qubits
        self.rng = rng if rng is not None else np.random.default_rng()
        n = num_qubits
        # x[i, j] / z[i, j]: row i has an X / Z on qubit j; r[i]: sign bit.
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1  # destabilizer i = X_i
            self.z[n + i, i] = 1  # stabilizer i   = Z_i

    # ------------------------------------------------------------------ #
    # Gates
    # ------------------------------------------------------------------ #
    def apply_h(self, qubit: int) -> None:
        q = qubit
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def apply_s(self, qubit: int) -> None:
        q = qubit
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def apply_sdag(self, qubit: int) -> None:
        # Sdag = S . Z = three applications of S.
        self.apply_s(qubit)
        self.apply_s(qubit)
        self.apply_s(qubit)

    def apply_x(self, qubit: int) -> None:
        self.r ^= self.z[:, qubit]

    def apply_z(self, qubit: int) -> None:
        self.r ^= self.x[:, qubit]

    def apply_y(self, qubit: int) -> None:
        self.r ^= self.x[:, qubit] ^ self.z[:, qubit]

    def apply_cnot(self, control: int, target: int) -> None:
        c, t = control, target
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ 1)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def apply_cz(self, control: int, target: int) -> None:
        self.apply_h(target)
        self.apply_cnot(control, target)
        self.apply_h(target)

    def apply_swap(self, qubit_a: int, qubit_b: int) -> None:
        self.apply_cnot(qubit_a, qubit_b)
        self.apply_cnot(qubit_b, qubit_a)
        self.apply_cnot(qubit_a, qubit_b)

    def apply_gate(self, name: str, qubits: tuple[int, ...]) -> None:
        handler = _GATE_DISPATCH.get(name)
        if handler is None:
            raise ValueError(f"gate {name!r} is not a Clifford supported by the stabilizer engine")
        handler(self, *qubits)

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #
    def measure(self, qubit: int) -> int:
        """Measure one qubit in the Z basis (collapsing the tableau).

        Follows the shared measurement-randomness contract of the engine
        stack: every measurement consumes exactly one uniform draw and
        returns ``1 iff draw < p_one`` (here ``p_one`` is 0.5 for a random
        outcome, 0.0 or 1.0 for a deterministic one) — so a seeded
        trajectory consumes the random stream identically on the tableau,
        dense and MPS engines, and cross-engine histograms of the same seed
        are bit-identical.
        """
        n = self.num_qubits
        q = qubit
        # Random outcome if some stabilizer anticommutes with Z_q.
        pivots = np.nonzero(self.x[n:, q])[0]
        if pivots.size:
            p = int(pivots[0]) + n
            # Every other row carrying an X on q absorbs the pivot row.  The
            # pivot is invariant during the sweep, so all rows update in one
            # broadcast against it instead of 2n sequential rowsums.
            rows = np.nonzero(self.x[:, q])[0]
            rows = rows[rows != p]
            if rows.size:
                phases = (
                    2 * self.r[rows].astype(np.int16)
                    + 2 * int(self.r[p])
                    + _pauli_phase(self.x[p], self.z[p], self.x[rows], self.z[rows])
                )
                self.r[rows] = (phases % 4 == 2).astype(np.uint8)
                self.x[rows] ^= self.x[p]
                self.z[rows] ^= self.z[p]
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            outcome = 1 if self.rng.random() < 0.5 else 0
            self.r[p] = outcome
            return outcome
        outcome = self._deterministic_outcome(q)
        # Deterministic outcomes still consume their draw (p_one is exactly
        # 0.0 or 1.0, so the comparison never flips the result).
        return 1 if self.rng.random() < float(outcome) else 0

    def measure_pinned(self, qubit: int, outcome: int = 0) -> tuple[int, bool]:
        """Measure one qubit, pinning a random outcome instead of sampling it.

        This is the reference-frame hook of the Pauli-frame sampler
        (:mod:`repro.qec.pauli_frame`): the tableau runs the noiseless
        syndrome-extraction circuit exactly once, and every measurement whose
        outcome is not determined by the state collapses onto the pinned
        ``outcome`` *without consuming a random draw* — the resulting outcome
        sequence is the deterministic reference frame that sampled Pauli
        errors are propagated against.  Returns ``(outcome, deterministic)``
        where ``deterministic`` reports whether the state forced the result
        (in which case the forced value is returned and ``outcome`` is
        ignored).  The tableau collapses exactly as :meth:`measure` would for
        the same result.
        """
        n = self.num_qubits
        q = qubit
        pivots = np.nonzero(self.x[n:, q])[0]
        if not pivots.size:
            return self._deterministic_outcome(q), True
        p = int(pivots[0]) + n
        rows = np.nonzero(self.x[:, q])[0]
        rows = rows[rows != p]
        if rows.size:
            phases = (
                2 * self.r[rows].astype(np.int16)
                + 2 * int(self.r[p])
                + _pauli_phase(self.x[p], self.z[p], self.x[rows], self.z[rows])
            )
            self.r[rows] = (phases % 4 == 2).astype(np.uint8)
            self.x[rows] ^= self.x[p]
            self.z[rows] ^= self.z[p]
        self.x[p - n] = self.x[p]
        self.z[p - n] = self.z[p]
        self.r[p - n] = self.r[p]
        self.x[p] = 0
        self.z[p] = 0
        self.z[p, q] = 1
        outcome = 1 if outcome else 0
        self.r[p] = outcome
        return outcome, False

    def reset(self, qubit: int) -> None:
        """Reset one qubit to |0> (measure, flip on 1) without consuming rng.

        Both collapse branches land in the same state, so no random draw is
        needed: a random outcome is pinned to 0, a deterministic 1 is
        corrected with an X.
        """
        outcome, _ = self.measure_pinned(qubit, 0)
        if outcome:
            self.apply_x(qubit)

    def _deterministic_outcome(self, qubit: int) -> int:
        """Sign of the stabilizer product fixing Z_qubit, without mutation.

        Accumulates the product of the stabilizer rows selected by the
        destabilizer X-column into local scratch arrays — the tableau and the
        random stream are untouched, so deterministic read-out is side-effect
        free.
        """
        n = self.num_qubits
        scratch_x = np.zeros(n, dtype=np.uint8)
        scratch_z = np.zeros(n, dtype=np.uint8)
        sign = 0
        for i in np.nonzero(self.x[:n, qubit])[0]:
            row = int(i) + n
            phase = (
                2 * sign
                + 2 * int(self.r[row])
                + int(_pauli_phase(self.x[row], self.z[row], scratch_x, scratch_z))
            )
            sign = 1 if phase % 4 == 2 else 0
            scratch_x ^= self.x[row]
            scratch_z ^= self.z[row]
        return sign

    def measure_all(self) -> list[int]:
        return [self.measure(q) for q in range(self.num_qubits)]

    # ------------------------------------------------------------------ #
    def copy(self) -> "StabilizerState":
        """Independent deep copy, including an independently derived rng.

        The clone's generator is spawned from the parent's, so probe
        measurements on a copy never perturb the parent's random stream
        (the runtime determinism contract), while remaining a deterministic
        function of the parent's seed.
        """
        clone = StabilizerState(self.num_qubits, rng=self.rng.spawn(1)[0])
        clone.x = self.x.copy()
        clone.z = self.z.copy()
        clone.r = self.r.copy()
        return clone


#: Gate name -> tableau update, resolved once at import time: apply_gate sits
#: on the per-shot hot path of the auto-dispatched engine, so it must not
#: rebuild a handler table per call.
_GATE_DISPATCH = {
    "i": lambda self, qubit: None,
    "x": StabilizerState.apply_x,
    "y": StabilizerState.apply_y,
    "z": StabilizerState.apply_z,
    "h": StabilizerState.apply_h,
    "s": StabilizerState.apply_s,
    "sdag": StabilizerState.apply_sdag,
    "cnot": StabilizerState.apply_cnot,
    "cz": StabilizerState.apply_cz,
    "swap": StabilizerState.apply_swap,
}


@dataclass
class ReferenceRun:
    """Reference frame of one noiseless tableau execution of a circuit.

    ``outcomes[i]`` is the result of the circuit's *i*-th measurement
    operation (in program order) with every random outcome pinned to 0;
    ``deterministic[i]`` records whether the state forced that outcome.
    Pauli-frame sampling (:mod:`repro.qec.pauli_frame`) replays sampled
    errors as deviations from this frame, so the expensive tableau
    simulation happens once per circuit, not once per shot.
    """

    num_qubits: int
    outcomes: list[int] = field(default_factory=list)
    deterministic: list[bool] = field(default_factory=list)
    #: Final classical-bit values (last write wins).
    bits: dict[int, int] = field(default_factory=dict)

    @property
    def all_deterministic(self) -> bool:
        return all(self.deterministic)


class StabilizerSimulator:
    """Multi-shot Clifford circuit simulator on the tableau engine."""

    def __init__(self, seed: int | None = None, rng: np.random.Generator | None = None):
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def run(self, circuit: Circuit, shots: int = 1) -> dict[str, int]:
        """Execute a Clifford circuit and histogram the measured bit-strings.

        Histogram keys follow the QX convention: character ``j`` of a key is
        the outcome of classical bit ``sorted(bits)[-1 - j]`` (lowest bit
        rightmost), ``Measurement.bit`` cross-maps are honoured, and the last
        measurement writing a bit wins.  Conditional Clifford gates are
        evaluated against the bits measured so far.
        """
        program = program_for(circuit)
        all_bits = self.program_bits(program, shots)
        return bits_histogram(all_bits, program.measured_bits) if program.num_measurements else {}

    def program_bits(self, program, shots: int, num_bits: int | None = None) -> np.ndarray:
        """Execute a lowered program shot by shot; the ``(shots, bits)`` outcomes.

        Each shot starts a fresh tableau on this simulator's generator.  A
        measurement writes its classical bit, a conditional op runs when its
        condition bit is set, and bits nothing writes stay 0.  Rows are
        ``max(program.num_bits, num_bits)`` wide.
        """
        width = max(program.num_bits, num_bits or 0)
        all_bits = np.zeros((shots, width), dtype=np.int64)
        for bits in all_bits:
            state = StabilizerState(program.num_qubits, rng=self.rng)
            for op in program.ops:
                if op.kind == MEASURE:
                    bits[op.bit] = state.measure(op.qubits[0])
                elif op.kind == GATE or bits[op.condition_bit]:
                    for name in op.names:
                        state.apply_gate(name, op.qubits)
        return all_bits

    def reference_run(self, circuit: Circuit) -> ReferenceRun:
        """Execute a Clifford circuit once with pinned measurement outcomes.

        No randomness is consumed: measurements collapse via
        :meth:`StabilizerState.measure_pinned` (random outcomes pinned to 0),
        and conditional gates are evaluated against the pinned bits.  The
        returned :class:`ReferenceRun` is the reference frame for
        Pauli-frame sampling of circuit-level noise.
        """
        state = StabilizerState(circuit.num_qubits, rng=self.rng)
        reference = ReferenceRun(num_qubits=circuit.num_qubits)
        for op in circuit.operations:
            if isinstance(op, GateOperation):
                state.apply_gate(op.name, op.qubits)
            elif isinstance(op, Measurement):
                outcome, deterministic = state.measure_pinned(op.qubit, 0)
                reference.outcomes.append(outcome)
                reference.deterministic.append(deterministic)
                reference.bits[op.bit] = outcome
            elif isinstance(op, ConditionalGate):
                if reference.bits.get(op.condition_bit, 0):
                    state.apply_gate(op.gate.name, op.qubits)
            elif isinstance(op, Barrier):
                continue
        return reference

    def final_state(self, circuit: Circuit) -> StabilizerState:
        """Tableau after running the gate portion of a circuit."""
        state = StabilizerState(circuit.num_qubits, rng=self.rng)
        for op in circuit.operations:
            if isinstance(op, GateOperation):
                state.apply_gate(op.name, op.qubits)
            elif isinstance(op, Measurement):
                raise ValueError("final_state() requires a measurement-free circuit")
        return state
