"""Shot-stacked noisy trajectories on the dense state vector.

A noisy (or feedback) program cannot be sampled from one final
distribution: every shot is its own stochastic trajectory.  Executing
them one state at a time pays one kernel call, one error-model call and
several scalar generator calls per op per shot, on states that are often
only a few hundred amplitudes long.  This engine instead evolves a block
of consecutive shots as one C-contiguous ``(rows, 2**n)`` stack:

* **The tape.**  Every error model declares its draw schedule
  (:meth:`~repro.qx.error_models.ErrorModel.trajectory_slots`,
  :meth:`~repro.qx.error_models.ErrorModel.measurement_flips`), and that
  schedule never depends on the state.  A shot therefore consumes a fixed
  number of uniform doubles in a fixed order, and a block's doubles are
  drawn in bulk — ``rng.random(k)`` is exactly ``k`` scalar draws.  The
  one interleaved call, ``rng.integers(3)`` at a firing depolarizing slot,
  is drawn in place (see :func:`_draw_tape`), so the generator walks
  exactly the stream the one-state-per-shot loop walks and ends where it
  would.
* **The evolution.**  1- and 2-qubit gates run the ordinary in-place
  kernels on the flattened stack: the kernels are elementwise over the
  high index bits, so every row gets the arithmetic a lone state would.
  Larger gates run row by row.  Measurements are vectorized over rows
  from the tape's column; Pauli errors and decay collapses touch only the
  rows whose tape entries fire.
* **Feedback under noise.**  A conditional gate's noise is drawn only when
  its bit is set, the one state-dependent part of a schedule, so no tape
  can be laid out ahead.  Such programs evolve their rows one after
  another through the single-state interpretation of the schedule,
  drawing scalars as each step executes (see
  :meth:`TrajectorySchedule._evolve_live`).  Noise-free feedback stays
  stacked: the conditional gate is applied to the rows whose bit is set.

A :class:`TrajectorySchedule` asks the error model once per distinct
``(qubits, duration)`` of a program, so the per-op constants (decay
probabilities, spectator sets) are paid once per run, not per shot.
"""

from __future__ import annotations

import numpy as np

from repro.qx import kernels
from repro.qx.compiled import COND_GATE, MEASURE
from repro.qx.error_models import DECAY, DEPOLARIZE
from repro.qx.statevector import PAULI_MATRICES, StateVector

#: Byte budget of one block: the ``(rows, 2**n)`` stack plus its tape.
#: Cache-sized on purpose: a block whose stack and kernel temporaries stay
#: cache-resident runs faster per shot than one large block.
BLOCK_BYTES = 1 << 20

#: Doubles drawn per bulk chunk while a tape has depolarizing slots.
_TAPE_CHUNK = 1024

_X, _Y, _Z = PAULI_MATRICES["x"], PAULI_MATRICES["y"], PAULI_MATRICES["z"]

#: Tape column actions of a gate step.
_DEPOLARIZE, _PAULI, _DECAY, _DEPHASE = range(4)


class _Step:
    """One program op with its tape columns ``[start, stop)`` of a shot."""

    __slots__ = ("op", "start", "stop", "slots", "actions", "fire", "flips")

    def __init__(self, op, start, stop, slots=(), actions=(), flips=()):
        self.op = op
        self.start = start
        self.stop = stop
        #: The error model's slots for a gate; empty for a measurement.
        self.slots = slots
        #: Per column ``(action, qubit, slot thresholds)``; empty for a measurement.
        self.actions = actions
        #: Read-out flip probabilities of a measurement (columns 1..).
        self.flips = flips
        #: Per column: a draw below this value injects an error (set by the schedule).
        self.fire = None


def _gate_columns(slots):
    """``(slots, actions, fire, depolarizing)``: a gate's slots and tape columns."""
    actions, fire, depolarizing = [], [], []
    for slot in slots:
        if slot.kind == DECAY:
            actions += [
                (_DECAY, slot.qubit, slot.thresholds),
                (_DEPHASE, slot.qubit, slot.thresholds),
            ]
            fire += slot.thresholds
            depolarizing += (0.0, 0.0)
        elif slot.kind == DEPOLARIZE:
            actions.append((_DEPOLARIZE, slot.qubit, slot.thresholds))
            fire.append(slot.thresholds[0])
            depolarizing.append(slot.thresholds[0])
        else:
            actions.append((_PAULI, slot.qubit, slot.thresholds))
            fire.append(slot.thresholds[-1])
            depolarizing.append(0.0)
    return slots, tuple(actions), fire, depolarizing


class TrajectorySchedule:
    """A lowered program's draw schedule under one error model, compiled once."""

    def __init__(self, program, error_model, num_qubits: int):
        self.program = program
        self.num_qubits = num_qubits
        flips = error_model.measurement_flips()
        measure_columns = [0.0] * (1 + len(flips))
        # Gates sharing operands and duration share their slots: the model
        # is asked once per distinct (qubits, duration) pair.
        gate_columns: dict[tuple, tuple] = {}
        steps: list[_Step] = []
        fire: list[float] = []
        depolarizing: list[float] = []
        live = False
        for op in program.ops:
            start = len(fire)
            if op.kind == MEASURE:
                stop = start + len(measure_columns)
                steps.append(_Step(op, start, stop, flips=flips))
                fire += measure_columns
                depolarizing += measure_columns
                continue
            key = (op.qubits, op.duration)
            columns = gate_columns.get(key)
            if columns is None:
                slots = error_model.trajectory_slots(op.qubits, op.duration, num_qubits)
                columns = gate_columns[key] = _gate_columns(slots)
            slots, actions, step_fire, step_depolarizing = columns
            steps.append(_Step(op, start, start + len(step_fire), slots, actions))
            fire += step_fire
            depolarizing += step_depolarizing
            live = live or (op.kind == COND_GATE and bool(actions))
        fire_array = np.array(fire, dtype=float)
        #: Per column: the depolarizing rate, 0 for every other column.
        self.depolarizing = np.array(depolarizing, dtype=float)
        for step in steps:
            step.fire = fire_array[step.start : step.stop]
        self.steps = steps
        #: Uniform doubles one shot consumes (besides depolarizing picks).
        self.width = len(fire)
        #: Noise on a conditional gate: the draw count depends on the bits.
        self.live = live

    def blocks(self, shots: int, rng: np.random.Generator, initial_state=None):
        """Evolve ``shots`` trajectories in consecutive row blocks.

        Yields ``(stack, bits, errors)`` per block: the rows' final states,
        their ``(rows, max(num_bits, num_qubits))`` classical registers and
        the errors injected into them.  Shots draw from ``rng`` in shot
        order, exactly as one-state-per-shot execution would.  A block's
        stack and tape stay within :data:`BLOCK_BYTES`.
        """
        start = StateVector(self.num_qubits, rng=rng)
        if initial_state is not None:
            start.set_state(initial_state)
        num_bits = max(self.program.num_bits, self.num_qubits)
        row_bytes = 16 * start.amplitudes.size + 8 * num_bits + 32 * self.width
        block = max(1, BLOCK_BYTES // row_bytes)
        evolve = self._evolve_live if self.live else self._evolve
        done = 0
        while done < shots:
            rows = min(block, shots - done)
            stack = np.empty((rows, start.amplitudes.size), dtype=complex)
            stack[:] = start.amplitudes
            bits = np.zeros((rows, num_bits), dtype=np.int64)
            yield stack, bits, evolve(stack, bits, rng)
            done += rows

    def _evolve(self, stack: np.ndarray, bits: np.ndarray, rng: np.random.Generator) -> int:
        """Run every step on one block's rows; returns the errors injected."""
        rows = stack.shape[0]
        doubles, drawn = _draw_tape(rng, np.tile(self.depolarizing, rows))
        tape = doubles.reshape(rows, self.width)
        picks = drawn.reshape(rows, self.width)
        errors = 0
        for step in self.steps:
            op = step.op
            selected = None
            if op.kind == COND_GATE:
                taken = bits[:, op.condition_bit] != 0
                if not taken.any():
                    continue
                if not taken.all():
                    selected = np.flatnonzero(taken)
            window = tape[:, step.start : step.stop]
            if op.kind == MEASURE:
                _measure(stack, bits, step, window)
                continue
            _apply_gate(stack, op, selected)
            if step.actions:
                errors += _inject(stack, step, window, picks[:, step.start : step.stop])
        return errors

    def _evolve_live(self, stack: np.ndarray, bits: np.ndarray, rng: np.random.Generator) -> int:
        """Run the block's rows one after another, drawing as each step executes.

        A taken conditional gate draws its slots, an untaken one draws
        nothing, so no tape can be laid out ahead.  Each row runs through
        the single-state interpretation of the schedule
        (:meth:`TrajectorySlot.inject`, :meth:`StateVector.measure` and one
        draw per read-out flip), the same draws the base-class
        :meth:`~repro.qx.error_models.ErrorModel.apply_after_gate` /
        :meth:`~repro.qx.error_models.ErrorModel.flip_measurement` make.
        """
        state = StateVector(self.num_qubits, rng=rng)
        errors = 0
        for amplitudes, row_bits in zip(stack, bits, strict=True):
            state.amplitudes = amplitudes
            for step in self.steps:
                op = step.op
                if op.kind == MEASURE:
                    outcome = state.measure(op.qubits[0])
                    for probability in step.flips:
                        if rng.random() < probability:
                            outcome = 1 - outcome
                    row_bits[op.bit] = outcome
                    continue
                if op.kind == COND_GATE and not row_bits[op.condition_bit]:
                    continue
                state.amplitudes = kernels.apply_gate_inplace(
                    state.amplitudes, op.matrix, op.qubits, structure=op.structure
                )
                for slot in step.slots:
                    errors += slot.inject(state, rng)
            amplitudes[:] = state.amplitudes
        return errors


def _draw_tape(rng: np.random.Generator, depolarizing: np.ndarray):
    """Draw a flat tape exactly as slot-by-slot execution draws it.

    ``depolarizing`` holds each position's depolarizing rate (0 elsewhere).
    Returns ``(doubles, picks)``: every position's uniform draw, and at each
    firing depolarizing position the ``rng.integers(3)`` Pauli pick that
    execution draws right after it.  PCG64 serves that call from a buffered
    32-bit half word, so a pick cannot be drawn ahead of its position: each
    chunk is drawn in bulk, and at its first firing position the generator
    is rewound and re-advanced to just past it before the pick is drawn.
    """
    size = depolarizing.size
    doubles = np.empty(size)
    picks = np.zeros(size, dtype=np.int8)
    if not depolarizing.any():
        rng.random(out=doubles)
        return doubles, picks
    bit_generator = rng.bit_generator
    position = 0
    while position < size:
        stop = min(position + _TAPE_CHUNK, size)
        snapshot = bit_generator.state
        rng.random(out=doubles[position:stop])
        fired = np.flatnonzero(doubles[position:stop] < depolarizing[position:stop])
        if fired.size == 0:
            position = stop
            continue
        hit = position + int(fired[0])
        bit_generator.state = snapshot
        rng.random(out=doubles[position : hit + 1])
        picks[hit] = rng.integers(3)
        position = hit + 1
    return doubles, picks


def _apply_gate(stack: np.ndarray, op, selected) -> None:
    """Apply a gate to every row, or to the ``selected`` rows only."""
    if len(op.qubits) > 2:
        for row in range(stack.shape[0]) if selected is None else selected:
            stack[row] = kernels.apply_gate_generic(stack[row], op.matrix, op.qubits)
        return
    if selected is None:
        kernels.apply_gate_inplace(stack.reshape(-1), op.matrix, op.qubits, op.structure)
        return
    subset = stack[selected]
    kernels.apply_gate_inplace(subset.reshape(-1), op.matrix, op.qubits, op.structure)
    stack[selected] = subset


def _inject(stack: np.ndarray, step: _Step, window: np.ndarray, picks: np.ndarray) -> int:
    """Inject a gate step's errors into the rows whose tape entries fire."""
    hits = window < step.fire
    if not hits.any():
        return 0
    injected = 0
    # Row-major: each row's errors land in slot order.
    for row, column in zip(*np.nonzero(hits), strict=True):
        action, qubit, thresholds = step.actions[column]
        amplitudes = stack[row]
        if action == _DEPOLARIZE:
            pauli = (_X, _Y, _Z)[picks[row, column]]
        elif action == _PAULI:
            draw = window[row, column]
            pauli = _X if draw < thresholds[0] else _Y if draw < thresholds[1] else _Z
        elif action == _DEPHASE:
            if window[row, column - 1] < thresholds[0]:
                continue  # this slot decayed instead
            pauli = _Z
        else:
            # Amplitude damping: collapse on the slot's second draw, reset |1> to |0>.
            p_one = kernels.probability_of_one(amplitudes, qubit)
            outcome = 1 if window[row, column + 1] < p_one else 0
            kernels.collapse(amplitudes, qubit, outcome)
            if outcome == 1:
                kernels.apply_1q(amplitudes, _X, qubit)
            injected += 1
            continue
        kernels.apply_1q(amplitudes, pauli, qubit)
        injected += 1
    return injected


def _measure(stack, bits, step, window) -> None:
    """Measure every row on the tape column, collapse, record the (flipped) bit.

    Mirrors :meth:`StateVector.measure` row by row: outcome 1 iff the draw
    is below the ``|1>`` weight, the other half zeroed and the row divided
    by the kept half's norm (a complex division by a real ``d`` is a
    multiplication by ``1 / d``, done here on the real view).
    """
    qubit = step.op.qubits[0]
    rows = stack.shape[0]
    weights = np.square(stack.real) + np.square(stack.imag)
    weights = weights.reshape(rows, -1, 2, 1 << qubit).sum(axis=3).sum(axis=1)
    outcome = window[:, 0] < weights[:, 1]
    norm = np.sqrt(np.where(outcome, weights[:, 1], weights[:, 0]))
    if (norm < 1e-12).any():
        value = int(outcome[np.argmax(norm < 1e-12)])
        raise ValueError(f"cannot collapse qubit {qubit} to {value}: zero probability")
    halves = stack.reshape(rows, -1, 2, 1 << qubit)
    halves[outcome, :, 0, :] = 0.0
    halves[~outcome, :, 1, :] = 0.0
    stack.view(np.float64)[...] *= (1.0 / norm)[:, None]
    for column, probability in enumerate(step.flips, start=1):
        outcome ^= window[:, column] < probability
    bits[:, step.op.bit] = outcome
