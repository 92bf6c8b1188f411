"""Error models for realistic qubits.

Section 2.7 of the paper: when simulating *realistic* qubits the QX engine
inserts stochastic errors after gates and around measurements.  The basic
model is the depolarising channel ("every quantum gate is followed by some
error, drawn from a uniform distribution of the different errors that can
follow: Pauli X, Y or Z"); richer models add T1/T2 decoherence proportional
to the elapsed time and classical measurement read-out errors.

Every model has *one* definition of its physics and two execution views of
it:

* the **trajectory view** is a declared draw schedule:
  :meth:`ErrorModel.trajectory_slots` lists the error locations a gate
  opens (each a :class:`TrajectorySlot` with a fixed number of uniform
  draws) and :meth:`ErrorModel.measurement_flips` the read-out flip
  probabilities.  The schedule never depends on the quantum state, which
  is what lets :mod:`repro.qx.trajectories` pre-draw a whole block of
  shots and evolve them as one stacked array.  The base-class
  :meth:`ErrorModel.apply_after_gate` / :meth:`ErrorModel.flip_measurement`
  interpret the same schedule for one state, drawing from the seeded
  stream in slot order (the bit-identity contract the regression tests
  pin);
* the **channel view** (:meth:`ErrorModel.noise_channels` /
  :meth:`ErrorModel.confusion`) returns the exact
  :class:`~repro.qx.channels.Channel` the trajectory process averages to,
  which the density engine executes deterministically.

Both views read the same model parameters through the same helper methods
(``rate_for``, ``decay_probabilities``, ``pauli_probabilities``,
``spectators_for``), so they can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.qubits import PERFECT, QubitModel
from repro.qx.channels import Channel
from repro.qx.statevector import StateVector

#: The channel view's return type: ``(qubits, channel)`` placements.
ChannelPlacements = "list[tuple[tuple[int, ...], Channel]]"

#: Trajectory slot kinds.  ``DEPOLARIZE``: one draw; under ``thresholds[0]``
#: a second call, ``rng.integers(3)``, picks X, Y or Z.  ``DECAY``: two
#: draws — the decay draw against ``thresholds[0]``, then either the
#: collapse measurement's draw (decayed: reset to ``|0>``) or the dephasing
#: draw against ``thresholds[1]`` (Z).  ``PAULI``: one draw against the
#: cumulative X, X+Y, X+Y+Z thresholds.
DEPOLARIZE = "depolarize"
DECAY = "decay"
PAULI = "pauli"


class TrajectorySlot(NamedTuple):
    """One error location of a gate's draw schedule."""

    kind: str
    qubit: int
    thresholds: tuple[float, ...]

    def inject(self, state, rng: np.random.Generator) -> int:
        """Draw this slot for one state; returns the number of errors injected.

        ``state`` is any engine state exposing ``apply_pauli`` and
        ``measure`` (the decay collapse draws through ``state.measure``).
        """
        qubit = self.qubit
        if self.kind == DEPOLARIZE:
            if rng.random() < self.thresholds[0]:
                state.apply_pauli(("x", "y", "z")[int(rng.integers(3))], qubit)
                return 1
            return 0
        if self.kind == DECAY:
            p_decay, p_dephase = self.thresholds
            if rng.random() < p_decay:
                # Trajectory approximation of amplitude damping: collapse to
                # the measured value and reset to |0> if it was |1>.
                if state.measure(qubit) == 1:
                    state.apply_pauli("x", qubit)
                return 1
            if rng.random() < p_dephase:
                state.apply_pauli("z", qubit)
                return 1
            return 0
        draw = rng.random()
        for pauli, threshold in zip("xyz", self.thresholds, strict=True):
            if draw < threshold:
                state.apply_pauli(pauli, qubit)
                return 1
        return 0


class ErrorModel:
    """Interface for stochastic error injection and its exact channel.

    A model's trajectory view is its declared draw schedule
    (:meth:`trajectory_slots`, :meth:`measurement_flips`); the injection
    hooks below interpret it and are not meant to be overridden.
    """

    #: True when the model is exactly representable as quantum channels
    #: (PTMs) plus a classical read-out confusion matrix — the condition
    #: for running on the density engine instead of trajectories.
    channel_exact: bool = False

    def trajectory_slots(
        self, qubits: tuple[int, ...], duration_ns: float, num_qubits: int
    ) -> tuple[TrajectorySlot, ...]:
        """The error locations a gate on ``qubits`` opens, in draw order.

        ``num_qubits`` is the register size (locations outside it are not
        drawn).  The schedule depends only on the gate, never on the state.
        """
        return ()

    def measurement_flips(self) -> tuple[float, ...]:
        """Read-out flip probabilities, one draw each, applied in order."""
        return ()

    def apply_after_gate(
        self,
        state: StateVector,
        qubits: tuple[int, ...],
        duration_ns: float,
        rng: np.random.Generator,
    ) -> int:
        """Inject errors after a gate; returns the number of errors injected."""
        slots = self.trajectory_slots(qubits, duration_ns, state.num_qubits)
        return sum(slot.inject(state, rng) for slot in slots)

    def flip_measurement(self, outcome: int, rng: np.random.Generator) -> int:
        """Possibly flip a classical measurement outcome."""
        for probability in self.measurement_flips():
            if rng.random() < probability:
                outcome = 1 - outcome
        return outcome

    def noise_channels(
        self, qubits: tuple[int, ...], duration_ns: float
    ):
        """The exact channels this model attaches after a gate on ``qubits``.

        A list of ``(qubit_tuple, Channel)`` placements, or ``None`` when
        the model has no exact channel representation (trajectory only).
        """
        return None

    def confusion(self) -> np.ndarray | None:
        """The classical read-out confusion matrix, or ``None`` if perfect.

        Row-stochastic: ``confusion[a, b]`` is the probability of
        *reporting* ``b`` when the true outcome is ``a``.
        """
        return None

    def describe(self) -> str:
        return self.__class__.__name__


class NoError(ErrorModel):
    """Perfect qubits: no errors at all."""

    channel_exact = True

    def noise_channels(self, qubits, duration_ns):
        return []


@dataclass
class DepolarizingError(ErrorModel):
    """Symmetric depolarising channel applied after every gate.

    With probability ``error_rate`` one of X, Y, Z is applied (uniformly) to
    each qubit the gate touched.  Two-qubit gates may use a separate, larger
    ``two_qubit_error_rate``.
    """

    error_rate: float
    two_qubit_error_rate: float | None = None

    channel_exact = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate outside [0, 1]")

    def rate_for(self, qubits: tuple[int, ...]) -> float:
        """Per-qubit error rate after a gate on ``qubits``.

        The single definition of the one-vs-two-qubit rate selection, shared
        by the trajectory path and the density engine's exact channel.
        """
        if len(qubits) >= 2 and self.two_qubit_error_rate is not None:
            return self.two_qubit_error_rate
        return self.error_rate

    def trajectory_slots(self, qubits, duration_ns, num_qubits):
        thresholds = (self.rate_for(qubits),)
        return tuple(TrajectorySlot(DEPOLARIZE, qubit, thresholds) for qubit in qubits)

    def noise_channels(self, qubits, duration_ns):
        channel = Channel.depolarizing(self.rate_for(qubits))
        return [((qubit,), channel) for qubit in qubits]

    def describe(self) -> str:
        return f"depolarizing(p={self.error_rate:g}) [channel]"


@dataclass
class DecoherenceError(ErrorModel):
    """T1 relaxation and T2 dephasing proportional to elapsed gate time.

    Amplitude damping is approximated in the trajectory picture by a
    probabilistic reset-to-ground of the qubit (projective collapse to
    ``|0>`` with the damping probability); dephasing by a probabilistic Z.
    The exact channel (:meth:`noise_channels`) is the ensemble average of
    that same branch structure — see :meth:`Channel.decoherence`.
    """

    t1_ns: float
    t2_ns: float

    channel_exact = True

    def decay_probabilities(self, duration_ns: float) -> tuple[float, float]:
        """``(p_decay, p_dephase)`` for a gate of the given duration.

        The single definition of the T1/T2 branch probabilities, shared by
        the trajectory draws and the exact channel construction.
        """
        p_decay = 0.0 if np.isinf(self.t1_ns) else 1.0 - np.exp(-duration_ns / self.t1_ns)
        inv_tphi = 0.0
        if not np.isinf(self.t2_ns):
            inv_tphi = max(1.0 / self.t2_ns - 0.5 / max(self.t1_ns, 1e-30), 0.0)
        p_dephase = 1.0 - np.exp(-duration_ns * inv_tphi) if inv_tphi > 0 else 0.0
        return float(p_decay), float(p_dephase)

    def trajectory_slots(self, qubits, duration_ns, num_qubits):
        thresholds = self.decay_probabilities(duration_ns)
        return tuple(TrajectorySlot(DECAY, qubit, thresholds) for qubit in qubits)

    def noise_channels(self, qubits, duration_ns):
        p_decay, p_dephase = self.decay_probabilities(duration_ns)
        channel = Channel.decoherence(p_decay, p_dephase)
        return [((qubit,), channel) for qubit in qubits]

    def describe(self) -> str:
        return f"decoherence(T1={self.t1_ns:g}ns, T2={self.t2_ns:g}ns) [channel]"


@dataclass
class MeasurementError(ErrorModel):
    """Classical read-out error: flip the reported bit with a fixed probability."""

    flip_probability: float

    channel_exact = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability outside [0, 1]")

    def measurement_flips(self):
        return (self.flip_probability,)

    def noise_channels(self, qubits, duration_ns):
        return []

    def confusion(self) -> np.ndarray:
        p = self.flip_probability
        return np.array([[1.0 - p, p], [p, 1.0 - p]])

    def describe(self) -> str:
        return f"measurement(p={self.flip_probability:g}) [channel]"


@dataclass
class AsymmetricPauliError(ErrorModel):
    """Biased Pauli channel with independent X, Y and Z probabilities.

    Real devices are rarely depolarising: dephasing (Z) usually dominates.
    This model lets the realistic-qubit experiments go "beyond simplistic
    error models such as the depolarising model" (Section 2.7) by setting,
    e.g., ``p_z >> p_x``.
    """

    p_x: float
    p_y: float
    p_z: float

    channel_exact = True

    def __post_init__(self) -> None:
        for rate in (self.p_x, self.p_y, self.p_z):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("Pauli probabilities must be in [0, 1]")
        if self.p_x + self.p_y + self.p_z > 1.0:
            raise ValueError("total Pauli error probability exceeds 1")

    def pauli_probabilities(self) -> tuple[float, float, float]:
        """``(p_x, p_y, p_z)`` — shared by the draws and the channel."""
        return self.p_x, self.p_y, self.p_z

    def trajectory_slots(self, qubits, duration_ns, num_qubits):
        p_x, p_y, p_z = self.pauli_probabilities()
        thresholds = (p_x, p_x + p_y, p_x + p_y + p_z)
        return tuple(TrajectorySlot(PAULI, qubit, thresholds) for qubit in qubits)

    def noise_channels(self, qubits, duration_ns):
        channel = Channel.pauli(*self.pauli_probabilities())
        return [((qubit,), channel) for qubit in qubits]

    @property
    def bias(self) -> float:
        """Z-bias ratio p_z / (p_x + p_y); infinity for pure dephasing."""
        transverse = self.p_x + self.p_y
        if transverse == 0.0:
            return float("inf")
        return self.p_z / transverse

    def describe(self) -> str:
        return (
            f"asymmetric_pauli(px={self.p_x:g}, py={self.p_y:g}, pz={self.p_z:g})"
            " [channel]"
        )


@dataclass
class CrosstalkError(ErrorModel):
    """Crosstalk: two-qubit gates disturb spectator qubits adjacent to the pair.

    Whenever a multi-qubit gate fires, each neighbouring (spectator) qubit of
    the gate's operands suffers a Z error with probability
    ``spectator_error_rate`` — the simplified always-on-coupling crosstalk of
    frequency-crowded superconducting devices, one of the scheduling
    constraints Section 2.6 alludes to ("the number of available frequencies
    to control the qubits can also affect the scheduling").
    """

    spectator_error_rate: float
    neighbours: dict[int, tuple[int, ...]] = field(default_factory=dict)

    channel_exact = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.spectator_error_rate <= 1.0:
            raise ValueError("spectator_error_rate outside [0, 1]")

    def spectators_for(self, qubits: tuple[int, ...]) -> set[int]:
        """Spectator qubits disturbed by a gate on ``qubits``.

        The single definition of the neighbour geometry, shared by the
        trajectory draws and the exact channel placements.  Empty for
        single-qubit gates or a zero rate.
        """
        if len(qubits) < 2 or self.spectator_error_rate == 0.0:
            return set()
        spectators: set[int] = set()
        for qubit in qubits:
            spectators.update(self.neighbours.get(qubit, ()))
        spectators -= set(qubits)
        return spectators

    def trajectory_slots(self, qubits, duration_ns, num_qubits):
        # A Z-only Pauli slot: the X and Y thresholds are 0, never hit.
        thresholds = (0.0, 0.0, self.spectator_error_rate)
        return tuple(
            TrajectorySlot(PAULI, spectator, thresholds)
            for spectator in self.spectators_for(qubits)
            if spectator < num_qubits
        )

    def noise_channels(self, qubits, duration_ns):
        spectators = self.spectators_for(qubits)
        if not spectators:
            return []
        channel = Channel.phase_flip(self.spectator_error_rate)
        return [((spectator,), channel) for spectator in sorted(spectators)]

    def describe(self) -> str:
        return f"crosstalk(p={self.spectator_error_rate:g}) [channel]"


class CompositeError(ErrorModel):
    """Combine several error models; all of them are applied in order."""

    def __init__(self, *models: ErrorModel):
        self.models = [m for m in models if not isinstance(m, NoError)]

    @property
    def channel_exact(self) -> bool:  # type: ignore[override]
        return all(model.channel_exact for model in self.models)

    def trajectory_slots(self, qubits, duration_ns, num_qubits):
        return tuple(
            slot
            for model in self.models
            for slot in model.trajectory_slots(qubits, duration_ns, num_qubits)
        )

    def measurement_flips(self):
        return tuple(p for model in self.models for p in model.measurement_flips())

    def noise_channels(self, qubits, duration_ns):
        """One compiled channel per qubit position, not sequential application.

        Members' placements on the same qubit tuple compose into a single
        PTM (matrix product, in member order), so the density engine pays
        one superoperator per location however many models stack.
        """
        if not self.channel_exact:
            return None
        merged: dict[tuple[int, ...], Channel] = {}
        order: list[tuple[int, ...]] = []
        for model in self.models:
            for placement, channel in model.noise_channels(qubits, duration_ns) or []:
                existing = merged.get(placement)
                if existing is None:
                    merged[placement] = channel
                    order.append(placement)
                else:
                    merged[placement] = channel.compose(existing)
        return [(placement, merged[placement]) for placement in order]

    def confusion(self) -> np.ndarray | None:
        combined: np.ndarray | None = None
        for model in self.models:
            matrix = model.confusion()
            if matrix is None:
                continue
            combined = matrix if combined is None else combined @ matrix
        return combined

    def describe(self) -> str:
        return " + ".join(m.describe() for m in self.models) or "none"


def noise_kind(error_model: ErrorModel) -> str:
    """Classify an error model for backend dispatch.

    ``"none"`` (perfect qubits), ``"channel"`` (exactly representable as
    compiled PTM channels plus read-out confusion, so the density engine
    can run it) or ``"trajectory"`` (stochastic injection only).
    """
    if isinstance(error_model, NoError):
        return "none"
    if error_model.channel_exact:
        return "channel"
    return "trajectory"


def error_model_for(qubit_model: QubitModel) -> ErrorModel:
    """Build the QX error model matching a qubit quality description."""
    if qubit_model.is_perfect or qubit_model == PERFECT:
        return NoError()
    models: list[ErrorModel] = []
    if qubit_model.single_qubit_error_rate > 0 or qubit_model.two_qubit_error_rate > 0:
        models.append(
            DepolarizingError(
                error_rate=qubit_model.single_qubit_error_rate,
                two_qubit_error_rate=qubit_model.two_qubit_error_rate,
            )
        )
    if not np.isinf(qubit_model.t1_ns) or not np.isinf(qubit_model.t2_ns):
        models.append(DecoherenceError(t1_ns=qubit_model.t1_ns, t2_ns=qubit_model.t2_ns))
    if qubit_model.measurement_error_rate > 0:
        models.append(MeasurementError(qubit_model.measurement_error_rate))
    if not models:
        return NoError()
    if len(models) == 1:
        return models[0]
    return CompositeError(*models)
