"""Simulation-backend registry, capability matrix and dispatch policy.

The stack now carries four engines — dense state vector, stabilizer
tableau, density matrix and matrix-product state — each with a different
feasibility region (qubit range, Clifford-only, noise, feedback) and a
different cost shape.  This module is the single place that knowledge
lives:

* :data:`BACKENDS` — a registry of :class:`BackendCapabilities` records,
  one per engine, rendered into error messages by
  :func:`capability_matrix`;
* :class:`CircuitProfile` — the features of one run that feasibility and
  cost depend on (size, shots, Clifford-ness, feedback, noise kind, and a
  static entanglement estimate for the MPS cost), read off a lowered
  program (:func:`profile_program`) or, before materialising it, off its
  lowering plan (:func:`profile_plan`);
* :class:`DispatchPolicy` — the cost model that picks an engine per
  circuit.  It replaces the old ad-hoc ``STABILIZER_DISPATCH_*`` constants
  in :mod:`repro.qx.simulator` with one policy object whose thresholds and
  cost constants are plain fields, overridable per
  :class:`~repro.qx.simulator.QXSimulator`;
* :class:`UnsupportedBackendError` — raised (with the capability matrix in
  the message) when an explicitly requested backend cannot run a circuit,
  instead of a silent fallback or a deep numpy error.

Auto-dispatch never changes results, only cost, for a default-configured
simulator: the MPS engine is then auto-selected with an unbounded bond, so
its answers match the dense engine.  Setting ``max_bond`` (or a coarser
``truncation_threshold``) is an explicit accuracy opt-in that applies to
whichever engine ends up running — and it feeds the cost model, so the
engine is chosen on the configuration that actually executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.qx.compiled import MEASURE
from repro.qx.density import DENSITY_MAX_QUBITS, gpu_available
from repro.qx.mps import DENSE_MATERIALISE_LIMIT
from repro.qx.stabilizer import CLIFFORD_GATES


class UnsupportedBackendError(ValueError):
    """An explicitly requested backend cannot execute the given circuit."""


@dataclass(frozen=True)
class BackendCapabilities:
    """What one simulation engine can and cannot run."""

    name: str
    description: str
    #: Inclusive qubit range (``None`` = unbounded above).
    max_qubits: int | None = None
    #: Only Clifford-group gates (H, S, CNOT, CZ, Paulis, SWAP).
    clifford_only: bool = False
    #: Which error treatments the engine supports: "none" (perfect qubits
    #: only), "trajectory" (stochastic per-shot injection), "channel"
    #: (exact compiled PTM channels plus classical read-out confusion).
    noise: str = "none"
    #: Mid-circuit measurement + classically conditioned gates.
    conditionals: bool = True
    #: Caller-provided dense initial states.
    initial_state: bool = False
    #: Can return a dense final state (``keep_final_state``).
    final_state: bool = False
    #: Largest gate arity the engine applies natively.
    max_gate_qubits: int | None = None
    #: Exact up to floating point (MPS is exact only with an unbounded bond).
    exact: bool = True


#: The engine registry.  Keys are the public backend names accepted by
#: ``QXSimulator(backend=...)``, the runtime's ``SimulationSpec.backend``
#: and the CLI's ``--backend``.
BACKENDS: dict[str, BackendCapabilities] = {
    "statevector": BackendCapabilities(
        name="statevector",
        description="dense 2**n amplitudes, in-place stride kernels",
        max_qubits=26,
        noise="trajectory",
        initial_state=True,
        final_state=True,
    ),
    "stabilizer": BackendCapabilities(
        name="stabilizer",
        description="Aaronson-Gottesman tableau, Clifford-only, O(n^2) measure",
        clifford_only=True,
        max_gate_qubits=2,
    ),
    "density": BackendCapabilities(
        name="density",
        description=(
            "compiled PTM channel program over 4**n Pauli coefficients "
            + ("(numpy + cupy GPU)" if gpu_available() else "(numpy; cupy not installed)")
        ),
        max_qubits=DENSITY_MAX_QUBITS,
        noise="channel",
        conditionals=False,
    ),
    "mps": BackendCapabilities(
        name="mps",
        description="matrix-product state, per-bond Schmidt truncation",
        noise="trajectory",
        final_state=True,  # materialised densely, small registers only
        max_gate_qubits=2,
        exact=False,  # exact iff max_bond is None (auto-dispatch uses None)
    ),
}


def capability_matrix() -> str:
    """Human-readable capability table, embedded in dispatch errors."""
    header = (
        f"{'backend':12s} {'qubits':>8s} {'gates':>9s} "
        f"{'noise':>10s} {'feedback':>8s} {'exact':>6s}"
    )
    rows = [header, "-" * len(header)]
    for caps in BACKENDS.values():
        qubits = f"<= {caps.max_qubits}" if caps.max_qubits is not None else "any"
        gates = "clifford" if caps.clifford_only else (
            f"<= {caps.max_gate_qubits}q" if caps.max_gate_qubits is not None else "any"
        )
        rows.append(
            f"{caps.name:12s} {qubits:>8s} {gates:>9s} {caps.noise:>10s} "
            f"{'yes' if caps.conditionals else 'no':>8s} {'yes' if caps.exact else '*':>6s}"
        )
    rows.append("(* mps is exact when max_bond is None, approximate otherwise)")
    return "\n".join(rows)


# ---------------------------------------------------------------------- #
# Circuit profiling
# ---------------------------------------------------------------------- #
@dataclass
class CircuitProfile:
    """The features of one run that backend feasibility and cost depend on."""

    num_qubits: int
    shots: int = 1
    gate_count: int = 0
    two_qubit_gate_count: int = 0
    num_measurements: int = 0
    needs_trajectories: bool = False
    is_clifford: bool = False
    #: "none" | "channel" | "trajectory" — how errors are modelled
    #: (see :func:`repro.qx.error_models.noise_kind`).
    noise: str = "none"
    max_gate_qubits: int = 1
    has_initial_state: bool = False
    keep_final_state: bool = False
    #: 2-qubit gate spans summed over the circuit (swap-in/out cost proxy).
    total_gate_span: int = 0
    #: ``log2`` of the static per-bond entanglement bound (see
    #: :func:`entanglement_exponent`); ``None`` when not yet computed.
    bond_exponent: int | None = None
    #: (a, b) endpoint pairs of 2-qubit gates, kept for lazy profiling.
    _pairs: list[tuple[int, int]] = field(default_factory=list, repr=False)

    @property
    def noise_free(self) -> bool:
        return self.noise == "none"

    def entanglement_exponent(self) -> int:
        """Cached static bound on ``log2`` of the peak Schmidt rank."""
        if self.bond_exponent is None:
            self.bond_exponent = entanglement_exponent(self._pairs, self.num_qubits)
        return self.bond_exponent


def entanglement_exponent(pairs, num_qubits: int) -> int:
    """Static upper bound on ``log2(max Schmidt rank)`` across any bond.

    For each bond ``b`` (the cut between qubits ``b`` and ``b+1``) the
    Schmidt rank after the circuit is bounded by ``2**e(b)`` with ``e(b)``
    the minimum of three counts, computed from the 2-qubit gate endpoint
    pairs alone:

    * the number of *distinct left-side qubits* touched by gates crossing
      the cut (the rest of the left half evolves locally, so only those
      qubits can carry correlations across it) — this is what recognises
      GHZ-like circuits, where one hub qubit talks to everyone and the
      true rank stays 2 no matter how many gates cross;
    * the mirrored right-side count;
    * the trivial ``min(b+1, n-b-1)`` half-register bound.

    (A raw crossing-gate count would never bind: every crossing gate
    contributes its left endpoint, so the distinct-endpoint counts are
    always at most the gate count.)  Returned as the maximum exponent over
    all bonds; the dispatch cost model turns it into an estimated peak
    bond dimension.
    """
    if num_qubits < 2:
        return 0
    bonds = num_qubits - 1
    left_touch = np.zeros(bonds + 1, dtype=np.int64)
    right_touch = np.zeros(bonds + 1, dtype=np.int64)
    max_partner: dict[int, int] = {}
    min_partner: dict[int, int] = {}
    for a, b in pairs:
        low, high = (a, b) if a < b else (b, a)
        if max_partner.get(low, -1) < high:
            max_partner[low] = high
        if min_partner.get(high, num_qubits) > low:
            min_partner[high] = low
    for qubit, partner in max_partner.items():
        # Qubit q sits left of (and talks across) bonds q .. partner-1
        # (difference array over the bond range).
        left_touch[qubit] += 1
        left_touch[partner] -= 1
    for qubit, partner in min_partner.items():
        right_touch[partner] += 1
        right_touch[qubit] -= 1
    left_touch = np.cumsum(left_touch[:bonds])
    right_touch = np.cumsum(right_touch[:bonds])
    half = np.minimum(np.arange(1, bonds + 1), np.arange(bonds, 0, -1))
    exponents = np.minimum.reduce([left_touch, right_touch, half])
    return int(exponents.max(initial=0))


def _clifford(names) -> bool:
    """A gate op the tableau can apply (a hand-built op without names cannot)."""
    return bool(names) and all(name in CLIFFORD_GATES for name in names)


def _profile(gates, is_clifford: bool | None, **features) -> CircuitProfile:
    """The one profiling body, over ``(names, qubits)`` of every gate op.

    ``gate_count`` counts the gates applied (a fused run counts each gate
    it folded).  ``is_clifford=None`` derives Clifford-ness from the names.
    """
    gate_count = 0
    two_qubit = 0
    span = 0
    max_arity = 1
    pairs: list[tuple[int, int]] = []
    clifford = True
    for names, qubits in gates:
        gate_count += len(names)
        if is_clifford is None and clifford:
            clifford = _clifford(names)
        arity = len(qubits)
        if arity > max_arity:
            max_arity = arity
        if arity == 2:
            first, second = qubits
            two_qubit += 1
            span += abs(first - second)
            pairs.append((first, second))
    return CircuitProfile(
        gate_count=gate_count,
        two_qubit_gate_count=two_qubit,
        is_clifford=clifford if is_clifford is None else is_clifford,
        max_gate_qubits=max_arity,
        total_gate_span=span,
        _pairs=pairs,
        **features,
    )


def profile_program(
    program,
    *,
    shots: int = 1,
    num_qubits: int | None = None,
    noise: str = "none",
    has_initial_state: bool = False,
    keep_final_state: bool = False,
    is_clifford: bool | None = None,
) -> CircuitProfile:
    """Profile a lowered :class:`~repro.qx.compiled.KernelProgram` for dispatch.

    ``is_clifford=None`` scans the ops' gate names; callers that know the
    answer cannot change a decision pass ``False`` and skip the scan (see
    :meth:`DispatchPolicy.reads_clifford`).
    """
    return _profile(
        ((op.names, op.qubits) for op in program.ops if op.kind != MEASURE),
        is_clifford,
        num_qubits=num_qubits or program.num_qubits,
        shots=shots,
        num_measurements=program.num_measurements,
        needs_trajectories=program.needs_trajectories,
        noise=noise,
        has_initial_state=has_initial_state,
        keep_final_state=keep_final_state,
    )


def _plan_gates(plan, circuit):
    """``(names, qubits)`` of every gate op ``plan`` lowers ``circuit`` to."""
    ops = circuit.operations
    for step in plan.steps:
        kind = step[0]
        if kind == "run":
            yield [ops[index].gate.name for index in step[1]], (step[2],)
        elif kind != "measure":  # "gate" or "cond"
            op = ops[step[1]]
            yield (op.gate.name,), op.qubits


def plan_is_clifford(plan, circuit) -> bool:
    """Whether every gate ``plan`` lowers ``circuit`` to is a tableau Clifford."""
    return all(_clifford(names) for names, _ in _plan_gates(plan, circuit))


def profile_plan(
    plan, circuit, *, shots: int = 1, noise: str = "none", is_clifford: bool | None = None
) -> CircuitProfile:
    """Profile the program a :class:`~repro.qx.compiled.LoweringPlan` lowers to.

    The same profile as ``profile_program(lower(circuit))`` without
    materialising the program, except that a fused run which multiplies
    out to the identity (and so is dropped from the program) still counts
    its gates and names here.
    """
    return _profile(
        _plan_gates(plan, circuit),
        is_clifford,
        num_qubits=circuit.num_qubits,
        shots=shots,
        num_measurements=plan.num_measurements,
        needs_trajectories=plan.needs_trajectories,
        noise=noise,
    )


# ---------------------------------------------------------------------- #
# The dispatch policy
# ---------------------------------------------------------------------- #
_INFEASIBLE = float("inf")


@dataclass
class DispatchPolicy:
    """Chooses a simulation backend per circuit via feasibility + cost.

    The thresholds reproduce the dispatch behaviour the stack had when the
    rules were hard-coded constants (statevector whenever it fits, tableau
    for big Clifford circuits), extended with the MPS engine for everything
    beyond the dense wall.  With the default knobs every auto-dispatched
    configuration is exact (``mps_max_bond=None``); a caller-set bond cap
    is an explicit accuracy opt-in and flows into both the cost estimate
    and the engine.
    """

    #: Clifford circuits that force per-shot trajectories (feedback or
    #: mid-circuit measurement) leave the state vector at this size.
    stabilizer_min_qubits: int = 21
    #: Sampled-eligible Clifford circuits (terminal measurements only) keep
    #: the flat-in-shots dense path until the amplitude array itself is the
    #: bottleneck, then the cost model arbitrates tableau vs MPS.
    stabilizer_sampled_min_qubits: int = 26
    #: Hard memory wall of the dense engine (2**26 amplitudes = 1 GiB).
    statevector_max_qubits: int = 26
    #: Mirrors the engine's own cap (one shared constant, like the MPS
    #: dense-materialisation limit) so feasibility and execution agree.
    density_max_qubits: int = DENSITY_MAX_QUBITS
    #: Opt-in: route channel-exact noisy circuits to the density engine when
    #: it is feasible, trading per-shot trajectories for one deterministic
    #: channel evolution.  Off by default so auto-dispatch never changes the
    #: seeded per-shot results of existing trajectory runs.
    prefer_exact_channels: bool = False
    #: Bond cap handed to auto-dispatched MPS runs (None = unbounded/exact).
    mps_max_bond: int | None = None
    mps_truncation_threshold: float = 1e-12
    #: Entanglement exponents above this make the MPS cost estimate
    #: saturate (2**cap is already hopeless next to any alternative).
    mps_exponent_cap: int = 24
    #: Relative per-element cost constants (dense amplitude update = 1).
    tableau_row_cost: float = 4.0
    svd_cost: float = 40.0

    # ------------------------------------------------------------------ #
    # Feasibility
    # ------------------------------------------------------------------ #
    def reads_clifford(self, backend: str | None, noise: str, num_qubits: int) -> bool:
        """Whether a run's Clifford-ness can change its engine decision.

        Only a pinned stabilizer, or noise-free auto-dispatch in tableau
        territory, reads it; every other caller profiles with
        ``is_clifford=False`` and skips the gate-name scan.
        """
        if backend is not None:
            return backend == "stabilizer"
        threshold = min(self.stabilizer_min_qubits, self.statevector_max_qubits + 1)
        return noise == "none" and num_qubits >= threshold

    def unsupported_reason(self, name: str, profile: CircuitProfile) -> str | None:
        """Why ``name`` cannot run the profiled circuit (None = it can)."""
        caps = BACKENDS.get(name)
        if caps is None:
            return f"unknown backend {name!r}; known: {', '.join(sorted(BACKENDS))}"
        if caps.max_qubits is not None and profile.num_qubits > caps.max_qubits:
            return f"{profile.num_qubits} qubits exceed the {name} limit of {caps.max_qubits}"
        if caps.clifford_only and not profile.is_clifford:
            return f"{name} is Clifford-only and the circuit has non-Clifford gates"
        if not profile.noise_free and caps.noise == "none":
            return f"{name} does not support error models"
        if profile.noise == "trajectory" and caps.noise == "channel":
            return (
                f"{name} runs exact compiled channels only; the error model has "
                "no channel representation (trajectory-only noise)"
            )
        if profile.needs_trajectories and not caps.conditionals:
            return f"{name} cannot run mid-circuit measurement or conditional feedback"
        if profile.has_initial_state and not caps.initial_state:
            return f"{name} does not accept a dense initial state"
        if profile.keep_final_state and not caps.final_state:
            return f"{name} cannot return a dense final state"
        if profile.num_measurements == 0 and not caps.final_state:
            return f"{name} only produces measurement histograms and the circuit never measures"
        if (
            (profile.keep_final_state or profile.num_measurements == 0)
            and name == "mps"
            and profile.num_qubits > DENSE_MATERIALISE_LIMIT
        ):
            return (
                f"returning a dense final state would materialise 2**{profile.num_qubits} "
                f"amplitudes; it is limited to {DENSE_MATERIALISE_LIMIT} qubits "
                "on the mps backend"
            )
        if (
            caps.max_gate_qubits is not None
            and not caps.clifford_only
            and profile.max_gate_qubits > caps.max_gate_qubits
        ):
            return (
                f"{name} applies at most {caps.max_gate_qubits}-qubit gates; "
                f"the circuit contains a {profile.max_gate_qubits}-qubit gate"
            )
        return None

    def validate(self, name: str, profile: CircuitProfile) -> str:
        """Validate an explicit backend request; returns the canonical name."""
        reason = self.unsupported_reason(name, profile)
        if reason is not None:
            raise UnsupportedBackendError(
                f"backend {name!r} cannot run this circuit: {reason}\n\n"
                f"{capability_matrix()}"
            )
        return name

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def estimate_cost(self, name: str, profile: CircuitProfile) -> float:
        """Rough work estimate (dense amplitude updates) of one run."""
        if self.unsupported_reason(name, profile) is not None:
            return _INFEASIBLE
        n = profile.num_qubits
        shots = max(profile.shots, 1)
        if name == "statevector":
            evolution = max(profile.gate_count, 1) * float(2**n) * 4.0
            if profile.noise_free and not profile.needs_trajectories:
                return evolution + shots
            return shots * evolution
        if name == "stabilizer":
            per_shot = (
                profile.gate_count * n + profile.num_measurements * n * n
            ) * self.tableau_row_cost
            return shots * max(per_shot, 1.0)
        if name == "density":
            # Compiled channel program: one fused superoperator per position
            # over 4**n real Pauli coefficients, flat in shots (sampling from
            # the final distribution is cheap next to the evolution).
            evolution = max(profile.gate_count, 1) * float(4**n) * 4.0
            return evolution + shots
        if name == "mps":
            cap = self.mps_exponent_cap
            exponent = min(profile.entanglement_exponent(), cap)
            if self.mps_max_bond is not None:
                bond = min(2**exponent, self.mps_max_bond)
            else:
                bond = 2**exponent
            # Every 2q gate is an SVD of a (2 bond, 2 bond) block; swap
            # ladders multiply that by the gate span.
            splits = profile.two_qubit_gate_count + 2 * max(
                profile.total_gate_span - profile.two_qubit_gate_count, 0
            )
            evolution = max(splits, 1) * float(bond) ** 3 * self.svd_cost
            sampling = shots * n * float(bond) ** 2 * 2.0
            if profile.noise_free and not profile.needs_trajectories:
                return evolution + sampling
            return shots * (evolution + n * float(bond) ** 2)
        return _INFEASIBLE

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def choose(self, profile: CircuitProfile) -> str:
        """Pick the backend for one run (auto-dispatch).

        Tiered: the dense engine keeps every circuit it comfortably fits
        (auto-dispatch must not perturb small-register behaviour), the
        tableau keeps its established Clifford territory, and beyond the
        dense wall the cost model arbitrates among whatever remains
        feasible.
        """
        # Dense-state obligations first: caller-provided initial states and
        # dense final states (requested, or implied by a measurement-free
        # circuit) are statevector-only features at full register range.
        if profile.has_initial_state or profile.num_measurements == 0 or (
            profile.keep_final_state and profile.num_qubits > self.statevector_max_qubits
        ):
            return self.validate("statevector", profile)
        # Opt-in exact-channel arbitration: when the error model compiles to
        # channels and the density engine fits, shots are free there — one
        # deterministic evolution replaces per-shot trajectories.
        if (
            self.prefer_exact_channels
            and profile.noise == "channel"
            and profile.num_qubits <= self.density_max_qubits
            and self.unsupported_reason("density", profile) is None
        ):
            return "density"
        clifford_eligible = (
            profile.noise_free
            and profile.is_clifford
            and profile.num_measurements > 0
            and not profile.keep_final_state
        )
        if clifford_eligible and profile.num_qubits >= self.stabilizer_min_qubits:
            if profile.needs_trajectories:
                return "stabilizer"
            if profile.num_qubits >= self.stabilizer_sampled_min_qubits:
                mps_cost = self.estimate_cost("mps", profile)
                if mps_cost < self.estimate_cost("stabilizer", profile):
                    return "mps"
                return "stabilizer"
        if profile.num_qubits <= self.statevector_max_qubits:
            return "statevector"
        # Beyond the dense wall: pick the cheapest feasible engine.
        candidates = [
            (self.estimate_cost(name, profile), name)
            for name in ("stabilizer", "mps")
            if self.unsupported_reason(name, profile) is None
        ]
        candidates = [entry for entry in candidates if entry[0] < _INFEASIBLE]
        if not candidates:
            reasons = "; ".join(
                f"{name}: {self.unsupported_reason(name, profile)}"
                for name in BACKENDS
                if self.unsupported_reason(name, profile) is not None
            )
            raise UnsupportedBackendError(
                f"no backend can run this {profile.num_qubits}-qubit circuit "
                f"({reasons})\n\n{capability_matrix()}"
            )
        return min(candidates)[1]

    # ------------------------------------------------------------------ #
    # Shot-sharded points
    # ------------------------------------------------------------------ #
    def evolve_once_engine(self, profile: CircuitProfile, shard_shots, backend: str | None = None):
        """The engine that serves every shard of a point from one evolution.

        The single rule for which points are deterministic: every shard
        size dispatches to one engine (the cost model sees one shard's
        shots, so distinct sizes can split), and that engine draws no
        randomness before sampling the final distribution — the dense and
        MPS sampled paths (noise-free, terminal measurements only) and the
        exact density engine (compiled channels plus read-out confusion).
        ``None`` means each shard needs its own run: per-shot trajectories,
        the tableau, or shard sizes that split across engines.  A pinned
        ``backend`` is taken as is; callers validate it against the full
        profile.
        """
        if backend is None:
            sizes = sorted(set(shard_shots))
            engines = {self.choose(replace(profile, shots=size)) for size in sizes}
            if len(engines) > 1:
                return None
            (backend,) = engines
        sampled = profile.noise_free and not profile.needs_trajectories
        if backend == "density" or (backend in ("statevector", "mps") and sampled):
            return backend
        return None
