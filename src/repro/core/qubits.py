"""Real, realistic and perfect qubit models (Section 2.1 of the paper).

The paper distinguishes three qubit kinds:

* **real** qubits — experimentally realised devices with measured coherence
  times and gate error rates (e.g. superconducting transmons);
* **realistic** qubits — simulated qubits with configurable error models so
  architects can explore "what if the error rate were 10^-5" questions;
* **perfect** qubits — ideal qubits with no decoherence and no gate errors,
  used by application developers to validate quantum logic.

A :class:`QubitModel` captures the parameters the rest of the stack needs:
the QX error models derive channel probabilities from it, the eQASM backend
derives gate durations from it, and the mapper decides whether the
nearest-neighbour constraint applies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class QubitModel:
    """Quality parameters of a qubit family.

    Parameters
    ----------
    kind:
        ``"perfect"``, ``"realistic"`` or ``"real"``.
    t1_ns / t2_ns:
        Relaxation and dephasing times in nanoseconds (``inf`` for perfect).
    single_qubit_error_rate / two_qubit_error_rate:
        Depolarising error probability per gate.
    measurement_error_rate:
        Probability of reading out the wrong value.
    single_qubit_gate_ns / two_qubit_gate_ns / measurement_ns:
        Operation durations in nanoseconds.
    nearest_neighbour_only:
        Whether two-qubit gates are restricted to adjacent qubits, which
        forces the mapping layer to insert routing operations.
    """

    kind: str
    t1_ns: float
    t2_ns: float
    single_qubit_error_rate: float
    two_qubit_error_rate: float
    measurement_error_rate: float
    single_qubit_gate_ns: int = 20
    two_qubit_gate_ns: int = 40
    measurement_ns: int = 300
    nearest_neighbour_only: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("perfect", "realistic", "real"):
            raise ValueError(f"unknown qubit kind {self.kind!r}")
        for rate in (
            self.single_qubit_error_rate,
            self.two_qubit_error_rate,
            self.measurement_error_rate,
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"error rate {rate} outside [0, 1]")
        if self.t1_ns <= 0 or self.t2_ns <= 0:
            raise ValueError("coherence times must be positive")

    @property
    def is_perfect(self) -> bool:
        return self.kind == "perfect"

    def with_error_rate(self, error_rate: float) -> "QubitModel":
        """Return a copy scaled to a new single-qubit error rate.

        The two-qubit and measurement error rates keep their original ratio
        to the single-qubit rate, which is how the paper's "realistic qubit"
        sweeps (10^-2 down to 10^-6) are expressed.
        """
        if self.single_qubit_error_rate > 0:
            scale = error_rate / self.single_qubit_error_rate
        else:
            scale = 0.0 if error_rate == 0 else 1.0
        return replace(
            self,
            kind="realistic" if error_rate > 0 else "perfect",
            single_qubit_error_rate=error_rate,
            two_qubit_error_rate=min(1.0, self.two_qubit_error_rate * scale)
            if self.single_qubit_error_rate > 0
            else min(1.0, 10 * error_rate),
            measurement_error_rate=min(1.0, self.measurement_error_rate * scale)
            if self.single_qubit_error_rate > 0
            else min(1.0, 5 * error_rate),
        )


#: Perfect qubits: no decoherence, no gate errors (application development mode).
PERFECT = QubitModel(
    kind="perfect",
    t1_ns=float("inf"),
    t2_ns=float("inf"),
    single_qubit_error_rate=0.0,
    two_qubit_error_rate=0.0,
    measurement_error_rate=0.0,
    nearest_neighbour_only=False,
)

#: Realistic qubits: tunable error model, default set near-term values
#: (error rates around 10^-3, coherence tens of microseconds).
REALISTIC = QubitModel(
    kind="realistic",
    t1_ns=30_000.0,
    t2_ns=20_000.0,
    single_qubit_error_rate=1e-3,
    two_qubit_error_rate=1e-2,
    measurement_error_rate=2e-2,
    nearest_neighbour_only=True,
)

#: Real transmon-like qubits: parameters representative of the
#: superconducting devices cited in the paper (error rate ~0.1-1%,
#: T1 in the tens of microseconds).
REAL_TRANSMON = QubitModel(
    kind="real",
    t1_ns=20_000.0,
    t2_ns=15_000.0,
    single_qubit_error_rate=1e-3,
    two_qubit_error_rate=1.5e-2,
    measurement_error_rate=3e-2,
    single_qubit_gate_ns=20,
    two_qubit_gate_ns=40,
    measurement_ns=600,
    nearest_neighbour_only=True,
)

#: Real spin-qubit (semiconducting) model: slower gates, similar fidelities.
REAL_SPIN = QubitModel(
    kind="real",
    t1_ns=100_000.0,
    t2_ns=10_000.0,
    single_qubit_error_rate=2e-3,
    two_qubit_error_rate=2e-2,
    measurement_error_rate=5e-2,
    single_qubit_gate_ns=100,
    two_qubit_gate_ns=200,
    measurement_ns=1_000,
    nearest_neighbour_only=True,
)
