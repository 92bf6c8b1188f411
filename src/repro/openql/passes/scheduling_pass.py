"""Scheduling pass: time the compiled circuit with the platform's durations.

``run`` only stamps the platform's gate and measurement durations onto the
circuit, which is all execution needs; operation order already respects
dependencies.  The timed ASAP or ALAP :class:`~repro.mapping.scheduling.Schedule`
the micro-architecture / eQASM backend consumes is built from that circuit
the first time it is read, through :attr:`SchedulingPass.last_schedule` or
:meth:`SchedulingPass.statistics`, so a compile that only executes the
circuit never pays for it.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.circuit import Circuit
from repro.core.operations import ConditionalGate, GateOperation, Measurement
from repro.mapping.scheduling import Schedule, Scheduler
from repro.openql.passes.base import Pass
from repro.openql.platform import Platform


class SchedulingPass(Pass):
    """Time the circuit for the platform; schedule it when asked."""

    name = "scheduling"

    def __init__(self, policy: str = "asap", max_parallel_two_qubit: int | None = None):
        # Built now, so a bad policy or issue limit fails here, not on first read.
        self._scheduler = Scheduler(policy=policy, max_parallel_two_qubit=max_parallel_two_qubit)
        self._timed: Circuit | None = None
        self._schedule: Schedule | None = None

    def run(self, circuit: Circuit, platform: Platform) -> Circuit:
        self._timed = _apply_platform_durations(circuit, platform)
        self._schedule = None
        return self._timed

    @property
    def last_schedule(self) -> Schedule | None:
        """The schedule of the last ``run``'s circuit, built on first read."""
        if self._schedule is None and self._timed is not None:
            self._schedule = self._scheduler.schedule(self._timed)
        return self._schedule

    def statistics(self) -> dict:
        schedule = self.last_schedule
        if schedule is None:
            return {}
        return {
            "makespan_ns": schedule.makespan,
            "parallelism": round(schedule.parallelism(), 3),
            "policy": self._scheduler.policy,
        }


def _apply_platform_durations(circuit: Circuit, platform: Platform) -> Circuit:
    """Return a copy whose operation durations reflect the platform configuration."""
    result = Circuit(circuit.num_qubits, circuit.name, num_bits=circuit.num_bits)
    for op in circuit.operations:
        if isinstance(op, ConditionalGate):
            duration = platform.duration_of(op.gate.name)
            if duration != op.gate.duration:
                op = ConditionalGate(
                    replace(op.gate, duration=duration), op.qubits, op.condition_bit
                )
        elif isinstance(op, GateOperation):
            duration = platform.duration_of(op.name)
            if duration != op.gate.duration:
                op = GateOperation(replace(op.gate, duration=duration), op.qubits)
        elif isinstance(op, Measurement):
            duration = platform.duration_of("measure")
            if duration != op.duration:
                op = Measurement(op.qubit, bit=op.bit, duration=duration)
        result.append(op)
    return result
