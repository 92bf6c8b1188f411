"""Scheduling pass: attach a timed schedule to the compiled circuit.

The pass does not change the circuit (the operation order already respects
dependencies); it computes the ASAP or ALAP schedule with the platform's
gate durations and stores it for the micro-architecture / eQASM backend,
reporting latency and parallelism statistics.
"""

from __future__ import annotations

from repro.core.circuit import Circuit
from repro.core.operations import GateOperation
from repro.mapping.scheduling import Schedule, Scheduler
from repro.openql.passes.base import Pass
from repro.openql.platform import Platform


class SchedulingPass(Pass):
    """Compute the timed schedule of the circuit for the platform."""

    name = "scheduling"

    def __init__(self, policy: str = "asap", max_parallel_two_qubit: int | None = None):
        self.policy = policy
        self.max_parallel_two_qubit = max_parallel_two_qubit
        self.last_schedule: Schedule | None = None

    def run(self, circuit: Circuit, platform: Platform) -> Circuit:
        timed = _apply_platform_durations(circuit, platform)
        scheduler = Scheduler(
            policy=self.policy, max_parallel_two_qubit=self.max_parallel_two_qubit
        )
        self.last_schedule = scheduler.schedule(timed)
        return timed

    def statistics(self) -> dict:
        if self.last_schedule is None:
            return {}
        return {
            "makespan_ns": self.last_schedule.makespan,
            "parallelism": round(self.last_schedule.parallelism(), 3),
            "policy": self.policy,
        }


def _apply_platform_durations(circuit: Circuit, platform: Platform) -> Circuit:
    """Return a copy whose operation durations reflect the platform configuration."""
    from dataclasses import replace

    from repro.core.operations import ConditionalGate, Measurement

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
