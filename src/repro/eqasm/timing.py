"""Timing analysis of eQASM programs.

Experiment E3: the micro-architecture must meet nanosecond-level timing,
so the assembler's output is checked for schedule fidelity (no qubit is
driven by two codewords at once), and latency / issue-rate reports are
produced for the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eqasm.instructions import EqasmProgram, QuantumBundle


@dataclass
class TimingReport:
    """Summary of the timing behaviour of one eQASM program."""

    total_cycles: int
    total_duration_ns: int
    bundle_count: int
    instruction_count: int
    max_parallel_operations: int
    average_parallelism: float
    qubit_busy_ns: dict[int, int] = field(default_factory=dict)

    def utilisation(self, num_qubits: int) -> float:
        """Fraction of qubit-time spent executing operations."""
        if self.total_duration_ns == 0 or num_qubits == 0:
            return 0.0
        busy = sum(self.qubit_busy_ns.values())
        return busy / (self.total_duration_ns * num_qubits)


class TimingAnalyzer:
    """Validate and profile eQASM timing."""

    def analyze(self, program: EqasmProgram) -> TimingReport:
        cycle_ns = program.cycle_time_ns
        current_cycle = 0
        busy_until: dict[int, int] = {}
        qubit_busy: dict[int, int] = {}
        max_parallel = 0
        instruction_count = 0
        for bundle in program.bundles:
            if not isinstance(bundle, QuantumBundle):
                continue
            current_cycle += bundle.wait_cycles
            max_parallel = max(max_parallel, len(bundle.operations))
            longest = 0
            for op in bundle.operations:
                instruction_count += 1
                for qubit in op.qubits:
                    if busy_until.get(qubit, 0) > current_cycle:
                        raise ValueError(
                            f"timing violation: qubit {qubit} still busy at cycle "
                            f"{current_cycle} (busy until {busy_until[qubit]})"
                        )
                    busy_until[qubit] = current_cycle + op.duration_cycles
                    qubit_busy[qubit] = qubit_busy.get(qubit, 0) + op.duration_cycles * cycle_ns
                longest = max(longest, op.duration_cycles)
            current_cycle += longest
        bundles = program.quantum_bundles()
        return TimingReport(
            total_cycles=current_cycle,
            total_duration_ns=current_cycle * cycle_ns,
            bundle_count=len(bundles),
            instruction_count=instruction_count,
            max_parallel_operations=max_parallel,
            average_parallelism=(instruction_count / len(bundles)) if bundles else 0.0,
            qubit_busy_ns=qubit_busy,
        )
