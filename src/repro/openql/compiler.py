"""The OpenQL-style compiler (pass manager).

Figure 4 of the paper: the quantum compiler takes the program's kernels,
runs decomposition, optimisation, mapping and scheduling passes for the
target platform, and emits cQASM.  For hardware-like platforms the eQASM
backend (:mod:`repro.eqasm`) performs the second back-end pass that turns
cQASM into timed, executable instructions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.circuit import Circuit
from repro.cqasm.writer import program_to_cqasm
from repro.mapping.scheduling import Schedule
from repro.openql.passes.base import Pass
from repro.openql.passes.decomposition import DecompositionPass
from repro.openql.passes.mapping_pass import MappingPass
from repro.openql.passes.optimization import OptimizationPass
from repro.openql.passes.scheduling_pass import SchedulingPass
from repro.openql.passes.verification_pass import VerificationPass
from repro.openql.platform import Platform
from repro.openql.program import Program


@dataclass
class CompilationResult:
    """Everything the compiler produces for one program."""

    program_name: str
    platform: Platform
    kernels: list[Circuit] = field(default_factory=list)
    kernel_iterations: list[int] = field(default_factory=list)
    cqasm: str = ""
    schedules: list[Schedule] = field(default_factory=list)
    pass_statistics: list[dict] = field(default_factory=list)
    compile_time_s: float = 0.0

    def flat_circuit(self) -> Circuit:
        """Flatten all kernels (honouring iteration counts) into one circuit.

        Classical register width is preserved: the flat circuit carries the
        widest kernel's ``num_bits`` so bit-indexed results (cross-mapped
        measurements, conditional feedback) stay addressable downstream.
        """
        num_qubits = max(k.num_qubits for k in self.kernels)
        num_bits = max(max(k.num_bits for k in self.kernels), num_qubits)
        flat = Circuit(num_qubits, name=self.program_name, num_bits=num_bits)
        for circuit, iterations in zip(self.kernels, self.kernel_iterations, strict=True):
            for _ in range(iterations):
                for op in circuit.operations:
                    flat.append(op)
        return flat

    def total_gate_count(self) -> int:
        return sum(
            circuit.gate_count() * iterations
            for circuit, iterations in zip(self.kernels, self.kernel_iterations, strict=True)
        )

    def total_makespan_ns(self) -> int:
        return sum(
            schedule.makespan * iterations
            for schedule, iterations in zip(self.schedules, self.kernel_iterations, strict=False)
        )

    def statistics_for(self, pass_name: str) -> dict:
        merged: dict = {}
        for record in self.pass_statistics:
            if record["pass"] == pass_name:
                for key, value in record.items():
                    if key in ("pass", "kernel"):
                        continue
                    if isinstance(value, (int, float)) and key in merged:
                        merged[key] += value
                    else:
                        merged.setdefault(key, value)
        return merged


class Compiler:
    """Configurable pass manager."""

    def __init__(
        self,
        passes: list[Pass] | None = None,
        optimize: bool = True,
        map_circuits: bool = True,
        schedule_policy: str = "asap",
        verify: bool = False,
        strict_verify: bool = False,
    ):
        if passes is not None:
            self.passes = passes
        else:
            self.passes = []
            self.passes.append(DecompositionPass())
            if optimize:
                self.passes.append(OptimizationPass())
            if map_circuits:
                self.passes.append(MappingPass())
            self.passes.append(SchedulingPass(policy=schedule_policy))
            if verify or strict_verify:
                # Verification runs last so it sees the mapped, scheduled
                # circuit that will actually execute.
                self.passes.append(VerificationPass(strict=strict_verify))

    # ------------------------------------------------------------------ #
    def compile(self, program: Program) -> CompilationResult:
        """Run every pass on every kernel and emit cQASM."""
        start = time.perf_counter()
        result = CompilationResult(program_name=program.name, platform=program.platform)
        for entry in program.entries:
            circuit = entry.kernel.circuit
            for compiler_pass in self.passes:
                circuit = compiler_pass.run(circuit, program.platform)
                stats = {"pass": compiler_pass.name, "kernel": entry.kernel.name}
                stats.update(compiler_pass.statistics())
                result.pass_statistics.append(stats)
                if isinstance(compiler_pass, SchedulingPass) and compiler_pass.last_schedule:
                    result.schedules.append(compiler_pass.last_schedule)
            circuit.name = entry.kernel.name
            result.kernels.append(circuit)
            result.kernel_iterations.append(entry.iterations)
        result.cqasm = program_to_cqasm(
            result.kernels, num_qubits=program.platform.num_qubits
        )
        result.compile_time_s = time.perf_counter() - start
        return result

    def compile_circuit(self, circuit: Circuit, platform: Platform) -> Circuit:
        """Run the pass pipeline on a bare circuit; no schedule is built."""
        compiled = circuit
        for compiler_pass in self.passes:
            compiled = compiler_pass.run(compiled, platform)
        return compiled
