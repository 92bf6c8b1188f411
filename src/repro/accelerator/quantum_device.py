"""The two quantum accelerator classes attached to the host.

Figure 8(b): the hybrid quantum accelerator has a classical logic part
(tracking progress, aggregating measurements, proposing next parameters) and
a quantum logic part (the gate-model QX pipeline or the annealer).  These
wrappers expose a uniform ``execute`` interface so the host can offload to
either class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.annealing.qubo import QUBO
from repro.annealing.simulated_annealing import AnnealResult, SimulatedAnnealer
from repro.annealing.quantum_annealer import SimulatedQuantumAnnealer
from repro.core.circuit import Circuit
from repro.microarch.executor import ExecutionTrace, QuantumAccelerator
from repro.openql.compiler import Compiler
from repro.openql.platform import Platform
from repro.openql.program import Program


@dataclass
class GateModelAccelerator:
    """Gate-based quantum accelerator: OpenQL -> cQASM -> micro-architecture -> QX."""

    platform: Platform
    seed: int | None = None

    def __post_init__(self) -> None:
        self.compiler = Compiler()
        self.executor = QuantumAccelerator(self.platform, seed=self.seed)

    def execute_program(  # contract: ignore[REPRO010] the accelerator's OpenQL-program entry
        self, program: Program, shots: int = 128
    ) -> ExecutionTrace:
        """Compile and run a full OpenQL program."""
        compiled = self.compiler.compile(program)
        return self.executor.execute_circuit(compiled.flat_circuit(), shots=shots)

    def execute_circuit(self, circuit: Circuit, shots: int = 128) -> ExecutionTrace:
        """Run an already-compiled circuit through the micro-architecture."""
        compiled = self.compiler.compile_circuit(circuit, self.platform)
        return self.executor.execute_circuit(compiled, shots=shots)


@dataclass
class AnnealingAccelerator:
    """Annealing-based quantum accelerator (QUBO in, low-energy sample out)."""

    quantum: bool = True
    num_sweeps: int = 400
    num_reads: int = 10
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.quantum:
            self.solver = SimulatedQuantumAnnealer(
                num_sweeps=self.num_sweeps, num_reads=self.num_reads, seed=self.seed
            )
        else:
            self.solver = SimulatedAnnealer(
                num_sweeps=self.num_sweeps, num_reads=self.num_reads, seed=self.seed
            )

    def execute(self, qubo: QUBO) -> AnnealResult:
        return self.solver.solve_qubo(qubo)
