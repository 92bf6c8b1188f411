"""The quantum accelerator executor.

Ties the full experimental stack of Figure 6 together: the eQASM program is
fetched bundle by bundle, expanded by the micro-code unit, issued by the
timing control unit, converted to pulses by the ADI, and — in place of the
physical chip — executed functionally by the QX simulator, whose measurement
results flow back to the classical side.  The executor therefore provides
both a *timing* view (cycles, pulses, channel utilisation) and a
*functional* view (measurement statistics) of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.circuit import Circuit
from repro.eqasm.assembler import EqasmAssembler
from repro.eqasm.instructions import EqasmProgram, QuantumBundle
from repro.microarch.adi import AnalogDigitalInterface, Pulse
from repro.microarch.microcode import MicrocodeUnit
from repro.microarch.timing_control import TimingControlUnit
from repro.openql.platform import Platform
from repro.qx.error_models import error_model_for
from repro.qx.simulator import QXSimulator, SimulationResult


@dataclass
class ExecutionTrace:
    """Combined timing + functional record of one accelerator run."""

    platform_name: str
    total_duration_ns: int
    bundle_count: int
    pulse_count: int
    channel_utilisation: dict[str, float]
    result: SimulationResult | None = None
    pulses: list[Pulse] = field(default_factory=list)
    queue_max_depth: int = 0


class QuantumAccelerator:
    """Full micro-architecture + device model for one platform."""

    def __init__(self, platform: Platform, seed: int | None = None):
        self.platform = platform
        self.microcode = MicrocodeUnit(platform)
        self.assembler = EqasmAssembler(platform)
        self.simulator = QXSimulator(
            num_qubits=platform.num_qubits,
            error_model=error_model_for(platform.qubit_model),
            seed=seed,
        )
    def execute_circuit(self, circuit: Circuit, shots: int = 1) -> ExecutionTrace:
        """Assemble a compiled circuit to eQASM and execute it end to end."""
        program = self.assembler.assemble(circuit)
        return self.execute_eqasm(program, functional_circuit=circuit, shots=shots)

    def execute_eqasm(
        self,
        program: EqasmProgram,
        functional_circuit: Circuit | None = None,
        shots: int = 1,
    ) -> ExecutionTrace:
        """Drive the timing pipeline for an eQASM program.

        The timing pipeline (micro-code, timing control, queues, ADI) is
        always exercised; the functional result additionally requires the
        original circuit, which plays the role of the quantum chip contents.
        """
        timing = TimingControlUnit(cycle_time_ns=program.cycle_time_ns)
        for bundle in program.bundles:
            if not isinstance(bundle, QuantumBundle):
                continue
            timing.advance(bundle.wait_cycles)
            channels = []
            longest_ns = 0
            for instruction in bundle.operations:
                micro_ops = self.microcode.expand(instruction)
                channels.extend(op.channel for op in micro_ops)
                longest_ns = max(longest_ns, timing.issue(micro_ops, instruction.qubits))
            cycles = -(-longest_ns // program.cycle_time_ns) if longest_ns else 0
            timing.advance(cycles)

        adi = AnalogDigitalInterface()
        pulses = adi.convert(timing.trace())

        result = None
        if functional_circuit is not None:
            result = self.simulator.run(functional_circuit, shots=shots)

        return ExecutionTrace(
            platform_name=self.platform.name,
            total_duration_ns=timing.total_duration_ns(),
            bundle_count=len(program.quantum_bundles()),
            pulse_count=len(pulses),
            channel_utilisation=timing.channel_utilisation(),
            result=result,
            pulses=pulses,
            queue_max_depth=timing.queues.max_depth_seen(),
        )
