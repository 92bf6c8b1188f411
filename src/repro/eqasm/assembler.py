"""eQASM assembler: lower a scheduled circuit (or cQASM) to eQASM.

The assembler consumes a compiled circuit plus its timed schedule and the
platform configuration, groups operations that start on the same cycle into
bundles, allocates codewords for every distinct (gate, parameter) pair and
emits wait-prefixes so the stream reproduces the schedule cycle-accurately.
Re-targeting a different quantum technology only requires a different
platform configuration, exactly as in Section 3.1 of the paper.
"""

from __future__ import annotations

from repro.core.circuit import Circuit
from repro.core.operations import Barrier, ClassicalOperation, GateOperation, Measurement
from repro.cqasm.parser import cqasm_to_circuit
from repro.eqasm.instructions import (
    EqasmInstruction,
    EqasmProgram,
    QuantumBundle,
)
from repro.mapping.scheduling import Schedule, Scheduler
from repro.openql.passes.scheduling_pass import _apply_platform_durations
from repro.openql.platform import Platform


class EqasmAssembler:
    """Translate scheduled circuits into eQASM programs."""

    def __init__(self, platform: Platform):
        self.platform = platform
        self._codewords: dict[tuple, int] = {}

    # ------------------------------------------------------------------ #
    def assemble(self, circuit: Circuit, schedule: Schedule | None = None) -> EqasmProgram:
        """Lower ``circuit`` to eQASM using ``schedule`` (computed if absent)."""
        timed = _apply_platform_durations(circuit, self.platform)
        if schedule is None or schedule.circuit is not circuit:
            schedule = Scheduler(policy="asap").schedule(timed)
        cycle = self.platform.cycle_time_ns
        program = EqasmProgram(
            platform_name=self.platform.name,
            cycle_time_ns=cycle,
            num_qubits=self.platform.num_qubits,
        )
        by_start: dict[int, list] = {}
        for entry in schedule.entries:
            if isinstance(entry.operation, Barrier):
                continue
            by_start.setdefault(entry.start, []).append(entry)

        previous_end_cycle = 0
        for start in sorted(by_start):
            start_cycle = start // cycle
            wait = max(0, start_cycle - previous_end_cycle)
            bundle = QuantumBundle(wait_cycles=wait)
            longest = 0
            for entry in by_start[start]:
                instruction = self._lower_operation(entry.operation)
                if instruction is None:
                    continue
                bundle.operations.append(instruction)
                longest = max(longest, instruction.duration_cycles)
            if bundle.operations:
                program.bundles.append(bundle)
                previous_end_cycle = start_cycle + longest
        program.codeword_table = {cw: name for (name, *_), cw in self._codewords.items()}
        return program

    def assemble_cqasm(  # contract: ignore[REPRO010] the paper's cQASM -> eQASM step
        self, cqasm_text: str
    ) -> EqasmProgram:
        """Convenience: parse cQASM text and assemble it."""
        circuit = cqasm_to_circuit(cqasm_text)
        return self.assemble(circuit)

    # ------------------------------------------------------------------ #
    def _lower_operation(self, operation) -> EqasmInstruction | None:
        cycle = self.platform.cycle_time_ns
        if isinstance(operation, GateOperation):
            if not self.platform.supports(operation.name):
                raise ValueError(
                    f"gate {operation.name!r} is not primitive on platform "
                    f"{self.platform.name!r}; run the decomposition pass first"
                )
            key = (operation.name, *[round(float(p), 9) for p in operation.params])
            codeword = self._codewords.setdefault(key, len(self._codewords))
            duration = max(1, -(-self.platform.duration_of(operation.name) // cycle))
            return EqasmInstruction(
                opcode=operation.name,
                codeword=codeword,
                qubits=operation.qubits,
                duration_cycles=duration,
            )
        if isinstance(operation, Measurement):
            key = ("measure",)
            codeword = self._codewords.setdefault(key, len(self._codewords))
            duration = max(1, -(-self.platform.duration_of("measure") // cycle))
            return EqasmInstruction(
                opcode="measz",
                codeword=codeword,
                qubits=(operation.qubit,),
                duration_cycles=duration,
            )
        if isinstance(operation, ClassicalOperation):
            return None
        return None
