"""Unit tests for the eQASM assembler and timing analysis."""

import pytest

from repro.core.circuit import Circuit, bell_pair_circuit
from repro.eqasm.assembler import EqasmAssembler
from repro.eqasm.instructions import ClassicalInstruction, EqasmInstruction, EqasmProgram, QuantumBundle
from repro.eqasm.timing import TimingAnalyzer
from repro.openql.compiler import Compiler
from repro.openql.platform import spin_qubit_platform, superconducting_platform
from repro.openql.program import Program


def _compiled_bell(platform):
    program = Program("bell", platform, num_qubits=2)
    kernel = program.new_kernel("main")
    kernel.h(0).cnot(0, 1).measure_all()
    return Compiler().compile(program).flat_circuit()


class TestInstructions:
    def test_instruction_text(self):
        instr = EqasmInstruction(opcode="x90", codeword=3, qubits=(1,))
        assert instr.to_text() == "x90 q1"

    def test_bundle_text_with_wait(self):
        bundle = QuantumBundle(wait_cycles=2, operations=[EqasmInstruction("x", 0, (0,))])
        text = bundle.to_text()
        assert "qwait 2" in text
        assert "x q0" in text

    def test_classical_instruction_text(self):
        assert ClassicalInstruction("loop", (10,)).to_text() == "loop 10"
        assert ClassicalInstruction("nop").to_text() == "nop"

    def test_program_counts_and_text(self):
        program = EqasmProgram(platform_name="test", cycle_time_ns=20, num_qubits=2)
        program.bundles.append(
            QuantumBundle(wait_cycles=0, operations=[EqasmInstruction("x", 0, (0,), 1)])
        )
        program.bundles.append(
            QuantumBundle(wait_cycles=3, operations=[EqasmInstruction("measz", 1, (0,), 15)])
        )
        assert program.instruction_count() == 2
        assert program.total_cycles() == 1 + 3 + 15
        assert program.total_duration_ns() == program.total_cycles() * 20
        assert "# eQASM for platform test" in program.to_text()


class TestAssembler:
    def test_assemble_native_circuit(self, transmon_platform):
        circuit = _compiled_bell(transmon_platform)
        program = EqasmAssembler(transmon_platform).assemble(circuit)
        assert program.platform_name == transmon_platform.name
        assert program.instruction_count() >= circuit.gate_count()
        assert program.total_duration_ns() > 0

    def test_assemble_rejects_non_native_gates(self, transmon_platform):
        circuit = bell_pair_circuit()  # contains h and cnot, not native
        with pytest.raises(ValueError):
            EqasmAssembler(transmon_platform).assemble(circuit)

    def test_codewords_reused_for_identical_gates(self, transmon_platform):
        circuit = Circuit(2)
        circuit.add_gate("x90", 0)
        circuit.add_gate("x90", 1)
        circuit.add_gate("y90", 0)
        program = EqasmAssembler(transmon_platform).assemble(circuit)
        assert len(program.codeword_table) == 2

    def test_measurements_become_measz(self, transmon_platform):
        circuit = Circuit(1)
        circuit.add_gate("x90", 0)
        circuit.measure(0)
        program = EqasmAssembler(transmon_platform).assemble(circuit)
        opcodes = [op.opcode for b in program.quantum_bundles() for op in b.operations]
        assert "measz" in opcodes

    def test_parallel_gates_grouped_in_one_bundle(self, transmon_platform):
        circuit = Circuit(2)
        circuit.add_gate("x90", 0)
        circuit.add_gate("x90", 1)
        program = EqasmAssembler(transmon_platform).assemble(circuit)
        bundles = program.quantum_bundles()
        assert len(bundles) == 1
        assert len(bundles[0].operations) == 2

    def test_assemble_cqasm_text(self, perfect_4q_platform):
        text = "qubits 2\n.main\nx q[0]\ncnot q[0], q[1]\nmeasure q[0]\n"
        program = EqasmAssembler(perfect_4q_platform).assemble_cqasm(text)
        assert program.instruction_count() == 3

    def test_retargeting_changes_timing_only_through_config(self):
        """Same logical circuit, two platforms: slower platform => longer program."""
        transmon = superconducting_platform()
        spin = spin_qubit_platform()
        transmon_ns = EqasmAssembler(transmon).assemble(_compiled_bell(transmon)).total_duration_ns()
        spin_ns = EqasmAssembler(spin).assemble(_compiled_bell(spin)).total_duration_ns()
        assert spin_ns > transmon_ns


class TestTimingAnalyzer:
    def test_report_matches_program_totals(self, transmon_platform):
        circuit = _compiled_bell(transmon_platform)
        program = EqasmAssembler(transmon_platform).assemble(circuit)
        report = TimingAnalyzer().analyze(program)
        assert report.total_cycles == program.total_cycles()
        assert report.instruction_count == program.instruction_count()
        assert report.bundle_count == len(program.quantum_bundles())

    def test_utilisation_between_zero_and_one(self, transmon_platform):
        circuit = _compiled_bell(transmon_platform)
        program = EqasmAssembler(transmon_platform).assemble(circuit)
        report = TimingAnalyzer().analyze(program)
        assert 0.0 < report.utilisation(transmon_platform.num_qubits) <= 1.0

    def test_timing_violation_detected(self):
        program = EqasmProgram(platform_name="bad", cycle_time_ns=20, num_qubits=1)
        # Two operations on the same qubit inside one bundle: a violation.
        program.bundles.append(
            QuantumBundle(
                wait_cycles=0,
                operations=[
                    EqasmInstruction("x", 0, (0,), 2),
                    EqasmInstruction("y", 1, (0,), 2),
                ],
            )
        )
        with pytest.raises(ValueError):
            TimingAnalyzer().analyze(program)

    def test_empty_program_report(self):
        program = EqasmProgram(platform_name="empty", cycle_time_ns=20, num_qubits=1)
        report = TimingAnalyzer().analyze(program)
        assert report.total_cycles == 0
        assert report.utilisation(1) == 0.0
