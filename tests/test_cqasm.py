"""Unit tests for the cQASM writer, parser and round-trip."""


import numpy as np
import pytest

from helpers import REGISTRY_BUILDER_KWARGS, REGISTRY_PLATFORMS
from repro.core.circuit import Circuit, qft_circuit, random_circuit
from repro.cqasm.ast import CqasmInstruction, CqasmProgram
from repro.cqasm.parser import CqasmSyntaxError, cqasm_to_circuit, parse_cqasm
from repro.cqasm.writer import circuit_to_cqasm, program_to_cqasm
from repro.qx.simulator import QXSimulator


class TestAst:
    def test_instruction_line_formatting(self):
        instr = CqasmInstruction("cnot", qubits=(0, 1))
        assert instr.to_line() == "cnot q[0], q[1]"
        rotation = CqasmInstruction("rx", qubits=(2,), params=(0.5,))
        assert rotation.to_line() == "rx q[2], 0.5"

    def test_program_text_contains_header_and_kernels(self):
        program = CqasmProgram(num_qubits=3)
        sub = program.subcircuit("init")
        sub.add(CqasmInstruction("h", qubits=(0,)))
        text = program.to_text()
        assert "version 1.0" in text
        assert "qubits 3" in text
        assert ".init" in text
        assert "h q[0]" in text

    def test_iterated_subcircuit_header(self):
        program = CqasmProgram(num_qubits=1)
        program.subcircuit("loop", iterations=10)
        assert ".loop(10)" in program.to_text()

    def test_all_instructions_expands_iterations(self):
        program = CqasmProgram(num_qubits=1)
        sub = program.subcircuit("loop", iterations=3)
        sub.add(CqasmInstruction("x", qubits=(0,)))
        assert len(program.all_instructions()) == 3


class TestWriter:
    def test_bell_circuit_serialisation(self, bell_circuit):
        text = circuit_to_cqasm(bell_circuit)
        assert "h q[0]" in text
        assert "cnot q[0], q[1]" in text
        assert text.count("measure") == 2

    def test_parametric_gate_serialisation(self):
        circuit = Circuit(1)
        circuit.rx(0, 0.25)
        assert "rx q[0], 0.25" in circuit_to_cqasm(circuit)

    def test_multi_kernel_program(self):
        first = Circuit(2, name="prep")
        first.h(0)
        second = Circuit(2, name="entangle")
        second.cnot(0, 1)
        text = program_to_cqasm([first, second])
        assert ".prep" in text and ".entangle" in text

    def test_program_requires_circuits(self):
        with pytest.raises(ValueError):
            program_to_cqasm([])


class TestParser:
    def test_missing_qubits_declaration(self):
        with pytest.raises(CqasmSyntaxError):
            parse_cqasm("version 1.0\nh q[0]\n")

    def test_duplicate_qubits_declaration(self):
        with pytest.raises(CqasmSyntaxError):
            parse_cqasm("qubits 2\nqubits 3\n")

    def test_unknown_operand_raises_with_line_number(self):
        with pytest.raises(CqasmSyntaxError) as excinfo:
            parse_cqasm("qubits 2\nh bananas\n")
        assert "line 2" in str(excinfo.value)

    def test_out_of_range_operand(self):
        with pytest.raises(CqasmSyntaxError):
            parse_cqasm("qubits 2\nx q[5]\n")

    def test_comments_and_blank_lines_ignored(self):
        program = parse_cqasm("# header comment\nqubits 2\n\n.main\n  x q[0] # flip\n")
        assert len(program.all_instructions()) == 1

    def test_qubit_range_broadcasts_single_qubit_gate(self):
        program = parse_cqasm("qubits 4\n.main\nh q[0:3]\n")
        instructions = program.all_instructions()
        assert len(instructions) == 4
        assert {i.qubits[0] for i in instructions} == {0, 1, 2, 3}

    def test_parallel_bundle_expansion(self):
        program = parse_cqasm("qubits 2\n.main\n{ x q[0] | y q[1] }\n")
        names = [i.mnemonic for i in program.all_instructions()]
        assert names == ["x", "y"]

    def test_parse_rotation_parameter(self):
        program = parse_cqasm("qubits 1\n.main\nrz q[0], 1.5708\n")
        instruction = program.all_instructions()[0]
        assert instruction.params[0] == pytest.approx(1.5708)

    def test_cqasm_to_circuit_executes(self):
        text = "qubits 2\n.main\nh q[0]\ncnot q[0], q[1]\nmeasure q[0]\nmeasure q[1]\n"
        circuit = cqasm_to_circuit(text)
        counts = QXSimulator(seed=5).run(circuit, shots=100).counts
        assert set(counts) <= {"00", "11"}

    def test_cx_alias_and_prep_ignored(self):
        text = "qubits 2\n.main\nprep_z q[0]\ncx q[0], q[1]\n"
        circuit = cqasm_to_circuit(text)
        assert circuit.gate_count("cnot") == 1

    def test_crk_parsing(self):
        text = "qubits 2\n.main\ncrk q[0], q[1], 2\n"
        circuit = cqasm_to_circuit(text)
        op = circuit.gate_operations()[0]
        assert op.name == "crk"
        assert op.params == (2.0,)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_circuit_round_trip_statevector(self, seed):
        circuit = random_circuit(4, 8, seed=seed)
        text = circuit_to_cqasm(circuit)
        recovered = cqasm_to_circuit(text)
        original = QXSimulator(seed=0).statevector(circuit)
        round_tripped = QXSimulator(seed=0).statevector(recovered)
        np.testing.assert_allclose(original, round_tripped, atol=1e-9)

    def test_qft_round_trip_preserves_gate_counts(self):
        circuit = qft_circuit(4)
        recovered = cqasm_to_circuit(circuit_to_cqasm(circuit))
        assert recovered.gate_count("h") == circuit.gate_count("h")
        assert recovered.gate_count("cr") == circuit.gate_count("cr")
        assert recovered.gate_count("swap") == circuit.gate_count("swap")

    def test_measurement_bits_preserved(self):
        circuit = Circuit(3)
        circuit.x(2).measure(2)
        recovered = cqasm_to_circuit(circuit_to_cqasm(circuit))
        assert recovered.measurements()[0].qubit == 2


# ---------------------------------------------------------------------- #
# Export contract: cQASM is an export of the compiled circuit
# ---------------------------------------------------------------------- #


def test_export_cases_cover_every_registered_builder():
    from repro.runtime.spec import BUILDERS, PLATFORMS

    assert set(REGISTRY_BUILDER_KWARGS) == set(BUILDERS)
    assert set(REGISTRY_PLATFORMS) == set(PLATFORMS)


@pytest.mark.parametrize("fuse", [False, True])
@pytest.mark.parametrize("compiled", [False, True], ids=["source", "compiled"])
@pytest.mark.parametrize("platform", REGISTRY_PLATFORMS)
@pytest.mark.parametrize("builder", sorted(REGISTRY_BUILDER_KWARGS))
def test_cqasm_export_lowers_like_the_circuit(builder, platform, compiled, fuse):
    """``lower(cqasm_to_circuit(circuit_to_cqasm(c)))`` equals ``lower(c)``
    op for op: kind, qubits, bits, condition bit and matrix bytes.

    Durations match for source circuits only.  The export does not carry
    gate durations: a compiled circuit's platform durations (100/200 ns
    gates on ``spin_qubit``) come back as the 20/40 ns defaults, which is
    why the runtime ships compiled circuits, not their text.
    """
    from repro.qx.compiled import lower
    from repro.runtime.spec import CircuitSpec, CompilerSpec, PlatformSpec

    circuit = CircuitSpec(builder=builder, kwargs=REGISTRY_BUILDER_KWARGS[builder]).build()
    if compiled:
        target = PlatformSpec(factory=platform).build(default_num_qubits=circuit.num_qubits)
        circuit = CompilerSpec().build().compile_circuit(circuit, target)
    expected = lower(circuit, fuse=fuse)
    exported = lower(cqasm_to_circuit(circuit_to_cqasm(circuit)), fuse=fuse)
    for program in (expected, exported):
        assert program.ops, "an empty program would pass vacuously"
    assert (exported.num_qubits, exported.num_bits, exported.measured_bits) == (
        expected.num_qubits,
        expected.num_bits,
        expected.measured_bits,
    )
    assert len(exported.ops) == len(expected.ops)
    for got, want in zip(exported.ops, expected.ops, strict=True):
        assert (got.kind, got.qubits, got.bit, got.condition_bit) == (
            want.kind,
            want.qubits,
            want.bit,
            want.condition_bit,
        )
        assert (got.matrix is None) == (want.matrix is None)
        if want.matrix is not None:
            assert got.matrix.tobytes() == want.matrix.tobytes()
        if not compiled:
            assert got.duration == want.duration
