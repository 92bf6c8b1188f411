"""Circuit dataflow verifier: diagnostics on hand-built hybrid circuits and
its wiring into the compiler pass list, the runner and the batch planner."""

import warnings

import pytest

from repro.analysis import (
    CircuitContractError,
    CircuitContractWarning,
    report,
    verify,
    verify_program,
)
from repro.core.circuit import Circuit
from repro.core.operations import Measurement
from repro.openql.compiler import Compiler
from repro.openql.passes import VerificationPass
from repro.openql.platform import perfect_platform
from repro.qec.surface_code import PlanarSurfaceCode
from repro.qx.compiled import lower
from repro.runtime.batch import BatchCircuit, BatchRunner, BatchSpec
from repro.runtime.runner import ExperimentRunner
from repro.runtime.spec import CircuitSpec, CompilerSpec, ExperimentSpec


def by_code(diagnostics, code):
    return [d for d in diagnostics if d.code == code]


def use_before_write_circuit() -> Circuit:
    """A conditional X fires before the measurement that writes its bit."""
    circuit = Circuit(2, "use_before_write")
    circuit.h(0)
    circuit.conditional_gate("x", 0, 1)  # reads b0 — always 0 here
    circuit.measure(0, 0)  # the write arrives only now
    circuit.measure(1, 1)
    return circuit


# ---------------------------------------------------------------------- #
# QV001 / QV002 — conditional reads
# ---------------------------------------------------------------------- #
class TestConditionalReads:
    def test_use_before_write_detected(self):
        diagnostics = verify(use_before_write_circuit())
        findings = by_code(diagnostics, "QV001")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert findings[0].bits == (0,)
        assert findings[0].op_index == 1

    def test_use_before_write_compiles_cleanly_today(self):
        """The acceptance-criteria defect: the full pass pipeline accepts it."""
        circuit = use_before_write_circuit()
        compiled = Compiler().compile_circuit(circuit, perfect_platform(num_qubits=2))
        assert compiled.gate_count() >= 1  # compilation succeeded, no error
        assert by_code(verify(circuit), "QV001")  # ... but the verifier objects

    def test_never_written_bit_is_unreachable_branch(self):
        circuit = Circuit(2, "unreachable")
        circuit.h(0)
        circuit.conditional_gate("x", 1, 1)  # b1 is never written anywhere
        circuit.measure(0, 0)
        findings = by_code(verify(circuit), "QV002")
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert findings[0].bits == (1,)

    def test_write_then_read_is_clean(self):
        circuit = Circuit(2, "teleport_style")
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.conditional_gate("x", 0, 1)
        assert verify(circuit) == []


# ---------------------------------------------------------------------- #
# QV003 — dead measurements
# ---------------------------------------------------------------------- #
class TestDeadMeasurements:
    def test_overwritten_bit_flagged(self):
        circuit = Circuit(2, "dead_measure")
        circuit.measure(0, 0)
        circuit.measure(1, 0)  # overwrites b0; the first result is unobservable
        findings = by_code(verify(circuit), "QV003")
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert findings[0].op_index == 1
        assert findings[0].qubits == (0,)  # the qubit whose result was lost

    def test_intervening_conditional_read_clears_it(self):
        circuit = Circuit(2, "read_between")
        circuit.measure(0, 0)
        circuit.conditional_gate("z", 0, 1)
        circuit.measure(1, 0)
        assert by_code(verify(circuit), "QV003") == []

    def test_cross_mapped_bits_are_tracked_per_bit(self):
        # measure q1 -> b0 twice is dead; distinct bits are not.
        crossed = Circuit(3, "cross_mapped")
        crossed.measure(2, 0)
        crossed.measure(1, 0)
        assert len(by_code(verify(crossed), "QV003")) == 1

        distinct = Circuit(3, "distinct_bits")
        distinct.measure(2, 0)
        distinct.measure(1, 1)
        assert verify(distinct) == []

    def test_final_measurements_are_live(self):
        circuit = Circuit(3, "ghz")
        circuit.h(0)
        circuit.cnot(0, 1)
        circuit.cnot(1, 2)
        circuit.measure_all()
        assert verify(circuit) == []


# ---------------------------------------------------------------------- #
# QV004 — qubit use after measurement
# ---------------------------------------------------------------------- #
class TestUseAfterMeasurement:
    def test_gate_after_measurement_flagged(self):
        circuit = Circuit(2, "collapsed")
        circuit.measure(0, 0)
        circuit.h(0)
        findings = by_code(verify(circuit), "QV004")
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert findings[0].qubits == (0,)

    def test_reported_once_per_measurement(self):
        circuit = Circuit(2, "collapsed_twice")
        circuit.measure(0, 0)
        circuit.h(0)
        circuit.x(0)  # same stale measurement: not re-reported
        assert len(by_code(verify(circuit), "QV004")) == 1

    def test_active_reset_idiom_recognised(self):
        """measure q -> b then c-x b q is the stack's reset; it re-arms q."""
        circuit = Circuit(2, "reset_idiom")
        circuit.measure(0, 0)
        circuit.conditional_gate("x", 0, 0)
        circuit.h(0)  # legal again after the reset
        assert by_code(verify(circuit), "QV004") == []

    def test_re_measurement_not_flagged(self):
        circuit = Circuit(2, "re_measure")
        circuit.measure(0, 0)
        circuit.measure(0, 1)
        assert by_code(verify(circuit), "QV004") == []

    def test_surface_code_extraction_circuit_is_clean(self):
        """Rounds of measure-then-reset on ancillas must not warn."""
        circuit = PlanarSurfaceCode(3).extraction_circuit()
        assert verify(circuit) == []


# ---------------------------------------------------------------------- #
# QV005 — register and arity bounds
# ---------------------------------------------------------------------- #
class TestBounds:
    def test_measurement_bit_out_of_range(self):
        circuit = Circuit(2, "bad_bit", num_bits=2)
        circuit.operations.append(Measurement(0, bit=5))
        findings = by_code(verify(circuit), "QV005")
        assert len(findings) == 1
        assert findings[0].severity == "error"

    def test_condition_bit_out_of_range(self):
        circuit = Circuit(2, "bad_cond", num_bits=2)
        circuit.measure(0, 0)
        circuit.conditional_gate("x", 7, 1)
        assert len(by_code(verify(circuit), "QV005")) == 1

    def test_qubit_out_of_range_in_raw_operations(self):
        circuit = Circuit(2, "bad_qubit")
        circuit.operations.append(Measurement(6))
        findings = by_code(verify(circuit), "QV005")
        # qubit 6 outside the register AND default bit 6 outside num_bits
        assert len(findings) == 2

    def test_kernel_op_matrix_arity_mismatch(self):
        import numpy as np

        from repro.qx.compiled import GATE, KernelOp, KernelProgram

        bad_op = KernelOp(GATE, matrix=np.eye(2, dtype=complex), qubits=(0, 1))
        program = KernelProgram(
            num_qubits=2,
            num_bits=2,
            ops=[bad_op],
            fused=False,
            num_measurements=0,
            has_conditionals=False,
            has_mid_circuit_measurement=False,
            measured_qubits=(),
            measured_bits=(),
        )
        findings = by_code(verify_program(program), "QV005")
        assert len(findings) == 1
        assert "matrix shape" in findings[0].message


# ---------------------------------------------------------------------- #
# Lowered programs, strict mode, and report()
# ---------------------------------------------------------------------- #
class TestProgramAndStrict:
    def test_lowered_program_use_before_write_detected(self):
        program = lower(use_before_write_circuit(), fuse=False)
        assert by_code(verify_program(program), "QV001")

    def test_lowered_clean_program_verifies_clean(self):
        circuit = Circuit(2, "bell")
        circuit.h(0)
        circuit.cnot(0, 1)
        circuit.measure_all()
        assert verify_program(lower(circuit, fuse=True)) == []

    def test_strict_raises_on_errors_only(self):
        with pytest.raises(CircuitContractError) as excinfo:
            verify(use_before_write_circuit(), strict=True)
        assert "QV001" in str(excinfo.value)

        warning_only = Circuit(2, "warn_only")
        warning_only.measure(0, 0)
        warning_only.h(0)  # QV004 warning
        assert verify(warning_only, strict=True)  # does not raise

    def test_report_warns_and_continues_by_default(self):
        with pytest.warns(CircuitContractWarning, match="QV001"):
            diagnostics = report(use_before_write_circuit(), where="test point")
        assert by_code(diagnostics, "QV001")

    def test_report_raises_in_strict_mode(self):
        with pytest.raises(CircuitContractError):
            report(use_before_write_circuit(), where="test point", strict=True)

    def test_report_silent_on_warning_severity(self):
        circuit = Circuit(2, "warn_only")
        circuit.measure(0, 0)
        circuit.h(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diagnostics = report(circuit, where="test point")
        assert by_code(diagnostics, "QV004")


# ---------------------------------------------------------------------- #
# Wiring: compiler pass, runner plan time, batch lowering
# ---------------------------------------------------------------------- #
class TestWiring:
    def test_verification_pass_records_statistics(self):
        compiler = Compiler(verify=True, map_circuits=False)
        verification = compiler.passes[-1]
        assert isinstance(verification, VerificationPass)
        compiler.compile_circuit(use_before_write_circuit(), perfect_platform(num_qubits=2))
        stats = verification.statistics()
        assert stats["errors"] >= 1
        assert "QV001" in stats["codes"]

    def test_strict_verification_pass_raises(self):
        compiler = Compiler(strict_verify=True, map_circuits=False)
        with pytest.raises(CircuitContractError):
            compiler.compile_circuit(use_before_write_circuit(), perfect_platform(num_qubits=2))

    def test_runner_plan_warns_on_bad_circuit(self, tmp_path):
        cqasm = (
            "version 1.0\n"
            "qubits 2\n"
            "h q[0]\n"
            "c-x b[0], q[1]\n"
            "measure q[0], b[0]\n"
        )
        spec = ExperimentSpec(
            name="bad",
            circuit=CircuitSpec(cqasm=cqasm, measure="asis"),
            compiler=CompilerSpec(enabled=False),
            shots=8,
        )
        runner = ExperimentRunner(spec, workers=1, cache_dir=tmp_path)
        with pytest.warns(CircuitContractWarning, match="QV001"):
            runner.plan()

    def test_runner_strict_verify_raises(self, tmp_path):
        cqasm = (
            "version 1.0\n"
            "qubits 2\n"
            "h q[0]\n"
            "c-x b[0], q[1]\n"
            "measure q[0], b[0]\n"
        )
        spec = ExperimentSpec(
            name="bad",
            circuit=CircuitSpec(cqasm=cqasm, measure="asis"),
            compiler=CompilerSpec(enabled=False),
            shots=8,
        )
        runner = ExperimentRunner(spec, workers=1, cache_dir=tmp_path, strict_verify=True)
        with pytest.raises(CircuitContractError):
            runner.plan()

    def test_runner_clean_spec_plans_silently(self, tmp_path):
        spec = ExperimentSpec(
            name="ok",
            circuit=CircuitSpec(builder="bell"),
            shots=8,
        )
        runner = ExperimentRunner(spec, workers=1, cache_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CircuitContractWarning)
            planned = runner.plan()
        assert len(planned) == 1

    def test_batch_strict_verify_raises(self, tmp_path):
        cqasm = (
            "version 1.0\n"
            "qubits 2\n"
            "h q[0]\n"
            "c-x b[0], q[1]\n"
            "measure q[0], b[0]\n"
        )
        spec = BatchSpec(
            name="bad_batch",
            circuits=[BatchCircuit(circuit=CircuitSpec(cqasm=cqasm, measure="asis"))],
            compiler=CompilerSpec(enabled=False),
            shots=8,
        )
        runner = BatchRunner(spec, workers=1, cache_dir=tmp_path, strict_verify=True)
        with pytest.raises(CircuitContractError):
            runner.plan()

    def test_batch_clean_fleet_plans_silently(self, tmp_path):
        spec = BatchSpec(
            name="ok_batch",
            circuits=[
                BatchCircuit(circuit=CircuitSpec(builder="rotations", kwargs={"num_qubits": 4}))
                for _ in range(3)
            ],
            shots=8,
        )
        runner = BatchRunner(spec, workers=1, cache_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CircuitContractWarning)
            planned = runner.plan()
        assert len(planned) == 3
        # Structurally identical rotations circuits share one plan, so the
        # batch verified one structure, not three circuits.
        assert len(runner._verified_plans) == 1

    def test_same_structure_runner_sweep_verifies_once(self, tmp_path):
        spec = ExperimentSpec(
            name="ok_sweep",
            circuit=CircuitSpec(builder="rotations", kwargs={"num_qubits": 4}),
            sweep={"circuit.seed": [0, 1, 2, 3]},
            shots=8,
        )
        runner = ExperimentRunner(spec, workers=1, cache_dir=tmp_path)
        assert len(runner.plan()) == 4
        assert len(runner._verified_plans) == 1
