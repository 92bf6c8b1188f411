"""Unit tests for the micro-architecture blocks and the end-to-end executor."""

import pytest

from repro.eqasm.assembler import EqasmAssembler
from repro.eqasm.instructions import EqasmInstruction
from repro.microarch.adi import AnalogDigitalInterface
from repro.microarch.executor import QuantumAccelerator
from repro.microarch.microcode import MicrocodeUnit
from repro.microarch.queues import OperationQueue, QueueSet
from repro.microarch.timing_control import TimingControlUnit
from repro.openql.compiler import Compiler
from repro.openql.platform import perfect_platform, spin_qubit_platform, superconducting_platform
from repro.openql.program import Program


class TestMicrocode:
    def test_single_qubit_gate_expands_to_drive_channel(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        ops = unit.expand(EqasmInstruction("x90", 0, (2,)))
        assert len(ops) == 1
        assert ops[0].channel == "drive_2"
        assert ops[0].kind == "drive"

    def test_two_qubit_gate_expands_to_flux_channels(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        ops = unit.expand(EqasmInstruction("cz", 0, (0, 1)))
        assert {op.channel for op in ops} == {"flux_0", "flux_1"}
        assert all(op.kind == "flux" for op in ops)

    def test_measurement_expands_to_readout(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        ops = unit.expand(EqasmInstruction("measz", 0, (3,)))
        assert ops[0].channel == "readout_3"
        assert ops[0].duration_ns == transmon_platform.duration_of("measure")

    def test_unknown_opcode_rejected(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        with pytest.raises(ValueError):
            unit.expand(EqasmInstruction("warp_drive", 0, (0,)))

    def test_codewords_stable_per_opcode(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        first = unit.expand(EqasmInstruction("x90", 0, (0,)))[0].codeword
        second = unit.expand(EqasmInstruction("x90", 0, (1,)))[0].codeword
        other = unit.expand(EqasmInstruction("y90", 0, (0,)))[0].codeword
        assert first == second
        assert other != first

    def test_channel_names_cover_all_qubits(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        channels = set()
        for qubit in range(transmon_platform.num_qubits):
            for opcode in ("x90", "cz", "measz"):
                operations = unit.expand(EqasmInstruction(opcode, 0, (qubit,)))
                channels.update(op.channel for op in operations)
        assert len(channels) == 3 * transmon_platform.num_qubits
        assert {"drive_0", "flux_0", "readout_0"} <= channels


class TestQueues:
    def test_fifo_order(self):
        queue = OperationQueue("test")
        queue.push(0, "a")
        queue.push(10, "b")
        assert queue.pop() == (0, "a")
        assert queue.pop() == (10, "b")

    def test_underrun_recorded_and_raises(self):
        queue = OperationQueue("empty")
        with pytest.raises(IndexError):
            queue.pop()
        assert queue.stats.underruns == 1

    def test_capacity_overflow(self):
        queue = OperationQueue("small", capacity=1)
        queue.push(0, "a")
        with pytest.raises(OverflowError):
            queue.push(1, "b")

    def test_statistics_track_depth(self):
        queue = OperationQueue("stats")
        for i in range(5):
            queue.push(i, i)
        queue.pop()
        assert queue.stats.max_depth == 5
        assert queue.stats.current_depth == 4

    def test_drain_empties_queue(self):
        queue = OperationQueue("drain")
        queue.push(0, "a")
        queue.push(1, "b")
        assert [p for _, p in queue.drain()] == ["a", "b"]
        assert queue.is_empty()

    def test_queue_set_aggregates(self):
        queues = QueueSet()
        queues.push("drive_0", 0, "x")
        queues.push("drive_0", 1, "y")
        queues.push("flux_1", 0, "cz")
        assert queues.total_depth() == 3
        assert queues.max_depth_seen() == 2
        assert queues.busiest_channel() == "drive_0"


class TestTimingControl:
    def test_issue_records_events_and_advances(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        timing = TimingControlUnit(cycle_time_ns=20)
        ops = unit.expand(EqasmInstruction("x90", 0, (0,)))
        duration = timing.issue(ops, (0,))
        assert duration == 20
        assert len(timing.events) == 1
        assert timing.total_duration_ns() == 20

    def test_channel_conflict_raises(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        timing = TimingControlUnit(cycle_time_ns=20)
        ops = unit.expand(EqasmInstruction("measz", 0, (0,)))
        timing.issue(ops, (0,))
        with pytest.raises(ValueError):
            timing.issue(unit.expand(EqasmInstruction("measz", 0, (0,))), (0,))

    def test_wait_until_free_advances_clock(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        timing = TimingControlUnit(cycle_time_ns=20)
        timing.issue(unit.expand(EqasmInstruction("measz", 0, (0,))), (0,))
        busy_cycles = -(-transmon_platform.duration_of("measure") // timing.cycle_time_ns)
        timing.advance(busy_cycles - 1)
        with pytest.raises(ValueError):
            timing.issue(unit.expand(EqasmInstruction("measz", 0, (0,))), (0,))
        timing.advance(1)
        timing.issue(unit.expand(EqasmInstruction("measz", 0, (0,))), (0,))
        assert timing.clock_ns >= transmon_platform.duration_of("measure")

    def test_cannot_advance_backwards(self):
        timing = TimingControlUnit()
        with pytest.raises(ValueError):
            timing.advance(-1)

    def test_channel_utilisation_fractions(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        timing = TimingControlUnit(cycle_time_ns=20)
        timing.issue(unit.expand(EqasmInstruction("x90", 0, (0,))), (0,))
        utilisation = timing.channel_utilisation()
        assert utilisation["drive_0"] == pytest.approx(1.0)


class TestADI:
    def test_pulses_generated_per_event(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        timing = TimingControlUnit(cycle_time_ns=20)
        timing.issue(unit.expand(EqasmInstruction("cz", 0, (0, 1))), (0, 1))
        adi = AnalogDigitalInterface()
        pulses = adi.convert(timing.trace())
        assert len(pulses) == 2
        assert all(p.kind == "flux" for p in pulses)

    def test_channel_waveform_reconstruction(self, transmon_platform):
        unit = MicrocodeUnit(transmon_platform)
        timing = TimingControlUnit(cycle_time_ns=20)
        timing.issue(unit.expand(EqasmInstruction("x90", 0, (0,))), (0,))
        adi = AnalogDigitalInterface()
        adi.convert(timing.trace())
        drive = [p for p in adi.pulses if p.channel == "drive_0"]
        assert len(drive) == 1 and drive[0].samples.max() > 0
        assert drive[0].samples.size == round(drive[0].duration_ns * adi.library.sample_rate_gsps)
        assert not [p for p in adi.pulses if p.channel == "drive_5"]


class TestExecutor:
    def _compiled(self, platform, measure=True):
        program = Program("bell", platform, num_qubits=2)
        kernel = program.new_kernel("main")
        kernel.h(0).cnot(0, 1)
        if measure:
            kernel.measure_all()
        return Compiler().compile(program).flat_circuit()

    def test_end_to_end_execution_functional_and_timed(self, transmon_platform):
        accelerator = QuantumAccelerator(transmon_platform, seed=5)
        circuit = self._compiled(transmon_platform)
        trace = accelerator.execute_circuit(circuit, shots=200)
        assert trace.total_duration_ns > 0
        assert trace.pulse_count >= circuit.gate_count()
        assert trace.result is not None
        assert sum(trace.result.counts.values()) == 200
        # Realistic transmon qubits: the dominant outcomes are still 00/11.
        dominant = sum(trace.result.counts.get(k, 0) for k in ("00", "11"))
        assert dominant > 150

    def test_perfect_platform_execution_is_noise_free(self):
        platform = perfect_platform(2)
        accelerator = QuantumAccelerator(platform, seed=1)
        trace = accelerator.execute_circuit(self._compiled(platform), shots=100)
        assert set(trace.result.counts) <= {"00", "11"}

    def test_channel_utilisation_reported(self, transmon_platform):
        accelerator = QuantumAccelerator(transmon_platform, seed=2)
        trace = accelerator.execute_circuit(self._compiled(transmon_platform), shots=10)
        assert trace.channel_utilisation
        assert all(0 <= u <= 1 for u in trace.channel_utilisation.values())

    def test_estimated_shot_duration_matches_eqasm(self, transmon_platform):
        accelerator = QuantumAccelerator(transmon_platform, seed=3)
        circuit = self._compiled(transmon_platform)
        trace = accelerator.execute_circuit(circuit, shots=1)
        program = EqasmAssembler(transmon_platform).assemble(circuit)
        assert trace.total_duration_ns == program.total_duration_ns()

    def test_spin_platform_slower_than_transmon(self):
        spin = spin_qubit_platform()
        transmon = superconducting_platform()
        spin_trace = QuantumAccelerator(spin, seed=4).execute_circuit(self._compiled(spin), shots=5)
        transmon_trace = QuantumAccelerator(transmon, seed=4).execute_circuit(
            self._compiled(transmon), shots=5
        )
        assert spin_trace.total_duration_ns > transmon_trace.total_duration_ns
