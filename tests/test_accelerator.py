"""Unit tests for the host/accelerator system model and the hybrid loop."""

import numpy as np
import pytest

from repro.accelerator.host import ApplicationProfile, HostCPU
from repro.accelerator.hybrid import HybridExecutor
from repro.accelerator.quantum_device import AnnealingAccelerator, GateModelAccelerator
from repro.annealing.qubo import maxcut_qubo
from repro.core.circuit import Circuit
from repro.openql.platform import perfect_platform, superconducting_platform
from repro.openql.program import Program


class TestHostCPU:
    def _profile(self):
        profile = ApplicationProfile("pipeline")
        profile.add_kernel("io", 0.2)
        profile.add_kernel("search", 0.5, kind="search", accelerator_speedup=3.0)
        profile.add_kernel("optimise", 0.3, kind="optimisation", accelerator_speedup=2.0)
        return profile

    def test_fractions_must_sum_to_one(self):
        profile = ApplicationProfile("bad")
        profile.add_kernel("only", 0.4)
        with pytest.raises(ValueError):
            profile.validate()

    def test_unknown_accelerator_kind_rejected(self):
        host = HostCPU()
        with pytest.raises(ValueError):
            host.attach_accelerator("abacus", 10.0)
        with pytest.raises(ValueError):
            host.attach_accelerator("gpu", 0.5)

    def test_no_accelerators_means_no_speedup(self):
        report = HostCPU().offload(self._profile())
        assert report.amdahl_speedup == pytest.approx(1.0)

    def test_quantum_accelerators_speed_up_matching_kernels(self):
        host = HostCPU()
        host.attach_accelerator("quantum_gate", 10.0)
        host.attach_accelerator("quantum_annealer", 5.0)
        report = host.offload(self._profile())
        assert report.amdahl_speedup > 1.0
        targets = {d.kernel.name: d.accelerator for d in report.decisions}
        assert targets["io"] == "host"
        assert targets["search"] == "quantum_gate"
        assert targets["optimise"] in ("quantum_gate", "quantum_annealer")

    def test_amdahl_law_limited_by_serial_fraction(self):
        host = HostCPU()
        host.attach_accelerator("quantum_gate", 1e6)
        report = host.offload(self._profile())
        # 20% of the runtime stays on the host, so the speed-up is below 5x.
        assert report.amdahl_speedup < 5.0
        assert report.amdahl_speedup == pytest.approx(1.0 / 0.2, rel=0.05)

    def test_best_accelerator_chosen_per_kernel(self):
        host = HostCPU()
        host.attach_accelerator("quantum_annealer", 50.0)
        host.attach_accelerator("quantum_gate", 2.0)
        report = host.offload(self._profile())
        targets = {d.kernel.name: d.accelerator for d in report.decisions}
        assert targets["optimise"] == "quantum_annealer"


class TestQuantumDevices:
    def test_gate_model_accelerator_runs_program(self):
        accelerator = GateModelAccelerator(perfect_platform(3), seed=1)
        program = Program("ghz", perfect_platform(3))
        kernel = program.new_kernel("main")
        kernel.h(0).cnot(0, 1).cnot(1, 2).measure_all()
        trace = accelerator.execute_program(program, shots=100)
        assert set(trace.result.counts) <= {"000", "111"}
        assert trace.total_duration_ns > 0

    def test_gate_model_accelerator_on_transmon_platform(self):
        accelerator = GateModelAccelerator(superconducting_platform(), seed=2)
        circuit = Circuit(2)
        circuit.h(0).cnot(0, 1).measure_all()
        trace = accelerator.execute_circuit(circuit, shots=100)
        dominant = trace.result.counts.get("00", 0) + trace.result.counts.get("11", 0)
        assert dominant > 70

    def test_annealing_accelerator_classical_and_quantum_modes(self):
        qubo = maxcut_qubo([(0, 1), (1, 2), (2, 0)], 3)
        _, optimum = qubo.brute_force()
        classical = AnnealingAccelerator(quantum=False, num_sweeps=150, num_reads=4, seed=3)
        quantum = AnnealingAccelerator(quantum=True, num_sweeps=80, num_reads=2, seed=4)
        assert classical.execute(qubo).energy == pytest.approx(optimum)
        assert quantum.execute(qubo).energy == pytest.approx(optimum)
        assert quantum.solver.__class__.__name__ == "SimulatedQuantumAnnealer"


class TestHybridExecutor:
    def test_minimises_single_qubit_expectation(self):
        def generator(params):
            circuit = Circuit(1)
            circuit.ry(0, float(params[0]))
            circuit.measure(0)
            return circuit

        def expectation(counts):
            shots = sum(counts.values())
            return sum((1 if key == "0" else -1) * value for key, value in counts.items()) / shots

        executor = HybridExecutor(
            generator, expectation, num_parameters=1, shots_per_burst=128,
            max_iterations=30, seed=5,
        )
        result = executor.run(np.array([0.2]))
        # Starting near |0> (<Z> ~ +1) the optimiser must make substantial
        # progress towards |1> (<Z> = -1) within the iteration budget.
        assert result.best_value < 0.3
        assert result.history[-1] < result.history[0]
        assert result.quantum_executions == 2 * 30
        assert result.total_shots == 2 * 30 * 128
        assert len(result.history) == 30

    def test_convergence_flag(self):
        """A flat objective gives a zero SPSA gradient: the loop is converged
        from its first iteration and never moves the parameters."""
        def generator(params):
            circuit = Circuit(1)
            circuit.measure(0)
            return circuit

        executor = HybridExecutor(
            generator, lambda counts: 0.0, num_parameters=1,
            shots_per_burst=16, max_iterations=5, seed=6,
        )
        result = executor.run(np.array([0.3]))
        assert result.history == [0.0] * 5
        assert result.best_value == 0.0
        np.testing.assert_array_equal(result.best_parameters, [0.3])
