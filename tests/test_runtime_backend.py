"""The backend axis through the runtime: spec, sweep, workers, CLI, host."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.accelerator.host import HostCPU
from repro.core.circuit import ghz_circuit
from repro.core.qubits import REALISTIC
from repro.qx.backends import UnsupportedBackendError
from repro.qx.compiled import KernelProgram, lower
from repro.qx.simulator import QXSimulator
from repro.runtime import (
    CircuitSpec,
    CompilerSpec,
    ExperimentRunner,
    ExperimentSpec,
    PlatformSpec,
    SimulationSpec,
    merge_counts,
    shard_seed,
    shard_sizes,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _ghz_spec(num_qubits, shots=256, seed=1, **simulation):
    return ExperimentSpec(
        name="backend-test",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": num_qubits}),
        simulation=SimulationSpec(**simulation),
        shots=shots,
        seed=seed,
    )


class TestSimulationSpec:
    def test_defaults_auto_dispatch(self):
        spec = SimulationSpec()
        assert spec.backend is None
        assert spec.max_bond is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SimulationSpec(backend="qpu")

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            SimulationSpec(max_bond=0)
        with pytest.raises(ValueError):
            SimulationSpec(truncation_threshold=-0.5)

    def test_json_roundtrip(self):
        spec = _ghz_spec(8, backend="mps", max_bond=16, truncation_threshold=1e-8)
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.simulation == spec.simulation
        assert restored.simulation.backend == "mps"

    def test_backend_sweep_axis(self):
        spec = _ghz_spec(6)
        spec.sweep = {"backend": ["statevector", "mps"]}
        points = spec.points()
        assert [point.spec.simulation.backend for point in points] == ["statevector", "mps"]

    def test_simulation_dotted_sweep_axis(self):
        spec = _ghz_spec(6, backend="mps")
        spec.sweep = {"simulation.max_bond": [2, 8]}
        points = spec.points()
        assert [point.spec.simulation.max_bond for point in points] == [2, 8]

    def test_swept_backend_validated(self):
        spec = _ghz_spec(6)
        spec.sweep = {"backend": ["statevector", "nope"]}
        with pytest.raises(ValueError, match="unknown backend"):
            spec.points()

    def test_sweep_key_validation(self):
        with pytest.raises(ValueError, match="invalid sweep key"):
            ExperimentSpec(
                name="bad",
                circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 2}),
                sweep={"simulation": [1]},
            )


class TestRunnerBackendAxis:
    def test_backend_sweep_runs_both_engines(self, tmp_path):
        spec = _ghz_spec(16, shots=200)
        spec.sweep = {"backend": ["statevector", "mps"]}
        result = ExperimentRunner(spec, workers=1, cache_dir=tmp_path).run()
        dense = result.point(backend="statevector")
        mps = result.point(backend="mps")
        assert set(dense.counts) <= {"0" * 16, "1" * 16}
        assert set(mps.counts) <= {"0" * 16, "1" * 16}
        assert mps.metrics.get("backend") == "mps"
        assert mps.metrics.get("truncation_error") == 0.0

    @pytest.mark.parametrize("backend", ["mps", "stabilizer"])
    def test_bit_identical_across_worker_counts(self, tmp_path, backend):
        num_qubits = 24 if backend == "mps" else 12
        spec = _ghz_spec(num_qubits, shots=1500, seed=5, backend=backend)
        serial = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "a").run()
        parallel = ExperimentRunner(spec, workers=4, cache_dir=tmp_path / "b").run()
        assert serial.points[0].counts == parallel.points[0].counts
        assert sum(serial.points[0].counts.values()) == 1500

    def test_ghz64_mps_end_to_end(self, tmp_path):
        """Acceptance: a 64-qubit GHZ runs through the runner on MPS, exact
        at max_bond=2, bit-identical for 1 vs 4 workers."""
        spec = _ghz_spec(64, shots=1200, seed=9, backend="mps", max_bond=2)
        serial = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "a").run()
        parallel = ExperimentRunner(spec, workers=4, cache_dir=tmp_path / "b").run()
        point = serial.points[0]
        assert set(point.counts) <= {"0" * 64, "1" * 64}
        assert sum(point.counts.values()) == 1200
        assert point.metrics["truncation_error"] == 0.0
        assert point.counts == parallel.points[0].counts

    def test_unsupported_backend_fails_fast_in_parent(self, tmp_path):
        spec = _ghz_spec(17, backend="density")  # 17 qubits > density limit
        with pytest.raises(UnsupportedBackendError, match="density limit"):
            ExperimentRunner(spec, workers=1, cache_dir=tmp_path).run()

    def test_stabilizer_backend_with_noise_fails_fast(self, tmp_path):
        spec = ExperimentSpec(
            name="bad",
            circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 4}),
            platform=PlatformSpec(factory="realistic", kwargs={"error_rate": 0.01}),
            simulation=SimulationSpec(backend="stabilizer"),
            shots=16,
        )
        with pytest.raises(UnsupportedBackendError, match="error models"):
            ExperimentRunner(spec, workers=1, cache_dir=tmp_path).run()

    def test_noise_free_clifford_feedback_point_runs_on_the_tableau(self):
        """Runtime auto-dispatch agrees with ``QXSimulator.run``: a 21-qubit
        noise-free Clifford point with feedback runs on the tableau, and its
        histogram is the merge of each shard's own seeded ``run``."""
        from helpers import clifford_feedback_circuit

        spec = ExperimentSpec(
            name="tableau-feedback",
            circuit=CircuitSpec(builder="helpers:clifford_feedback_circuit"),
            compiler=CompilerSpec(enabled=False),
            shots=64,
            seed=3,
        )
        circuit = clifford_feedback_circuit()
        expected = merge_counts(
            QXSimulator(seed=shard_seed(spec.seed, 0, index)).run(circuit, shots=size).counts
            for index, size in enumerate(shard_sizes(spec.shots))
        )
        for workers in (1, 2):
            (point,) = ExperimentRunner(spec, workers=workers, use_cache=False).run().points
            assert point.metrics["backend"] == "stabilizer"
            assert point.counts == expected

    def test_host_offload_backend_override(self, tmp_path):
        host = HostCPU(runtime_workers=1)
        spec = _ghz_spec(30, shots=64, seed=2)
        result = host.run_experiment(spec, cache_dir=tmp_path, backend="mps")
        assert result.points[0].metrics.get("backend") == "mps"
        assert spec.simulation.backend is None  # caller's spec untouched


def _measured_ghz(num_qubits):
    circuit = ghz_circuit(num_qubits)
    circuit.measure_all()
    return circuit


class TestRunProgramShards:
    """``QXSimulator.run_program_shards``: one program, many seeded shards."""

    SIZES = (13, 13, 12, 12)

    def _streams(self):
        return [
            (size, np.random.default_rng(shard_seed(7, 0, index)))
            for index, size in enumerate(self.SIZES)
        ]

    @pytest.mark.parametrize(
        "backend, noisy",
        [("statevector", False), ("mps", False), ("density", True), ("statevector", True)],
    )
    def test_each_shard_matches_its_own_run(self, backend, noisy):
        """Evolve-once engines (and the per-shot trajectory fallback) give
        every shard the histogram of its own seeded run_program call."""
        qubit_model = REALISTIC if noisy else None
        program = lower(_measured_ghz(5), fuse=not noisy)
        shards = QXSimulator(qubit_model=qubit_model, backend=backend).run_program_shards(
            program, self._streams()
        )
        for index, (size, result) in enumerate(zip(self.SIZES, shards, strict=True)):
            alone = QXSimulator(
                qubit_model=qubit_model, seed=shard_seed(7, 0, index), backend=backend
            ).run_program(program, shots=size)
            assert result.shots == size
            assert result.counts == alone.counts
            assert result.backend == alone.backend
            assert result.errors_injected == alone.errors_injected

    def test_noise_free_dense_shards_evolve_once(self, monkeypatch):
        calls = []
        original = KernelProgram.apply_unitaries

        def counting(program, amplitudes):
            calls.append(program)
            return original(program, amplitudes)

        monkeypatch.setattr(KernelProgram, "apply_unitaries", counting)
        QXSimulator().run_program_shards(lower(_measured_ghz(6)), self._streams())
        assert len(calls) == 1


class TestCli:
    def _run_cli(self, *args):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "run_experiment.py"), *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    def test_backend_mps_flag(self, tmp_path):
        output = tmp_path / "results.json"
        process = self._run_cli(
            "--circuit", "ghz", "--qubits", "40", "--backend", "mps",
            "--max-bond", "4", "--shots", "300", "--workers", "2",
            "--no-cache", "--quiet", "--output", str(output),
        )
        assert process.returncode == 0, process.stderr
        payload = json.loads(output.read_text())
        point = payload["points"][0]
        assert point["metrics"]["backend"] == "mps"
        assert point["metrics"]["truncation_error"] == 0.0
        assert set(point["counts"]) <= {"0" * 40, "1" * 40}

    def test_backend_flag_rejected_for_qec_kind(self):
        process = self._run_cli("--kind", "qec", "--backend", "mps", "--shots", "10")
        assert process.returncode != 0
        assert "--backend" in process.stderr

    def test_unsupported_backend_exits_nonzero(self):
        process = self._run_cli(
            "--circuit", "ghz", "--qubits", "17", "--backend", "density",
            "--shots", "10", "--no-cache", "--quiet",
        )
        assert process.returncode == 1
        assert "density" in process.stderr
