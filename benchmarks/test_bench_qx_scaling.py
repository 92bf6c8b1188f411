"""E4 (Section 2.7): QX simulator scalability.

"The QX simulator is scalable based on the underlying host processor, and is
capable of simulating with up to 35 fully-entangled qubits on a laptop PC."
The benchmark measures simulation time and state-vector memory for
fully-entangled (GHZ) circuits versus qubit count; the shape to reproduce is
the exponential growth of both, with tens of qubits still comfortably
simulable on a laptop-class host.
"""

import time

import numpy as np
import pytest

from bench_utils import print_table, run_once
from repro.core.circuit import ghz_circuit
from repro.qx.simulator import QXSimulator


QUBIT_COUNTS = [4, 8, 12, 16, 18, 20]


def _simulate_ghz(num_qubits):
    simulator = QXSimulator(seed=1)
    start = time.perf_counter()
    statevector = simulator.statevector(ghz_circuit(num_qubits))
    elapsed = time.perf_counter() - start
    memory_mib = statevector.nbytes / 2 ** 20
    # Sanity: the state really is the fully entangled GHZ state.
    assert abs(abs(statevector[0]) ** 2 - 0.5) < 1e-9
    assert abs(abs(statevector[-1]) ** 2 - 0.5) < 1e-9
    return elapsed, memory_mib


def test_ghz_scaling_sweep(benchmark):
    def sweep():
        return {n: _simulate_ghz(n) for n in QUBIT_COUNTS}

    results = run_once(benchmark, sweep)
    rows = [
        (n, f"{results[n][0] * 1000:.1f}", f"{results[n][1]:.2f}")
        for n in QUBIT_COUNTS
    ]
    print_table(
        "E4 QX scalability: fully-entangled GHZ simulation (Section 2.7)",
        ["qubits", "time_ms", "statevector_MiB"],
        rows,
    )
    # Exponential growth shape: every +4 qubits costs ~16x memory.
    assert results[20][1] / results[16][1] == pytest.approx(16.0, rel=0.01)
    # 20 fully-entangled qubits stay laptop-friendly (well under a minute).
    assert results[20][0] < 60.0


@pytest.mark.bench_smoke
def test_single_shot_20_qubit_ghz(benchmark):
    def run():
        circuit = ghz_circuit(20)
        circuit.measure_all()
        return QXSimulator(seed=3).run(circuit, shots=10).counts

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    assert set(counts) <= {"0" * 20, "1" * 20}


def test_kernel_fast_path_speedup_over_generic(benchmark):
    """Fast path (in-place kernels + fusion) vs the generic reference pipeline.

    The acceptance bar for the simulation-core rework: >= 3x on 16+ qubit
    circuits, with bit-for-bit (up to global phase) identical amplitudes.
    """
    from repro.core.circuit import random_circuit
    from repro.qx import kernels
    from repro.qx.compiled import program_for
    from repro.qx.statevector import StateVector, zero_state

    def compare(num_qubits):
        circuit = random_circuit(num_qubits, 6, seed=7)
        reference = zero_state(num_qubits)
        start = time.perf_counter()
        for op in circuit.gate_operations():
            reference = kernels.apply_gate_generic(reference, op.gate.matrix, op.qubits)
        generic_s = time.perf_counter() - start

        program = program_for(circuit, fuse=True)
        fast = StateVector(num_qubits)
        start = time.perf_counter()
        amplitudes = program.apply_unitaries(fast.amplitudes)
        fast_s = time.perf_counter() - start
        assert np.allclose(amplitudes, reference, atol=1e-8)
        return generic_s, fast_s, circuit.gate_count(), len(program.ops)

    def sweep():
        return {n: compare(n) for n in (16, 18, 20)}

    results = run_once(benchmark, sweep)
    rows = [
        (n, f"{g * 1000:.1f}", f"{f * 1000:.1f}", f"{g / f:.2f}x", gates, fused)
        for n, (g, f, gates, fused) in results.items()
    ]
    print_table(
        "QX fast path vs generic reference (random depth-6 circuits)",
        ["qubits", "generic_ms", "fast_ms", "speedup", "gates", "fused_ops"],
        rows,
    )
    for n, (generic_s, fast_s, _, _) in results.items():
        assert fast_s < generic_s / 2, f"fast path below 2x at {n} qubits"
