"""Large-register simulation on the matrix-product-state engine.

The dense state-vector engine walls out at 26 qubits; this example runs
two canonical circuits far beyond that wall on the MPS engine and reports
the accuracy bookkeeping that makes the approximation *controllable*:

1. a 64-qubit GHZ state — auto-dispatched to MPS by the backend cost
   model, exact (zero truncation error) at a bond dimension of just 2;
2. a 48-qubit quantum Fourier transform of an entangled (GHZ-8 chain)
   input, pinned to the MPS engine with ``QXSimulator(backend="mps",
   max_bond=16)`` — every controlled-phase gate is long-range
   (deterministic swap-in/swap-out routing), sampled from the final state
   without ever materialising 2**48 amplitudes.

Both runs go through ``QXSimulator``, the one simulator front-end, and read
the accuracy bookkeeping off ``SimulationResult.truncation_error``.

Run with:  python examples/mps_large_circuits.py
"""

import sys
import time

from repro.core.circuit import Circuit, ghz_circuit, qft_circuit
from repro.qx import QXSimulator


def run_ghz_64() -> int:
    circuit = ghz_circuit(64)
    circuit.measure_all()
    start = time.perf_counter()
    result = QXSimulator(seed=7, max_bond=2).run(circuit, shots=5000)
    wall_s = time.perf_counter() - start
    print("=== GHZ-64 through QXSimulator auto-dispatch (5000 shots) ===")
    print(f"  engine: {result.backend}  wall: {wall_s:.2f}s")
    print(f"  truncation error: {result.truncation_error:g} (max_bond=2)")
    for outcome, count in sorted(result.counts.items(), key=lambda kv: -kv[1]):
        print(f"  {outcome[:8]}...{outcome[-4:]}: {count}")
    if result.backend != "mps":
        print(f"FAIL: expected auto-dispatch to mps, got {result.backend}", file=sys.stderr)
        return 1
    if set(result.counts) != {"0" * 64, "1" * 64}:
        print("FAIL: GHZ-64 produced outcomes beyond |0...0> / |1...1>", file=sys.stderr)
        return 1
    if result.truncation_error != 0.0:
        print("FAIL: GHZ-64 must be exact at max_bond=2", file=sys.stderr)
        return 1
    if not 0.45 < result.probability("0" * 64) < 0.55:
        print("FAIL: GHZ-64 outcomes are not balanced", file=sys.stderr)
        return 1
    return 0


def run_qft_48() -> int:
    # An entangled input (GHZ chain on the low 8 qubits) so the transform
    # genuinely exercises bond growth; QFT of a rank-2 state stays rank 2,
    # which the engine discovers on its own.
    circuit = Circuit(48)
    circuit.h(0)
    for qubit in range(1, 8):
        circuit.cnot(qubit - 1, qubit)
    for op in qft_circuit(48).operations:
        circuit.append(op)
    circuit.measure_all()
    start = time.perf_counter()
    result = QXSimulator(backend="mps", max_bond=16, seed=11).run(circuit, shots=512)
    wall_s = time.perf_counter() - start
    counts = result.counts
    gate_count = circuit.gate_count()
    print(f"\n=== QFT-48 of a GHZ-8 input on the MPS engine ({gate_count} gates, 512 shots) ===")
    print(f"  wall: {wall_s:.2f}s")
    print(f"  truncation error: {result.truncation_error:.3e} (max_bond=16)")
    print(f"  distinct outcomes: {len(counts)} / 512 shots")
    if sum(counts.values()) != 512:
        print("FAIL: QFT-48 histogram lost shots", file=sys.stderr)
        return 1
    if any(len(key) != 48 for key in counts):
        print("FAIL: QFT-48 keys have the wrong width", file=sys.stderr)
        return 1
    # The output distribution is spread over ~2**48 outcomes: 512 draws
    # should essentially never collide.
    if len(counts) < 500:
        print("FAIL: QFT-48 samples are implausibly degenerate", file=sys.stderr)
        return 1
    if result.truncation_error > 1e-6:
        print("FAIL: QFT-48 truncation error exceeds the 1e-6 budget", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    return run_ghz_64() or run_qft_48()


if __name__ == "__main__":
    raise SystemExit(main())
