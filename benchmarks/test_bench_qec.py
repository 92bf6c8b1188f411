"""E6 (Section 2.1): quantum error correction with error-syndrome measurement.

Reproduces the realistic-qubit QEC workload the paper describes: logical
error rate versus physical error rate for small codes and for the planar
surface code at distances 3 and 5, including faulty syndrome measurements
and matching-based decoding.  The shape to reproduce: below threshold the
larger distance wins, above threshold it loses (the pseudo-threshold
crossover), and the small codes suppress errors quadratically.
"""

import json
import os
import time

import pytest

from bench_utils import print_table, run_once
from oracles.surface_code_reference import run_memory_experiment_reference
from repro.qec.codes import RepetitionCode, SteaneCode
from repro.qec.surface_code import PlanarSurfaceCode

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.bench_smoke
def test_small_code_suppression(benchmark):
    def sweep():
        rows = []
        for p in (0.05, 0.02, 0.01, 0.005):
            rep3 = RepetitionCode(3).logical_error_rate(p, trials=20000, seed=1)
            rep5 = RepetitionCode(5).logical_error_rate(p, trials=20000, seed=2)
            steane = SteaneCode().logical_error_rate(p, trials=20000, seed=3)
            rows.append((p, round(rep3, 5), round(rep5, 5), round(steane, 5)))
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "E6a small-code logical error rates (NISQ-friendly codes, Section 2.1)",
        ["physical_p", "repetition_d3", "repetition_d5", "steane_7q"],
        rows,
    )
    # Suppression: logical < physical for every code at p <= 0.02.
    for p, rep3, rep5, steane in rows:
        if p <= 0.02:
            assert rep3 < p and rep5 < p and steane < p
    # Larger-distance repetition code is better at low p.
    assert rows[-1][2] <= rows[-1][1]


def test_surface_code_threshold_shape(benchmark):
    def sweep():
        rows = []
        for p in (0.005, 0.02, 0.08):
            d3 = PlanarSurfaceCode(3).logical_error_rate(p, trials=250, seed=4)
            d5 = PlanarSurfaceCode(5).logical_error_rate(p, trials=250, seed=5)
            rows.append((p, round(d3, 4), round(d5, 4)))
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "E6b planar surface code: logical error rate vs physical error rate",
        ["physical_p", "distance_3", "distance_5"],
        rows,
    )
    # Below threshold: d5 at least as good as d3; far above threshold: d5 worse.
    assert rows[0][2] <= rows[0][1] + 0.01
    assert rows[-1][2] >= rows[-1][1] - 0.02


def test_surface_code_ancilla_overhead(benchmark):
    """The resource argument behind Preskill's 'too many ancilla qubits' remark."""

    def resources():
        return [
            (code.distance, code.num_data, code.num_ancilla, code.num_physical_qubits)
            for code in (PlanarSurfaceCode(3), PlanarSurfaceCode(5), PlanarSurfaceCode(7))
        ]

    rows = run_once(benchmark, resources)
    print_table(
        "E6c surface-code qubit overhead per logical qubit",
        ["distance", "data_qubits", "ancilla_qubits", "total_physical"],
        rows,
    )
    # Quadratic growth of the physical qubit count with distance.
    assert rows[-1][3] > 4 * rows[0][3] / 2
    for distance, data, ancilla, total in rows:
        assert data == distance ** 2
        assert total == data + ancilla


@pytest.mark.bench_smoke
def test_esm_decoding_rate(benchmark):
    """Defects per round the decoder must process in real time (Section 2.1)."""
    code = PlanarSurfaceCode(5)

    def measure():
        return code.run_memory_experiment(0.02, trials=100, seed=6)

    result = run_once(benchmark, measure)
    print_table(
        "E6d syndrome-processing load (d = 5, p = 0.02)",
        ["metric", "value"],
        [
            ("rounds_per_trial", result.rounds),
            ("defects_per_round", round(result.defects_per_round, 2)),
            ("logical_error_rate", round(result.logical_error_rate, 4)),
        ],
    )
    assert result.defects_per_round > 0


def test_surface_code_d9_vectorized_speedup(benchmark):
    """Surface-code-size syndrome extraction: the incidence-matrix memory
    experiment must beat the per-plaquette/per-round reference >= 5x at
    distance 9 (10 rounds, 500 trials) while staying bit-identical."""
    import time

    code = PlanarSurfaceCode(9)

    def compare():
        start = time.perf_counter()
        fast = code.run_memory_experiment(0.001, rounds=10, trials=500, seed=1)
        fast_s = time.perf_counter() - start
        start = time.perf_counter()
        slow = run_memory_experiment_reference(code, 0.001, rounds=10, trials=500, seed=1)
        slow_s = time.perf_counter() - start
        return fast, slow, fast_s, slow_s

    fast, slow, fast_s, slow_s = run_once(benchmark, compare)
    print_table(
        "E6e distance-9 memory experiment: vectorized vs per-plaquette loops",
        ["implementation", "wall_s", "failures", "defects"],
        [
            ("vectorized", round(fast_s, 3), fast.logical_failures, fast.total_defects),
            ("reference loops", round(slow_s, 3), slow.logical_failures, slow.total_defects),
            ("speedup", round(slow_s / fast_s, 1), "-", "-"),
        ],
    )
    assert fast.logical_failures == slow.logical_failures
    assert fast.total_defects == slow.total_defects
    assert slow_s / fast_s >= 5.0


def test_qec_runtime_sweep_bit_identical_across_workers(benchmark):
    """Distance x error-rate sweeps shard across the process pool under the
    runtime's SeedSequence contract: 1 worker and 4 workers must merge to
    bit-identical logical-failure histograms and defect totals."""
    from repro.runtime import ExperimentRunner, ExperimentSpec, QecSpec

    spec = ExperimentSpec(
        name="bench-qec-sweep",
        kind="qec",
        qec=QecSpec(distance=3),
        shots=200,  # trials per point
        seed=29,
        sweep={"qec.distance": [3, 5], "qec.physical_error_rate": [0.005, 0.02]},
    )

    def sweep_twice():
        serial = ExperimentRunner(spec, workers=1, use_cache=False).run()
        parallel = ExperimentRunner(spec, workers=4, use_cache=False).run()
        return serial, parallel

    serial, parallel = run_once(benchmark, sweep_twice)
    rows = [
        (
            point.params["qec.distance"],
            point.params["qec.physical_error_rate"],
            round(point.probability("1"), 4),
            point.errors_injected,
        )
        for point in serial.points
    ]
    print_table(
        "E6f runtime surface-code sweep (200 trials/point, merged histograms)",
        ["distance", "physical_p", "logical_error_rate", "defects"],
        rows,
    )
    assert [p.counts for p in serial.points] == [p.counts for p in parallel.points]
    assert [p.errors_injected for p in serial.points] == [
        p.errors_injected for p in parallel.points
    ]
    assert all(point.shots == 200 for point in serial.points)


# --------------------------------------------------------------------- #
# Circuit-level noise: threshold curve + union-find volume decoding
# --------------------------------------------------------------------- #

#: Calibrated p-values bracketing the circuit-level threshold (~0.008 for
#: the union-find decoder on this extraction schedule): clearly below,
#: near, and clearly above.  The crossing must sit inside [0.001, 0.02].
THRESHOLD_PS = (0.004, 0.008, 0.016)
THRESHOLD_DISTANCES = (3, 5, 7)
THRESHOLD_TRIALS = 3000
#: Generous wall-clock ceiling for each d=5 point (the CI-failure guard).
D5_POINT_BUDGET_S = 60.0


@pytest.mark.bench_smoke
def test_qec_threshold_curve(benchmark):
    """E6g: circuit-level logical-error-rate-vs-p curves at d in {3, 5, 7}.

    Runs the real syndrome-extraction circuit through the Pauli-frame
    sampler and union-find decoder at three calibrated p-values, writes the
    curve (rate + wall-clock per point) to ``BENCH_qec.json`` (override with
    ``BENCH_QEC_OUTPUT``), and asserts the threshold-crossing shape: below
    threshold larger distance wins, above it larger distance loses.  Fails
    the job when any d=5 point exceeds its wall-clock budget.
    """

    def sweep():
        points = []
        for p in THRESHOLD_PS:
            for distance in THRESHOLD_DISTANCES:
                code = PlanarSurfaceCode(distance)
                start = time.perf_counter()
                result = code.run_circuit_memory_experiment(
                    p, trials=THRESHOLD_TRIALS, seed=11
                )
                wall_s = time.perf_counter() - start
                points.append(
                    {
                        "distance": distance,
                        "physical_error_rate": p,
                        "trials": THRESHOLD_TRIALS,
                        "logical_error_rate": round(result.logical_error_rate, 6),
                        "logical_failures": result.logical_failures,
                        "defects_per_trial": round(result.total_defects / THRESHOLD_TRIALS, 2),
                        "wall_s": round(wall_s, 4),
                    }
                )
        return points

    points = run_once(benchmark, sweep)

    record = {
        "schema": 1,
        "kind": "qec_threshold",
        "noise_model": "circuit",
        "decoder": "union_find",
        "rounds": "distance",
        "points": points,
    }
    output = os.environ.get("BENCH_QEC_OUTPUT", os.path.join(REPO_ROOT, "BENCH_qec.json"))
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")

    by_p = {
        p: {pt["distance"]: pt for pt in points if pt["physical_error_rate"] == p}
        for p in THRESHOLD_PS
    }
    print_table(
        "E6g circuit-level threshold curve (union-find decoder, rounds = d)",
        ["physical_p", "d=3", "d=5", "d=7", "d5_wall_s"],
        [
            (
                p,
                by_p[p][3]["logical_error_rate"],
                by_p[p][5]["logical_error_rate"],
                by_p[p][7]["logical_error_rate"],
                by_p[p][5]["wall_s"],
            )
            for p in THRESHOLD_PS
        ],
    )
    low, high = THRESHOLD_PS[0], THRESHOLD_PS[-1]
    # Below threshold: monotone suppression with distance.
    assert by_p[low][7]["logical_error_rate"] <= by_p[low][5]["logical_error_rate"]
    assert by_p[low][5]["logical_error_rate"] <= by_p[low][3]["logical_error_rate"]
    assert by_p[low][7]["logical_error_rate"] < by_p[low][3]["logical_error_rate"]
    # Above threshold: the ordering flips, so the curves crossed in between
    # (and [low, high] sits inside the [0.001, 0.02] acceptance window).
    assert by_p[high][7]["logical_error_rate"] >= by_p[high][5]["logical_error_rate"]
    assert by_p[high][5]["logical_error_rate"] >= by_p[high][3]["logical_error_rate"]
    assert by_p[high][7]["logical_error_rate"] > by_p[high][3]["logical_error_rate"]
    assert 0.001 <= low and high <= 0.02
    for p in THRESHOLD_PS:
        assert by_p[p][5]["wall_s"] <= D5_POINT_BUDGET_S, (
            f"d=5 point at p={p} took {by_p[p][5]['wall_s']}s "
            f"(budget {D5_POINT_BUDGET_S}s)"
        )


@pytest.mark.bench_smoke
def test_union_find_d11_speedup_vs_blossom(benchmark):
    """E6h: union-find must decode d=11 circuit-level defect sets >= 5x
    faster than the blossom fallback, agreeing on the crossing parity."""
    import numpy as np

    from repro.qec.decoder import MatchingDecoder
    from repro.qec.pauli_frame import FrameNoise
    from repro.qec.union_find import UnionFindDecoder

    code = PlanarSurfaceCode(11)
    shots = 40

    def measure():
        sampler = code._sampler(11)
        sample = sampler.sample(shots, FrameNoise(0.008, 0.008, 0.008), seed=3)
        observed = sample.bits.reshape(shots, 11, code.num_ancilla)
        final = sample.final_x[:, : code.num_data]
        syndromes = np.concatenate(
            [observed, code.syndrome_batch(final)[:, None, :]], axis=1
        )
        changed = syndromes.copy()
        changed[:, 1:, :] ^= syndromes[:, :-1, :]
        defect_sets = []
        for shot in range(shots):
            times, ancillas = np.nonzero(changed[shot])
            defect_sets.append(list(zip(times.tolist(), ancillas.tolist(), strict=True)))
        union_find = UnionFindDecoder(code)
        blossom = MatchingDecoder(code)
        start = time.perf_counter()
        uf_parities = [union_find.decode(defects) for defects in defect_sets]
        uf_s = time.perf_counter() - start
        start = time.perf_counter()
        mw_parities = [blossom.decode(defects) for defects in defect_sets]
        mw_s = time.perf_counter() - start
        mean_defects = sum(len(d) for d in defect_sets) / shots
        return uf_parities, mw_parities, uf_s, mw_s, mean_defects

    uf_parities, mw_parities, uf_s, mw_s, mean_defects = run_once(benchmark, measure)
    print_table(
        f"E6h d=11 decoding, {shots} circuit-level shots "
        f"({mean_defects:.0f} defects/shot)",
        ["decoder", "wall_s", "per_shot_ms"],
        [
            ("union_find", round(uf_s, 3), round(1000 * uf_s / shots, 2)),
            ("blossom", round(mw_s, 3), round(1000 * mw_s / shots, 2)),
            ("speedup", round(mw_s / uf_s, 1), "-"),
        ],
    )
    assert uf_parities == mw_parities
    assert mw_s / uf_s >= 5.0


@pytest.mark.bench_smoke
def test_union_find_d15_batch(benchmark):
    """E6i: a d=15 circuit-level batch (200 trials, 15 rounds) must decode
    in CI-tractable time with the union-find decoder."""
    code = PlanarSurfaceCode(15)

    def measure():
        start = time.perf_counter()
        result = code.run_circuit_memory_experiment(0.008, trials=200, seed=5)
        return result, time.perf_counter() - start

    result, wall_s = run_once(benchmark, measure)
    print_table(
        "E6i d=15 circuit-level batch (union-find decoder)",
        ["metric", "value"],
        [
            ("trials", result.trials),
            ("defects_per_trial", round(result.total_defects / result.trials, 1)),
            ("logical_error_rate", round(result.logical_error_rate, 4)),
            ("wall_s", round(wall_s, 2)),
        ],
    )
    assert wall_s < 60.0
