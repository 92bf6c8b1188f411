"""Gate kernels split across threads: bit-identical, fork-safe and lazy.

A 1- or 2-qubit kernel call that touches at least
``kernels.SPLIT_MIN_AMPLITUDES`` amplitudes is cut along a non-gate axis and
run on helper threads when the context's thread budget allows it.  These
tests force a budget of two threads (whatever the host's CPU count) and pin
the split result to the budget-1 result, byte for byte, for every kernel
branch and qubit position, at and above the threshold.  The identity tests
lower the threshold so that means 12- to 15-qubit states; the cut and the
arithmetic do not depend on the state size.  The fresh-interpreter tests
keep the real threshold: helper threads start only on demand, and forked
pool workers never touch the parent's helpers.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.qx import kernels

SRC = Path(repro.__file__).resolve().parents[1]

_rng = np.random.default_rng(2024)


def _unitary(dim: int) -> np.ndarray:
    gaussian = _rng.normal(size=(dim, dim)) + 1j * _rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gaussian)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _controlled(sub: np.ndarray) -> np.ndarray:
    matrix = np.eye(4, dtype=complex)
    matrix[2:, 2:] = sub
    return matrix


_RZ = np.diag([np.exp(-0.35j), np.exp(0.35j)])
_Y = np.array([[0, -1j], [1j, 0]])
_X = np.array([[0, 1], [1, 0]], dtype=complex)

#: Branch -> (matrix, share of the state one kernel call touches).  A
#: diagonal 1q gate scales each half in its own call.
ONE_QUBIT = {
    "diagonal": (_RZ, 1 / 2),
    "anti-diagonal": (_Y, 1),
    "dense": (_unitary(2), 1),
}
#: Branch -> (matrix, structure tag, share one call touches).  A diagonal 2q
#: gate, and a controlled one with a diagonal sub-block, scales each quarter
#: block in its own call.
TWO_QUBIT = {
    "diagonal": (
        np.diag(np.exp(1j * np.array([0.0, 0.4, -0.7, 1.1]))),
        kernels.DIAGONAL_2Q,
        1 / 4,
    ),
    # classify_2q tags this matrix diagonal; a caller passing the controlled
    # tag takes the controlled kernel's diagonal branch.
    "controlled-diagonal": (_controlled(_RZ), kernels.CONTROLLED_2Q, 1 / 4),
    "controlled-anti-diagonal": (_controlled(_Y), kernels.CONTROLLED_2Q, 1 / 2),
    "controlled-cnot": (_controlled(_X), kernels.CONTROLLED_2Q, 1 / 2),
    "controlled-dense": (_controlled(_unitary(2)), kernels.CONTROLLED_2Q, 1 / 2),
    "swap": (np.eye(4, dtype=complex)[[0, 2, 1, 3]], kernels.SWAP_2Q, 1 / 2),
    "dense": (_unitary(4), kernels.DENSE_2Q, 1),
}


def _qubits_at_threshold(share: float) -> int:
    """State size whose calls touch exactly the split threshold."""
    return int(np.log2(kernels.SPLIT_MIN_AMPLITUDES / share))


def _pairs(num_qubits: int) -> list[tuple[int, int]]:
    """Every qubit as operand 0 and operand 1, with its upper neighbour.

    The top qubit pairs with qubit 0, so the pieces are cut along every
    axis: high (most pairs), mid (top and 0) and low (the two top qubits).
    """
    pairs = []
    for qubit in range(num_qubits):
        other = (qubit + 1) % num_qubits
        pairs += [(qubit, other), (other, qubit)]
    return pairs


@pytest.fixture
def splits(monkeypatch):
    """Count the kernel calls that handed pieces to helper threads."""
    monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1 << 12)
    calls = []
    real = kernels._executor

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(kernels, "_executor", counting)
    return calls


def _check(apply, cases, num_qubits, splits, expect_split=True):
    state = _rng.normal(size=1 << num_qubits) + 1j * _rng.normal(size=1 << num_qubits)
    serial, threaded = state.copy(), state.copy()
    for case in cases:
        before = len(splits)
        apply(serial, *case)
        with kernels.thread_budget(2):
            apply(threaded, *case)
        assert (len(splits) > before) == expect_split, (num_qubits, case)
        # Byte equality: stricter than np.array_equal, signed zeros count.
        assert serial.tobytes() == threaded.tobytes(), (num_qubits, case)


@pytest.mark.parametrize("branch", sorted(ONE_QUBIT))
def test_split_1q_kernel_is_bit_identical(branch, splits):
    matrix, share = ONE_QUBIT[branch]
    at = _qubits_at_threshold(share)
    for num_qubits in (at, at + 1):
        cases = [(matrix, qubit) for qubit in range(num_qubits)]
        _check(kernels.apply_1q, cases, num_qubits, splits)


@pytest.mark.parametrize("branch", sorted(TWO_QUBIT))
def test_split_2q_kernel_is_bit_identical(branch, splits):
    matrix, structure, share = TWO_QUBIT[branch]
    if branch != "controlled-diagonal":
        assert kernels.classify_2q(matrix) == structure
    at = _qubits_at_threshold(share)
    for num_qubits in (at, at + 1):
        cases = [(matrix, *pair, structure) for pair in _pairs(num_qubits)]
        _check(kernels.apply_2q, cases, num_qubits, splits)


def test_calls_below_the_threshold_stay_on_the_calling_thread(splits):
    num_qubits = _qubits_at_threshold(1) - 1
    _check(kernels.apply_1q, [(ONE_QUBIT["dense"][0], 3)], num_qubits, splits, False)
    dense_2q = TWO_QUBIT["dense"][0]
    _check(kernels.apply_2q, [(dense_2q, 0, num_qubits - 1, None)], num_qubits, splits, False)


def test_budget_is_scoped_to_its_context():
    assert kernels._threads.get() == 1
    with kernels.thread_budget(3):
        assert kernels._threads.get() == 3
        with kernels.thread_budget(0):
            assert kernels._threads.get() == 1
        assert kernels._threads.get() == 3
    assert kernels._threads.get() == 1


# ---------------------------------------------------------------------- #
# Helper-thread lifetime, in fresh interpreters
# ---------------------------------------------------------------------- #
_PRELUDE = """
import threading

from repro.qx import kernels
from repro.runtime import CircuitSpec, ExperimentRunner, ExperimentSpec
from repro.runtime import runner as runner_module


def spec(**overrides):
    settings = dict(
        name="kernel-threads",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 18}),
        shots=512,
        seed=5,
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def counts(spec, workers):
    result = ExperimentRunner(spec, workers=workers, use_cache=False).run()
    return [point.counts for point in result.points]


def helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("qx-kernel")]
"""


def _run_script(tmp_path, body: str, timeout: float = 120) -> str:
    script = tmp_path / "script.py"
    script.write_text(_PRELUDE + textwrap.dedent(body))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Own session, so a hang kills the forked pool workers along with it.
    process = subprocess.Popen(
        [sys.executable, str(script)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail(f"script did not finish within {timeout} s")
    assert process.returncode == 0, err
    return out


def test_no_helper_threads_without_a_threaded_inline_unit(tmp_path):
    """Serial runs, pool sweeps and direct simulator calls start no helpers."""
    out = _run_script(
        tmp_path,
        """
        from repro.core.circuit import ghz_circuit
        from repro.qx.simulator import QXSimulator

        counts(spec(), workers=1)
        counts(spec(sweep={"shots": [512, 256]}), workers=2)
        circuit = ghz_circuit(18)
        circuit.measure_all()
        QXSimulator(num_qubits=18, seed=1).run(circuit, shots=64)
        assert kernels._helpers is None and not helper_threads()
        print("ok")
        """,
    )
    assert out.split() == ["ok"]


def test_forked_pool_workers_never_reuse_the_parent_helpers(tmp_path):
    """After a threaded inline point has started helper threads, a forked
    pool's units — pool-default and threaded inline alike — run to the
    serial histograms instead of queueing on helpers that do not exist in
    the child."""
    out = _run_script(
        tmp_path,
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Threaded inline units even on a one-CPU host.
        runner_module.available_workers = lambda: 2


        def threaded_inline(_):
            (histogram,) = counts(spec(), workers=2)
            return histogram, bool(helper_threads())


        if __name__ == "__main__":
            sweep = spec(sweep={"shots": [512, 256]})
            serial = counts(sweep, workers=1)
            assert not helper_threads()
            assert counts(spec(), workers=2) == serial[:1]
            assert helper_threads(), "the inline point did not split its kernels"
            assert counts(sweep, workers=2) == serial
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=2, mp_context=fork) as pool:
                results = list(pool.map(threaded_inline, range(2)))
            assert [histogram for histogram, _ in results] == serial[:1] * 2
            assert all(started for _, started in results)
            print("ok")
        """,
    )
    assert out.split() == ["ok"]
