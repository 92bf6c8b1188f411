"""Pool workers run numpy's OpenBLAS on one thread.

Every process pool the runtime creates starts its workers with
:func:`~repro.runtime.worker.init_pool_worker`, which caps OpenBLAS at the
worker's own thread without starting the BLAS thread server.  The parent's
setting is left alone, and capped workers compute the same histograms as
an inline run.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest
from helpers import openblas_thread_count

from repro.runtime.batch import BatchSpec, run_batch
from repro.runtime.spec import CompilerSpec
from repro.runtime.worker import init_pool_worker

pytestmark = pytest.mark.skipif(
    openblas_thread_count() is None, reason="numpy ships no OpenBLAS here"
)


def test_pool_worker_reads_one_blas_thread_and_parent_keeps_its_own():
    before = openblas_thread_count()
    with ProcessPoolExecutor(max_workers=2, initializer=init_pool_worker) as pool:
        in_workers = [pool.submit(openblas_thread_count).result() for _ in range(4)]
    assert in_workers == [1, 1, 1, 1]
    assert openblas_thread_count() == before


def test_capped_windows_match_the_inline_run_byte_for_byte():
    fleet = BatchSpec.from_product(
        "cap",
        "rotations",
        {"seed": list(range(8))},
        base_kwargs={"num_qubits": 8, "depth": 3},
        shots=256,
        compiler=CompilerSpec(enabled=False),
        max_chunk_circuits=4,
    )
    inline = run_batch(fleet, workers=1)
    pooled = run_batch(fleet, workers=2)
    assert json.dumps([row.counts for row in pooled.circuits]) == json.dumps(
        [row.counts for row in inline.circuits]
    )
