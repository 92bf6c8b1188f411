"""Benchmark-harness conftest.

The shared table/timing helpers live in :mod:`bench_utils` (importable from
every benchmark module without going through the ``conftest`` module name);
they are re-exported here for backwards compatibility only.

The reference oracles the density and QEC benchmarks time the production
engines against live with the unit tests, in ``tests/oracles``; the
``tests`` directory is appended to ``sys.path`` so ``oracles`` imports here
too.
"""

from __future__ import annotations

import sys
from pathlib import Path

from bench_utils import print_table, run_once  # noqa: F401  (re-export)

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
