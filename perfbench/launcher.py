"""Start the service daemon with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launcher.py TRACE_DIR [scripts/serve.py args...]``

Installs the same wrappers as the traced generator, then runs
``scripts/serve.py`` in this process, which builds the ``JobService`` and
calls ``repro.service.daemon.serve``.  The daemon's forked pool workers
inherit the wrappers and write their own span files; this process writes
its spans after the daemon shuts down.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, "src")

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    trace_dir, *serve_args = sys.argv[1:]
    tracer = Tracer(trace_dir)
    install(tracer)
    tracer.enabled = True
    sys.argv = ["scripts/serve.py", *serve_args]
    try:
        runpy.run_path("scripts/serve.py", run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.enabled = False
        tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
