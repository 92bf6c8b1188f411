"""Span tracing for the benchmark's traced runs.

Spans are recorded around the public functions of each layer by wrapping
them from outside the program: :func:`install` replaces each function or
method with a wrapper that records a :class:`Span` while tracing is
enabled.  Functions imported by
name elsewhere (``from repro.runtime.worker import run_shard``) are
patched at every importing module too, and wrappers keep the original
``__module__``/``__qualname__``, so process pools still pickle them by
reference.

Spans stay in memory.  The owning process writes them when the benchmark
ends (:meth:`Tracer.flush`); forked pool workers inherit the wrappers and
append their spans to a per-process file whenever a root span closes,
because pool workers exit without running ``atexit`` hooks.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    span_id: str
    parent_id: str | None
    request_id: str
    pid: int
    attrs: dict | None


# (span id, request id) of the innermost open span of this thread/task.
_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
#: The tracer the installed wrappers record into.
_active: "Tracer | None" = None


def _after_fork_in_child() -> None:
    if _active is not None:
        _active._reset()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Tracer:
    """Per-process span store; forked children reset it and flush per root."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.enabled = False
        self.owner_pid = os.getpid()
        #: Request id of the request that was open when a pool forked; forked
        #: workers tag their span trees with it.
        self.fork_request: str | None = None
        self._reset()

    def _reset(self) -> None:
        # A child forked inside a span must not name a parent in another
        # process: its spans start new trees.
        _current.set(None)
        self.pid = os.getpid()
        # Span ids stay unique even if a later process reuses this pid.
        self._prefix = f"{self.pid}.{time.monotonic_ns()}"
        self.spans: list[Span] = []
        self._ids = itertools.count()

    # ------------------------------------------------------------------ #
    @contextmanager
    def request(self, request_id: str):
        """Tag every span opened inside with ``request_id``."""
        token = _current.set((None, request_id))
        self.fork_request = request_id
        try:
            yield
        finally:
            _current.reset(token)

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        parent = _current.get()
        if parent is None:
            parent_id = None
            request_id = self.fork_request if self.pid != self.owner_pid else None
        else:
            parent_id, request_id = parent
        span_id = f"{self._prefix}:{next(self._ids)}"
        if request_id is None:
            request_id = span_id
        token = _current.set((span_id, request_id))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            _current.reset(token)
            self.record(name, start, end, span_id, parent_id, request_id, attrs)

    def record(self, name, start, end, span_id=None, parent_id=None, request_id=None, attrs=None):
        if span_id is None:
            span_id = f"{self._prefix}:{next(self._ids)}"
        self.spans.append(
            Span(name, start, end, span_id, parent_id, request_id or span_id, self.pid, attrs)
        )
        if parent_id is None and self.pid != self.owner_pid:
            self.flush()

    def flush(self) -> None:
        """Append this process's buffered spans to its own file."""
        if not self.spans:
            return
        spans, self.spans = self.spans, []
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as handle:
            for entry in spans:
                handle.write(json.dumps(entry) + "\n")


def load_spans(out_dir: str | os.PathLike) -> list[Span]:
    """Merge every process's span file."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(Span(*json.loads(line)) for line in handle if line.strip())
    return spans


# ---------------------------------------------------------------------- #
# Wrapping the layers' public functions.
# ---------------------------------------------------------------------- #
def _recording() -> Tracer | None:
    return _active if _active is not None and _active.enabled else None


def _wrap(original, name: str, on_result=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer = _recording()
        if tracer is None:
            return original(*args, **kwargs)
        attrs = {} if on_result is not None else None
        with tracer.span(name, attrs):
            result = original(*args, **kwargs)
            if on_result is not None:
                on_result(attrs, result)
        return result

    return wrapper


def _patch_function(module_name: str, attr: str, name: str) -> None:
    """Wrap a module function and rebind it in every module that imported it."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = _wrap(original, name)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.split(".")[0] != "repro" or loaded is None:
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)


def _cache_hit(attrs: dict, result) -> None:
    attrs["hit"] = result is not None


def _batch_plan_shape(attrs: dict, result) -> None:
    attrs["stacked"] = result.plan["stacked_circuits"]
    attrs["circuits"] = result.plan["circuits"]


def install(tracer: Tracer) -> None:
    """Make ``tracer`` the one the wrappers record into; wrap on first call."""
    global _active
    _active = tracer
    if getattr(install, "done", False):
        return
    install.done = True

    import repro.analysis.circuit_check  # noqa: F401
    import repro.cqasm.parser  # noqa: F401
    import repro.cqasm.writer  # noqa: F401
    import repro.runtime.aggregate  # noqa: F401
    import repro.service.engine  # noqa: F401
    from repro.openql.compiler import Compiler
    from repro.qx.compiled import KernelProgram
    from repro.qx.keying import PreparedIndexSampler
    from repro.qx.simulator import QXSimulator
    from repro.qx.statevector import StateVector
    from repro.runtime.batch import BatchRunner
    from repro.runtime.cache import ArtifactCache
    from repro.runtime.runner import ExperimentRunner
    from repro.runtime.spec import CircuitSpec
    from repro.service.journal import JobJournal
    from repro.service.scheduler import FairScheduler

    functions = [
        ("repro.cqasm.writer", "circuit_to_cqasm", "cqasm.write"),
        ("repro.cqasm.parser", "cqasm_to_circuit", "cqasm.parse"),
        ("repro.analysis.circuit_check", "report", "analysis.verify"),
        ("repro.qx.compiled", "lower", "qx.lower"),
        ("repro.qx.compiled", "plan_for", "qx.lower"),
        ("repro.qx.compiled", "program_for", "qx.lower"),
        ("repro.runtime.worker", "run_shard", "worker.shard"),
        ("repro.runtime.batch", "run_batch_chunk", "batch.chunk"),
        ("repro.runtime.aggregate", "merge_counts", "aggregate.merge"),
        ("repro.runtime.aggregate", "merge_metrics", "aggregate.merge"),
    ]
    for module_name, attr, name in functions:
        _patch_function(module_name, attr, name)
    methods = [
        (CircuitSpec, "build", "spec.build", None),
        (Compiler, "compile_circuit", "openql.compile", None),
        (KernelProgram, "apply_unitaries", "qx.evolve", None),
        (StateVector, "sample_counts", "qx.sample", None),
        (PreparedIndexSampler, "sample", "qx.sample", None),
        (QXSimulator, "run_program", "qx.run_program", None),
        (ExperimentRunner, "plan", "runner.plan", None),
        (ExperimentRunner, "plan_point", "runner.plan", None),
        (ExperimentRunner, "run", "runner.run", None),
        (BatchRunner, "plan", "batch.plan", None),
        (BatchRunner, "run", "batch.run", _batch_plan_shape),
        (ArtifactCache, "get", "cache.get", _cache_hit),
        (ArtifactCache, "put", "cache.put", None),
        (ArtifactCache, "size_bytes", "cache.size_scan", None),
        (ArtifactCache, "prune", "cache.size_scan", None),
        (JobJournal, "append", "service.journal.append", None),
    ]
    for cls, attr, name, on_result in methods:
        setattr(cls, attr, _wrap(cls.__dict__[attr], name, on_result))
    _patch_scheduler(FairScheduler)


def _patch_scheduler(cls) -> None:
    """Record each unit's push→pop wait as a ``service.queue`` span."""
    original_push = cls.__dict__["push"]
    original_pop = cls.__dict__["pop"]
    pushed: dict[int, float] = {}

    @functools.wraps(original_push)
    def push(self, client, weight, item, cost=1.0):
        if _recording() is not None:
            pushed[id(item)] = time.perf_counter()
        return original_push(self, client, weight, item, cost)

    @functools.wraps(original_pop)
    def pop(self):
        unit = original_pop(self)
        start = pushed.pop(id(unit.item), None) if unit is not None else None
        tracer = _recording()
        if start is not None and tracer is not None:
            end = time.perf_counter()
            tracer.record("service.queue", start, end, attrs={"client": unit.client})
        return unit

    cls.push = push
    cls.pop = pop
