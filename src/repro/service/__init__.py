"""Experiment service layer: the runtime as a long-lived multi-tenant daemon.

The runtime (:mod:`repro.runtime`) executes one spec per process
invocation; this package wraps it in an asyncio *job service* so many
clients share one warm daemon, one artifact cache and one process pool:

- :class:`JobService` (:mod:`repro.service.engine`) — the transport-
  agnostic engine: jobs decompose into content-addressed sweep points,
  identical points dedup across tenants (cache for completed work,
  subscription for in-flight work), and shard tasks are dispatched under
  weighted-fair scheduling (:mod:`repro.service.scheduler`);
- :mod:`repro.service.protocol` / :mod:`repro.service.http` — NDJSON
  socket protocol with per-point result streaming, plus an HTTP façade;
- :mod:`repro.service.journal` / :func:`serve`
  (:mod:`repro.service.daemon`) — fsynced job/point journal and daemon
  wiring, giving crash/restart resume that re-executes only uncached
  points while staying bit-identical to an uninterrupted run;
- :class:`ServiceClient` (:mod:`repro.service.client`) — synchronous
  client for scripts and tests.

See ``docs/service.md`` for the protocol, fairness and dedup/resume
semantics, and ``scripts/serve.py`` / ``scripts/submit.py`` for the CLI.
"""

from repro.service.client import ServiceClient
from repro.service.daemon import serve
from repro.service.engine import JobService
from repro.service.jobs import Job, point_key
from repro.service.journal import JobJournal
from repro.service.scheduler import FairScheduler

__all__ = [
    "FairScheduler",
    "Job",
    "JobJournal",
    "JobService",
    "ServiceClient",
    "point_key",
    "serve",
]
