"""Job model and point-level planning for the experiment service.

A *job* is one client submission: an :class:`~repro.runtime.spec.ExperimentSpec`
(``kind="experiment"``) or a :class:`~repro.runtime.batch.BatchSpec`
(``kind="batch"``), plus the client identity and priority the scheduler
uses for weighted-fair sharing.  Jobs are decomposed into *sweep points* —
the service's unit of dedup and streaming — and points into *work units*
(one per deterministic point, one per shard otherwise, one per window of
a batch job's fresh points), the unit of fair scheduling and pool dispatch.

Both spec types expand through their own ``points()``: a batch spec yields
one single-circuit point per fleet entry with ``point_index = circuit
index`` and ``root seed = resolved per-circuit seed``, which is exactly
the ``SeedSequence(entropy=seed_i, spawn_key=(i, shard))`` stream contract
of :class:`~repro.runtime.batch.BatchRunner` — so service results for
batch jobs are bit-identical to both the batch runner and the equivalent
serial sweep.

The **point key** is the service's content-addressed dedup identity: a
:meth:`~repro.runtime.cache.ArtifactCache.key_for` hash over the bound
point spec (minus the display name) plus the point index.  Everything that
can change the merged histogram — circuit, platform, compiler, simulation
config, shots, root seed, shard-layout knobs, and the ``(point, shard)``
seed coordinates via the index — is inside the hash; the job name and the
submitting client are not.  Identical work therefore collides across
tenants by construction.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.runtime.batch import BatchSpec
from repro.runtime.cache import ArtifactCache
from repro.runtime.spec import BUILDERS, PLATFORMS, ExperimentSpec, SweepPoint

#: Job lifecycle states, in order.
JOB_STATES = ("pending", "planning", "running", "done", "failed")

#: Events with these names terminate a subscription stream.
TERMINAL_EVENTS = frozenset({"done", "error"})


def point_key(point: SweepPoint) -> str:
    """Content-addressed identity of one sweep point's merged result."""
    payload = point.spec.to_dict()
    # The display name never affects results; the bound spec of a point has
    # an empty sweep by construction, so drop both from the hash.
    payload.pop("name", None)
    payload.pop("sweep", None)
    return ArtifactCache.key_for("point", spec=payload, index=point.index)


def parse_job_spec(payload: dict, kind: str) -> ExperimentSpec | BatchSpec:
    """Validate and materialise a submitted spec dict.

    The service resolves registry names only: a circuit builder outside
    :data:`~repro.runtime.spec.BUILDERS` or a platform factory outside
    :data:`~repro.runtime.spec.PLATFORMS` (such as a ``"module:function"``
    dotted reference) is refused here, before anything is imported, so a
    request never names code for the daemon to run.  cQASM circuits carry
    no reference and pass.
    """
    if kind == "experiment":
        spec = ExperimentSpec.from_dict(payload)
        circuits = [spec.circuit] if spec.circuit is not None else []
    elif kind == "batch":
        spec = BatchSpec.from_dict(payload)
        circuits = [entry.circuit for entry in spec.circuits]
    else:
        raise ValueError(f"unknown job kind {kind!r}: expected 'experiment' or 'batch'")
    for circuit in circuits:
        if circuit.builder is not None and circuit.builder not in BUILDERS:
            raise ValueError(
                f"circuit builder {circuit.builder!r} is not a registry name; "
                f"the service runs only {sorted(BUILDERS)}"
            )
    if spec.platform.factory not in PLATFORMS:
        raise ValueError(
            f"platform factory {spec.platform.factory!r} is not a registry name; "
            f"the service runs only {sorted(PLATFORMS)}"
        )
    return spec


@dataclass
class Job:
    """One client submission and its streamed lifecycle.

    ``events`` buffers every emitted event in order, so late subscribers
    (including clients reconnecting after a daemon restart) replay the full
    point stream; live subscribers additionally receive events through
    their per-subscription :class:`asyncio.Queue`.
    """

    job_id: str
    client: str
    priority: int
    kind: str
    payload: dict
    name: str = ""
    state: str = "pending"
    points_total: int = 0
    points_done: int = 0
    submitted_s: float = field(default_factory=time.monotonic)
    events: list[dict] = field(default_factory=list)
    point_results: list = field(default_factory=list)
    queues: list[asyncio.Queue] = field(default_factory=list)

    def deliver(self, event: dict) -> None:
        """Record an event and fan it out to live subscribers."""
        self.events.append(event)
        for queue in self.queues:
            queue.put_nowait(event)

    def fail(self, message: str) -> None:
        if self.state in ("done", "failed"):
            return
        self.state = "failed"
        self.deliver({"event": "error", "job_id": self.job_id, "message": message})

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def status(self) -> dict:
        return {
            "job_id": self.job_id,
            "client": self.client,
            "priority": self.priority,
            "kind": self.kind,
            "name": self.name,
            "state": self.state,
            "points_total": self.points_total,
            "points_done": self.points_done,
        }
