"""Weighted-fair scheduling of work units across service clients.

Classic stride scheduling over *work units*, not whole jobs: each client
owns a FIFO of runnable units and a virtual time; picking always takes the
backlogged client with the smallest virtual time, then advances that time
by ``cost / weight``.  Each unit declares its cost (shots for circuit
units, trials for QEC units, 1 for compile units), the client's priority
is its weight, so over any window each backlogged tenant receives pool
shot throughput proportional to its priority — a priority-2 client
simulates twice the shots of a priority-1 client, regardless of how many
jobs either has queued or how large those jobs are.

Because a unit is at most one point (a per-shot point is split into
shards of a few thousand shots) or one window of a batch job's points, a
giant sweep cannot monopolise the pool: its units interleave with
everyone else's.  An idle client that becomes backlogged re-enters at
``max(own vtime, global vclock)`` — the standard virtual-clock re-entry
that prevents saved-up idle time from being spent as a burst that starves
currently active clients.

Ties (equal virtual time, e.g. at cold start) break on the client name, so
the dispatch order of a given submission pattern is deterministic and
testable.

An optional ``may_start(unit)`` predicate says whether a unit may start
now.  :meth:`FairScheduler.pop` skips a client whose head unit may not
(its virtual time is kept), but serves no client past the skipped one's
virtual finish (vtime + head cost / weight): from there it returns
``None``, the caller holds the free slot, and the skipped unit starts at
the next release however much others keep queued.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class _ClientQueue:
    """One tenant's backlog and stride-scheduling state."""

    name: str
    weight: float
    vtime: float = 0.0
    units: deque = field(default_factory=deque)


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of work: a runtime task plus accounting info."""

    client: str
    cost: float
    item: Any


class FairScheduler:
    """Stride scheduler distributing work units across weighted clients."""

    def __init__(self, may_start: Callable[[WorkUnit], bool] | None = None) -> None:
        self._clients: dict[str, _ClientQueue] = {}
        self._vclock = 0.0
        self._size = 0
        self._may_start = may_start

    def __len__(self) -> int:
        return self._size

    def push(self, client: str, weight: float, item: Any, cost: float = 1.0) -> None:
        """Queue one work unit for ``client`` with the given cost."""
        if weight <= 0:
            raise ValueError(f"client {client!r}: weight must be > 0, got {weight}")
        queue = self._clients.get(client)
        if queue is None:
            queue = _ClientQueue(name=client, weight=weight, vtime=self._vclock)
            self._clients[client] = queue
        else:
            queue.weight = weight
            if not queue.units:
                # Idle re-entry: forfeit banked idle time instead of
                # spending it as a starvation burst.
                queue.vtime = max(queue.vtime, self._vclock)
        queue.units.append(WorkUnit(client=client, cost=max(cost, 1.0), item=item))
        self._size += 1

    def _next(self) -> _ClientQueue | None:
        """The client :meth:`pop` serves now, if any (see the module notes)."""
        limit = float("inf")
        backlogged = (queue for queue in self._clients.values() if queue.units)
        for queue in sorted(backlogged, key=lambda queue: (queue.vtime, queue.name)):
            if queue.vtime > limit:
                return None
            head = queue.units[0]
            if self._may_start is None or self._may_start(head):
                return queue
            limit = min(limit, queue.vtime + head.cost / queue.weight)
        return None

    def ready(self) -> bool:
        """Whether :meth:`pop` would return a unit now."""
        return self._next() is not None

    def pop(self) -> WorkUnit | None:
        """Dequeue the next startable unit under weighted-fair order, or ``None``."""
        queue = self._next()
        if queue is None:
            return None
        unit = queue.units.popleft()
        queue.vtime += unit.cost / queue.weight
        self._vclock = max(self._vclock, queue.vtime)
        self._size -= 1
        return unit

    def backlog(self) -> dict[str, int]:
        """Pending unit count per client (empty clients omitted)."""
        return {name: len(queue.units) for name, queue in self._clients.items() if queue.units}
