"""Operation queues feeding the analogue back-end.

Figures 6 and 7 of the paper show a set of queues between the micro-code
unit and the analogue-digital interface: codewords are pushed per control
channel and drained in timestamp order.  The queue model records occupancy
statistics so the benchmarks can report the buffering the micro-architecture
needs ("make sure that the quantum accelerator always has enough data to
process").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class QueueStatistics:
    """Occupancy statistics of one queue."""

    pushes: int = 0
    pops: int = 0
    max_depth: int = 0
    underruns: int = 0

    @property
    def current_depth(self) -> int:
        return self.pushes - self.pops


class OperationQueue:
    """FIFO of (timestamp, payload) entries for one control channel."""

    def __init__(self, name: str, capacity: int | None = None):
        self.name = name
        self.capacity = capacity
        self._entries: deque[tuple[int, object]] = deque()
        self.stats = QueueStatistics()

    def push(self, timestamp: int, payload: object) -> None:
        if self.capacity is not None and len(self._entries) >= self.capacity:
            raise OverflowError(f"queue {self.name!r} overflow (capacity {self.capacity})")
        self._entries.append((timestamp, payload))
        self.stats.pushes += 1
        self.stats.max_depth = max(self.stats.max_depth, len(self._entries))

    def pop(self) -> tuple[int, object]:
        if not self._entries:
            self.stats.underruns += 1
            raise IndexError(f"queue {self.name!r} underrun")
        self.stats.pops += 1
        return self._entries.popleft()

    def __len__(self) -> int:
        return len(self._entries)

    def is_empty(self) -> bool:
        return not self._entries

    def drain(self) -> list[tuple[int, object]]:
        """Pop everything, in order."""
        items = []
        while self._entries:
            items.append(self.pop())
        return items


class QueueSet:
    """A bank of per-channel queues with aggregate statistics."""

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity
        self.queues: dict[str, OperationQueue] = {}

    def queue(self, name: str) -> OperationQueue:
        if name not in self.queues:
            self.queues[name] = OperationQueue(name, capacity=self.capacity)
        return self.queues[name]

    def push(self, channel: str, timestamp: int, payload: object) -> None:
        self.queue(channel).push(timestamp, payload)

    def total_depth(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def max_depth_seen(self) -> int:
        return max((q.stats.max_depth for q in self.queues.values()), default=0)

    def busiest_channel(self) -> str | None:
        if not self.queues:
            return None
        return max(self.queues.values(), key=lambda q: q.stats.pushes).name
