"""Timing control unit.

Issues micro-operations at absolute nanosecond timestamps.  The unit keeps a
global clock, enforces that a channel is never driven by two codewords at
once, and produces the event trace the ADI converts into pulses.  This is the
block for which "the timing execution requirements are very strict and need
to be precise up to the nanosecond level" (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.microarch.microcode import MicroOperation
from repro.microarch.queues import QueueSet


@dataclass(frozen=True)
class TimedEvent:
    """A micro-operation pinned to an absolute issue time."""

    time_ns: int
    operation: MicroOperation
    qubits: tuple[int, ...]


class TimingControlUnit:
    """Deterministic issue of micro-operations with channel conflict checks."""

    def __init__(self, cycle_time_ns: int = 20, queue_capacity: int | None = None):
        if cycle_time_ns < 1:
            raise ValueError("cycle time must be at least 1 ns")
        self.cycle_time_ns = cycle_time_ns
        self.clock_ns = 0
        self.events: list[TimedEvent] = []
        self.queues = QueueSet(capacity=queue_capacity)
        self._channel_busy_until: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def advance(self, cycles: int) -> None:
        """Advance the global clock by an integer number of cycles."""
        if cycles < 0:
            raise ValueError("cannot advance time backwards")
        self.clock_ns += cycles * self.cycle_time_ns

    def issue(self, operations: list[MicroOperation], qubits: tuple[int, ...]) -> int:
        """Issue a bundle of micro-operations at the current clock.

        Returns the duration (ns) of the longest operation in the bundle.
        Raises ``ValueError`` when a channel is still busy — a timing
        violation that a correct schedule must never produce.
        """
        longest = 0
        for operation in operations:
            start = self.clock_ns + operation.offset_ns
            busy_until = self._channel_busy_until.get(operation.channel, 0)
            if start < busy_until:
                raise ValueError(
                    f"channel {operation.channel!r} busy until {busy_until} ns, "
                    f"cannot issue at {start} ns"
                )
            self._channel_busy_until[operation.channel] = start + operation.duration_ns
            self.queues.push(operation.channel, start, operation)
            self.events.append(TimedEvent(time_ns=start, operation=operation, qubits=qubits))
            longest = max(longest, operation.offset_ns + operation.duration_ns)
        return longest

    # ------------------------------------------------------------------ #
    def trace(self) -> list[TimedEvent]:
        return sorted(self.events, key=lambda e: (e.time_ns, e.operation.channel))

    def total_duration_ns(self) -> int:
        return max(self._channel_busy_until.values(), default=self.clock_ns)

    def channel_utilisation(self) -> dict[str, float]:
        """Busy fraction per channel over the total execution window."""
        total = self.total_duration_ns()
        if total == 0:
            return {}
        busy: dict[str, int] = {}
        for event in self.events:
            busy[event.operation.channel] = busy.get(event.operation.channel, 0) + (
                event.operation.duration_ns
            )
        return {channel: duration / total for channel, duration in busy.items()}
