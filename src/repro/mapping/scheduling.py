"""Operation scheduling (ASAP / ALAP list scheduling).

The scheduler assigns a start cycle (in nanoseconds) to every operation of a
circuit, exploiting the "inherent parallelism of the logical qubits" the
paper describes: operations on disjoint qubits may be issued in the same
cycle, subject to optional resource constraints such as a limited number of
parallel two-qubit gates (a stand-in for the limited number of control
frequencies / AWG channels of a real device).

Dependencies come from one pass over the circuit (:func:`_predecessors`).
Program order is a topological order of them, so ASAP is one forward loop
over the operations and ALAP one backward loop.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.core.circuit import Circuit
from repro.core.operations import Barrier, ConditionalGate, GateOperation, Measurement, Operation


@dataclass
class ScheduledOperation:
    """An operation with assigned start/end times (ns)."""

    operation: Operation
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Schedule:
    """Timed schedule of a circuit."""

    circuit: Circuit
    entries: list[ScheduledOperation] = field(default_factory=list)
    policy: str = "asap"

    @property
    def makespan(self) -> int:
        """Total execution latency in nanoseconds."""
        return max((entry.end for entry in self.entries), default=0)

    def cycles(self) -> dict[int, list[ScheduledOperation]]:
        """Group entries by start time."""
        grouped: dict[int, list[ScheduledOperation]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.start, []).append(entry)
        return dict(sorted(grouped.items()))

    def parallelism(self) -> float:
        """Average number of operations issued per occupied start time."""
        cycles = self.cycles()
        if not cycles:
            return 0.0
        return len(self.entries) / len(cycles)

    def validate(self) -> None:
        """Check that no qubit executes two operations at once and deps hold.

        Dependency order is checked against the circuit's predecessor lists
        — including the classical RAW/WAR/WAW hazards — so a schedule that
        lets a measurement overwrite a bit before the conditional gate that
        reads it is rejected, not silently accepted.
        """
        # Each qubit's intervals so far, sorted and pairwise disjoint: only
        # the neighbours at a new interval's insertion point can overlap it
        # (zero-duration ones included), so this raises on the same entry
        # and qubit as comparing each entry with every earlier one.
        busy: dict[int, list[tuple[int, int]]] = {}
        for entry in self.entries:
            interval = (entry.start, entry.end)
            for qubit in () if isinstance(entry.operation, Barrier) else entry.operation.qubits:
                intervals = busy.setdefault(qubit, [])
                at = bisect_right(intervals, interval)
                if at and entry.start < intervals[at - 1][1]:
                    start, end = intervals[at - 1]
                elif at < len(intervals) and intervals[at][0] < entry.end:
                    start, end = intervals[at]
                else:
                    intervals.insert(at, interval)
                    continue
                raise ValueError(
                    f"qubit {qubit} double-booked: [{start},{end}) vs "
                    f"[{entry.start},{entry.end})"
                )
        # Pair operations with entries by identity; repeated operation
        # objects (e.g. flattened kernel iterations) pair in start-time
        # order, the only order a valid schedule can use.
        entries_for: dict[int, list[ScheduledOperation]] = {}
        for entry in sorted(self.entries, key=lambda item: item.start):
            entries_for.setdefault(id(entry.operation), []).append(entry)
        operations = self.circuit.operations
        scheduled: list[ScheduledOperation | None] = []
        for op in operations:
            bucket = entries_for.get(id(op))
            scheduled.append(bucket.pop(0) if bucket else None)
        for node, preds in enumerate(_predecessors(operations)):
            if (entry := scheduled[node]) is None:
                continue
            for pred in preds:
                before = scheduled[pred]
                if before is not None and entry.start < before.end:
                    raise ValueError(
                        f"dependency violated: {operations[node].name!r} starts at "
                        f"{entry.start} before {operations[pred].name!r} "
                        f"ends at {before.end}"
                    )


class Scheduler:
    """ASAP/ALAP list scheduler with an optional two-qubit-gate issue limit."""

    def __init__(self, policy: str = "asap", max_parallel_two_qubit: int | None = None):
        if policy not in ("asap", "alap"):
            raise ValueError("policy must be 'asap' or 'alap'")
        if max_parallel_two_qubit is not None and max_parallel_two_qubit < 1:
            raise ValueError(f"max_parallel_two_qubit must be >= 1, got {max_parallel_two_qubit}")
        self.policy = policy
        self.max_parallel_two_qubit = max_parallel_two_qubit

    def schedule(self, circuit: Circuit) -> Schedule:
        operations = circuit.operations
        predecessors = _predecessors(operations)
        durations = [op.duration for op in operations]
        starts = _settle(predecessors, durations, [0] * len(operations))
        if self.policy == "alap":
            starts = _alap(predecessors, durations, starts)
        if self.max_parallel_two_qubit is not None:
            starts = _enforce_issue_limit(
                self.max_parallel_two_qubit, operations, predecessors, durations, starts
            )
        entries = [
            ScheduledOperation(
                operation=operations[node],
                start=starts[node],
                end=starts[node] + durations[node],
            )
            for node in sorted(range(len(operations)), key=lambda node: (starts[node], node))
        ]
        schedule = Schedule(circuit=circuit, entries=entries, policy=self.policy)
        schedule.validate()
        return schedule


def _predecessors(operations: list[Operation]) -> list[list[int]]:
    """Each operation's predecessor indices, from one pass in program order.

    An operation follows the last earlier use of each of its qubits, or the
    last barrier for a qubit not used since.  A barrier follows every
    qubit's last use and the previous barrier; a qubit outside its targets
    that was used before it is not held back by it.  Classical hazards on
    bits: RAW — a conditional gate follows the measurement that wrote its
    bit; WAR — a measurement overwriting a bit follows every conditional
    gate that read the previous value; WAW — writes to one bit stay
    ordered, so the last write wins.
    """
    predecessors: list[list[int]] = []
    last_use: dict[int, int] = {}
    last_writer: dict[int, int] = {}
    readers: dict[int, list[int]] = {}
    last_barrier: int | None = None
    for index, op in enumerate(operations):
        preds: set[int] = set()
        if isinstance(op, Measurement):
            preds.update(readers.pop(op.bit, ()))
            if op.bit in last_writer:
                preds.add(last_writer[op.bit])
            last_writer[op.bit] = index
        elif isinstance(op, ConditionalGate):
            if op.condition_bit in last_writer:
                preds.add(last_writer[op.condition_bit])
            readers.setdefault(op.condition_bit, []).append(index)
        if isinstance(op, Barrier):
            preds.update(last_use.values())
            if last_barrier is not None:
                preds.add(last_barrier)
            last_barrier = index
            for qubit in op.qubits:
                last_use[qubit] = index
        else:
            for qubit in op.qubits:
                pred = last_use.get(qubit, last_barrier)
                if pred is not None:
                    preds.add(pred)
                last_use[qubit] = index
        preds.discard(index)
        predecessors.append(sorted(preds))
    return predecessors


def _settle(
    predecessors: list[list[int]], durations: list[int], starts: list[int]
) -> list[int]:
    """Forward pass: delay each start to its predecessors' latest end.

    From all-zero starts this is the ASAP schedule.
    """
    settled: list[int] = []
    ends: list[int] = []
    for preds, duration, start in zip(predecessors, durations, starts, strict=True):
        start = max(start, max((ends[pred] for pred in preds), default=0))
        settled.append(start)
        ends.append(start + duration)
    return settled


def _alap(predecessors: list[list[int]], durations: list[int], asap: list[int]) -> list[int]:
    """Backward pass: start each operation as late as its successors allow,
    within the ASAP makespan, then shift so the earliest start is 0."""
    total = max((start + duration for start, duration in zip(asap, durations)), default=0)
    # The earliest successor start, or the makespan for an operation without
    # successors (durations are non-negative, so no start exceeds it).
    latest = [total] * len(durations)
    starts = [0] * len(durations)
    for node in reversed(range(len(durations))):
        start = starts[node] = latest[node] - durations[node]
        for pred in predecessors[node]:
            if start < latest[pred]:
                latest[pred] = start
    offset = min(starts, default=0)
    return [start - offset for start in starts]


def _enforce_issue_limit(
    limit: int,
    operations: list[Operation],
    predecessors: list[list[int]],
    durations: list[int],
    starts: list[int],
) -> list[int]:
    """Delay two-qubit gates so at most ``limit`` are issued at the same time."""
    two_qubit = [
        node
        for node, op in enumerate(operations)
        if isinstance(op, (GateOperation, ConditionalGate)) and len(op.qubits) == 2
    ]
    changed = True
    while changed:
        changed = False
        by_start: dict[int, list[int]] = {}
        for node in two_qubit:
            by_start.setdefault(starts[node], []).append(node)
        for start, nodes in sorted(by_start.items()):
            # ``nodes`` is in program order: the earliest ones keep the slot.
            for node in nodes[limit:]:
                starts[node] = start + durations[node]
                changed = True
        if changed:
            starts = _settle(predecessors, durations, starts)
    return starts
