"""Reference scheduler: the networkx dependency DAG and the list scheduler on it.

:class:`repro.mapping.scheduling.Scheduler` reads each operation's
predecessors from one pass over the circuit.  This module keeps the
``CircuitDAG`` it replaced (one node per operation, an edge per qubit,
barrier and classical-bit dependency) and the ASAP/ALAP scheduler that
walked it, as the oracle the one-pass scheduler is differential-tested
against (``tests/test_schedule_oracle.py``).
"""

from __future__ import annotations

import networkx as nx

from repro.core.circuit import Circuit
from repro.core.operations import (
    Barrier,
    ConditionalGate,
    GateOperation,
    Measurement,
    Operation,
)
from repro.mapping.scheduling import Schedule, ScheduledOperation


class CircuitDAG:
    """Dependency graph over the operations of a circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.graph = nx.DiGraph()
        self._build()

    def _build(self) -> None:
        last_use: dict[int, int] = {}
        last_bit_writer: dict[int, int] = {}
        bit_readers_since_write: dict[int, list[int]] = {}
        last_barrier: int | None = None
        for index, op in enumerate(self.circuit.operations):
            self.graph.add_node(index, operation=op)
            predecessors: set[int] = set()
            # Classical data hazards.  RAW: a conditional gate must follow
            # the measurement that produced its condition bit.  WAR: a
            # measurement overwriting a bit must follow every conditional
            # gate that read the previous value.  WAW: successive writes to
            # one bit stay ordered so "last write wins" survives scheduling.
            if isinstance(op, Measurement):
                predecessors.update(bit_readers_since_write.pop(op.bit, ()))
                if op.bit in last_bit_writer:
                    predecessors.add(last_bit_writer[op.bit])
                last_bit_writer[op.bit] = index
            if isinstance(op, ConditionalGate):
                if op.condition_bit in last_bit_writer:
                    predecessors.add(last_bit_writer[op.condition_bit])
                bit_readers_since_write.setdefault(op.condition_bit, []).append(index)
            if isinstance(op, Barrier):
                # A barrier depends on every operation since the last barrier.
                predecessors.update(last_use.values())
                if last_barrier is not None:
                    predecessors.add(last_barrier)
                last_barrier = index
                for qubit in op.qubits:
                    last_use[qubit] = index
            else:
                for qubit in op.qubits:
                    if qubit in last_use:
                        predecessors.add(last_use[qubit])
                    elif last_barrier is not None:
                        predecessors.add(last_barrier)
                    last_use[qubit] = index
            for pred in predecessors:
                if pred == index:
                    continue
                pred_op = self.graph.nodes[pred]["operation"]
                self.graph.add_edge(pred, index, weight=pred_op.duration)

    # ------------------------------------------------------------------ #
    def operation(self, node: int) -> Operation:
        return self.graph.nodes[node]["operation"]

    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    def topological_order(self) -> list[int]:
        return list(nx.topological_sort(self.graph))

    def predecessors(self, node: int) -> list[int]:
        return list(self.graph.predecessors(node))

    def successors(self, node: int) -> list[int]:
        return list(self.graph.successors(node))

    def front_layer(self) -> list[int]:
        """Operations with no unscheduled predecessors (roots of the DAG)."""
        return [n for n in self.graph.nodes if self.graph.in_degree(n) == 0]

    def critical_path_length(self) -> int:
        """Total duration (ns) of the longest dependency chain."""
        if self.graph.number_of_nodes() == 0:
            return 0
        finish: dict[int, int] = {}
        for node in self.topological_order():
            op = self.operation(node)
            start = max((finish[p] for p in self.graph.predecessors(node)), default=0)
            finish[node] = start + op.duration
        return max(finish.values(), default=0)

    def asap_levels(self) -> dict[int, int]:
        """Earliest gate layer for each node (unit-latency ASAP levels)."""
        levels: dict[int, int] = {}
        for node in self.topological_order():
            preds = list(self.graph.predecessors(node))
            levels[node] = 0 if not preds else max(levels[p] for p in preds) + 1
        return levels

    def alap_levels(self) -> dict[int, int]:
        """Latest gate layer for each node given the ASAP total depth."""
        asap = self.asap_levels()
        total = max(asap.values(), default=0)
        levels: dict[int, int] = {}
        for node in reversed(self.topological_order()):
            succs = list(self.graph.successors(node))
            levels[node] = total if not succs else min(levels[s] for s in succs) - 1
        return levels

    def layers(self) -> list[list[int]]:
        """Group node indices into ASAP layers of mutually independent operations."""
        asap = self.asap_levels()
        if not asap:
            return []
        result: list[list[int]] = [[] for _ in range(max(asap.values()) + 1)]
        for node, level in asap.items():
            result[level].append(node)
        return result

    def parallelism(self) -> float:
        """Average number of operations per layer — the paper's 'inherent parallelism'."""
        layers = self.layers()
        if not layers:
            return 0.0
        return self.num_nodes() / len(layers)


def validate(schedule: Schedule, dag: CircuitDAG | None = None) -> None:
    """``Schedule.validate`` as it was: exclusivity, then every DAG edge."""
    busy: dict[int, list[tuple[int, int]]] = {}
    for entry in schedule.entries:
        if isinstance(entry.operation, Barrier):
            continue
        for qubit in entry.operation.qubits:
            for start, end in busy.get(qubit, []):
                if entry.start < end and start < entry.end:
                    raise ValueError(
                        f"qubit {qubit} double-booked: [{start},{end}) vs "
                        f"[{entry.start},{entry.end})"
                    )
            busy.setdefault(qubit, []).append((entry.start, entry.end))
    if dag is None:
        dag = CircuitDAG(schedule.circuit)
    entries_for: dict[int, list[ScheduledOperation]] = {}
    for entry in sorted(schedule.entries, key=lambda item: item.start):
        entries_for.setdefault(id(entry.operation), []).append(entry)
    scheduled: dict[int, ScheduledOperation] = {}
    for node in range(dag.num_nodes()):
        bucket = entries_for.get(id(dag.operation(node)))
        if bucket:
            scheduled[node] = bucket.pop(0)
    for pred, succ in dag.graph.edges:
        if pred not in scheduled or succ not in scheduled:
            continue
        if scheduled[succ].start < scheduled[pred].end:
            raise ValueError(
                f"dependency violated: {dag.operation(succ).name!r} starts at "
                f"{scheduled[succ].start} before {dag.operation(pred).name!r} "
                f"ends at {scheduled[pred].end}"
            )


class Scheduler:
    """ASAP/ALAP list scheduler over :class:`CircuitDAG`."""

    def __init__(self, policy: str = "asap", max_parallel_two_qubit: int | None = None):
        if policy not in ("asap", "alap"):
            raise ValueError("policy must be 'asap' or 'alap'")
        self.policy = policy
        self.max_parallel_two_qubit = max_parallel_two_qubit

    def schedule(self, circuit: Circuit) -> Schedule:
        dag = CircuitDAG(circuit)
        if self.policy == "asap":
            start_times = self._asap_times(dag)
        else:
            start_times = self._alap_times(dag)
        if self.max_parallel_two_qubit is not None:
            start_times = self._enforce_issue_limit(dag, start_times)
        entries = [
            ScheduledOperation(
                operation=dag.operation(node),
                start=start,
                end=start + dag.operation(node).duration,
            )
            for node, start in sorted(start_times.items(), key=lambda kv: (kv[1], kv[0]))
        ]
        schedule = Schedule(circuit=circuit, entries=entries, policy=self.policy)
        validate(schedule, dag)
        return schedule

    # ------------------------------------------------------------------ #
    def _asap_times(self, dag: CircuitDAG) -> dict[int, int]:
        times: dict[int, int] = {}
        for node in dag.topological_order():
            preds = dag.predecessors(node)
            times[node] = max(
                (times[p] + dag.operation(p).duration for p in preds), default=0
            )
        return times

    def _alap_times(self, dag: CircuitDAG) -> dict[int, int]:
        asap = self._asap_times(dag)
        total = max(
            (asap[n] + dag.operation(n).duration for n in asap), default=0
        )
        times: dict[int, int] = {}
        for node in reversed(dag.topological_order()):
            succs = dag.successors(node)
            duration = dag.operation(node).duration
            if not succs:
                times[node] = total - duration
            else:
                times[node] = min(times[s] for s in succs) - duration
        # Normalise so the earliest operation starts at 0.
        offset = min(times.values(), default=0)
        return {n: t - offset for n, t in times.items()}

    def _enforce_issue_limit(self, dag: CircuitDAG, times: dict[int, int]) -> dict[int, int]:
        """Delay two-qubit gates so at most N are issued at the same time."""
        limit = self.max_parallel_two_qubit
        assert limit is not None
        adjusted = dict(times)
        changed = True
        while changed:
            changed = False
            by_start: dict[int, list[int]] = {}
            for node, start in adjusted.items():
                op = dag.operation(node)
                if isinstance(op, (GateOperation, ConditionalGate)) and len(op.qubits) == 2:
                    by_start.setdefault(start, []).append(node)
            for start, nodes in sorted(by_start.items()):
                if len(nodes) <= limit:
                    continue
                for node in sorted(nodes)[limit:]:
                    adjusted[node] = start + dag.operation(node).duration
                    changed = True
            if changed:
                adjusted = self._repair_dependencies(dag, adjusted)
        return adjusted

    def _repair_dependencies(self, dag: CircuitDAG, times: dict[int, int]) -> dict[int, int]:
        repaired = dict(times)
        for node in dag.topological_order():
            earliest = max(
                (repaired[p] + dag.operation(p).duration for p in dag.predecessors(node)),
                default=0,
            )
            if repaired[node] < earliest:
                repaired[node] = earliest
        return repaired
