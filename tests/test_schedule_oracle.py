"""The one-pass scheduler against the networkx DAG scheduler it replaced.

``tests/oracles/schedule_reference.py`` keeps the old ``CircuitDAG`` and the
list scheduler that walked it.  Every schedule here must equal the oracle's
entry for entry — operation identity, start and end — with the same
makespan and parallelism, under both policies and every two-qubit issue
limit; and ``Schedule.validate`` must reject each kind of broken schedule
the DAG-based check rejected.
"""

import numpy as np
import pytest

from helpers import REGISTRY_BUILDER_KWARGS, REGISTRY_PLATFORMS
from oracles import schedule_reference as oracle
from repro.core.circuit import Circuit
from repro.core.gates import build_gate
from repro.core.operations import ClassicalOperation, ConditionalGate, GateOperation, Measurement
from repro.mapping.scheduling import Schedule, ScheduledOperation, Scheduler
from repro.openql.compiler import Compiler
from repro.runtime.spec import CircuitSpec, PlatformSpec

SETTINGS = [(policy, limit) for policy in ("asap", "alap") for limit in (None, 1, 2)]


def _entries(schedule: Schedule) -> list[tuple[int, int, int]]:
    return [(id(entry.operation), entry.start, entry.end) for entry in schedule.entries]


def _assert_same_schedule(circuit: Circuit, policy: str, limit: int | None) -> Schedule:
    schedule = Scheduler(policy, max_parallel_two_qubit=limit).schedule(circuit)
    reference = oracle.Scheduler(policy, max_parallel_two_qubit=limit).schedule(circuit)
    assert _entries(schedule) == _entries(reference)
    assert schedule.policy == reference.policy == policy
    assert schedule.makespan == reference.makespan
    assert schedule.parallelism() == reference.parallelism()
    return schedule


def _compiled(builder: str, platform: str) -> Circuit:
    circuit = CircuitSpec(builder=builder, kwargs=REGISTRY_BUILDER_KWARGS[builder]).build()
    target = PlatformSpec(factory=platform).build(default_num_qubits=circuit.num_qubits)
    return Compiler().compile_circuit(circuit, target)


def random_scheduling_circuit(seed: int) -> Circuit:
    """A hybrid circuit built to stress every dependency rule.

    Measurements write a small pool of bits, so bits are rewritten often
    (WAW) and after conditional reads (WAR); one- and two-qubit
    conditionals read them (RAW); partial and full barriers are mixed in,
    and read-out durations vary.  Half the seeds flatten a two-kernel
    program: the second kernel repeats the first's operation objects.
    """
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 6))
    num_bits = int(rng.integers(1, 4))
    circuit = Circuit(num_qubits, f"sched_{seed}", num_bits=num_bits)
    for _ in range(int(rng.integers(4, 30))):
        qubit = int(rng.integers(num_qubits))
        other = (qubit + 1 + int(rng.integers(num_qubits - 1))) % num_qubits
        bit = int(rng.integers(num_bits))
        roll = rng.random()
        if roll < 0.25:
            name = ["h", "x", "s", "t", "ry"][int(rng.integers(5))]
            params = (float(rng.uniform(0, 6)),) if name == "ry" else ()
            circuit.append(GateOperation(build_gate(name, *params), (qubit,)))
        elif roll < 0.45:
            name = ["cnot", "cz"][int(rng.integers(2))]
            circuit.append(GateOperation(build_gate(name), (qubit, other)))
        elif roll < 0.6:
            circuit.append(Measurement(qubit, bit=bit, duration=int(rng.choice([100, 300]))))
        elif roll < 0.7:
            circuit.append(ConditionalGate(build_gate("x"), (qubit,), bit))
        elif roll < 0.78:
            circuit.append(ConditionalGate(build_gate("cnot"), (qubit, other), bit))
        elif roll < 0.86:
            size = int(rng.integers(1, num_qubits + 1))
            circuit.barrier(*sorted(int(q) for q in rng.choice(num_qubits, size, replace=False)))
        elif roll < 0.92:
            circuit.barrier()
        else:
            circuit.append(ClassicalOperation("nop"))
    if seed % 2:
        circuit.operations = circuit.operations + circuit.operations
    return circuit


# ---------------------------------------------------------------------- #
# Schedules equal the oracle's
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("policy,limit", SETTINGS)
@pytest.mark.parametrize("builder", sorted(REGISTRY_BUILDER_KWARGS))
@pytest.mark.parametrize("platform", REGISTRY_PLATFORMS)
def test_registry_schedules_equal_the_oracle(builder, platform, policy, limit):
    _assert_same_schedule(_compiled(builder, platform), policy, limit)


@pytest.mark.parametrize("policy,limit", SETTINGS)
def test_random_hybrid_schedules_equal_the_oracle(policy, limit):
    for seed in range(200):
        _assert_same_schedule(random_scheduling_circuit(seed), policy, limit)


def test_random_circuits_cover_every_rule():
    # Guard for the generator: the seeds above exercise each hazard kind,
    # partial barriers and repeated operation objects.
    seen = set()
    for seed in range(60):
        circuit = random_scheduling_circuit(seed)
        dag = oracle.CircuitDAG(circuit)
        for pred, succ in dag.graph.edges:
            before, after = dag.operation(pred), dag.operation(succ)
            kinds = (type(before).__name__, type(after).__name__)
            seen.add(kinds)
        repeated = len({id(op) for op in circuit.operations}) < len(circuit.operations)
        seen.add(("repeated", repeated))
        partial = any(
            op.name == "barrier" and len(op.qubits) < circuit.num_qubits
            for op in circuit.operations
        )
        seen.add(("partial barrier", partial))
    for kinds in [
        ("Measurement", "ConditionalGate"),
        ("ConditionalGate", "Measurement"),
        ("Measurement", "Measurement"),
        ("Barrier", "GateOperation"),
        ("GateOperation", "Barrier"),
        ("repeated", True),
        ("partial barrier", True),
    ]:
        assert kinds in seen


def test_empty_circuit():
    for policy, limit in SETTINGS:
        schedule = _assert_same_schedule(Circuit(2), policy, limit)
        assert schedule.entries == [] and schedule.makespan == 0


# ---------------------------------------------------------------------- #
# validate() rejects broken schedules
# ---------------------------------------------------------------------- #
def _moved(circuit: Circuit, index: int, start: int) -> Schedule:
    """The ASAP schedule of ``circuit`` with operation ``index`` moved to ``start``."""
    schedule = Scheduler("asap").schedule(circuit)
    target = circuit.operations[index]
    entries = [
        ScheduledOperation(entry.operation, start, start + entry.duration)
        if entry.operation is target
        else entry
        for entry in schedule.entries
    ]
    return Schedule(circuit=circuit, entries=entries, policy="asap")


def _double_booked():
    circuit = Circuit(1)
    circuit.h(0).x(0)
    return _moved(circuit, 1, 0), "double-booked"


def _raw():
    circuit = Circuit(2)
    circuit.measure(0, bit=0)
    circuit.conditional_gate("x", 0, 1)
    return _moved(circuit, 1, 0), "dependency violated: 'c-x'"


def _war():
    circuit = Circuit(3)
    circuit.x(0).measure(0, bit=0)
    circuit.conditional_gate("x", 0, 1)
    circuit.measure(2, bit=0)
    return _moved(circuit, 3, 0), "dependency violated: 'measure'"


def _waw():
    circuit = Circuit(2)
    circuit.measure(0, bit=0)
    circuit.measure(1, bit=0)
    return _moved(circuit, 1, 0), "dependency violated: 'measure'"


def _barrier():
    circuit = Circuit(2)
    circuit.h(0)
    circuit.barrier()
    circuit.h(1)
    return _moved(circuit, 2, 0), "dependency violated: 'h' starts at 0 before 'barrier'"


@pytest.mark.parametrize("broken", [_double_booked, _raw, _war, _waw, _barrier])
def test_validate_rejects_each_kind_of_broken_schedule(broken):
    schedule, message = broken()
    Scheduler("asap").schedule(schedule.circuit).validate()  # the unbroken one passes
    with pytest.raises(ValueError, match=message):
        schedule.validate()
    with pytest.raises(ValueError, match=message):
        oracle.validate(schedule)


def test_validate_agrees_with_the_oracle_on_perturbed_schedules():
    rng = np.random.default_rng(7)
    rejected = 0
    for seed in range(80):
        circuit = random_scheduling_circuit(seed)
        if not circuit.operations:
            continue
        index = int(rng.integers(len(circuit.operations)))
        schedule = _moved(circuit, index, int(rng.integers(0, 400)))
        outcomes = []
        for check in (schedule.validate, lambda: oracle.validate(schedule)):
            try:
                check()
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc).split(":")[0])
        assert outcomes[0] == outcomes[1], seed
        rejected += outcomes[0] is not None
    assert rejected > 10


def test_validate_agrees_with_the_oracle_on_random_intervals():
    """Random start times and durations, zero included, on three qubits:
    ``validate`` checks each interval against its sorted neighbours only,
    and must reject exactly the schedules the oracle's all-pairs check
    rejects, for the same reason."""
    rng = np.random.default_rng(11)
    rejected = accepted = 0
    for _ in range(400):
        circuit = Circuit(3)
        for _ in range(int(rng.integers(1, 7))):
            if rng.random() < 0.3:
                first, second = rng.choice(3, size=2, replace=False)
                circuit.cnot(int(first), int(second))
            else:
                circuit.h(int(rng.integers(3)))
        entries = []
        for op in circuit.operations:
            start = int(rng.integers(0, 6))
            entries.append(ScheduledOperation(op, start, start + int(rng.integers(0, 3))))
        schedule = Schedule(circuit=circuit, entries=entries, policy="asap")
        outcomes = []
        for check in (schedule.validate, lambda: oracle.validate(schedule)):
            try:
                check()
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc).split(":")[0])
        assert outcomes[0] == outcomes[1]
        rejected += outcomes[0] is not None and "double-booked" in outcomes[0]
        accepted += outcomes[0] is None
    assert rejected > 50 and accepted > 20
