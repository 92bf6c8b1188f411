"""The runtime compile builds no schedule; the schedule is built where read.

``SchedulingPass.run`` only stamps platform durations onto the circuit.
``Compiler.compile`` reads the schedule right after the pass, so its
schedules and statistics must equal an eager ``Scheduler.schedule`` of the
same compiled kernel, while ``Compiler.compile_circuit`` and every runtime
driver built on it must never call the scheduler at all.
"""

import pytest

from helpers import REGISTRY_BUILDER_KWARGS, REGISTRY_PLATFORMS
from repro.mapping.scheduling import Schedule, Scheduler
from repro.openql.compiler import Compiler
from repro.openql.kernel import Kernel
from repro.openql.program import Program
from repro.runtime.batch import BatchSpec, run_batch
from repro.runtime.runner import ExperimentRunner
from repro.runtime.spec import CircuitSpec, CompilerSpec, ExperimentSpec, PlatformSpec

REGISTRY_CASES = [
    (builder, platform)
    for builder in sorted(REGISTRY_BUILDER_KWARGS)
    for platform in REGISTRY_PLATFORMS
]


class SchedulerCalled(AssertionError):
    pass


@pytest.fixture
def no_scheduler(monkeypatch):
    def refuse(self, circuit):
        raise SchedulerCalled("the runtime compile must not build a schedule")

    monkeypatch.setattr(Scheduler, "schedule", refuse)


def _circuit_and_platform(builder, platform):
    circuit = CircuitSpec(builder=builder, kwargs=REGISTRY_BUILDER_KWARGS[builder]).build()
    target = PlatformSpec(factory=platform).build(default_num_qubits=circuit.num_qubits)
    return circuit, target


def _two_kernel_program(circuit, platform):
    """Two kernels of one circuit: one schedule per kernel is expected."""
    program = Program(name="lazy", platform=platform)
    for name in ("first", "second"):
        kernel = Kernel(name, platform, num_qubits=circuit.num_qubits)
        kernel.extend(circuit)
        program.add_kernel(kernel)
    return program


# ---------------------------------------------------------------------- #
# Regression guard: the runtime compile never schedules
# ---------------------------------------------------------------------- #
def test_compile_circuit_never_schedules(no_scheduler):
    for builder, platform in REGISTRY_CASES:
        circuit, target = _circuit_and_platform(builder, platform)
        compiled = Compiler().compile_circuit(circuit, target)
        assert compiled.gate_count() > 0


def test_the_patch_is_live_for_compile(no_scheduler):
    # Positive control: the full compile reads its schedules, so it must hit
    # the patched scheduler; otherwise the guard above proves nothing.
    circuit, target = _circuit_and_platform("bell", "perfect")
    with pytest.raises(SchedulerCalled):
        Compiler().compile(_two_kernel_program(circuit, target))


def test_experiment_runner_point_never_schedules(no_scheduler):
    spec = ExperimentSpec(
        name="lazy",
        kind="circuit",
        circuit=CircuitSpec(builder="rotations", kwargs={"num_qubits": 4, "depth": 2, "seed": 0}),
        shots=64,
        seed=5,
        compiler=CompilerSpec(enabled=True),
    )
    result = ExperimentRunner(spec, workers=1, use_cache=False).run()
    [point] = result.points
    assert sum(point.counts.values()) == 64


def test_batch_fleet_never_schedules(no_scheduler):
    spec = BatchSpec.from_product(
        "lazy",
        "rotations",
        {"seed": [0, 1, 2]},
        base_kwargs={"num_qubits": 4, "depth": 2},
        shots=64,
        compiler=CompilerSpec(enabled=True),
    )
    batch = run_batch(spec, workers=1)
    assert [sum(circuit.counts.values()) for circuit in batch.circuits] == [64, 64, 64]


def test_compile_still_returns_one_validated_schedule_per_kernel():
    circuit, target = _circuit_and_platform("qft", "superconducting")
    result = Compiler().compile(_two_kernel_program(circuit, target))
    assert len(result.schedules) == len(result.kernels) == 2
    for schedule, kernel in zip(result.schedules, result.kernels, strict=True):
        assert isinstance(schedule, Schedule)
        assert schedule.circuit is kernel
        assert len(schedule.entries) == len(kernel.operations)
        schedule.validate()


# ---------------------------------------------------------------------- #
# Differential: the lazy schedule equals an eager one
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", ["asap", "alap"])
@pytest.mark.parametrize("builder,platform", REGISTRY_CASES)
def test_lazy_schedule_equals_eager_schedule(builder, platform, policy):
    circuit, target = _circuit_and_platform(builder, platform)
    result = Compiler(schedule_policy=policy).compile(_two_kernel_program(circuit, target))
    records = [record for record in result.pass_statistics if record["pass"] == "scheduling"]
    assert len(result.schedules) == len(records) == len(result.kernels) == 2
    for lazy, record, kernel in zip(result.schedules, records, result.kernels, strict=True):
        eager = Scheduler(policy).schedule(kernel)
        assert [(entry.operation, entry.start, entry.end) for entry in lazy.entries] == [
            (entry.operation, entry.start, entry.end) for entry in eager.entries
        ]
        assert lazy.policy == eager.policy == policy
        assert lazy.makespan == eager.makespan
        assert lazy.parallelism() == eager.parallelism()
        assert record == {
            "pass": "scheduling",
            "kernel": kernel.name,
            "makespan_ns": eager.makespan,
            "parallelism": round(eager.parallelism(), 3),
            "policy": policy,
        }
