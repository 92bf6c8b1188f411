"""Hybrid-circuit mapping semantics: routing, hazards and register widths.

Regressions for the mapping-layer bugs this track fixed:

* the router silently deleted every ``ConditionalGate`` (teleportation and
  QEC-feedback programs were corrupted by compilation);
* the scheduler let a measurement that overwrites a classical bit execute
  before the conditional gate that reads it (classical WAR hazard);
* ``CompilationResult.flat_circuit()`` dropped the kernels' ``num_bits``;
* the cQASM writer dropped the measurement bit operand, so cross-mapped
  measurements (``bit != qubit``, the routed-circuit norm) lost their
  classical destination on the compile -> cQASM -> simulate path.

Plus property tests: routed circuits are permutation-equivalent to the
original under ``QXSimulator`` — statevector up to the final placement
permutation, histogram-identical for measured and hybrid feedback circuits.
"""

import math

import numpy as np
import pytest

from helpers import relabel_statevector
from repro.core.circuit import Circuit, random_circuit
from oracles.schedule_reference import CircuitDAG
from repro.core.operations import ConditionalGate
from repro.cqasm.parser import cqasm_to_circuit
from repro.cqasm.writer import circuit_to_cqasm
from repro.mapping.routing import Router
from repro.mapping.scheduling import ScheduledOperation, Scheduler
from repro.mapping.topology import grid_topology, linear_topology
from repro.qx.simulator import QXSimulator


def teleportation_circuit(angle: float) -> Circuit:
    circuit = Circuit(3, "teleport")
    circuit.ry(0, angle)
    circuit.h(1).cnot(1, 2)
    circuit.cnot(0, 1).h(0)
    circuit.measure(0).measure(1)
    circuit.conditional_gate("x", 1, 2)
    circuit.conditional_gate("z", 0, 2)
    circuit.measure(2)
    return circuit


def random_hybrid_circuit(num_qubits: int, depth: int, seed: int) -> Circuit:
    """Random circuit with mid-circuit measurements and conditional feedback."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits, f"hybrid_{seed}")
    measured_bits: list[int] = []
    for _ in range(depth):
        for qubit in range(num_qubits):
            roll = rng.random()
            if roll < 0.25 and num_qubits > 1:
                other = int(rng.integers(num_qubits - 1))
                if other >= qubit:
                    other += 1
                circuit.cnot(qubit, other)
            elif roll < 0.35:
                circuit.measure(qubit)
                measured_bits.append(qubit)
            elif roll < 0.5 and measured_bits:
                bit = measured_bits[int(rng.integers(len(measured_bits)))]
                if rng.random() < 0.3 and num_qubits > 1:
                    other = int(rng.integers(num_qubits - 1))
                    if other >= qubit:
                        other += 1
                    circuit.conditional_gate("cnot", bit, qubit, other)
                else:
                    circuit.conditional_gate("x", bit, qubit)
            else:
                circuit.add_gate(["h", "x", "s", "t"][int(rng.integers(4))], qubit)
    circuit.measure_all()
    return circuit


class TestHybridRouting:
    def test_router_keeps_conditional_gates(self):
        # The exact repro from the issue: ['h','measure','c-x','cnot'] used
        # to route to ['h','measure','swap','cnot'].
        circuit = Circuit(3)
        circuit.h(0).measure(0)
        circuit.conditional_gate("x", 0, 1)
        circuit.cnot(0, 2)
        result = Router(linear_topology(3)).route(circuit)
        names = [op.name for op in result.circuit.operations]
        assert "c-x" in names
        conditionals = [
            op for op in result.circuit.operations if isinstance(op, ConditionalGate)
        ]
        assert len(conditionals) == 1
        assert conditionals[0].condition_bit == 0

    @pytest.mark.parametrize("mode", ["path", "sabre"])
    def test_two_qubit_conditionals_brought_adjacent(self, mode):
        circuit = Circuit(5)
        circuit.x(0).measure(0)
        circuit.conditional_gate("cnot", 0, 0, 4)
        topo = linear_topology(5)
        result = Router(topo, mode=mode).route(circuit)
        for op in result.circuit.operations:
            if isinstance(op, ConditionalGate) and len(op.qubits) == 2:
                assert topo.are_adjacent(*op.qubits)

    @pytest.mark.parametrize("mode", ["path", "sabre"])
    def test_conditional_operands_follow_live_placement(self, mode):
        # After a SWAP moves the target qubit, the conditional must hit the
        # qubit's *new* site.
        circuit = Circuit(3)
        circuit.x(0).measure(0)
        circuit.cnot(0, 2)  # forces routing on a chain; q2's state moves
        circuit.conditional_gate("x", 0, 2)
        circuit.measure(2)
        topo = linear_topology(3)
        result = Router(topo, mode=mode).route(circuit)
        reference = QXSimulator(seed=4).run(circuit, shots=100)
        routed = QXSimulator(seed=4).run(result.circuit, shots=100)
        assert reference.counts == routed.counts

    @pytest.mark.parametrize("mode", ["path", "sabre"])
    def test_teleportation_survives_routing(self, mode):
        angle = 2.0
        circuit = teleportation_circuit(angle)
        result = Router(linear_topology(3), mode=mode).route(circuit)
        outcome = QXSimulator(seed=7).run(result.circuit, shots=600)
        ones = sum(bits[2] for bits in outcome.classical_bits)
        assert ones / 600 == pytest.approx(math.sin(angle / 2.0) ** 2, abs=0.07)


class TestRoutingEquivalenceProperties:
    @pytest.mark.parametrize("mode", ["path", "sabre"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_statevector_equivalent_up_to_final_placement(self, mode, seed):
        circuit = random_circuit(6, 8, seed=seed, two_qubit_fraction=0.5)
        topo = grid_topology(2, 3)
        result = Router(topo, mode=mode).route(circuit)
        original = QXSimulator(seed=0).statevector(circuit)
        routed = QXSimulator(seed=0).statevector(result.circuit)
        relabelled = relabel_statevector(routed, result.final_placement, 6)
        np.testing.assert_allclose(relabelled, original, atol=1e-9)

    @pytest.mark.parametrize("mode", ["path", "sabre"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hybrid_histograms_identical_after_routing(self, mode, seed):
        # Measurements keep their classical bits through routing, so for the
        # same simulator seed the routed circuit's histogram is bit-identical
        # to the unmapped circuit's.
        circuit = random_hybrid_circuit(5, 4, seed=seed)
        topo = grid_topology(2, 3)
        result = Router(topo, mode=mode).route(circuit)
        reference = QXSimulator(seed=seed).run(circuit, shots=150)
        routed = QXSimulator(seed=seed).run(result.circuit, shots=150)
        assert reference.counts == routed.counts

    @pytest.mark.parametrize("seed", [0, 1])
    def test_hybrid_histograms_survive_cqasm_round_trip(self, seed):
        # Full compile-artifact path: route -> write cQASM -> parse -> run.
        circuit = random_hybrid_circuit(4, 3, seed=seed)
        result = Router(linear_topology(4), mode="sabre").route(circuit)
        recovered = cqasm_to_circuit(circuit_to_cqasm(result.circuit))
        reference = QXSimulator(seed=seed).run(circuit, shots=120)
        routed = QXSimulator(seed=seed).run(recovered, shots=120)
        assert reference.counts == routed.counts


class TestClassicalHazards:
    def _war_circuit(self) -> Circuit:
        circuit = Circuit(3)
        circuit.x(0).measure(0, bit=0)
        circuit.conditional_gate("x", 0, 1)
        circuit.measure(2, bit=0)  # overwrites bit 0 after the read
        return circuit

    def test_dag_has_war_edge(self):
        dag = CircuitDAG(self._war_circuit())
        # Node 2 is the conditional read, node 3 the overwriting measurement.
        assert 3 in dag.successors(2)

    def test_dag_has_waw_edge(self):
        circuit = Circuit(2)
        circuit.measure(0, bit=0)
        circuit.measure(1, bit=0)
        dag = CircuitDAG(circuit)
        assert 1 in dag.successors(0)

    @pytest.mark.parametrize("policy", ["asap", "alap"])
    def test_bit_overwrite_scheduled_after_conditional_read(self, policy):
        schedule = Scheduler(policy).schedule(self._war_circuit())
        read = next(e for e in schedule.entries if e.operation.name == "c-x")
        overwrite = next(
            e
            for e in schedule.entries
            if e.operation.name == "measure" and e.operation.qubit == 2
        )
        assert overwrite.start >= read.end

    def test_validate_rejects_dependency_violation(self):
        schedule = Scheduler("asap").schedule(self._war_circuit())
        overwrite = next(
            e
            for e in schedule.entries
            if e.operation.name == "measure" and e.operation.qubit == 2
        )
        schedule.entries.remove(overwrite)
        schedule.entries.append(
            ScheduledOperation(operation=overwrite.operation, start=0, end=overwrite.duration)
        )
        with pytest.raises(ValueError, match="dependency violated"):
            schedule.validate()

    def test_hybrid_schedule_simulates_identically_in_program_order(self):
        # Scheduling must not have reordered anything the simulator cares
        # about: replaying entries in start order reproduces the histogram.
        circuit = random_hybrid_circuit(4, 3, seed=9)
        schedule = Scheduler("alap").schedule(circuit)
        replayed = Circuit(circuit.num_qubits, num_bits=circuit.num_bits)
        order = sorted(
            range(len(schedule.entries)), key=lambda i: (schedule.entries[i].start, i)
        )
        for index in order:
            replayed.append(schedule.entries[index].operation)
        reference = QXSimulator(seed=1).run(circuit, shots=100)
        rescheduled = QXSimulator(seed=1).run(replayed, shots=100)
        assert reference.counts == rescheduled.counts


class TestRegisterWidthRegressions:
    def test_flat_circuit_keeps_num_bits(self):
        from repro.openql.compiler import CompilationResult
        from repro.openql.platform import perfect_platform

        kernel = Circuit(2, num_bits=5)
        kernel.h(0)
        result = CompilationResult(
            program_name="width",
            platform=perfect_platform(2),
            kernels=[kernel],
            kernel_iterations=[1],
        )
        assert result.flat_circuit().num_bits == 5

    def test_cqasm_round_trip_keeps_cross_mapped_measurement(self):
        circuit = Circuit(2)
        circuit.x(1).measure(1, bit=0)
        text = circuit_to_cqasm(circuit)
        assert "b[0]" in text
        recovered = cqasm_to_circuit(text)
        measurement = recovered.measurements()[0]
        assert (measurement.qubit, measurement.bit) == (1, 0)

    def test_cqasm_round_trip_grows_bit_register(self):
        circuit = Circuit(2, num_bits=6)
        circuit.x(0).measure(0, bit=5)
        recovered = cqasm_to_circuit(circuit_to_cqasm(circuit))
        assert recovered.num_bits == 6
        result = QXSimulator(seed=2).run(recovered, shots=10)
        assert all(bits[5] == 1 for bits in result.classical_bits)

    def test_default_bit_mapping_stays_implicit_in_cqasm(self):
        circuit = Circuit(2)
        circuit.measure(0)
        assert "b[" not in circuit_to_cqasm(circuit)

    def test_parser_rejects_absurd_bit_indices(self):
        from repro.cqasm.parser import CqasmSyntaxError

        text = "version 1.0\nqubits 2\n.main\n    measure q[0], b[50000000]\n"
        with pytest.raises(CqasmSyntaxError, match="classical bit index"):
            cqasm_to_circuit(text)
