"""Tests for binary-controlled (conditional) gates — the hybrid cQASM 2.0 construct.

The flagship correctness check is quantum teleportation: the corrections on
the receiving qubit are classically conditioned on the two measurement
results, so the protocol only works if measurement feedback reaches the
instruction stream at run time.
"""

import math

import pytest

from repro.core.circuit import Circuit
from oracles.schedule_reference import CircuitDAG
from repro.core.operations import ConditionalGate
from repro.core.gates import build_gate
from repro.cqasm.parser import cqasm_to_circuit
from repro.cqasm.writer import circuit_to_cqasm
from repro.qx.simulator import QXSimulator


def teleportation_circuit(state_angle: float) -> Circuit:
    """Teleport Ry(angle)|0> from qubit 0 to qubit 2 with conditional corrections."""
    circuit = Circuit(3, "teleport")
    circuit.ry(0, state_angle)          # the state to teleport
    circuit.h(1).cnot(1, 2)             # Bell pair between qubits 1 and 2
    circuit.cnot(0, 1).h(0)             # Bell measurement basis change
    circuit.measure(0)                  # bit 0
    circuit.measure(1)                  # bit 1
    circuit.conditional_gate("x", 1, 2)  # X on q2 if bit 1
    circuit.conditional_gate("z", 0, 2)  # Z on q2 if bit 0
    circuit.measure(2)                  # read out the teleported state
    return circuit


class TestConditionalGateBasics:
    def test_name_and_duration(self):
        op = ConditionalGate(build_gate("x"), (1,), condition_bit=0)
        assert op.name == "c-x"
        assert op.duration == build_gate("x").duration

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            ConditionalGate(build_gate("cnot"), (0,), condition_bit=0)

    def test_remap_preserves_condition(self):
        op = ConditionalGate(build_gate("z"), (2,), condition_bit=1)
        remapped = op.remap({2: 0})
        assert remapped.qubits == (0,)
        assert remapped.condition_bit == 1

    def test_circuit_helper_and_qubit_check(self):
        circuit = Circuit(2)
        circuit.conditional_gate("x", 0, 1)
        assert isinstance(circuit.operations[0], ConditionalGate)
        with pytest.raises(IndexError):
            circuit.conditional_gate("x", 0, 5)

    def test_condition_false_means_identity(self):
        circuit = Circuit(1)
        circuit.measure(0)                      # always 0
        circuit.conditional_gate("x", 0, 0)     # bit 0 is 0 -> no flip
        circuit.measure(0)
        result = QXSimulator(seed=1).run(circuit, shots=50)
        assert result.counts == {"0": 50}

    def test_condition_true_applies_gate(self):
        circuit = Circuit(2)
        circuit.x(0)
        circuit.measure(0)                      # bit 0 = 1
        circuit.conditional_gate("x", 0, 1)     # flip qubit 1
        circuit.measure(1)
        result = QXSimulator(seed=2).run(circuit, shots=50)
        for bits in result.classical_bits:
            assert bits[1] == 1


class TestTeleportation:
    @pytest.mark.parametrize("angle", [0.0, math.pi, math.pi / 3, 2.0])
    def test_teleported_statistics_match_input_state(self, angle):
        circuit = teleportation_circuit(angle)
        result = QXSimulator(seed=7).run(circuit, shots=600)
        ones = sum(bits[2] for bits in result.classical_bits)
        expected_p1 = math.sin(angle / 2.0) ** 2
        assert ones / 600 == pytest.approx(expected_p1, abs=0.07)

    def test_without_corrections_teleportation_fails(self):
        angle = math.pi  # teleporting |1>
        broken = Circuit(3)
        broken.ry(0, angle)
        broken.h(1).cnot(1, 2)
        broken.cnot(0, 1).h(0)
        broken.measure(0).measure(1)
        broken.measure(2)
        result = QXSimulator(seed=8).run(broken, shots=400)
        ones = sum(bits[2] for bits in result.classical_bits)
        # Without the conditional corrections the output is maximally mixed.
        assert 0.3 < ones / 400 < 0.7


class TestToolingIntegration:
    def test_cqasm_round_trip(self):
        circuit = teleportation_circuit(1.0)
        text = circuit_to_cqasm(circuit)
        assert "c-x" in text and "c-z" in text
        recovered = cqasm_to_circuit(text)
        conditionals = [op for op in recovered.operations if isinstance(op, ConditionalGate)]
        assert len(conditionals) == 2
        result = QXSimulator(seed=9).run(recovered, shots=300)
        ones = sum(bits[2] for bits in result.classical_bits)
        assert ones / 300 == pytest.approx(math.sin(0.5) ** 2, abs=0.1)

    def test_dag_orders_conditional_after_its_measurement(self):
        circuit = teleportation_circuit(0.5)
        dag = CircuitDAG(circuit)
        order = dag.topological_order()
        position = {node: i for i, node in enumerate(order)}
        measurement_nodes = {
            dag.operation(n).bit: n
            for n in dag.graph.nodes
            if dag.operation(n).name == "measure"
        }
        for node in dag.graph.nodes:
            op = dag.operation(node)
            if isinstance(op, ConditionalGate):
                writer = measurement_nodes[op.condition_bit]
                assert position[writer] < position[node]

    def test_optimiser_leaves_conditionals_untouched(self):
        from repro.openql.passes.optimization import OptimizationPass
        from repro.openql.platform import perfect_platform

        circuit = Circuit(2)
        circuit.x(0).measure(0)
        circuit.conditional_gate("x", 0, 1)
        circuit.conditional_gate("x", 0, 1)
        optimised = OptimizationPass().run(circuit, perfect_platform(2))
        conditionals = [op for op in optimised.operations if isinstance(op, ConditionalGate)]
        assert len(conditionals) == 2  # never merged or cancelled
