"""Unit tests for operations and the dependency DAG."""

import pytest

from repro.core.circuit import Circuit
from oracles.schedule_reference import CircuitDAG
from repro.core.gates import build_gate
from repro.core.operations import Barrier, ClassicalOperation, GateOperation, Measurement


class TestOperations:
    def test_gate_operation_validates_arity(self):
        with pytest.raises(ValueError):
            GateOperation(build_gate("cnot"), (0,))

    def test_gate_operation_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GateOperation(build_gate("cz"), (1, 1))

    def test_gate_operation_remap(self):
        op = GateOperation(build_gate("cnot"), (0, 1))
        remapped = op.remap({0: 3, 1: 2})
        assert remapped.qubits == (3, 2)
        assert remapped.name == "cnot"

    def test_gate_operation_dagger(self):
        op = GateOperation(build_gate("t"), (0,))
        assert op.dagger().name == "tdag"

    def test_measurement_default_bit_is_qubit(self):
        m = Measurement(3)
        assert m.bit == 3
        assert m.qubit == 3
        assert m.duration > 0

    def test_measurement_remap_preserves_bit(self):
        m = Measurement(1, bit=5)
        remapped = m.remap({1: 4})
        assert remapped.qubit == 4
        assert remapped.bit == 5

    def test_barrier_remap(self):
        barrier = Barrier((0, 2))
        assert barrier.remap({0: 1, 2: 3}).qubits == (1, 3)

    def test_classical_operation_has_zero_duration(self):
        op = ClassicalOperation("loop", (10,))
        assert op.duration == 0
        assert op.name == "loop"


class TestCircuitDAG:
    def test_linear_chain_dependencies(self):
        circuit = Circuit(1)
        circuit.h(0).x(0).z(0)
        dag = CircuitDAG(circuit)
        assert dag.num_nodes() == 3
        assert dag.predecessors(0) == []
        assert dag.predecessors(1) == [0]
        assert dag.predecessors(2) == [1]

    def test_independent_gates_have_no_edges(self):
        circuit = Circuit(2)
        circuit.h(0).h(1)
        dag = CircuitDAG(circuit)
        assert dag.graph.number_of_edges() == 0
        assert len(dag.front_layer()) == 2

    def test_two_qubit_gate_joins_dependencies(self):
        circuit = Circuit(2)
        circuit.h(0).x(1).cnot(0, 1)
        dag = CircuitDAG(circuit)
        assert sorted(dag.predecessors(2)) == [0, 1]

    def test_barrier_orders_operations(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.h(1)
        dag = CircuitDAG(circuit)
        # h(1) must depend (transitively) on the barrier.
        assert 1 in dag.predecessors(2)

    def test_critical_path_length_uses_durations(self):
        circuit = Circuit(2)
        circuit.h(0).cnot(0, 1)
        circuit.measure(1)
        dag = CircuitDAG(circuit)
        expected = 20 + 40 + 300
        assert dag.critical_path_length() == expected

    def test_asap_levels_monotone_along_edges(self):
        from repro.core.circuit import random_circuit

        dag = CircuitDAG(random_circuit(5, 8, seed=11))
        levels = dag.asap_levels()
        for u, v in dag.graph.edges():
            assert levels[u] < levels[v]

    def test_alap_levels_not_before_asap(self):
        from repro.core.circuit import random_circuit

        dag = CircuitDAG(random_circuit(4, 6, seed=2))
        asap = dag.asap_levels()
        alap = dag.alap_levels()
        for node in asap:
            assert alap[node] >= asap[node]

    def test_layers_partition_all_nodes(self):
        from repro.core.circuit import random_circuit

        dag = CircuitDAG(random_circuit(4, 10, seed=5))
        layers = dag.layers()
        assert sum(len(layer) for layer in layers) == dag.num_nodes()

    def test_parallelism_of_fully_parallel_circuit(self):
        circuit = Circuit(4)
        for qubit in range(4):
            circuit.h(qubit)
        assert CircuitDAG(circuit).parallelism() == 4.0

    def test_topological_order_is_valid(self):
        from repro.core.circuit import random_circuit

        dag = CircuitDAG(random_circuit(5, 10, seed=9))
        order = dag.topological_order()
        position = {node: index for index, node in enumerate(order)}
        for u, v in dag.graph.edges():
            assert position[u] < position[v]
