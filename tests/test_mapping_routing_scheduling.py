"""Unit tests for routing (SWAP insertion) and scheduling."""

import numpy as np
import pytest

from helpers import relabel_statevector
from repro.core.circuit import Circuit, qft_circuit, random_circuit
from repro.mapping.routing import Router, decompose_swaps
from repro.mapping.scheduling import Scheduler
from repro.mapping.topology import fully_connected_topology, grid_topology, linear_topology
from repro.qx.simulator import QXSimulator


class TestRouter:
    def test_no_swaps_needed_on_fully_connected(self):
        circuit = random_circuit(4, 8, seed=1)
        result = Router(fully_connected_topology(4)).route(circuit)
        assert result.swaps_inserted == 0
        assert result.overhead == 0.0

    def test_all_two_qubit_gates_adjacent_after_routing(self):
        circuit = qft_circuit(5)
        topo = linear_topology(5)
        result = Router(topo).route(circuit)
        for op in result.circuit.gate_operations():
            if len(op.qubits) == 2:
                assert topo.are_adjacent(*op.qubits)

    def test_routing_rejects_undersized_topology(self):
        with pytest.raises(ValueError):
            Router(linear_topology(3)).route(random_circuit(4, 4, seed=1))

    @pytest.mark.parametrize("lookahead", [True, False])
    def test_routed_circuit_is_functionally_equivalent(self, lookahead):
        circuit = qft_circuit(4)
        topo = linear_topology(5)
        result = Router(topo, use_lookahead=lookahead).route(circuit)
        # Simulate original padded to the topology size.
        padded = Circuit(5)
        padded.operations = list(circuit.operations)
        original = QXSimulator(seed=0).statevector(padded)
        routed = QXSimulator(seed=0).statevector(result.circuit)
        relabelled = relabel_statevector(routed, result.final_placement, 5)
        np.testing.assert_allclose(relabelled, original, atol=1e-9)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Router(linear_topology(3), mode="steiner")

    @pytest.mark.parametrize("mode", ["path", "sabre"])
    def test_modes_produce_adjacent_two_qubit_gates(self, mode):
        circuit = random_circuit(9, 12, seed=11, two_qubit_fraction=0.5)
        topo = grid_topology(3, 3)
        result = Router(topo, mode=mode).route(circuit)
        for op in result.circuit.gate_operations():
            if len(op.qubits) == 2:
                assert topo.are_adjacent(*op.qubits)

    def test_sabre_not_worse_than_path_on_random_circuits(self):
        # The decaying-lookahead scorer should beat (or match) committing to
        # one shortest path per gate, summed over a batch of circuits.
        total_path = 0
        total_sabre = 0
        topo = grid_topology(3, 3)
        for seed in range(6):
            circuit = random_circuit(9, 15, seed=seed)
            total_path += Router(topo, mode="path").route(circuit).swaps_inserted
            total_sabre += Router(topo, mode="sabre").route(circuit).swaps_inserted
        assert total_sabre <= total_path

    @pytest.mark.parametrize("mode", ["path", "sabre"])
    def test_mode_equivalence_on_statevector(self, mode):
        circuit = random_circuit(6, 10, seed=21, two_qubit_fraction=0.5)
        topo = grid_topology(2, 3)
        result = Router(topo, mode=mode).route(circuit)
        original = QXSimulator(seed=0).statevector(circuit)
        routed = QXSimulator(seed=0).statevector(result.circuit)
        relabelled = relabel_statevector(routed, result.final_placement, 6)
        np.testing.assert_allclose(relabelled, original, atol=1e-9)

    def test_swap_count_reported_matches_circuit(self):
        circuit = qft_circuit(5)
        result = Router(linear_topology(6)).route(circuit)
        assert result.circuit.gate_count("swap") - circuit.gate_count("swap") == result.swaps_inserted

    def test_overhead_positive_when_swaps_inserted(self):
        circuit = Circuit(4)
        circuit.cnot(0, 3)
        result = Router(linear_topology(4)).route(circuit)
        assert result.swaps_inserted >= 1
        assert result.overhead > 0

    def test_measurements_and_barriers_survive_routing(self):
        circuit = Circuit(3)
        circuit.h(0).barrier().cnot(0, 2).measure_all()
        result = Router(linear_topology(3)).route(circuit)
        assert len(result.circuit.measurements()) == 3

    def test_decompose_swaps_replaces_with_cnots(self):
        circuit = Circuit(2)
        circuit.swap(0, 1)
        decomposed = decompose_swaps(circuit)
        assert decomposed.gate_count("swap") == 0
        assert decomposed.gate_count("cnot") == 3
        np.testing.assert_allclose(decomposed.to_unitary(), circuit.to_unitary(), atol=1e-9)


class TestScheduler:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            Scheduler(policy="random")

    def test_parallel_gates_share_start_time(self):
        circuit = Circuit(4)
        for qubit in range(4):
            circuit.h(qubit)
        schedule = Scheduler("asap").schedule(circuit)
        assert len(schedule.cycles()) == 1
        assert schedule.parallelism() == pytest.approx(4.0)

    def test_dependent_gates_are_sequential(self):
        circuit = Circuit(1)
        circuit.h(0).x(0)
        schedule = Scheduler("asap").schedule(circuit)
        entries = sorted(schedule.entries, key=lambda e: e.start)
        assert entries[1].start >= entries[0].end

    def test_makespan_matches_critical_path(self):
        circuit = Circuit(2)
        circuit.h(0).cnot(0, 1)
        circuit.measure(1)
        schedule = Scheduler("asap").schedule(circuit)
        assert schedule.makespan == 20 + 40 + 300

    def test_alap_same_makespan_as_asap(self):
        circuit = random_circuit(5, 10, seed=3)
        asap = Scheduler("asap").schedule(circuit)
        alap = Scheduler("alap").schedule(circuit)
        assert asap.makespan == alap.makespan

    def test_alap_starts_not_earlier_than_asap(self):
        circuit = random_circuit(4, 8, seed=4)
        asap = {id(e.operation): e.start for e in Scheduler("asap").schedule(circuit).entries}
        alap = {id(e.operation): e.start for e in Scheduler("alap").schedule(circuit).entries}
        for key in asap:
            assert alap[key] >= asap[key]

    def test_validate_rejects_overlaps(self):
        circuit = Circuit(1)
        circuit.h(0)
        schedule = Scheduler("asap").schedule(circuit)
        # Manually corrupt the schedule to force an overlap.
        from repro.mapping.scheduling import ScheduledOperation

        schedule.entries.append(
            ScheduledOperation(operation=schedule.entries[0].operation, start=0, end=20)
        )
        with pytest.raises(ValueError):
            schedule.validate()

    def test_issue_limit_serialises_two_qubit_gates(self):
        circuit = Circuit(4)
        circuit.cnot(0, 1)
        circuit.cnot(2, 3)
        unconstrained = Scheduler("asap").schedule(circuit)
        constrained = Scheduler("asap", max_parallel_two_qubit=1).schedule(circuit)
        assert constrained.makespan > unconstrained.makespan

    @pytest.mark.parametrize("limit", [0, -1])
    def test_issue_limit_below_one_is_rejected(self, limit):
        """A limit below 1 could never issue a two-qubit gate; the scheduler
        and the scheduling pass refuse it when built."""
        from repro.openql.passes.scheduling_pass import SchedulingPass

        with pytest.raises(ValueError, match="max_parallel_two_qubit must be >= 1"):
            Scheduler("asap", max_parallel_two_qubit=limit)
        with pytest.raises(ValueError, match="max_parallel_two_qubit must be >= 1"):
            SchedulingPass(max_parallel_two_qubit=limit)
        circuit = Circuit(2)
        circuit.cnot(0, 1)
        assert Scheduler("asap", max_parallel_two_qubit=1).schedule(circuit).makespan > 0

    def test_schedule_respects_qubit_exclusivity(self):
        circuit = random_circuit(5, 12, seed=6)
        schedule = Scheduler("asap").schedule(circuit)
        schedule.validate()  # must not raise
