"""Tests for the in-memory traffic analysis and the extended error models."""

import numpy as np
import pytest

from repro.core.circuit import Circuit, ghz_circuit, qft_circuit
from repro.mapping.placement import greedy_placement
from repro.mapping.routing import Router
from repro.mapping.topology import fully_connected_topology, grid_topology, linear_topology
from repro.mapping.traffic import TrafficAnalyzer
from repro.qx.error_models import AsymmetricPauliError, CompositeError, CrosstalkError
from repro.qx.simulator import QXSimulator
from repro.qx.statevector import StateVector


def crosstalk_from_topology(topology, spectator_error_rate: float) -> CrosstalkError:
    """A crosstalk model whose spectators are each site's topology neighbours."""
    neighbours = {site: tuple(topology.neighbours(site)) for site in range(topology.num_qubits)}
    return CrosstalkError(spectator_error_rate=spectator_error_rate, neighbours=neighbours)


class TestTrafficAnalyzer:
    def test_unrouted_circuit_is_fully_local(self):
        report = TrafficAnalyzer().analyze_circuit(ghz_circuit(5))
        assert report.movement_gates == 0
        assert report.locality_score == 1.0
        assert report.moved_qubit_count() == 0

    def test_swaps_counted_as_movement(self):
        circuit = Circuit(3)
        circuit.cnot(0, 1).swap(1, 2).cnot(0, 1)
        report = TrafficAnalyzer().analyze_circuit(circuit)
        assert report.movement_gates == 1
        assert report.compute_gates == 2
        assert report.movement_fraction == pytest.approx(1 / 3)

    def test_routing_report_attributes_moves_to_logical_qubits(self):
        circuit = Circuit(4)
        circuit.cnot(0, 3)
        topology = linear_topology(4)
        result = Router(topology).route(circuit)
        report = TrafficAnalyzer().analyze_routing(result)
        assert report.movement_gates == result.swaps_inserted
        assert sum(report.moves_per_qubit.values()) >= result.swaps_inserted

    def test_compare_ideal_vs_routed(self):
        circuit = qft_circuit(6, with_swaps=False)
        topology = grid_topology(2, 3)
        result = Router(topology).route(circuit, greedy_placement(circuit, topology))
        comparison = TrafficAnalyzer().compare(circuit, result)
        assert comparison["ideal_locality"] == 1.0
        assert comparison["routed_locality"] <= 1.0
        assert comparison["movement_gates_added"] == result.swaps_inserted

    def test_full_connectivity_needs_no_movement(self):
        circuit = qft_circuit(5, with_swaps=False)
        result = Router(fully_connected_topology(5)).route(circuit)
        comparison = TrafficAnalyzer().compare(circuit, result)
        assert comparison["routed_locality"] == 1.0
        assert comparison["moved_logical_qubits"] == 0


class TestAsymmetricPauliError:
    def test_validation(self):
        with pytest.raises(ValueError):
            AsymmetricPauliError(0.5, 0.4, 0.3)
        with pytest.raises(ValueError):
            AsymmetricPauliError(-0.1, 0.0, 0.0)

    def test_pure_dephasing_never_flips_bits(self):
        model = AsymmetricPauliError(0.0, 0.0, 0.5)
        rng = np.random.default_rng(1)
        state = StateVector(1, rng=rng)
        injected = sum(model.apply_after_gate(state, (0,), 20.0, rng) for _ in range(200))
        assert injected > 50
        assert state.probability_of_one(0) == pytest.approx(0.0)
        assert model.bias == float("inf")

    def test_bias_ratio(self):
        model = AsymmetricPauliError(0.01, 0.01, 0.10)
        assert model.bias == pytest.approx(5.0)

    def test_injection_rate_matches_total_probability(self):
        model = AsymmetricPauliError(0.1, 0.1, 0.2)
        rng = np.random.default_rng(2)
        state = StateVector(1, rng=rng)
        injected = sum(model.apply_after_gate(state, (0,), 20.0, rng) for _ in range(2000))
        assert 650 < injected < 950  # expect ~800

    def test_z_biased_noise_hurts_plus_states_more(self):
        """Dephasing-dominated noise barely affects |1> populations but
        scrambles superpositions — visible through fidelity."""
        from repro.core.circuit import Circuit

        plus_circuit = Circuit(1)
        plus_circuit.h(0)
        flip_circuit = Circuit(1)
        flip_circuit.x(0)
        noise = AsymmetricPauliError(0.0, 0.0, 0.3)
        plus_fidelity = QXSimulator(error_model=noise, seed=3).fidelity_with_ideal(
            plus_circuit, shots=200
        )
        flip_fidelity = QXSimulator(error_model=noise, seed=3).fidelity_with_ideal(
            flip_circuit, shots=200
        )
        assert flip_fidelity == pytest.approx(1.0)
        assert plus_fidelity < 0.9


class TestCrosstalkError:
    def _topology_neighbours(self):
        return crosstalk_from_topology(linear_topology(4), spectator_error_rate=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CrosstalkError(spectator_error_rate=1.5)

    def test_single_qubit_gates_cause_no_crosstalk(self):
        model = self._topology_neighbours()
        rng = np.random.default_rng(4)
        state = StateVector(4, rng=rng)
        assert model.apply_after_gate(state, (1,), 20.0, rng) == 0

    def test_two_qubit_gate_disturbs_spectators_only(self):
        model = self._topology_neighbours()
        rng = np.random.default_rng(5)
        state = StateVector(4, rng=rng)
        # Put the spectators in |+> so a Z error is observable.
        for qubit in range(4):
            state.apply_gate(np.array([[1, 1], [1, -1]]) / np.sqrt(2), (qubit,))
        injected = model.apply_after_gate(state, (1, 2), 40.0, rng)
        # Neighbours of {1, 2} on a line are {0, 3}: both hit at rate 1.0.
        assert injected == 2

    def test_from_topology_builds_neighbour_table(self):
        model = self._topology_neighbours()
        assert model.neighbours[0] == (1,)
        assert model.neighbours[1] == (0, 2)
        assert model.spectators_for((1, 2)) == {0, 3}
        assert model.spectators_for((0, 1)) == {2}

    def test_crosstalk_degrades_parallel_heavy_circuits(self):
        """GHZ on a line with strong crosstalk loses fidelity vs without."""
        circuit = ghz_circuit(4)
        clean = QXSimulator(seed=6).fidelity_with_ideal(circuit, shots=1)
        noisy_model = crosstalk_from_topology(linear_topology(4), 0.5)
        noisy = QXSimulator(error_model=noisy_model, seed=6).fidelity_with_ideal(
            circuit, shots=60
        )
        assert clean == pytest.approx(1.0)
        assert noisy < 0.9

    def test_composes_with_other_models(self):
        composite = CompositeError(
            AsymmetricPauliError(0.0, 0.0, 0.1),
            crosstalk_from_topology(linear_topology(3), 0.2),
        )
        assert "asymmetric" in composite.describe()
        assert "crosstalk" in composite.describe()
