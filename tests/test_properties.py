"""Property-based tests (hypothesis) on the core data structures and invariants."""


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.operator_reference import is_unitary
from repro.annealing.ising import IsingModel
from repro.annealing.qubo import QUBO
from repro.annealing.simulated_annealing import SimulatedAnnealer
from repro.apps.qgs.dna import decode_sequence, encode_sequence, hamming_distance
from repro.core.circuit import random_circuit
from repro.core.gates import rx_gate, ry_gate, rz_gate
from repro.cqasm.parser import cqasm_to_circuit
from repro.cqasm.writer import circuit_to_cqasm
from repro.mapping.routing import Router
from repro.mapping.scheduling import Scheduler
from repro.mapping.topology import linear_topology
from repro.qx.simulator import QXSimulator
from repro.qx.statevector import StateVector

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------- #
# Gates and state evolution
# ---------------------------------------------------------------------- #
@SETTINGS
@given(theta=st.floats(-10.0, 10.0, allow_nan=False), builder=st.sampled_from(["rx", "ry", "rz"]))
def test_rotation_gates_always_unitary(theta, builder):
    gate = {"rx": rx_gate, "ry": ry_gate, "rz": rz_gate}[builder](theta)
    assert is_unitary(gate)


@SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_qubits=st.integers(1, 5),
    depth=st.integers(1, 8),
)
def test_random_circuit_preserves_norm(seed, num_qubits, depth):
    circuit = random_circuit(num_qubits, depth, seed=seed)
    state = StateVector(num_qubits, rng=np.random.default_rng(seed))
    for op in circuit.gate_operations():
        state.apply_gate(op.gate.matrix, op.qubits)
    assert state.norm() == pytest.approx(1.0, abs=1e-9)


@SETTINGS
@given(seed=st.integers(0, 10_000), num_qubits=st.integers(1, 4), depth=st.integers(1, 6))
def test_circuit_inverse_is_identity(seed, num_qubits, depth):
    circuit = random_circuit(num_qubits, depth, seed=seed)
    unitary = circuit.compose(circuit.inverse()).to_unitary()
    np.testing.assert_allclose(unitary, np.eye(2 ** num_qubits), atol=1e-8)


@SETTINGS
@given(seed=st.integers(0, 10_000), num_qubits=st.integers(2, 4), depth=st.integers(1, 6))
def test_measurement_counts_sum_to_shots(seed, num_qubits, depth):
    circuit = random_circuit(num_qubits, depth, seed=seed)
    circuit.measure_all()
    result = QXSimulator(seed=seed).run(circuit, shots=64)
    assert sum(result.counts.values()) == 64


# ---------------------------------------------------------------------- #
# cQASM round trip
# ---------------------------------------------------------------------- #
@SETTINGS
@given(seed=st.integers(0, 10_000), num_qubits=st.integers(1, 4), depth=st.integers(1, 6))
def test_cqasm_round_trip_preserves_state(seed, num_qubits, depth):
    circuit = random_circuit(num_qubits, depth, seed=seed)
    recovered = cqasm_to_circuit(circuit_to_cqasm(circuit))
    original = QXSimulator(seed=0).statevector(circuit)
    round_tripped = QXSimulator(seed=0).statevector(recovered)
    np.testing.assert_allclose(original, round_tripped, atol=1e-8)


# ---------------------------------------------------------------------- #
# Mapping invariants
# ---------------------------------------------------------------------- #
@SETTINGS
@given(seed=st.integers(0, 5_000), depth=st.integers(1, 10))
def test_routing_always_produces_adjacent_two_qubit_gates(seed, depth):
    circuit = random_circuit(5, depth, seed=seed)
    topology = linear_topology(5)
    result = Router(topology).route(circuit)
    for op in result.circuit.gate_operations():
        if len(op.qubits) == 2:
            assert topology.are_adjacent(*op.qubits)
    # The logical-to-physical map stays a bijection.
    assert len(set(result.final_placement.values())) == len(result.final_placement)


@SETTINGS
@given(seed=st.integers(0, 5_000), rows=st.integers(2, 3), depth=st.integers(1, 8))
def test_schedule_never_double_books_qubits(seed, rows, depth):
    circuit = random_circuit(rows * 3, depth, seed=seed)
    schedule = Scheduler("asap").schedule(circuit)
    schedule.validate()
    assert schedule.makespan >= 0


# ---------------------------------------------------------------------- #
# QUBO / Ising invariants
# ---------------------------------------------------------------------- #
@SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_variables=st.integers(1, 8),
)
def test_qubo_ising_energy_isomorphism(seed, num_variables):
    rng = np.random.default_rng(seed)
    matrix = np.triu(rng.uniform(-2.0, 2.0, size=(num_variables, num_variables)))
    qubo = QUBO(matrix)
    ising, offset = qubo.to_ising()
    x = rng.integers(0, 2, size=num_variables)
    assert qubo.energy(x) == pytest.approx(ising.energy(2 * x - 1) + offset, abs=1e-9)


@SETTINGS
@given(seed=st.integers(0, 10_000), num_spins=st.integers(2, 8))
def test_ising_energy_delta_consistent(seed, num_spins):
    """Summing the annealer's single-flip deltas reproduces the explicit energy."""
    rng = np.random.default_rng(seed)
    couplings = np.triu(rng.choice([-1.0, 0.0, 1.0], size=(num_spins, num_spins)), 1)
    model = IsingModel(h=rng.uniform(-1, 1, size=num_spins), couplings=couplings)
    result = SimulatedAnnealer(num_sweeps=5, num_reads=1, seed=seed).solve_ising(model)
    assert result.energy == pytest.approx(model.energy(result.spins), abs=1e-9)


# ---------------------------------------------------------------------- #
# DNA encoding invariants
# ---------------------------------------------------------------------- #
_DNA = st.text(alphabet="ACGT", min_size=1, max_size=12)


@SETTINGS
@given(sequence=_DNA)
def test_dna_encode_decode_round_trip(sequence):
    assert decode_sequence(encode_sequence(sequence), len(sequence)) == sequence


@SETTINGS
@given(a=_DNA, b=_DNA)
def test_hamming_distance_metric_properties(a, b):
    if len(a) != len(b):
        with pytest.raises(ValueError):
            hamming_distance(a, b)
        return
    distance = hamming_distance(a, b)
    assert 0 <= distance <= len(a)
    assert distance == hamming_distance(b, a)
    assert hamming_distance(a, a) == 0
