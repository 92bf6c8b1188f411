"""Evolve-once ``run_program`` equals the single-run reference bodies.

Dense and MPS runs with noise-free terminal measurements, and every density
run, evolve once through ``QXSimulator._prepare`` and draw from the final
distribution.  ``tests/oracles/sampled_reference.py`` keeps the single-run
bodies that path replaced; each case here runs both on one seed, twice in a
row, and checks every result field, row for row, and the generator state
they leave behind.
"""

import numpy as np
import pytest
from oracles import sampled_reference as oracle

from repro.core.circuit import Circuit, random_circuit
from repro.core.qubits import REALISTIC
from repro.qx.channels import compile_channels
from repro.qx.compiled import program_for
from repro.qx.error_models import NoError, error_model_for
from repro.qx.mps import DEFAULT_TRUNCATION_THRESHOLD
from repro.qx.simulator import QXSimulator

SEED = 17


def _assert_same(result, reference):
    assert result.counts == reference.counts
    assert result.classical_bits == reference.classical_bits
    assert result.truncation_error == reference.truncation_error
    assert result.errors_injected == reference.errors_injected == 0
    assert result.backend == reference.backend
    if reference.final_state is None:
        assert result.final_state is None
    else:
        np.testing.assert_array_equal(result.final_state, reference.final_state)


def _check(circuit, shots, simulator_kwargs, reference, runs=2, **options):
    """Run ``circuit`` ``runs`` times on one simulator and on one oracle rng."""
    simulator = QXSimulator(seed=SEED, **simulator_kwargs)
    rng = np.random.default_rng(SEED)
    model = simulator.error_model
    program = program_for(circuit, fuse=isinstance(model, NoError))
    results = []
    for _ in range(runs):
        result = simulator.run(circuit, shots=shots, **options)
        _assert_same(result, reference(program, circuit.num_qubits, shots, rng, model))
        assert simulator.rng.bit_generator.state == rng.bit_generator.state
        results.append(result)
    return results


def _measured(num_qubits, depth, seed):
    circuit = random_circuit(num_qubits, depth, seed=seed)
    circuit.measure_all()
    return circuit


def _entangling_ladder(num_qubits, depth, seed):
    """Rotation layers between cnot ladders: bond dimension grows past 2."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    for _ in range(depth):
        for qubit in range(num_qubits):
            circuit.ry(qubit, float(rng.uniform(0, np.pi)))
            circuit.rz(qubit, float(rng.uniform(0, np.pi)))
        for qubit in range(num_qubits - 1):
            circuit.cnot(qubit, qubit + 1)
    circuit.measure_all()
    return circuit


def _cross_subset():
    """Three of five qubits measured, each into a bit that is not its index."""
    circuit = Circuit(5, num_bits=5)
    circuit.h(0).cnot(0, 1).ry(2, 0.9).cnot(2, 3).rx(4, 1.3).cnot(3, 4)
    circuit.measure(0, bit=3)
    circuit.measure(2, bit=0)
    circuit.measure(4, bit=1)
    return circuit


def _dense(keep_final_state=False, initial_state=None):
    def reference(program, num_qubits, shots, rng, model):
        return oracle.run_sampled(
            program, num_qubits, shots, rng, keep_final_state, initial_state
        )

    return reference


def _density(program, num_qubits, shots, rng, model):
    return oracle.run_density(program, model, num_qubits, shots, rng)


def _mps(max_bond=None, keep_final_state=False):
    def reference(program, num_qubits, shots, rng, model):
        return oracle.run_mps_sampled(
            program, num_qubits, shots, rng, keep_final_state, max_bond,
            DEFAULT_TRUNCATION_THRESHOLD,
        )

    return reference


class TestDense:
    def test_measured(self):
        _check(_measured(6, 8, seed=3), 700, {}, _dense())

    def test_initial_state(self):
        initial = np.random.default_rng(5).normal(size=(32, 2)) @ np.array([1.0, 1.0j])
        results = _check(
            _measured(5, 6, seed=4), 400, {}, _dense(initial_state=initial),
            initial_state=initial,
        )
        assert results[0].backend == "statevector"

    def test_keep_final_state(self):
        results = _check(
            _measured(5, 6, seed=5), 300, {}, _dense(keep_final_state=True),
            keep_final_state=True,
        )
        assert results[0].final_state is not None

    def test_no_measurements(self):
        circuit = random_circuit(4, 6, seed=6)
        results = _check(circuit, 10, {}, _dense())
        assert results[0].counts == {} and results[0].classical_bits == []
        assert results[0].final_state is not None

    def test_cross_mapped_strict_subset(self):
        results = _check(_cross_subset(), 500, {"backend": "statevector"}, _dense())
        assert all(len(key) == 3 for key in results[0].counts)


class TestDensity:
    def test_realistic_readout_confusion(self):
        circuit = _measured(4, 6, seed=7)
        channels = compile_channels(
            program_for(circuit, fuse=False), error_model_for(REALISTIC), num_qubits=4
        )
        assert channels.confusion is not None
        results = _check(
            circuit, 600, {"qubit_model": REALISTIC, "backend": "density"}, _density
        )
        assert results[0].backend == "density"

    def test_cross_mapped_strict_subset(self):
        _check(_cross_subset(), 500, {"qubit_model": REALISTIC, "backend": "density"}, _density)

    def test_noise_free(self):
        _check(_measured(4, 5, seed=8), 300, {"backend": "density"}, _density)


class TestMPS:
    def test_bounded_bond_truncates(self):
        results = _check(
            _entangling_ladder(7, 4, seed=9), 400, {"backend": "mps", "max_bond": 2},
            _mps(max_bond=2),
        )
        assert results[0].truncation_error > 0.0

    def test_keep_final_state(self):
        results = _check(
            _measured(5, 6, seed=10), 200, {"backend": "mps", "max_bond": 2},
            _mps(max_bond=2, keep_final_state=True), keep_final_state=True,
        )
        assert results[0].final_state is not None

    def test_no_measurements(self):
        results = _check(random_circuit(4, 5, seed=11), 10, {"backend": "mps"}, _mps())
        assert results[0].counts == {} and results[0].final_state is not None

    @pytest.mark.parametrize("max_bond", [None, 2])
    def test_cross_mapped_strict_subset(self, max_bond):
        _check(
            _cross_subset(), 500, {"backend": "mps", "max_bond": max_bond},
            _mps(max_bond=max_bond),
        )
