"""Shot-stacked trajectories equal the one-state-per-shot reference loop.

The stacked engine (:mod:`repro.qx.trajectories`) pre-draws each block's
tape and evolves all of its shots as one array.  It must walk exactly the
seeded stream the per-shot loop in ``tests/oracles/trajectory_reference.py``
walks: same counts, same per-shot bits, same number of injected errors, the
generator left in the same state, and the same final state to 1e-12.
"""

import numpy as np
import pytest
from oracles import trajectory_reference as oracle
from test_qx_channels import MODELS

from repro.core.circuit import Circuit, random_circuit
from repro.core.qubits import REAL_TRANSMON, REALISTIC
from repro.qx import trajectories
from repro.qx.compiled import program_for
from repro.qx.error_models import NoError, error_model_for
from repro.qx.simulator import QXSimulator
from repro.qx.statevector import StateVector
from repro.qx.trajectories import TrajectorySchedule

ALL_MODELS = {
    **MODELS,
    "realistic": error_model_for(REALISTIC),
    "real_transmon": error_model_for(REAL_TRANSMON),
}


def _assert_matches_oracle(circuit, model, shots, seed, runs=1, **options):
    simulator = QXSimulator(error_model=model, seed=seed)
    rng = np.random.default_rng(seed)
    program = program_for(circuit, fuse=False)
    for _ in range(runs):
        result = simulator.run(circuit, shots=shots, backend="statevector", **options)
        reference = oracle.run_trajectories(
            program, model, circuit.num_qubits, shots, rng, **options
        )
        assert result.counts == reference.counts
        assert result.classical_bits == reference.classical_bits
        assert result.errors_injected == reference.errors_injected
        assert simulator.rng.bit_generator.state == rng.bit_generator.state
        if reference.final_state is None:
            assert result.final_state is None
        else:
            np.testing.assert_allclose(
                result.final_state, reference.final_state, rtol=0, atol=1e-12
            )
    return result


def _mid_circuit(num_qubits=3):
    circuit = Circuit(num_qubits)
    circuit.h(0).cnot(0, 1).rx(2, 0.7).measure(0).h(0).cnot(1, 2).measure(1)
    circuit.ry(1, 1.1).cz(0, 2).measure_all()
    return circuit


def _feedback(num_qubits=3):
    """Teleport-style corrections: gates conditioned on mid-circuit bits."""
    circuit = Circuit(num_qubits)
    circuit.ry(0, 0.9).h(1).cnot(1, 2).cnot(0, 1).h(0).measure(0).measure(1)
    circuit.conditional_gate("x", 1, 2)
    circuit.conditional_gate("z", 0, 2)
    circuit.conditional_gate("cnot", 0, 2, 1)
    circuit.measure(2)
    return circuit


def _toffoli():
    circuit = Circuit(3)
    circuit.h(0).h(1).rx(2, 0.4).toffoli(0, 1, 2).cnot(2, 0).toffoli(2, 0, 1)
    circuit.measure_all()
    return circuit


class TestMatchesPerShotLoop:
    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    @pytest.mark.parametrize("seed", [3, 11])
    def test_terminal_random_circuit(self, name, seed):
        circuit = random_circuit(4, 6, seed=seed)
        circuit.rx(0, 0.3).ry(3, 1.2)
        circuit.measure_all()
        _assert_matches_oracle(circuit, ALL_MODELS[name], shots=97, seed=seed)

    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_mid_circuit_measurement(self, name):
        _assert_matches_oracle(_mid_circuit(), ALL_MODELS[name], shots=80, seed=5)

    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_noisy_feedback(self, name):
        model = ALL_MODELS[name]
        _assert_matches_oracle(_feedback(), model, shots=60, seed=8)
        schedule = TrajectorySchedule(program_for(_feedback(), fuse=False), model, 3)
        # Gate noise on a conditional gate makes the draw count depend on
        # the bits: those programs evolve row by row, drawing live.
        assert schedule.live == (name != "measurement")

    def test_noise_free_feedback_stays_stacked(self):
        circuit = _feedback()
        result = _assert_matches_oracle(circuit, NoError(), shots=200, seed=2)
        assert not TrajectorySchedule(program_for(circuit, fuse=False), NoError(), 3).live
        assert result.errors_injected == 0

    @pytest.mark.parametrize("name", ["composite", "realistic", "asymmetric"])
    def test_toffoli(self, name):
        _assert_matches_oracle(_toffoli(), ALL_MODELS[name], shots=50, seed=4)

    @pytest.mark.parametrize("name", ["depolarizing", "decoherence", "real_transmon"])
    def test_initial_state_and_final_state(self, name):
        amplitudes = np.random.default_rng(1).normal(size=8) + 1j
        _assert_matches_oracle(
            _mid_circuit(),
            ALL_MODELS[name],
            shots=40,
            seed=6,
            initial_state=amplitudes,
            keep_final_state=True,
        )

    def test_measurement_free_keeps_final_state(self):
        circuit = Circuit(3)
        circuit.h(0).cnot(0, 1).rx(2, 0.5).cnot(1, 2)
        _assert_matches_oracle(
            circuit, ALL_MODELS["realistic"], shots=30, seed=9, keep_final_state=True
        )

    def test_consecutive_runs_continue_the_stream(self):
        circuit = random_circuit(3, 5, seed=2)
        circuit.measure_all()
        _assert_matches_oracle(circuit, ALL_MODELS["composite"], shots=33, seed=12, runs=3)

    @pytest.mark.parametrize("name", ["depolarizing", "realistic"])
    def test_shots_span_several_blocks(self, name, monkeypatch):
        monkeypatch.setattr(trajectories, "BLOCK_BYTES", 20_000)
        circuit = random_circuit(3, 8, seed=7)
        circuit.measure_all()
        model = ALL_MODELS[name]
        schedule = TrajectorySchedule(program_for(circuit, fuse=False), model, 3)
        sizes = [len(stack) for stack, _, _ in schedule.blocks(150, np.random.default_rng(0))]
        assert len(sizes) >= 3 and max(sizes) > 1 and sum(sizes) == 150
        _assert_matches_oracle(circuit, model, shots=150, seed=13, keep_final_state=True)

    def test_live_rows_span_several_blocks(self, monkeypatch):
        monkeypatch.setattr(trajectories, "BLOCK_BYTES", 4_000)
        model = ALL_MODELS["realistic"]
        schedule = TrajectorySchedule(program_for(_feedback(), fuse=False), model, 3)
        sizes = [len(stack) for stack, _, _ in schedule.blocks(150, np.random.default_rng(0))]
        assert schedule.live and len(sizes) >= 3 and max(sizes) > 1 and sum(sizes) == 150
        _assert_matches_oracle(_feedback(), model, shots=150, seed=14, keep_final_state=True)



class TestFidelityWithIdeal:
    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_equals_per_shot_average(self, name):
        circuit = random_circuit(3, 6, seed=1)
        circuit.rx(1, 0.8)
        model = ALL_MODELS[name]
        value = QXSimulator(error_model=model, seed=4).fidelity_with_ideal(circuit, shots=70)
        ideal = QXSimulator(seed=0).statevector(circuit)
        reference = oracle.fidelity_with_ideal(
            program_for(circuit, fuse=False), ideal, model, 3, 70, np.random.default_rng(4)
        )
        assert abs(value - reference) < 1e-12


class TestDeclaredSchedule:
    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_single_state_hooks_match_written_injection(self, name):
        """The base-class hooks interpret the schedule as each model used to inject."""
        model = ALL_MODELS[name]
        states, rngs = [], []
        for _ in range(2):
            rng = np.random.default_rng(17)
            state = StateVector(3, rng=rng)
            state.amplitudes = np.full(8, 1 / np.sqrt(8), dtype=complex)
            states.append(state)
            rngs.append(rng)
        for qubits, duration in [((0, 1), 40.0), ((2,), 20.0), ((1, 2), 1500.0)] * 30:
            assert model.apply_after_gate(states[0], qubits, duration, rngs[0]) == (
                oracle.apply_after_gate(model, states[1], qubits, duration, rngs[1])
            )
            assert model.flip_measurement(1, rngs[0]) == oracle.flip_measurement(model, 1, rngs[1])
        np.testing.assert_allclose(states[0].amplitudes, states[1].amplitudes, rtol=0, atol=1e-12)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
