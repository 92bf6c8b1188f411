"""Backend registry, dispatch and capability-matrix tests."""

import numpy as np
import pytest

from repro.core.circuit import Circuit, ghz_circuit
from repro.qx import keying
from repro.qx.backends import (
    BACKENDS,
    UnsupportedBackendError,
    capability_matrix,
    choose,
    entanglement_exponent,
    evolve_once_engine,
    profile_plan,
    profile_program,
)
from repro.qx.error_models import DepolarizingError, DecoherenceError
from repro.qx.simulator import QXSimulator
from repro.qx.compiled import plan_for, program_for
from helpers import REGISTRY_BUILDER_KWARGS, REGISTRY_PLATFORMS, layered_clifford_circuit


def _clifford_dense(num_qubits, gates, seed):
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    for _ in range(gates):
        kind = rng.integers(3)
        if kind == 0:
            circuit.h(int(rng.integers(num_qubits)))
        elif kind == 1:
            circuit.s(int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, 2, replace=False)
            circuit.cnot(int(a), int(b))
    return circuit


class TestRegistry:
    def test_all_engines_registered(self):
        assert set(BACKENDS) >= {"statevector", "stabilizer", "density", "mps"}

    def test_capability_matrix_mentions_every_backend(self):
        rendered = capability_matrix()
        for name in BACKENDS:
            assert name in rendered

    def test_unknown_backend_is_refused(self):
        """Only the four engines run: any other name fails before execution."""
        circuit = ghz_circuit(2)
        circuit.measure_all()
        with pytest.raises(UnsupportedBackendError, match="unknown backend 'toy'"):
            QXSimulator(seed=0, backend="toy").run(circuit, shots=4)


class TestEntanglementEstimate:
    def test_ghz_hub_recognised_as_rank_two(self):
        """One hub qubit talking across every cut bounds the rank at 2."""
        pairs = [(0, q) for q in range(1, 64)]
        assert entanglement_exponent(pairs, 64) == 1

    def test_nearest_neighbour_chain(self):
        pairs = [(q, q + 1) for q in range(31)]
        assert entanglement_exponent(pairs, 32) == 1

    def test_dense_random_is_unbounded(self):
        rng = np.random.default_rng(0)
        pairs = [tuple(sorted(rng.choice(32, 2, replace=False))) for _ in range(300)]
        assert entanglement_exponent(pairs, 32) >= 10

    def test_no_two_qubit_gates(self):
        assert entanglement_exponent([], 16) == 0


def _measured(circuit):
    circuit.measure_all()
    return circuit


def _feedback_21():
    circuit = Circuit(21)
    circuit.h(0)
    circuit.measure(0)
    circuit.conditional_gate("x", 0, 20)
    circuit.measure(20)
    return circuit


def _t_chain_30():
    circuit = Circuit(30)
    for qubit in range(30):
        circuit.t(qubit)
    for qubit in range(29):
        circuit.cnot(qubit, qubit + 1)
    return _measured(circuit)


def _toffoli_30():
    circuit = Circuit(30)
    circuit.toffoli(0, 1, 2)
    return _measured(circuit)


#: The auto-dispatch cases, shared by :class:`TestAutoDispatch` and the
#: planner/simulator profile agreement test.
DISPATCH_CIRCUITS = {
    "ghz5": lambda: _measured(ghz_circuit(5)),
    "feedback21": _feedback_21,
    "ghz21": lambda: _measured(ghz_circuit(21)),
    "ghz64": lambda: _measured(ghz_circuit(64)),
    "clifford_dense30": lambda: _measured(_clifford_dense(30, 250, seed=1)),
    "t_chain30": _t_chain_30,
    "ghz10": lambda: _measured(ghz_circuit(10)),
    "ghz24": lambda: _measured(ghz_circuit(24)),
    "ghz30_unmeasured": lambda: ghz_circuit(30),
    "toffoli30": _toffoli_30,
    "layered_clifford30": lambda: _measured(layered_clifford_circuit(30)),
}


class TestAutoDispatch:
    """The cost model keeps the old STABILIZER_DISPATCH_* behaviour where
    those rules applied, and picks MPS beyond the dense wall."""

    def _choice(self, case, max_bond=None, **kwargs):
        profile = profile_program(program_for(DISPATCH_CIRCUITS[case]()), **kwargs)
        return choose(profile, max_bond)

    def test_small_circuit_stays_dense(self):
        assert self._choice("ghz5", shots=100) == "statevector"

    def test_trajectory_forcing_clifford_goes_tableau(self):
        assert self._choice("feedback21", shots=30) == "stabilizer"

    def test_sampled_clifford_below_wall_stays_dense(self):
        assert self._choice("ghz21", shots=500) == "statevector"

    def test_ghz_beyond_wall_goes_mps(self):
        """Low-entanglement Clifford at scale: MPS beats the per-shot tableau."""
        assert self._choice("ghz64", shots=1000) == "mps"

    def test_dense_clifford_beyond_wall_goes_tableau(self):
        assert self._choice("clifford_dense30", shots=100) == "stabilizer"

    def test_non_clifford_beyond_wall_goes_mps(self):
        assert self._choice("t_chain30", shots=100) == "mps"

    def test_noisy_circuit_stays_dense_in_range(self):
        assert self._choice("ghz10", shots=10, noise="trajectory") == "statevector"

    def test_initial_state_pins_dense(self):
        assert self._choice("ghz24", shots=10, has_initial_state=True) == "statevector"

    def test_measurement_free_beyond_wall_raises(self):
        with pytest.raises(UnsupportedBackendError):
            self._choice("ghz30_unmeasured", shots=1)

    def test_three_qubit_gates_beyond_wall_raise(self):
        with pytest.raises(UnsupportedBackendError, match="3-qubit gate"):
            self._choice("toffoli30", shots=1)

    def test_bond_cap_reaches_the_cost_model(self):
        """A layered Clifford circuit beyond the wall costs less on the
        tableau than on an unbounded MPS; capping the bond flips that."""
        assert self._choice("layered_clifford30", shots=128) == "stabilizer"
        assert self._choice("layered_clifford30", max_bond=4, shots=128) == "mps"


def _registry_circuits():
    """Every registry builder on every registry platform, source and compiled,
    with the platform's noise kind and fusion."""
    from repro.qx.error_models import error_model_for, noise_kind
    from repro.runtime.spec import CircuitSpec, CompilerSpec, PlatformSpec

    for builder, kwargs in sorted(REGISTRY_BUILDER_KWARGS.items()):
        for platform in REGISTRY_PLATFORMS:
            source = CircuitSpec(builder=builder, kwargs=kwargs).build()
            target = PlatformSpec(factory=platform).build(default_num_qubits=source.num_qubits)
            compiled = CompilerSpec().build().compile_circuit(source, target)
            model = target.qubit_model
            noise = noise_kind(error_model_for(model))
            for circuit in (source, compiled):
                yield f"{builder}-{platform}", circuit, noise, model.is_perfect


def _agreement_cases():
    for name, build in DISPATCH_CIRCUITS.items():
        yield name, build(), "none", True
    yield from _registry_circuits()


def _engines(profile, sizes, max_bond):
    """``choose`` and ``evolve_once_engine`` for one profile (or the error)."""
    try:
        return choose(profile, max_bond), evolve_once_engine(profile, sizes, max_bond=max_bond)
    except UnsupportedBackendError as error:
        return str(error)


@pytest.mark.parametrize("max_bond", [None, 4], ids=["exact", "max_bond4"])
def test_plan_and_program_profiles_pick_the_same_engine(max_bond):
    """The runner dispatches on ``profile_plan`` before lowering; workers and
    ``QXSimulator`` dispatch on ``profile_program``.  Both must pick the same
    engine for every registry circuit and every auto-dispatch case, under
    the same MPS bond cap."""
    sizes = (128,) * 8
    checked = 0
    for name, circuit, noise, fuse in _agreement_cases():
        from_plan = profile_plan(plan_for(circuit, fuse), circuit, shots=128, noise=noise)
        from_program = profile_program(program_for(circuit, fuse), shots=128, noise=noise)
        assert from_plan.is_clifford == from_program.is_clifford, name
        assert _engines(from_plan, sizes, max_bond) == _engines(
            from_program, sizes, max_bond
        ), name
        checked += 1
    assert checked == len(DISPATCH_CIRCUITS) + 2 * len(REGISTRY_BUILDER_KWARGS) * len(
        REGISTRY_PLATFORMS
    )


class TestUnsupportedBackendErrors:
    """Explicit backend requests fail fast with the capability matrix."""

    def test_unknown_backend(self):
        circuit = ghz_circuit(2)
        circuit.measure_all()
        with pytest.raises(UnsupportedBackendError, match="unknown backend"):
            QXSimulator(seed=0).run(circuit, shots=1, backend="qpu")

    def test_stabilizer_rejects_noise(self):
        circuit = ghz_circuit(3)
        circuit.measure_all()
        simulator = QXSimulator(error_model=DepolarizingError(0.01), seed=0)
        with pytest.raises(UnsupportedBackendError, match="error models"):
            simulator.run(circuit, shots=2, backend="stabilizer")

    def test_stabilizer_rejects_non_clifford(self):
        circuit = Circuit(2)
        circuit.t(0)
        circuit.measure_all()
        with pytest.raises(UnsupportedBackendError, match="Clifford"):
            QXSimulator(seed=0).run(circuit, shots=2, backend="stabilizer")

    def test_density_rejects_large_registers(self):
        circuit = ghz_circuit(17)
        circuit.measure_all()
        with pytest.raises(UnsupportedBackendError, match="exceed the density limit"):
            QXSimulator(seed=0).run(circuit, shots=2, backend="density")

    def test_density_rejects_feedback(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.measure(0)
        circuit.conditional_gate("x", 0, 1)
        circuit.measure(1)
        with pytest.raises(UnsupportedBackendError, match="conditional"):
            QXSimulator(seed=0).run(circuit, shots=2, backend="density")

    def test_density_accepts_decoherence_models(self):
        """T1/T2 decoherence now has an exact channel form on the density engine."""
        circuit = ghz_circuit(2)
        circuit.measure_all()
        simulator = QXSimulator(error_model=DecoherenceError(t1_ns=1e4, t2_ns=1e4), seed=0)
        result = simulator.run(circuit, shots=20, backend="density")
        assert result.backend == "density"
        assert sum(result.counts.values()) == 20

    def test_density_rejects_trajectory_only_models(self):
        class TrajectoryOnly(DepolarizingError):
            channel_exact = False

        circuit = ghz_circuit(2)
        circuit.measure_all()
        simulator = QXSimulator(error_model=TrajectoryOnly(0.01), seed=0)
        with pytest.raises(UnsupportedBackendError, match="trajectory-only"):
            simulator.run(circuit, shots=2, backend="density")

    def test_statevector_rejects_beyond_wall(self):
        circuit = ghz_circuit(27)
        circuit.measure_all()
        with pytest.raises(UnsupportedBackendError, match="exceed the statevector limit"):
            QXSimulator(seed=0).run(circuit, shots=2, backend="statevector")

    def test_mps_rejects_three_qubit_gates(self):
        circuit = Circuit(3)
        circuit.toffoli(0, 1, 2)
        circuit.measure_all()
        with pytest.raises(UnsupportedBackendError, match="2-qubit gates"):
            QXSimulator(seed=0).run(circuit, shots=2, backend="mps")

    def test_message_carries_capability_matrix(self):
        circuit = ghz_circuit(17)
        circuit.measure_all()
        with pytest.raises(UnsupportedBackendError) as excinfo:
            QXSimulator(seed=0).run(circuit, shots=2, backend="density")
        message = str(excinfo.value)
        for name in BACKENDS:
            assert name in message


class TestExplicitBackends:
    def test_result_records_backend(self):
        circuit = ghz_circuit(3)
        circuit.measure_all()
        for name in ("statevector", "stabilizer", "density", "mps"):
            result = QXSimulator(seed=1, backend=name).run(circuit, shots=20)
            assert result.backend == name
            assert sum(result.counts.values()) == 20
            assert set(result.counts) <= {"000", "111"}

    def test_run_backend_argument_overrides_constructor(self):
        circuit = ghz_circuit(3)
        circuit.measure_all()
        simulator = QXSimulator(seed=1, backend="statevector")
        assert simulator.run(circuit, shots=5, backend="mps").backend == "mps"

    def test_density_depolarizing_channel(self):
        """The density backend applies the exact channel of the error model."""
        circuit = Circuit(1)
        circuit.x(0)
        circuit.measure_all()
        simulator = QXSimulator(error_model=DepolarizingError(0.3), seed=5, backend="density")
        result = simulator.run(circuit, shots=5000)
        # Exact channel: p(0) = 2p/3 = 0.2.
        assert abs(result.probability("0") - 0.2) < 0.03
        assert result.errors_injected == 0

    def test_mps_keep_final_state_small_register(self):
        circuit = ghz_circuit(4)
        circuit.measure_all()
        result = QXSimulator(seed=2, backend="mps").run(circuit, shots=3, keep_final_state=True)
        assert result.final_state is not None
        assert result.final_state.shape == (16,)

    def test_simulator_mps_knobs_fold_into_dispatch(self):
        """A simulator-level max_bond is an explicit accuracy opt-in: it
        configures the MPS engine AND the cost model dispatch chooses
        with, so selection matches the configuration that runs."""
        simulator = QXSimulator(seed=0, max_bond=3, truncation_threshold=1e-6)
        circuit = ghz_circuit(30)
        circuit.measure_all()
        result = simulator.run(circuit, shots=10)
        assert result.backend == "mps"
        assert result.truncation_error == 0.0  # GHZ is rank 2 <= the cap

    def test_feedback_clifford_at_threshold_runs_on_tableau(self):
        """A default simulator sends a feedback Clifford circuit at the
        trajectory threshold (21 qubits) to the tableau."""
        circuit = Circuit(21)
        circuit.h(0)
        circuit.measure(0)
        circuit.conditional_gate("x", 0, 20)
        circuit.measure(20)
        result = QXSimulator(seed=3).run(circuit, shots=10)
        assert result.backend == "stabilizer"


class TestSharedKeyingConvention:
    """Satellite audit: every engine's histogram path is pinned to the
    shared helpers of repro.qx.keying, checked behaviourally on a
    cross-mapped circuit."""

    def test_statevector_sampling_delegates_to_shared_helper(self, monkeypatch):
        from repro.qx.statevector import StateVector

        calls = []
        original = keying.PreparedIndexSampler.sample
        monkeypatch.setattr(
            keying.PreparedIndexSampler,
            "sample",
            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs),
        )
        state = StateVector(2, rng=np.random.default_rng(0))
        state.sample_counts(5)
        assert calls

    def _cross_mapped_circuit(self):
        # x(0) measured into bit 3, idle qubit 1 into bit 0: the key must be
        # "10" (bit 3 leftmost) on every engine, and bit-indexed classical
        # bits must put the 1 at index 3.
        circuit = Circuit(3, num_bits=4)
        circuit.x(0)
        circuit.measure(0, bit=3)
        circuit.measure(1, bit=0)
        return circuit

    @pytest.mark.parametrize("backend", ["statevector", "stabilizer", "density", "mps"])
    def test_cross_mapped_bits_keyed_identically(self, backend):
        result = QXSimulator(seed=4, backend=backend).run(self._cross_mapped_circuit(), shots=6)
        assert result.counts == {"10": 6}
        assert all(bits[3] == 1 and bits[0] == 0 for bits in result.classical_bits)

    def test_standalone_engines_match_qx_keying(self):
        from repro.qx.stabilizer import StabilizerSimulator

        circuit = self._cross_mapped_circuit()
        reference = QXSimulator(seed=4).run(circuit, shots=6).counts
        assert StabilizerSimulator(seed=4).run(circuit, shots=6) == reference

    def test_classical_bits_width_is_engine_and_path_invariant(self):
        """Sampled and trajectory paths, on every engine, emit classical_bits
        rows of the full register width — switching engines must never
        change the result shape."""
        circuit = Circuit(6)
        circuit.h(0)
        circuit.measure(0, bit=0)
        for backend in ("statevector", "stabilizer", "density", "mps"):
            result = QXSimulator(seed=6, backend=backend).run(circuit, shots=3)
            assert all(len(bits) == 6 for bits in result.classical_bits), backend

    def test_repeated_measurement_last_write_wins_everywhere(self):
        circuit = Circuit(2)
        circuit.x(0)
        circuit.measure(0)
        circuit.x(0)
        circuit.measure(0)
        for backend in ("statevector", "stabilizer", "mps"):
            result = QXSimulator(seed=5, backend=backend).run(circuit, shots=4)
            assert result.counts == {"0": 4}, backend
