"""Channel layer tests: PTM algebra, compilation, engine parity, trajectory link.

Covers the four contracts of the channel-native noise stack:

* every channel constructor (and every error model's derived channels) is
  CPTP;
* fused superoperator programs equal sequential application to numerical
  precision, and the compiled path agrees with the legacy per-gate
  contraction engine;
* trajectory sampling is statistically indistinguishable from the exact
  channel (chi-square at a fixed seed budget);
* the seeded trajectory streams are bit-identical to the pre-refactor
  implementation (regression fixtures captured before the rewrite).
"""

import hashlib
import json
import os

import numpy as np
import pytest
from oracles.density_reference import ContractionDensityMatrix
from oracles.operator_reference import is_cptp, is_trace_preserving

from repro.core.circuit import Circuit
from repro.qx import kernels
from repro.qx.channels import (
    Channel,
    _lift_noise_to,
    compile_circuit,
    density_to_vector,
    pauli_elements,
    ptm_of_unitary,
    vector_to_density,
)
from repro.qx.density import DensityMatrixSimulator
from repro.qx.error_models import (
    AsymmetricPauliError,
    CompositeError,
    CrosstalkError,
    DecoherenceError,
    DepolarizingError,
    MeasurementError,
    NoError,
    noise_kind,
)
from repro.qx.simulator import QXSimulator
from repro.qx.statevector import StateVector

FIXTURES = os.path.join(os.path.dirname(__file__), "data", "trajectory_fixtures.json")

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _random_kraus_set(rng, num_kraus=2):
    """A random single-qubit CPTP channel from a Stinespring isometry."""
    raw = rng.normal(size=(2 * num_kraus, 2)) + 1j * rng.normal(size=(2 * num_kraus, 2))
    isometry, _ = np.linalg.qr(raw)
    return [isometry[2 * k : 2 * k + 2, :] for k in range(num_kraus)]


def _noisy_circuit(num_qubits=3):
    circuit = Circuit(num_qubits)
    circuit.h(0).cnot(0, 1).x(2).rx(1, 0.6).cnot(1, 2).h(2).t(0)
    circuit.measure_all()
    return circuit


MODELS = {
    "depolarizing": DepolarizingError(0.1, two_qubit_error_rate=0.2),
    "decoherence": DecoherenceError(t1_ns=500.0, t2_ns=300.0),
    "measurement": MeasurementError(0.1),
    "asymmetric": AsymmetricPauliError(0.02, 0.01, 0.05),
    "crosstalk": CrosstalkError(0.2, neighbours={0: (2,), 1: (2,), 2: (0, 1)}),
    "composite": CompositeError(
        DepolarizingError(0.05),
        DecoherenceError(t1_ns=800.0, t2_ns=400.0),
        MeasurementError(0.05),
    ),
}


class TestChannelAlgebra:
    def test_every_constructor_is_cptp(self):
        channels = [
            Channel.identity(),
            Channel.identity(2),
            Channel.pauli(0.02, 0.01, 0.05),
            Channel.depolarizing(0.3),
            Channel.depolarizing(0.15, num_qubits=2),
            Channel.phase_flip(0.2),
            Channel.amplitude_damping(0.4),
            Channel.reset(0.7),
            Channel.decoherence(0.1, 0.2),
            Channel.from_unitary(H),
            Channel.from_unitary(CNOT),
        ]
        for channel in channels:
            assert is_cptp(channel), channel

    def test_random_kraus_channels_are_cptp(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            channel = Channel.from_kraus(_random_kraus_set(rng))
            assert is_cptp(channel)
            assert is_trace_preserving(channel)

    def test_non_trace_preserving_detected(self):
        half = Channel(np.diag([0.5, 0.5, 0.5, 0.5]))
        assert not is_trace_preserving(half)
        assert not is_cptp(half)

    def test_transpose_map_is_not_completely_positive(self):
        # The transpose map is positive but not completely positive: it
        # flips the sign of the Y axis, and its Choi matrix has a -1 eigenvalue.
        transpose = Channel(np.diag([1.0, 1.0, -1.0, 1.0]))
        assert is_trace_preserving(transpose)
        assert not is_cptp(transpose)

    def test_ptm_shape_validation(self):
        with pytest.raises(ValueError):
            Channel(np.ones((4, 3)))
        with pytest.raises(ValueError):
            Channel(np.eye(8))  # not a power of four

    def test_compose_order(self):
        damp = Channel.amplitude_damping(0.3)
        flip = Channel.from_unitary(np.array([[0, 1], [1, 0]]))
        # "flip then damp" must equal damp.ptm @ flip.ptm.
        composed = damp.compose(flip)
        np.testing.assert_allclose(composed.ptm, damp.ptm @ flip.ptm)
        assert not np.allclose(composed.ptm, flip.ptm @ damp.ptm)

    def test_compose_arity_mismatch(self):
        with pytest.raises(ValueError):
            Channel.identity(2).compose(Channel.identity(1))

    def test_tensor_operand_order(self):
        top = Channel.phase_flip(0.5)
        product = top.tensor(Channel.identity())
        np.testing.assert_allclose(product.ptm, np.kron(top.ptm, np.eye(4)))

    def test_unitary_lift_roundtrip(self):
        """PTM action on the Pauli vector equals U rho U^dag on the matrix."""
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        unitary, _ = np.linalg.qr(raw)
        rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
        vector = density_to_vector(rho)
        evolved = vector_to_density(ptm_of_unitary(unitary) @ vector)
        np.testing.assert_allclose(evolved, unitary @ rho @ unitary.conj().T, atol=1e-12)

    def test_ptm_of_unitary_is_memoised(self):
        first = ptm_of_unitary(H)
        second = ptm_of_unitary(np.array(H))
        assert first is second

    def test_default_basis_is_normalised(self):
        elements = pauli_elements(1)
        gram = np.einsum("iab,jab->ij", elements.conj(), elements)
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


class TestErrorModelChannels:
    @pytest.mark.parametrize("name", sorted(set(MODELS) - {"measurement"}))
    def test_derived_channels_are_cptp(self, name):
        model = MODELS[name]
        placements = model.noise_channels((0, 1), 30.0)
        assert placements, name
        for qubits, channel in placements:
            assert len(qubits) == channel.num_qubits
            assert is_cptp(channel), (name, qubits)

    def test_measurement_error_is_classical_only(self):
        model = MODELS["measurement"]
        assert model.noise_channels((0,), 30.0) == []
        confusion = np.asarray(model.confusion())
        np.testing.assert_allclose(confusion.sum(axis=1), [1.0, 1.0])
        np.testing.assert_allclose(confusion, [[0.9, 0.1], [0.1, 0.9]])

    def test_noise_kind_vocabulary(self):
        class TrajectoryOnly(DepolarizingError):
            channel_exact = False

        assert noise_kind(NoError()) == "none"
        assert noise_kind(DepolarizingError(0.1)) == "channel"
        assert noise_kind(TrajectoryOnly(0.1)) == "trajectory"

    def test_describe_reports_channel_availability(self):
        assert "[channel]" in DepolarizingError(0.1).describe()
        assert "[channel]" in MODELS["composite"].describe()

    def test_composite_compiles_one_channel_per_placement(self):
        composite = CompositeError(DepolarizingError(0.1), AsymmetricPauliError(0.02, 0.01, 0.05))
        placements = dict(composite.noise_channels((0,), 30.0))
        assert set(placements) == {(0,)}
        # Later members compose after earlier ones on the shared placement.
        expected = Channel.pauli(0.02, 0.01, 0.05).compose(Channel.depolarizing(0.1))
        np.testing.assert_allclose(placements[(0,)].ptm, expected.ptm, atol=1e-12)

    def test_composite_confusion_is_sequential(self):
        composite = CompositeError(MeasurementError(0.1), MeasurementError(0.2))
        first = np.asarray(MeasurementError(0.1).confusion())
        second = np.asarray(MeasurementError(0.2).confusion())
        np.testing.assert_allclose(composite.confusion(), first @ second, atol=1e-12)

    def test_crosstalk_spectators_exclude_gate_qubits(self):
        model = MODELS["crosstalk"]
        placements = model.noise_channels((0, 1), 30.0)
        assert [qubits for qubits, _ in placements] == [(2,)]

    def test_decoherence_channel_matches_trajectory_probabilities(self):
        model = MODELS["decoherence"]
        p_decay, p_dephase = model.decay_probabilities(30.0)
        ((_, channel),) = model.noise_channels((0,), 30.0)
        np.testing.assert_allclose(
            channel.ptm, Channel.decoherence(p_decay, p_dephase).ptm, atol=1e-12
        )


class TestCompilation:
    def test_fused_program_equals_sequential(self):
        circuit = _noisy_circuit()
        for model in MODELS.values():
            fused = compile_circuit(circuit, model, fuse=True)
            unfused = compile_circuit(circuit, model, fuse=False)
            assert fused.positions <= unfused.positions
            dense = DensityMatrixSimulator(3)
            dense.run_channels(fused)
            reference = DensityMatrixSimulator(3)
            reference.run_channels(unfused)
            np.testing.assert_allclose(
                dense.probabilities(), reference.probabilities(), atol=1e-12
            )

    def test_identity_elision(self):
        circuit = Circuit(2)
        circuit.h(0).h(0)  # cancels to the identity
        program = compile_circuit(circuit, None, fuse=True)
        assert program.positions == 0
        assert compile_circuit(circuit, None, fuse=False).positions == 2

    def test_single_qubit_run_fusion(self):
        circuit = Circuit(1)
        circuit.h(0).t(0).s(0).h(0)
        program = compile_circuit(circuit, DepolarizingError(0.05), fuse=True)
        assert program.positions == 1
        assert program.gate_count == 4

    def test_trajectory_only_model_rejected(self):
        class TrajectoryOnly(DepolarizingError):
            channel_exact = False

        with pytest.raises(ValueError, match="no exact channel representation"):
            compile_circuit(_noisy_circuit(), TrajectoryOnly(0.1))

    def test_feedback_rejected(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.measure(0)
        circuit.conditional_gate("x", 0, 1)
        with pytest.raises(ValueError, match="trajectory-free"):
            compile_circuit(circuit, None)

    def test_confusion_attached_only_with_measurements(self):
        measured = compile_circuit(_noisy_circuit(), MODELS["measurement"])
        np.testing.assert_allclose(measured.confusion, [[0.9, 0.1], [0.1, 0.9]])
        bare = Circuit(2)
        bare.h(0)
        assert compile_circuit(bare, MODELS["measurement"]).confusion is None

    def test_spectators_outside_register_dropped(self):
        model = CrosstalkError(0.2, neighbours={0: (1, 7), 1: (0, 9)})
        circuit = Circuit(2)
        circuit.cnot(0, 1)
        program = compile_circuit(circuit, model, fuse=False)
        touched = {q for op in program.ops for q in op.qubits}
        assert touched <= {0, 1}

    def test_lift_noise_identity_embedding(self):
        noise = Channel.phase_flip(0.3).ptm
        lifted = _lift_noise_to(noise, (1,), (0, 1))
        np.testing.assert_allclose(lifted, np.kron(np.eye(4), noise))
        lifted = _lift_noise_to(noise, (0,), (0, 1))
        np.testing.assert_allclose(lifted, np.kron(noise, np.eye(4)))

    def test_lift_noise_operand_permutation(self):
        rng = np.random.default_rng(5)
        ptm = rng.normal(size=(16, 16))
        permuted = _lift_noise_to(ptm, (1, 0), (0, 1))
        tensor = ptm.reshape(4, 4, 4, 4)
        np.testing.assert_allclose(
            permuted, tensor.transpose(1, 0, 3, 2).reshape(16, 16)
        )
        # Round-trips: permuting twice restores the original PTM.
        np.testing.assert_allclose(_lift_noise_to(permuted, (1, 0), (0, 1)), ptm)

    def test_lift_noise_rejects_partial_multiqubit_overlap(self):
        with pytest.raises(ValueError):
            _lift_noise_to(np.eye(16), (0, 2), (0, 1))


class TestEngineParity:
    def test_compiled_path_matches_contraction_engine(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            n = int(rng.integers(2, 6))
            bare = Circuit(n)
            for _ in range(10):
                kind = int(rng.integers(4))
                q = int(rng.integers(n))
                if kind == 0:
                    bare.h(q)
                elif kind == 1:
                    bare.rx(q, float(rng.uniform(0, 6.28)))
                elif kind == 2:
                    bare.t(q)
                else:
                    other = int(rng.integers(n))
                    if other != q:
                        bare.cnot(q, other)
            dense = DensityMatrixSimulator(n)
            dense.run_channels(compile_circuit(bare, None))
            legacy = ContractionDensityMatrix(n)
            legacy.run(bare)
            np.testing.assert_allclose(
                dense.probabilities(), legacy.probabilities(), atol=1e-10
            )
            assert dense.purity() == pytest.approx(legacy.purity(), abs=1e-10)

    def test_depolarizing_channel_matches_legacy_kraus(self):
        circuit = Circuit(4)
        circuit.h(0).cnot(0, 1).cnot(1, 2).cnot(2, 3)
        dense = DensityMatrixSimulator(4)
        dense.run_channels(compile_circuit(circuit, DepolarizingError(0.08)))
        legacy = ContractionDensityMatrix(4, depolarizing_rate=0.08)
        legacy.run(circuit)
        np.testing.assert_allclose(
            dense.probabilities(), legacy.probabilities(), atol=1e-10
        )

    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1)])
    def test_two_qubit_operand_order(self, qubits):
        """cnot control/target must land identically on engine and statevector."""
        circuit = Circuit(4)
        circuit.h(qubits[0])
        circuit.cnot(*qubits)
        dense = DensityMatrixSimulator(4)
        dense.run_channels(compile_circuit(circuit, None))
        amplitudes = QXSimulator(seed=0).statevector(circuit)
        np.testing.assert_allclose(
            dense.probabilities(), np.abs(amplitudes) ** 2, atol=1e-10
        )

    def test_dense_kernels_match_generic_reference(self):
        """Every ordered qubit pair must agree with the tensor contraction."""
        rng = np.random.default_rng(9)
        n = 4
        for q0 in range(n):
            for q1 in range(n):
                if q0 == q1:
                    continue
                ptm = rng.normal(size=(16, 16))
                vector = rng.normal(size=4**n)
                dense = DensityMatrixSimulator(n)
                dense.vector = vector.copy()
                dense.apply_ptm(ptm, (q0, q1))
                tensor = vector.reshape((4,) * n)
                axes = [n - 1 - q0, n - 1 - q1]
                contracted = np.tensordot(
                    ptm.reshape(4, 4, 4, 4), tensor, axes=([2, 3], axes)
                )
                reference = np.moveaxis(contracted, [0, 1], axes).reshape(-1)
                np.testing.assert_allclose(dense.vector, reference, atol=1e-10)

    def test_float32_engine_runs(self):
        dense = DensityMatrixSimulator(3, dtype=np.float32)
        dense.run_channels(compile_circuit(_noisy_circuit(), DepolarizingError(0.05)))
        assert dense.vector.dtype == np.float32
        assert dense.probabilities().sum() == pytest.approx(1.0, abs=1e-5)


class TestDispatchArbitration:
    """Auto-dispatch keeps compiled-noise circuits on the state vector;
    only ``backend="density"`` pins the exact channel engine."""

    @staticmethod
    def _profile(noise="channel"):
        from repro.qx.backends import profile_program
        from repro.qx.compiled import program_for

        circuit = Circuit(4)
        circuit.h(0)
        for qubit in range(3):
            circuit.cnot(qubit, qubit + 1)
        circuit.rx(0, 0.3)  # non-Clifford: keep the stabilizer tier out
        circuit.measure_all()
        return profile_program(program_for(circuit), shots=500, noise=noise)

    def test_channel_noise_stays_on_statevector(self):
        from repro.qx.backends import choose

        assert choose(self._profile()) == "statevector"

    def test_trajectory_only_noise_stays_on_statevector(self):
        from repro.qx.backends import choose

        assert choose(self._profile(noise="trajectory")) == "statevector"

    def test_density_pin_accepts_channel_noise(self):
        from repro.qx.backends import validate

        assert validate("density", self._profile()) == "density"


class TestTrajectoryMatchesChannel:
    """Seeded trajectory sampling must match the exact channel statistically."""

    @staticmethod
    def _exact_distribution(circuit, model):
        program = compile_circuit(circuit, model)
        engine = DensityMatrixSimulator(circuit.num_qubits)
        engine.run_channels(program)
        probabilities = engine.probabilities()
        confusion = program.confusion
        if confusion is not None:
            confusion = np.asarray(confusion)
            for qubit in range(circuit.num_qubits):
                view = probabilities.reshape(-1, 2, 2**qubit)
                zero = view[:, 0, :].copy()
                one = view[:, 1, :]
                view[:, 0, :] = confusion[0, 0] * zero + confusion[1, 0] * one
                view[:, 1, :] = confusion[0, 1] * zero + confusion[1, 1] * one
        return probabilities

    @pytest.mark.parametrize("name", sorted(set(MODELS) - {"crosstalk"}))
    def test_chi_square_agreement(self, name):
        model = MODELS[name]
        circuit = _noisy_circuit()
        shots = 3000
        result = QXSimulator(error_model=model, seed=31).run(
            circuit, shots=shots, backend="statevector"
        )
        probabilities = self._exact_distribution(circuit, model)
        statistic = 0.0
        for index in range(probabilities.size):
            expected = probabilities[index] * shots
            if expected < 5.0:
                continue
            key = format(index, f"0{circuit.num_qubits}b")
            observed = result.counts.get(key, 0)
            statistic += (observed - expected) ** 2 / expected
        # chi2(dof<=7) critical value at alpha=0.001 is 24.3; the seed is
        # pinned, so this is a deterministic regression bound, not a flake.
        assert statistic < 24.3, (name, statistic)

    def test_crosstalk_trajectory_matches_channel(self):
        """Crosstalk dephases spectators: compare Z-basis marginals."""
        model = MODELS["crosstalk"]
        circuit = Circuit(3)
        circuit.h(2).cnot(0, 1)  # crosstalk dephases spectator 2
        circuit.h(2)  # map phase error to a bit flip
        circuit.measure_all()
        shots = 3000
        result = QXSimulator(error_model=model, seed=37).run(
            circuit, shots=shots, backend="statevector"
        )
        probabilities = self._exact_distribution(circuit, model)
        flipped = sum(
            count for key, count in result.counts.items() if key[0] == "1"
        )
        expected = probabilities.reshape(2, -1)[1].sum() * shots
        assert expected > 100
        assert abs(flipped - expected) < 5.0 * np.sqrt(expected)


class TestBitIdentityRegression:
    """Trajectory streams are bit-identical to the pre-refactor fixtures.

    The fixtures were captured from the implementation as it stood before
    the channel refactor (same circuit, seeds and draw pattern); any change
    to the rng consumption order of an error model breaks these digests.
    """

    @staticmethod
    def _fixtures():
        with open(FIXTURES) as handle:
            return json.load(handle)

    @staticmethod
    def _circuit():
        circuit = Circuit(3)
        circuit.h(0).cnot(0, 1).x(2).cnot(1, 2).h(2).measure_all()
        return circuit

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_simulator_stream(self, name):
        reference = self._fixtures()["simulator_runs"][name]
        result = QXSimulator(error_model=MODELS[name], seed=1234).run(
            self._circuit(), shots=200
        )
        digest = hashlib.sha256(
            np.asarray(result.classical_bits, dtype=np.int64).tobytes()
        ).hexdigest()
        assert dict(sorted(result.counts.items())) == reference["counts"]
        assert result.errors_injected == reference["errors_injected"]
        assert digest == reference["bits_sha256"]

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_direct_stream(self, name):
        reference = self._fixtures()["direct"][name]
        model = MODELS[name]
        rng = np.random.default_rng(99)
        state = StateVector(3, rng=rng)
        for qubit in range(3):
            state.amplitudes = kernels.apply_gate_inplace(state.amplitudes, H, (qubit,))
        injections = [model.apply_after_gate(state, (0, 1), 30.0, rng) for _ in range(50)]
        amp_digest = hashlib.sha256(np.round(state.amplitudes, 12).tobytes()).hexdigest()
        flips = [model.flip_measurement(0, rng) for _ in range(20)]
        assert injections == reference["injections"]
        assert amp_digest == reference["amp_sha256"]
        assert flips == reference["flips"]
