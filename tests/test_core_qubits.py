"""Unit tests for the real / realistic / perfect qubit models."""

import math

import pytest

from repro.core.qubits import PERFECT, REAL_SPIN, REAL_TRANSMON, REALISTIC, QubitModel
from repro.qx.error_models import DecoherenceError


def _decoherence(model: QubitModel) -> DecoherenceError:
    """The T1/T2 error model a qubit model's coherence times define."""
    return DecoherenceError(t1_ns=model.t1_ns, t2_ns=model.t2_ns)


def test_perfect_qubits_have_no_errors():
    assert PERFECT.is_perfect
    assert PERFECT.single_qubit_error_rate == 0.0


def test_realistic_qubits_enforce_nearest_neighbour():
    assert REALISTIC.nearest_neighbour_only
    assert not PERFECT.nearest_neighbour_only


def test_real_models_have_finite_coherence():
    for model in (REAL_TRANSMON, REAL_SPIN):
        assert model.t1_ns < float("inf")
        assert model.kind == "real"


def test_invalid_kind_rejected():
    with pytest.raises(ValueError):
        QubitModel(
            kind="imaginary",
            t1_ns=1.0,
            t2_ns=1.0,
            single_qubit_error_rate=0.0,
            two_qubit_error_rate=0.0,
            measurement_error_rate=0.0,
        )


def test_invalid_error_rate_rejected():
    with pytest.raises(ValueError):
        QubitModel(
            kind="realistic",
            t1_ns=1.0,
            t2_ns=1.0,
            single_qubit_error_rate=1.5,
            two_qubit_error_rate=0.0,
            measurement_error_rate=0.0,
        )


def test_nonpositive_coherence_rejected():
    with pytest.raises(ValueError):
        QubitModel(
            kind="realistic",
            t1_ns=0.0,
            t2_ns=1.0,
            single_qubit_error_rate=0.0,
            two_qubit_error_rate=0.0,
            measurement_error_rate=0.0,
        )


def test_decay_probability_follows_exponential():
    model = REAL_TRANSMON
    duration = 10_000.0
    expected = 1.0 - math.exp(-duration / model.t1_ns)
    p_decay, _ = _decoherence(model).decay_probabilities(duration)
    assert abs(p_decay - expected) < 1e-12
    # Longer duration, higher decay probability.
    assert (
        _decoherence(model).decay_probabilities(20_000.0)[0]
        > _decoherence(model).decay_probabilities(10_000.0)[0]
    )
    assert _decoherence(PERFECT).decay_probabilities(1e9) == (0.0, 0.0)


def test_dephasing_probability_nonnegative():
    assert _decoherence(REAL_TRANSMON).decay_probabilities(5_000.0)[1] >= 0.0
    assert _decoherence(REAL_SPIN).decay_probabilities(5_000.0)[1] >= 0.0


def test_with_error_rate_scales_all_channels():
    scaled = REALISTIC.with_error_rate(1e-5)
    assert scaled.single_qubit_error_rate == pytest.approx(1e-5)
    ratio_before = REALISTIC.two_qubit_error_rate / REALISTIC.single_qubit_error_rate
    ratio_after = scaled.two_qubit_error_rate / scaled.single_qubit_error_rate
    assert ratio_after == pytest.approx(ratio_before)


def test_with_error_rate_zero_becomes_perfect_kind():
    scaled = REALISTIC.with_error_rate(0.0)
    assert scaled.kind == "perfect"
    assert scaled.two_qubit_error_rate == 0.0


def test_with_error_rate_caps_at_one():
    scaled = REALISTIC.with_error_rate(0.5)
    assert scaled.two_qubit_error_rate <= 1.0
    assert scaled.measurement_error_rate <= 1.0
