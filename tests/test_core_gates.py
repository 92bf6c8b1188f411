"""Unit tests for the gate library."""

import math

import numpy as np
import pytest

from oracles.operator_reference import equivalent_to, is_unitary
from repro.core.gates import (
    GateSet,
    build_gate,
    cnot_gate,
    cr_gate,
    crk_gate,
    cz_gate,
    h_gate,
    rx_gate,
    ry_gate,
    rz_gate,
    s_gate,
    sdag_gate,
    standard_gate_set,
    swap_gate,
    t_gate,
    tdag_gate,
    toffoli_gate,
    x_gate,
    y_gate,
    z_gate,
)


ALL_FIXED_GATES = [
    "i", "x", "y", "z", "h", "s", "sdag", "t", "tdag",
    "x90", "y90", "mx90", "my90", "cnot", "cz", "swap", "toffoli",
]


@pytest.mark.parametrize("name", ALL_FIXED_GATES)
def test_every_standard_gate_is_unitary(name):
    assert is_unitary(build_gate(name))


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, math.pi, 2.5, -1.2])
@pytest.mark.parametrize("builder", [rx_gate, ry_gate, rz_gate, cr_gate])
def test_parametric_gates_are_unitary(builder, theta):
    assert is_unitary(builder(theta))


def test_gate_matrix_dimension_checked():
    with pytest.raises(ValueError):
        from repro.core.gates import Gate

        Gate("bad", 2, np.eye(2, dtype=complex))


def test_pauli_algebra():
    x, y, z = x_gate().matrix, y_gate().matrix, z_gate().matrix
    np.testing.assert_allclose(x @ y, 1j * z, atol=1e-12)
    np.testing.assert_allclose(x @ x, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(y @ y, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(z @ z, np.eye(2), atol=1e-12)


def test_hadamard_conjugates_x_to_z():
    h = h_gate().matrix
    np.testing.assert_allclose(h @ x_gate().matrix @ h, z_gate().matrix, atol=1e-12)


def test_s_squared_is_z_and_t_squared_is_s():
    np.testing.assert_allclose(s_gate().matrix @ s_gate().matrix, z_gate().matrix, atol=1e-12)
    np.testing.assert_allclose(t_gate().matrix @ t_gate().matrix, s_gate().matrix, atol=1e-12)


def test_sdag_tdag_are_adjoints():
    np.testing.assert_allclose(sdag_gate().matrix, s_gate().matrix.conj().T, atol=1e-12)
    np.testing.assert_allclose(tdag_gate().matrix, t_gate().matrix.conj().T, atol=1e-12)


def test_dagger_returns_inverse():
    gate = rx_gate(0.7)
    product = gate.dagger().matrix @ gate.matrix
    np.testing.assert_allclose(product, np.eye(2), atol=1e-12)


def test_dagger_name_round_trips():
    assert t_gate().dagger().name == "tdag"
    assert t_gate().dagger().dagger().name == "t"


def test_cnot_flips_target_when_control_set():
    cnot = cnot_gate().matrix
    # |10> (control=1, target=0) -> |11>; operand 0 is the MSB of the index.
    state = np.zeros(4)
    state[2] = 1.0
    out = cnot @ state
    assert abs(out[3] - 1.0) < 1e-12


def test_cz_is_diagonal_with_single_minus_one():
    diag = np.diag(cz_gate().matrix)
    assert np.count_nonzero(np.isclose(diag, -1.0)) == 1
    assert np.isclose(diag[3], -1.0)


def test_swap_exchanges_basis_states():
    swap = swap_gate().matrix
    state = np.zeros(4)
    state[1] = 1.0  # |01>
    np.testing.assert_allclose(swap @ state, np.eye(4)[2], atol=1e-12)


def test_toffoli_only_flips_when_both_controls_set():
    toffoli = toffoli_gate().matrix
    for basis in range(8):
        out = toffoli @ np.eye(8)[basis]
        expected = basis ^ 1 if (basis & 0b110) == 0b110 else basis
        assert abs(out[expected] - 1.0) < 1e-12


def test_crk_matches_cr_angle():
    k = 3
    crk = crk_gate(k)
    cr = cr_gate(2 * math.pi / 2 ** k)
    assert equivalent_to(crk, cr)


def test_rotation_composition():
    a, b = 0.4, 1.1
    composed = rz_gate(a).matrix @ rz_gate(b).matrix
    assert equivalent_to(
        rz_gate(a + b), type(rz_gate(a))("rz", 1, composed, params=(a + b,), duration=20)
    )


def test_equivalent_to_ignores_global_phase():
    gate = rz_gate(math.pi)
    phased = type(gate)("z_phased", 1, 1j * gate.matrix, duration=20)
    assert equivalent_to(gate, phased)
    assert not equivalent_to(gate, x_gate())


def test_gate_set_contains_and_get():
    gate_set = standard_gate_set()
    assert "h" in gate_set
    assert "rx" in gate_set
    assert gate_set.get("cnot").num_qubits == 2
    assert gate_set.get("rx", 0.5).params == (0.5,)
    with pytest.raises(KeyError):
        gate_set.get("nonexistent")


def test_gate_set_add_custom():
    gate_set = GateSet()
    gate_set.add(h_gate())
    assert gate_set.names() == ["h"]
    assert gate_set.get("h").name == "h"


def test_build_gate_crk():
    gate = build_gate("crk", 2)
    assert gate.name == "crk"
    assert gate.num_qubits == 2
