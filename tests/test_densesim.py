import numpy as np
import pytest

import syntomo as st

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)


def test_outer_basis_vector():
    m = st.outer(E0)
    assert m[0, 0] == 1.0
    assert np.count_nonzero(m) == 1


def test_outer_plus_state():
    plus = (E0 + E1) / np.sqrt(2)
    np.testing.assert_allclose(st.outer(plus), np.full((2, 2), 0.5),
                               atol=1e-15)


def test_outer_trace_is_norm(rng):
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    np.testing.assert_allclose(np.trace(st.outer(v)),
                               np.linalg.norm(v) ** 2, atol=1e-12)


def test_projector_from_single_state():
    proj = st.projector_from_states([E0])
    np.testing.assert_allclose(proj, st.outer(E0), atol=1e-15)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-15)


def test_projector_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        st.projector_from_states([E0, (E0 + E1) / np.sqrt(2)])
    with pytest.raises(ValueError):
        st.projector_from_states([2.0 * E0])


def test_apply_unitary_identity():
    rho = st.outer(E0)
    np.testing.assert_allclose(st.apply_unitary(rho, np.eye(2)), rho)


def test_apply_unitary_bit_flip():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(st.apply_unitary(st.outer(E0), x),
                               st.outer(E1), atol=1e-15)


def test_apply_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        st.apply_unitary(st.outer(E0), np.array([[1, 0], [0, 0.5]],
                                                dtype=complex))


def test_apply_channel_identity():
    rho = st.outer((E0 + 1j * E1) / np.sqrt(2))
    out = st.apply_channel(rho, [np.eye(2, dtype=complex)], [0])
    np.testing.assert_allclose(out, rho, atol=1e-15)


def test_apply_channel_correlated_flip_on_ground_state():
    p = 0.3
    kraus = [np.sqrt(1 - p) * np.eye(4, dtype=complex),
             np.sqrt(p) * st.to_matrix(st.pauli_from_string("XX"))]
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    out = st.apply_channel(rho, kraus, [0, 1])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1 - p
    expected[3, 3] = p
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_apply_channel_amplitude_damping_on_excited_state():
    lam = 0.4
    ch = st.builtin_channel("amplitude-damping", [lam])
    out = st.apply_channel(st.outer(E1), ch.kraus, [0])
    np.testing.assert_allclose(out, np.diag([lam, 1 - lam]), atol=1e-12)


def test_apply_channel_on_subsystem():
    # flip qubit 1 of three, leave the rest alone
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    out = st.apply_channel(rho, [x], [1])
    expected = np.zeros((8, 8), dtype=complex)
    expected[2, 2] = 1.0
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_apply_channel_rejects_overcomplete_kraus():
    kraus = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
    with pytest.raises(ValueError):
        st.apply_channel(st.outer(E0), kraus, [0])


def test_apply_channel_allows_trace_decreasing():
    half = [np.sqrt(0.5) * np.eye(2, dtype=complex)]
    out = st.apply_channel(st.outer(E0), half, [0])
    np.testing.assert_allclose(out, 0.5 * st.outer(E0), atol=1e-15)


def test_embed_operator_single_site():
    x = st.to_matrix(st.pauli_from_string("X"))
    np.testing.assert_allclose(st.embed_operator(x, [1], 3),
                               st.to_matrix(st.pauli_from_string("IXI")),
                               atol=1e-15)


def test_embed_operator_reordered_coords():
    # first tensor factor of the operator lands on coords[0]
    zx = st.to_matrix(st.pauli_from_string("ZX"))
    np.testing.assert_allclose(st.embed_operator(zx, [2, 0], 3),
                               st.to_matrix(st.pauli_from_string("XIZ")),
                               atol=1e-15)


def test_expectation_identity_gives_trace(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = st.outer(v)
    assert abs(st.expectation(rho, np.eye(4)) - 1.0) < 1e-12


def test_expectation_orthogonal_states():
    assert st.expectation(st.outer(E0), st.outer(E1)) == 0.0


def test_expectation_maximally_mixed():
    rho = np.eye(2, dtype=complex) / 2
    assert abs(st.expectation(rho, st.outer(E0)) - 0.5) < 1e-15
