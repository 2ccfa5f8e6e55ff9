"""Phase-exact Pauli algebra against dense matrices."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import syntomo as st
from syntomo import pauli
from syntomo.pauli import MATRIX_QUBIT_CAP, PauliOperator, apply_pauli


def word(text, n=None):
    return st.pauli_from_string(text, n)


def test_single_qubit_matrices():
    I = st.to_matrix(word("I"))
    Z = st.to_matrix(word("Z"))
    X = st.to_matrix(word("X"))
    Y = st.to_matrix(word("Y"))
    np.testing.assert_array_equal(I, np.eye(2))
    np.testing.assert_array_equal(Z, np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(X, np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(Y, np.array([[0, -1j], [1j, 0]]), atol=0)


def kron_matrix(p):
    """Reference rendering from the word's string form: the prefix's
    phase times a chain of Kronecker products of its letters, the first
    letter first."""
    text = st.pauli_to_string(p)
    letters = text.lstrip("−i")
    phase = {"": 1, "i": 1j, "−": -1, "−i": -1j}[text[:len(text) - len(letters)]]
    factors = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
               "Z": np.diag([1, -1]), "Y": np.array([[0, -1j], [1j, 0]])}
    out = np.eye(1, dtype=complex)
    for letter in letters:
        out = np.kron(out, factors[letter])
    return phase * out


def test_matrix_matches_kronecker_chain():
    for n in range(1, 6):
        for x_mask in range(1 << n):
            for z_mask in range(1 << n):
                for phase in range(4):
                    p = PauliOperator(n, x_mask, z_mask, phase)
                    np.testing.assert_array_equal(st.to_matrix(p), kron_matrix(p))


def test_qubit_zero_is_leftmost_letter():
    # the first string letter is the most significant tensor factor
    zx = st.to_matrix(word("ZX"))
    np.testing.assert_allclose(
        zx, np.kron(st.to_matrix(word("Z")), st.to_matrix(word("X"))))


def test_x_times_y_gives_plus_i_z():
    e, w = st.pauli_mul(word("X"), word("Y"))
    assert 1j ** e == 1j
    assert st.pauli_to_string(w) == "Z"
    assert w.phase_exp == 0


def test_product_phase_matches_matrices_exhaustively():
    ops = [word(s) for s in "IZXY"]
    for p in ops:
        for q in ops:
            e, w = st.pauli_mul(p, q)
            lhs = st.to_matrix(p) @ st.to_matrix(q)
            np.testing.assert_allclose(lhs, 1j ** e * st.to_matrix(w),
                                       atol=1e-15)


def test_product_phase_matches_matrices_two_qubits(rng):
    letters = "IZXY"
    for _ in range(40):
        a = "".join(rng.choice(list(letters), size=2))
        b = "".join(rng.choice(list(letters), size=2))
        e, w = st.pauli_mul(word(a), word(b))
        lhs = st.to_matrix(word(a)) @ st.to_matrix(word(b))
        np.testing.assert_allclose(lhs, 1j ** e * st.to_matrix(w), atol=1e-15)


def test_commutes_matches_matrix_commutator():
    letters = "IZXY"
    for a0 in letters:
        for a1 in letters:
            for b0 in letters:
                for b1 in letters:
                    p, q = word(a0 + a1), word(b0 + b1)
                    ma, mb = st.to_matrix(p), st.to_matrix(q)
                    flat = bool(np.allclose(ma @ mb, mb @ ma))
                    assert st.commutes(p, q) == flat


def test_commutes_three_qubits(rng):
    letters = list("IZXY")
    for _ in range(60):
        a = "".join(rng.choice(letters, size=3))
        b = "".join(rng.choice(letters, size=3))
        p, q = word(a), word(b)
        ma, mb = st.to_matrix(p), st.to_matrix(q)
        assert st.commutes(p, q) == bool(np.allclose(ma @ mb, mb @ ma))


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        st.pauli_mul(word("X"), word("XX"))
    with pytest.raises(ValueError):
        st.commutes(word("XX"), word("X"))


def test_hermitian_flag_matches_matrix():
    for text in ("X", "Y", "iY", "ZZ", "iXZ", "−iXZ", "XY", "iXY"):
        op = word(text)
        m = st.to_matrix(op)
        assert op.is_hermitian == bool(np.allclose(m, m.conj().T))


def test_string_round_trip():
    for text in ("I", "X", "+Y", "-Z", "−Z", "iX", "+iY", "-iZ", "−iXZY"):
        op = word(text)
        again = st.pauli_from_string(st.pauli_to_string(op))
        assert again == op


def test_minus_sign_emitted_in_unicode():
    op = word("-Y")
    assert st.pauli_to_string(op) == "−Y"


def test_bad_strings_rejected():
    for text in ("", "Q", "Xq", "ii", "+", "i"):
        with pytest.raises(ValueError):
            st.pauli_from_string(text)
    with pytest.raises(ValueError):
        st.pauli_from_string("XX", n=3)


def test_operator_validation():
    with pytest.raises(ValueError):
        PauliOperator(n=1, x_mask=2, z_mask=0, phase_exp=0)
    with pytest.raises(ValueError):
        PauliOperator(n=0, x_mask=0, z_mask=0, phase_exp=0)
    # phase exponent is normalized, not rejected
    assert PauliOperator(n=1, x_mask=0, z_mask=0, phase_exp=5).phase_exp == 1


def test_matrix_cap():
    big = PauliOperator(n=MATRIX_QUBIT_CAP + 1, x_mask=0, z_mask=0,
                        phase_exp=0)
    with pytest.raises(ValueError):
        st.to_matrix(big)


def test_apply_matches_the_dense_matrix_bit_for_bit(rng):
    # every word and phase on up to 3 qubits, on a vector and a stack
    for n in range(1, 4):
        vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        stack = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
        for x_mask in range(1 << n):
            for z_mask in range(1 << n):
                for phase in range(4):
                    p = PauliOperator(n, x_mask, z_mask, phase)
                    m = st.to_matrix(p)
                    np.testing.assert_array_equal(apply_pauli(p, vec), m @ vec)
                    np.testing.assert_array_equal(apply_pauli(p, stack),
                                                  m @ stack)


def test_numpy_floor_has_bitwise_count():
    """The declared numpy floor admits no release without np.bitwise_count,
    which ``apply_pauli`` and the product table read signs through. A
    regex, since tomllib needs Python 3.11."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', pyproject.read_text(encoding="utf-8"))
    assert floor is not None, "pyproject.toml declares no numpy floor"
    assert tuple(map(int, floor.groups())) >= (2, 0), (
        "numpy>=%s.%s admits numpy 1.x, which has no np.bitwise_count (new in 2.0)"
        % floor.groups())


@settings(max_examples=60, deadline=None)
@given(n=hs.integers(1, pauli.MASK_QUBIT_CAP), data=hs.data())
def test_register_masks_are_the_words_own_masks(n, data):
    """The mask array's rows are the words' own masks and phases, as
    int64, and every word's string form parses back to the word."""
    masks = hs.integers(0, (1 << n) - 1)
    words = [PauliOperator(n, data.draw(masks), data.draw(masks), data.draw(hs.integers(0, 3)))
             for _ in range(data.draw(hs.integers(1, 5)))]
    want = [[w.x_mask for w in words], [w.z_mask for w in words],
            [w.phase_exp for w in words]]
    got = pauli._register_masks(words)
    assert got.dtype == np.int64 and got.tolist() == want
    for w in words:
        text = st.pauli_to_string(w)
        assert st.pauli_from_string(text, n) == w
        assert st.pauli_to_string(st.pauli_from_string(text)) == text


def test_register_masks_refuse_more_than_62_qubits():
    with pytest.raises(ValueError, match=r"^Pauli masks are capped at 62 qubits "
                                         r"\(int64\), got 63$"):
        pauli._register_masks([PauliOperator(63, 1 << 62, 0)])


def test_apply_rejects_a_wrong_length():
    p = word("XYZ")
    for bad in (np.ones(4), np.ones(16), np.ones((4, 2)), np.ones((8, 2, 2))):
        with pytest.raises(ValueError, match="needs 8 rows"):
            apply_pauli(p, bad)


def test_non_string_word_is_a_type_error():
    for bad in (5, None, ["X"], b"X"):
        with pytest.raises(TypeError, match="must be a string"):
            st.pauli_from_string(bad)


class TestErrorBasis:
    def test_sizes(self):
        assert st.enumerate_error_basis(5, [0, 1]).size == 16
        assert st.enumerate_error_basis(3, [0]).size == 4

    def test_single_qubit_order(self):
        basis = st.enumerate_error_basis(3, [0])
        assert [basis.label(i) for i in range(4)] == ["I", "Z", "X", "Y"]
        assert [st.pauli_to_string(e) for e in basis.elements] == \
            ["III", "ZII", "XII", "YII"]

    def test_elements_hermitian(self):
        basis = st.enumerate_error_basis(5, [0, 1])
        for e in basis.elements:
            assert e.is_hermitian

    def test_non_string_label_is_a_type_error(self):
        # the empty basis (p = 0) included
        for basis in (st.enumerate_error_basis(3, []),
                      st.enumerate_error_basis(3, [1])):
            assert basis.index_of_label("I") == 0
            for bad in (5, None, ["I"], b"I"):
                with pytest.raises(TypeError, match="must be a string"):
                    basis.index_of_label(bad)

    def test_label_index_round_trip(self):
        basis = st.enumerate_error_basis(5, [0, 1])
        for i in range(basis.size):
            assert basis.index_of_label(basis.label(i)) == i

    @settings(max_examples=40, deadline=None)
    @given(data=hs.data())
    def test_index_is_the_word_of_its_bits(self, data):
        """Element i is the p-qubit word i^y X^(i >> p) Z^(i mod 2^p),
        y its Y count, placed on the coordinates in their order: its
        label is that word's string and indexes back to i, whatever the
        coordinates' order."""
        p = data.draw(hs.integers(0, 4))
        n_total = data.draw(hs.integers(max(p, 1), p + 2))
        coords = data.draw(hs.permutations(range(n_total)))[:p]
        basis = st.enumerate_error_basis(n_total, coords)
        assert basis.size == 4 ** p

        def placed(mask):
            return sum((mask >> (p - 1 - j) & 1) << (n_total - 1 - c)
                       for j, c in enumerate(coords))

        for i, element in enumerate(basis.elements):
            u, v = i >> p, i & ((1 << p) - 1)
            y = (u & v).bit_count()
            want = st.pauli_to_string(PauliOperator(p, u, v, y)) if p else "I"
            assert basis.label(i) == want
            assert element == PauliOperator(n_total, placed(u), placed(v), y)
            assert basis.index_of_label(basis.label(i)) == i

    def test_labels_are_formatted_once(self, monkeypatch):
        basis = st.enumerate_error_basis(6, [4, 1, 2])
        want = [st.pauli_to_string(PauliOperator(3, i >> 3, i & 7, (i >> 3 & i).bit_count()))
                for i in range(basis.size)]

        def refuse(*args):
            raise AssertionError("label formatted again")

        # every label, and every Pauli string, is formed by these letters
        monkeypatch.setattr(pauli, "_letters", refuse)
        assert basis.labels == tuple(want)
        assert [basis.label(i) for i in range(basis.size)] == want
        # a derived field: equality ignores it
        assert dataclasses.replace(basis, labels=()) == basis

    def test_mul_matches_matrices(self):
        basis = st.enumerate_error_basis(2, [0, 1])
        mats = [st.to_matrix(e) for e in basis.elements]
        for i in range(basis.size):
            for j in range(basis.size):
                k, e = basis.product_index[i, j], basis.product_phase[i, j]
                np.testing.assert_allclose(mats[i] @ mats[j],
                                           1j ** e * mats[k], atol=1e-15)

    def test_mul_factor_is_real_or_imaginary(self):
        # hermitian-basis products never produce mixed phases: the
        # table holds an exponent of i
        basis = st.enumerate_error_basis(2, [0, 1])
        assert np.issubdtype(basis.product_phase.dtype, np.integer)
        assert set(np.unique(basis.product_phase)) <= {0, 1, 2, 3}

    def test_closure(self):
        basis = st.enumerate_error_basis(5, [0, 1])
        assert set(basis.product_index[1].tolist()) == set(range(basis.size))

    def test_coords_validated(self):
        with pytest.raises(ValueError):
            st.enumerate_error_basis(3, [0, 0])
        with pytest.raises(ValueError):
            st.enumerate_error_basis(3, [3])
        for coords in ([True], [0, 1.0], "01", [np.float64(0)]):
            with pytest.raises(TypeError, match="^noisy coordinates must be integers"):
                st.enumerate_error_basis(3, coords)

    def test_numpy_integer_coords_are_ints(self):
        basis = st.enumerate_error_basis(3, np.array([2, 0]))
        assert basis.coords == (2, 0) and all(type(c) is int for c in basis.coords)
        assert basis.labels == st.enumerate_error_basis(3, [2, 0]).labels

    def test_empty_coords_give_trivial_basis(self):
        basis = st.enumerate_error_basis(3, [])
        assert basis.size == 1
        assert basis.label(0) == "I"
        assert basis.elements[0].is_identity

    def test_noncontiguous_coords(self):
        basis = st.enumerate_error_basis(4, [1, 3])
        assert basis.size == 16
        lbl = basis.label(basis.index_of_label("XY"))
        assert lbl == "XY"
        embedded = basis.elements[basis.index_of_label("XY")]
        assert st.pauli_to_string(embedded) == "IXIY"


@hs.composite
def basis_and_pair(draw):
    """An error basis on p in {1, 2, 3} random coordinates, two indices."""
    p = draw(hs.integers(1, 3))
    n_total = draw(hs.integers(p, p + 2))
    coords = draw(hs.permutations(range(n_total)))[:p]
    basis = st.enumerate_error_basis(n_total, coords)
    i = draw(hs.integers(0, basis.size - 1))
    j = draw(hs.integers(0, basis.size - 1))
    return basis, i, j


@settings(max_examples=150, deadline=None)
@given(basis_and_pair())
def test_product_table_matches_matrices_and_pauli_mul(case):
    basis, i, j = case
    k, e = basis.product_index[i, j], basis.product_phase[i, j]
    f_i, f_j, f_k = (basis.elements[m] for m in (i, j, k))
    np.testing.assert_allclose(st.to_matrix(f_i) @ st.to_matrix(f_j),
                               1j ** e * st.to_matrix(f_k), atol=1e-15)
    h, w = st.pauli_mul(f_i, f_j)
    assert (w.x_mask, w.z_mask) == (f_k.x_mask, f_k.z_mask)
    assert e == (h - f_k.phase_exp) % 4
