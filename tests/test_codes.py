"""Built-in codes, code construction, and syndrome machinery."""

import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import syntomo as st
from conftest import (BELL2_CODE, FRAME_CODES, bell_pair_generators, built_frame_code,
                      fresh_builtin, register, rotated_surface_generators)
from syntomo import cli, jsonio
from syntomo.pauli import ErrorBasis


def ket(n, *indices_and_signs):
    v = np.zeros(1 << n, dtype=complex)
    for idx, sign in indices_and_signs:
        v[idx] = sign
    return v / np.linalg.norm(v)


# |001>, |010>, |100>, |111> with equal weight
ZERO3 = ket(3, (1, 1), (2, 1), (4, 1), (7, 1))
# |110> - |101> + |011> - |000>
ONE3 = ket(3, (6, 1), (5, -1), (3, 1), (0, -1))

def code_projector(code):
    """Projector onto the span of the code's logical basis, which is
    orthonormal: W W† with W the basis as columns."""
    basis = np.column_stack(code.logical_basis)
    return basis @ basis.conj().T


ZERO5 = ket(5, (0b00000, 1), (0b00110, 1), (0b01001, 1), (0b01111, -1),
            (0b10011, -1), (0b10101, 1), (0b11010, 1), (0b11100, 1))
# XXXXX ZERO5: XXXXX maps |x> to |31 - x>
ONE5 = ZERO5[::-1].copy()

# the textbook codewords of the built-in codes, which derive their bases
# from generators and logical operators
REFERENCE_CODEWORDS = {"code3": (ZERO3, ONE3), "code5": (ZERO5, ONE5)}


class TestBuiltinThreeQubit:
    def test_shape(self, code3):
        assert (code3.n, code3.k) == (3, 1)
        assert code3.noisy_coords == (0,)
        assert code3.d2 == 4

    def test_codewords(self, code3):
        np.testing.assert_allclose(code3.logical_basis[0], ZERO3, atol=1e-15)
        np.testing.assert_allclose(code3.logical_basis[1], ONE3, atol=1e-15)

    def test_generators_stabilize_codewords(self, code3):
        for gen in code3.generators:
            m = st.to_matrix(gen)
            for v in code3.logical_basis:
                np.testing.assert_allclose(m @ v, v, atol=1e-12)

    def test_syndrome_table(self, code3):
        # order I, Z, X, Y
        assert code3.syndrome_table == ((0, 0), (1, 1), (0, 1), (1, 0))
        assert len(set(code3.syndrome_table)) == 4

    def test_projector_trace(self, code3):
        proj = code_projector(code3)
        assert abs(np.trace(proj) - 2.0) < 1e-12
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)


class TestBuiltinFiveQubit:
    def test_shape(self, code5):
        assert (code5.n, code5.k) == (5, 1)
        assert code5.noisy_coords == (0, 1)
        assert code5.d2 == 16

    def test_codewords(self, code5):
        np.testing.assert_allclose(code5.logical_basis[0], ZERO5, atol=1e-15)
        flip_all = st.to_matrix(st.pauli_from_string("XXXXX"))
        np.testing.assert_allclose(code5.logical_basis[1], flip_all @ ZERO5,
                                   atol=1e-15)
        assert np.array_equal(flip_all @ ZERO5, ONE5)

    def test_syndromes_injective(self, code5):
        assert len(set(code5.syndrome_table)) == 16

    def test_syndrome_closed_form(self, code5):
        # index packs (u1, u2, v1, v2); coords[0] is the high bit
        for idx in range(16):
            u1, u2 = (idx >> 3) & 1, (idx >> 2) & 1
            v1, v2 = (idx >> 1) & 1, idx & 1
            expected = (u2, v1 ^ v2, u1 ^ v2, u1 ^ u2)
            assert code5.syndrome_table[idx] == expected

    def test_two_qubit_flip_syndrome(self, code5):
        idx = code5.error_basis.index_of_label("XX")
        assert code5.syndrome_table[idx] == (1, 0, 1, 0)

    def test_single_flip_syndrome(self, code5):
        idx = code5.error_basis.index_of_label("XI")
        assert code5.syndrome_table[idx] == (0, 0, 1, 1)


@pytest.mark.parametrize("name", sorted(REFERENCE_CODEWORDS))
def test_builtin_is_a_generator_code_with_the_textbook_basis(name):
    """A built-in holds no codewords: a fresh build and its kl_scan form
    no basis, and the basis it derives on first read is the textbook
    one, as the shared built-in's is. Built from those codewords
    instead, its generators pass every dense gate, with C = I to
    rounding."""
    code = fresh_builtin(name)
    assert code.codewords is None and code.logical_ops is not None
    c, residual = st.kl_scan(code)
    assert residual == 0.0 and np.array_equal(c, np.eye(code.d2))
    assert "logical_basis" not in vars(code)
    reference = REFERENCE_CODEWORDS[name]
    for got, want in zip(code.logical_basis, reference, strict=True):
        assert np.abs(got - want).max() <= 1e-15
    shared = st.builtin_code(name)
    assert shared.generators == code.generators
    for got, want in zip(shared.logical_basis, code.logical_basis, strict=True):
        assert np.array_equal(got, want)
    given = st.build_code(code.generators, code.noisy_coords, codewords=reference)
    assert given.syndrome_table == code.syndrome_table
    c, residual = st.kl_scan(given)
    assert residual <= 1e-15 and np.abs(c - np.eye(code.d2)).max() <= 1e-15


class TestKnillLaflamme:
    def test_three_qubit_coefficients(self, code3):
        c, residual = st.kl_scan(code3)
        np.testing.assert_allclose(c, np.eye(4), atol=1e-10)
        assert residual < 1e-8

    def test_five_qubit_coefficients(self, code5):
        c, residual = st.kl_scan(code5)
        np.testing.assert_allclose(c, np.eye(16), atol=1e-10)
        assert residual < 1e-8

    def test_condition_returns_matrix(self, code3):
        c = st.kl_condition(code3)
        assert c.shape == (4, 4)

    def test_trivial_error_basis(self):
        code = st.build_code(["XIX", "YYZ"], [],
                             codewords=[ZERO3, ONE3])
        c, residual = st.kl_scan(code)
        np.testing.assert_allclose(c, [[1.0]], atol=1e-12)
        assert residual < 1e-12


def dense_kl_scan(code):
    """The error-correcting condition from dense 2^n products: C_ab =
    Tr(Pi F_a† F_b Pi) / Tr(Pi) and the largest entrywise deviation of
    Pi F_a† F_b Pi from C_ab Pi over all error pairs."""
    proj = code_projector(code)
    tr = float(np.trace(proj).real)
    d2 = code.d2
    mats = [st.to_matrix(e) for e in code.error_basis.elements]
    c = np.zeros((d2, d2), dtype=complex)
    residual = 0.0
    for a in range(d2):
        left = proj @ mats[a].conj().T
        for b in range(d2):
            m = left @ mats[b] @ proj
            c_ab = np.trace(m) / tr
            residual = max(residual, float(np.abs(m - c_ab * proj).max()))
            c[a, b] = c_ab
    return c, residual


@pytest.mark.parametrize("name", ["code3", "code5"])
def test_kl_scan_sees_a_perturbed_code_space(name):
    # |0_L> tilted by eps towards F_z|0_L>: still orthogonal to |1_L>,
    # but no longer a code space for the error set; the scan reads the
    # codewords the copy is given, whatever was built before the replace
    code = st.builtin_code(name)
    eps = 1e-6
    zero, one = code.logical_basis
    tilted = (np.cos(eps) * zero
              + np.sin(eps) * (st.to_matrix(code.error_basis.elements[1]) @ zero))
    broken = dataclasses.replace(code, codewords=(tilted, one))
    for scan in (st.kl_scan, dense_kl_scan):
        _, residual = scan(broken)
        assert eps / 20 <= residual <= 2 * eps, scan
    with pytest.raises(ValueError, match="error-correcting condition fails"):
        st.kl_condition(broken)


def error_masks(code):
    """The error words' mask arrays, as the overlap blocks read them."""
    return st.pauli._register_masks(code.error_basis.elements)


def gram_gap(frame):
    """The frame check as it reads on paper: max |frame† frame − I|."""
    return float(np.abs(frame.conj().T @ frame - np.eye(frame.shape[1])).max())


@pytest.mark.parametrize("name", sorted(FRAME_CODES))
@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-6, 1e-3])
def test_frame_gate_equals_the_gram_check(name, eps):
    # |0_L> tilted by eps towards F_1|0_L>; eps = 0 is the code itself
    code = FRAME_CODES[name]()
    words = [st.to_matrix(e) for e in code.error_basis.elements]
    logical = np.column_stack(code.logical_basis)
    logical[:, 0] = (np.cos(eps) * logical[:, 0]
                     + np.sin(eps) * (words[1] @ logical[:, 0]))
    frame = np.hstack([w @ logical for w in words])
    blocks = st.codes._overlap_blocks(logical, error_masks(code))
    blocks[0] -= np.eye(1 << code.k)
    gate = float(np.abs(blocks).max())
    assert abs(gate - gram_gap(frame)) <= 1e-15
    assert (gate > 1e-12) == (eps > 0)


def test_kl_scan_peaks_below_one_register_square_matrix():
    # a 2^n x 2^n complex matrix is 4 MiB at n = 9
    code = st.build_code(bell_pair_generators(4), range(4))
    tracemalloc.start()
    try:
        c, residual = st.kl_scan(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << (2 * code.n)
    assert c.shape == (256, 256) and residual < 1e-12


@pytest.mark.parametrize("noisy", [6, 7])
def test_too_many_noisy_qubits_refused_before_the_basis(noisy):
    # k + 2p > n: 4^p errors cannot have distinct syndromes among the
    # 2^(n - k); the basis's 16^p-entry product table alone is 128 MiB
    # at p = 6
    gens = ["I" * q + "ZZ" + "I" * (10 - q) for q in range(11)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^syndrome collision: "):
            st.build_code(gens, range(noisy))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    # the coordinate checks come first and keep their messages
    with pytest.raises(ValueError, match="^duplicate coordinates"):
        st.build_code(gens, [0] * noisy)
    with pytest.raises(ValueError, match="^coordinate 12 outside 0..11$"):
        st.build_code(gens, range(7, 7 + noisy))


def test_build_code_peaks_below_one_frame():
    # the frame F_x|j_L> is 2^n x d² 2^k, 4 MiB at bell4; the build
    # gathers its words' images a chunk at a time and keeps none
    gens = bell_pair_generators(4)
    tracemalloc.start()
    try:
        code = st.build_code(gens, range(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    frame_bytes = 16 << code.n << 2 * len(code.noisy_coords) << code.k
    assert frame_bytes == 4 << 20
    assert peak < frame_bytes
    assert not hasattr(code, "frame") and not hasattr(code, "error_space")


@pytest.mark.parametrize("name", sorted(FRAME_CODES) + ["bell2-file"])
def test_bulk_frame_and_syndromes_equal_the_per_word_reference(name):
    """The overlap blocks, gathered a chunk of error words at a time,
    hold the bytes of W_0† times apply_pauli per word, stacked; the
    syndrome table, read off mask arrays, is commutes per generator, as
    Python ints."""
    if name == "bell2-file":
        code = st.code_from_json(json.loads(json.dumps(BELL2_CODE)))
    else:
        code = built_frame_code(name)
    logical = np.column_stack(code.logical_basis)
    dim = 1 << code.k
    stacked = np.hstack([st.pauli.apply_pauli(e, logical)
                         for e in code.error_basis.elements])
    want = (logical.conj().T @ stacked).reshape(dim, -1, dim).transpose(1, 0, 2)
    blocks = st.codes._overlap_blocks(logical, error_masks(code))
    assert blocks.dtype == want.dtype and blocks.shape == (code.d2, dim, dim)
    assert blocks.tobytes() == np.ascontiguousarray(want).tobytes()
    table = tuple(tuple(0 if st.commutes(e, g) else 1 for g in code.generators)
                  for e in code.error_basis.elements)
    assert code.syndrome_table == table
    assert {type(bit) for syndrome in code.syndrome_table for bit in syndrome} == {int}
    assert code.syndrome_index == {syn: i for i, syn in enumerate(table)}


class TestHammingBound:
    def test_perfect_codes(self):
        assert st.hamming_bound(3, 1, 1) == {"satisfied": True,
                                             "perfect": True}
        assert st.hamming_bound(5, 1, 2) == {"satisfied": True,
                                             "perfect": True}

    def test_loose_bound(self):
        report = st.hamming_bound(4, 1, 1)
        assert report["satisfied"] and not report["perfect"]

    def test_violated_bound(self):
        report = st.hamming_bound(3, 1, 2)
        assert not report["satisfied"] and not report["perfect"]


class TestSyndromeProjectors:
    def test_zero_syndrome_is_code_projector(self, code3):
        proj = st.syndrome_projector(code3, (0, 0))
        np.testing.assert_allclose(proj, code_projector(code3), atol=1e-12)

    def test_error_space_orthogonal_to_code(self, code3):
        x_syndrome = code3.syndrome_table[code3.error_basis.index_of_label("X")]
        proj = st.syndrome_projector(code3, x_syndrome)
        assert abs(np.trace(proj) - 2.0) < 1e-12
        np.testing.assert_allclose(proj @ code_projector(code3),
                                   np.zeros((8, 8)), atol=1e-12)

    def test_spaces_tile_everything(self, code5):
        # a perfect code's error spaces resolve the identity
        total = sum(st.syndrome_projector(code5, s)
                    for s in code5.syndrome_table)
        np.testing.assert_allclose(total, np.eye(32), atol=1e-10)

    def test_unknown_syndrome(self, code3):
        with pytest.raises(ValueError, match="not in table"):
            st.syndrome_projector(code3, (7, 7))

    def test_bit_convention(self, code3):
        # bit i is 1 exactly when the error anticommutes with generator i
        for m in range(code3.d2):
            err = code3.error_basis.elements[m]
            syndrome = code3.syndrome_table[m]
            for i, gen in enumerate(code3.generators):
                assert syndrome[i] == (0 if st.commutes(err, gen) else 1)


class TestBuildCode:
    def test_noisy_coords_from_any_iterable(self, code3):
        # a generator of coordinates was consumed by the error basis and
        # stored as ()
        code = st.build_code(["XIX", "YYZ"], (q for q in [0]),
                             codewords=code3.logical_basis)
        assert code.noisy_coords == code.error_basis.coords == (0,)
        st.simulate(code, (1.0, 0.0), st.builtin_channel("depolarizing", [0.1]), [])

    def test_derived_basis_from_logical_ops(self, code3):
        code = st.build_code(["XIX", "YYZ"], [0],
                             logical_ops={"X": "−ZXZ", "Z": "XYX"})
        z_l = st.to_matrix(st.pauli_from_string("XYX"))
        x_l = st.to_matrix(st.pauli_from_string("−ZXZ"))
        zero, one = code.logical_basis
        np.testing.assert_allclose(z_l @ zero, zero, atol=1e-10)
        np.testing.assert_allclose(z_l @ one, -one, atol=1e-10)
        np.testing.assert_allclose(x_l @ zero, one, atol=1e-10)
        assert code.syndrome_table == code3.syndrome_table

    def test_derived_basis_without_logical_ops(self, code3):
        code = st.build_code(["XIX", "YYZ"], [0])
        assert code.k == 1
        assert code.syndrome_table == code3.syndrome_table
        proj = code_projector(code)
        np.testing.assert_allclose(proj, code_projector(code3), atol=1e-10)

    def test_syndrome_statistics_basis_independent(self, code3, ad036):
        # a different logical basis for the same stabilizer group sees
        # the same syndrome distribution
        derived = st.build_code(["XIX", "YYZ"], [0])
        cfg3 = st.plan_configurations(code3)[0][0]
        cfgd = st.plan_configurations(derived)[0][0]
        rec3 = st.xi_simulated(code3, (1.0, 0.0), ad036, cfg3)
        recd = st.xi_simulated(derived, (1.0, 0.0), ad036, cfgd)
        for syn, prob in rec3.distribution.items():
            assert abs(recd.distribution[syn] - prob) < 1e-12

    def test_noncommuting_generators_rejected(self):
        with pytest.raises(ValueError):
            st.build_code(["XII", "ZII"], [0])

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError):
            st.build_code(["ZZI", "IZZ", "ZIZ"], [0])

    def test_syndrome_collision_reported(self):
        with pytest.raises(ValueError, match="syndrome collision"):
            st.build_code(["XX"], [0])

    def test_bad_codewords_rejected(self, code3):
        e0 = np.zeros(8, dtype=complex)
        e0[0] = 1.0
        with pytest.raises(ValueError):
            st.build_code(["XIX", "YYZ"], [0], codewords=[e0, ONE3])
        with pytest.raises(ValueError):
            st.build_code(["XIX", "YYZ"], [0], codewords=[ZERO3, ZERO3])

    def test_non_finite_codewords_rejected(self):
        # NaN compares false with every tolerance, so each gate must be
        # written to fail on it
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            zero = ZERO3.copy()
            zero[1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                st.build_code(["XIX", "YYZ"], [0], codewords=[zero, ONE3])

    def test_codeword_length_checked(self):
        # a long pair is still orthonormal: truncating it would pass
        padded = [np.concatenate([v, np.zeros(8)]) for v in (ZERO3, ONE3)]
        for words in (padded, [ZERO3[:4], ONE3[:4]]):
            with pytest.raises(ValueError, match=r"expected \(8,\) for 3 qubits"):
                st.build_code(["XIX", "YYZ"], [0], codewords=words)

    def test_qubit_cap(self):
        # codewords are 2^n vectors: refused past the dense cap
        cap = st.pauli.MATRIX_QUBIT_CAP
        for n in (cap + 1, 31):
            with pytest.raises(ValueError, match="^codes are capped at %d qubits, got %d$"
                               % (cap, n)):
                st.build_code(["Z" * n], [0], codewords=[[1.0], [0.0]])
        # generators are int64 masks: refused past 62 qubits
        with pytest.raises(ValueError, match=r"^Pauli masks are capped at 62 qubits "
                                             r"\(int64\), got 63$"):
            st.build_code(["Z" * 63], [0])
        # a code given by generators builds past the dense cap; reading
        # its derived basis does not
        for n in (cap + 1, 31, 62):
            code = st.build_code(["Z" * n], [])
            assert (code.n, code.k) == (n, n - 1)
            with pytest.raises(ValueError, match="^the logical basis of a %d-qubit code "
                               "is past the %d-qubit cap on dense vectors$" % (n, cap)):
                code.logical_basis

    def test_non_string_words_are_type_errors(self):
        with pytest.raises(TypeError, match="must be a string"):
            st.build_code([5, "YYZ"], [0])
        with pytest.raises(TypeError, match="must be a string"):
            st.build_code(["XIX", "YYZ"], [0], logical_ops={"X": 5, "Z": "XYX"})

    def test_json_round_trip(self, code5):
        doc = st.code_to_json(code5)
        again = st.code_from_json(doc)
        assert again.syndrome_table == code5.syndrome_table
        np.testing.assert_allclose(code_projector(again),
                                   code_projector(code5), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(name=hs.sampled_from(sorted(FRAME_CODES)), seed=hs.integers(0, 2 ** 32 - 1),
           data=hs.data())
    def test_json_text_round_trip(self, name, seed, data):
        """code_to_json, jsonio text and code_from_json give the same code:
        equal logical-basis values (a zero amplitude may lose its sign,
        since -0.0 is written as -0) and simulate records equal bit for
        bit."""
        code = built_frame_code(name)
        again = st.code_from_json(json.loads(jsonio.dumps(st.code_to_json(code))))
        assert again.generators == code.generators
        assert again.noisy_coords == code.noisy_coords
        assert again.syndrome_table == code.syndrome_table
        assert np.array_equal(np.column_stack(again.logical_basis),
                              np.column_stack(code.logical_basis))
        width = data.draw(hs.integers(1, len(code.noisy_coords)), label="width")
        rank = data.draw(hs.integers(1, 3), label="rank")
        channel = st.extend_channel(st.builtin_channel("random-cp", [seed, width, rank]),
                                    len(code.noisy_coords))
        beta = (1, 1j) @ np.random.default_rng(seed).normal(size=(2, 1 << code.k))
        beta /= np.linalg.norm(beta)
        rows = [[rec.row.tobytes() for rec in st.simulate(
                    c, beta, channel, st.plan_configurations(c)[0])]
                for c in (code, again)]
        assert rows[0] == rows[1]

    def test_generator_code_json_names_its_logical_operators(self):
        """A code given by generators is written with its logical
        operators and no codewords, so a 13-qubit one reads back, and
        code5 reads back as a generator code with residual 0; a code
        given by codewords keeps writing them."""
        n = 13
        ops = {"X": "I" * (n - 1) + "X", "Z": "I" * (n - 1) + "Z"}
        bell6 = st.build_code(bell_pair_generators(6), (0, 1), logical_ops=ops)
        code5 = st.builtin_code("code5")
        for code in (bell6, code5):
            doc = json.loads(jsonio.dumps(st.code_to_json(code)))
            assert "codewords" not in doc
            again = st.code_from_json(doc)
            assert again.generators == code.generators
            assert again.noisy_coords == code.noisy_coords
            assert again.syndrome_table == code.syndrome_table
            assert again.logical_ops == code.logical_ops and again.codewords is None
        assert doc["logical_ops"] == {"X": "IIIXX", "Z": "IIXXZ"}
        assert st.kl_scan(again)[1] == 0
        given = st.build_code(code5.generators, code5.noisy_coords,
                              codewords=code5.logical_basis)
        doc = st.code_to_json(given)
        assert "logical_ops" not in doc and len(doc["codewords"]) == 2

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="code3, code5"):
            st.builtin_code("code7")

    def test_one_code_per_builtin_name(self):
        """Every spelling of a built-in name returns one shared code; an
        unknown name raises the same message on every call."""
        assert st.builtin_code(" Code5 ") is st.builtin_code("code5")
        assert st.builtin_code("code3") is st.builtin_code("CODE3\n")
        assert st.builtin_code("code3") is not st.builtin_code("code5")
        message = "unknown code name ' Code7'; known names: code3, code5"
        for _ in range(2):
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                st.builtin_code(" Code7")

    def test_syndrome_index_is_read_only(self, code5):
        """A shared code cannot be changed through its syndrome index."""
        index = code5.syndrome_index
        with pytest.raises(TypeError):
            index[(0, 0, 0, 0)] = 5
        with pytest.raises(TypeError):
            del index[(0, 0, 0, 0)]
        assert index[(0, 0, 0, 0)] == 0 and len(index) == 16

    @pytest.mark.parametrize("generators, kwargs, message", [
        ([], {}, "no generators given"),
        (["XIX", "ZZ"], {}, "generators act on different qubit counts"),
        (["ZI", "IZ"], {}, "no logical qubits: 2 generators on 2 qubits"),
        (["XIX", "−iYYZ"], {}, "generator −iYYZ is not Hermitian"),
        (["XIX", "YYZ"], {"codewords": [ZERO3]}, "expected 2 codewords, got 1"),
        # |000> and |001> are orthonormal but not code states
        (["XIX", "YYZ"], {"codewords": [ket(3, (0, 1)), ket(3, (1, 1))]},
         "codeword is not stabilized by XIX"),
        (["XXII", "ZZII"], {"logical_ops": {"X": "IIXI", "Z": "IIZI"}},
         "logical-operator basis fixing supports k=1 only"),
        (["XIX", "YYZ"], {"logical_ops": {"X": "ZII", "Z": "XYX"}},
         "logical operator ZII anticommutes with generator XIX"),
        (["XIX", "YYZ"], {"logical_ops": {"X": "XYX", "Z": "XYX"}},
         "logical operators must anticommute"),
        (BELL2_CODE["generators"], {"logical_ops": {"X": "IIIIX", "Z": "iIIIIZ"}},
         "Z logical operator has no +1 eigenvector inside the code space"),
    ])
    def test_rejections(self, generators, kwargs, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            st.build_code(generators, [0], **kwargs)


def test_building_forms_no_register_square_matrix(monkeypatch):
    """A code given by generators is built from mask arrays alone: no
    Pauli word is applied (one by ``apply_pauli`` or many by
    ``_apply_words``) and no eigh or QR runs until its logical basis is
    read. That basis, and a build from codewords, with its overlap
    blocks, come from 2^n x 2^k blocks and 2^k x 2^k matrices: no call
    sees a 2^n x 2^n input."""
    seen = []

    def spy(fn, arg):
        def wrapped(*args, **kwargs):
            seen.append(np.shape(args[arg]))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr("syntomo.codes.apply_pauli", spy(st.codes.apply_pauli, 1))
    monkeypatch.setattr("syntomo.codes._apply_words", spy(st.codes._apply_words, 1))
    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh, 0))
    monkeypatch.setattr(np.linalg, "qr", spy(np.linalg.qr, 0))
    builds = dict(FRAME_CODES, bell2_file=lambda: st.code_from_json(BELL2_CODE))
    for name, build in builds.items():
        seen.clear()
        code = build()
        assert not seen, name
        code.logical_basis
        assert seen
        assert (1 << code.n, 1 << code.n) not in seen
    for name, words in REFERENCE_CODEWORDS.items():
        seen.clear()
        code = st.builtin_code(name)
        st.build_code(code.generators, code.noisy_coords, codewords=words)
        assert seen
        assert (1 << code.n, 1 << code.n) not in seen


def dense_projectors(code):
    """Pi_s = prod_g (I +- G)/2 from the generators (register oracle), s
    the syndrome table's entry of each error, in error-basis order."""
    return [register(code).projector(syn) for syn in code.syndrome_table]


class TestSyndromeFrame:
    """The frame's projectors, toggles and overlap blocks against the
    dense definitions they replace."""

    def test_column_order(self, frame_code):
        # block z, entry (i, j) is <i_L| F_z |j_L>, z in error-basis order
        logical = np.column_stack(frame_code.logical_basis)
        blocks = st.codes._overlap_blocks(logical, error_masks(frame_code))
        for z, e in enumerate(frame_code.error_basis.elements):
            want = logical.conj().T @ st.to_matrix(e) @ logical
            np.testing.assert_allclose(blocks[z], want, atol=1e-15)

    def test_projectors_match_dense(self, frame_code):
        for x, proj in enumerate(dense_projectors(frame_code)):
            got = st.syndrome_projector(frame_code,
                                        frame_code.syndrome_table[x])
            np.testing.assert_allclose(got, proj, atol=1e-12)

    def test_toggle_matches_dense(self, frame_code):
        projs = dense_projectors(frame_code)
        eye = np.eye(1 << frame_code.n)
        configs, _ = st.plan_configurations(frame_code)
        toggled = [cfg for cfg in configs if cfg.kind == "toggled"]
        for cfg in toggled[:3]:
            want = eye - sum(projs)
            for sign, proj in zip(cfg.theta_signs, projs):
                want = want + np.exp(1j * sign * np.pi / 4.0) * proj
            got = st.build_toggle(frame_code, cfg.theta_signs)
            assert np.abs(got - want).max() < 1e-12

    def test_kl_scan_gives_identity(self, frame_code):
        c, residual = st.kl_scan(frame_code)
        np.testing.assert_allclose(c, np.eye(frame_code.d2), atol=1e-12)
        assert residual < 1e-12

    def test_kl_scan_matches_dense_loop(self, frame_code):
        c, residual = st.kl_scan(frame_code)
        dense_c, dense_residual = dense_kl_scan(frame_code)
        assert np.abs(c - dense_c).max() <= 1e-12
        assert residual <= 1e-12 and dense_residual <= 1e-12

    def test_exact_chi_matches_oracle(self, frame_code):
        p = len(frame_code.noisy_coords)
        channel = st.builtin_channel("random-cp", [5, p, 2])
        beta = np.full(1 << frame_code.k, (1 << frame_code.k) ** -0.5)
        chi = st.characterize(frame_code, channel, beta).chi
        oracle = st.chi_from_kraus(channel, frame_code.error_basis)
        assert st.compare(chi, oracle).frobenius_error < 1e-12

    def test_nonorthonormal_frame_rejected(self, monkeypatch):
        # within the codeword gate's tolerance, outside a strict frame check
        zero = (ZERO3 + 1e-9 * ONE3) / np.linalg.norm(ZERO3 + 1e-9 * ONE3)
        monkeypatch.setattr("syntomo.codes.DEFAULT_POLICY",
                            st.NumericPolicy(kl_residual=1e-12))
        with pytest.raises(ValueError, match="error-correcting condition fails"):
            st.build_code(["XIX", "YYZ"], [0], codewords=[zero, ONE3])


# sha256 of np.column_stack(code.logical_basis).tobytes(), recorded
# when build_code still derived every basis as it built the code
DERIVED_BASIS_DIGESTS = {
    "nonperfect4": "3f1d244299086793f06e353a7847fa1780b7eeea02afb22be4f5deecf38407c5",
    "bell3": "ef5cc26da1e13d11b67c234da7d97a17a51609bb11560f97fe1bdb73e4684521",
    "bell2-tail": "71de7603eca44022e054aff437cf8e1d8b0b57a72cf761c76284d36a5e91d219",
    "bell2-file": "c8ec5c4c6794ed1d6988ee26a72b66d16c32654ddf8cae50cd7f143322b79a1c",
}


@pytest.mark.parametrize("name", sorted(DERIVED_BASIS_DIGESTS))
def test_basis_derived_on_first_read(name):
    """A code given by generators holds no basis until it is read; the
    basis read is the one the build used to derive, bit for bit, and is
    derived once and kept read-only."""
    if name == "bell2-file":
        code = st.code_from_json(json.loads(json.dumps(BELL2_CODE)))
    else:
        code = FRAME_CODES[name]()
    assert "logical_basis" not in vars(code)
    basis = code.logical_basis
    assert code.logical_basis is basis
    assert all(not v.flags.writeable for v in basis)
    digest = hashlib.sha256(np.column_stack(basis).tobytes()).hexdigest()
    assert digest == DERIVED_BASIS_DIGESTS[name]


def test_kl_scan_of_a_generator_code_is_exact():
    # C = I and residual 0 with no basis read (test_kl_scan_matches_dense_loop
    # checks the derived basis against the dense loop)
    code = st.build_code(["XIX", "YYZ"], [0])
    c, residual = st.kl_scan(code)
    assert residual == 0.0 and np.array_equal(c, np.eye(4))
    assert "logical_basis" not in vars(code)


@pytest.mark.parametrize("name", ["code5", "surface25"])
def test_replace_keeps_a_generator_code_a_generator_code(monkeypatch, basis_reads_refused,
                                                         name):
    """``dataclasses.replace`` hands over the generators and logical
    operators, not a basis: the copy neither reads nor stores one, its
    kl_scan stays exact, and a code past the dense cap is copied; below
    the cap, the copy derives the same basis bit for bit."""
    if name == "code5":
        code = st.builtin_code("code5")
    else:
        code = st.build_code(rotated_surface_generators(5), [12, 13])
    basis = code.error_basis
    copies = [dataclasses.replace(code),
              dataclasses.replace(code, error_basis=dataclasses.replace(basis)),
              dataclasses.replace(code, noisy_coords=code.noisy_coords[::-1])]
    for copy in copies:
        assert copy.codewords is None and "logical_basis" not in vars(copy)
        assert copy.logical_ops == code.logical_ops
        c, residual = st.kl_scan(copy)
        assert residual == 0.0 and np.array_equal(c, np.eye(code.d2))
    monkeypatch.undo()
    if code.n > st.pauli.MATRIX_QUBIT_CAP:
        with pytest.raises(ValueError, match="past the 12-qubit cap"):
            copies[0].logical_basis
        return
    assert (np.column_stack(copies[0].logical_basis).tobytes()
            == np.column_stack(code.logical_basis).tobytes())


# (X_L, Z_L) for BELL2_CODE's generators and the outcome when build_code
# still derived the basis as it built: None where it built, else its message
LOGICAL_OP_CASES = [
    ("-IIIIX", "IIIIZ", None),
    ("iIIIIX", "IIIIZ", None),
    ("-iIIIIX", "IIIIZ", None),
    ("IIIIX", "-IIIIZ", None),
    ("IIIIX", "IIIIY", None),
    ("IIIIX", "iIIIIZ", "Z logical operator has no +1 eigenvector inside the code space"),
    ("IIIIX", "-iIIIIZ", "Z logical operator has no +1 eigenvector inside the code space"),
    # commuting operators
    ("IIIIX", "IIIIX", "logical operators must anticommute"),
    ("IIIIX", "IIIII", "logical operators must anticommute"),
    ("IIIIY", "iIIIIY", "logical operators must anticommute"),
    # in the stabilizer group, up to a phase
    ("IIIIX", "ZIZII", "logical operators must anticommute"),
    ("IIIIX", "-ZIZII", "logical operators must anticommute"),
    ("IIIIX", "iZIZII", "logical operators must anticommute"),
    ("XIXII", "IIIIZ", "logical operators must anticommute"),
    ("IIIIX", "XIIII", "logical operator XIIII anticommutes with generator ZIZII"),
]


@pytest.mark.parametrize("x_l, z_l, message", LOGICAL_OP_CASES)
def test_logical_ops_checked_without_a_basis(x_l, z_l, message):
    """The symplectic checks refuse exactly the logical operators that
    the derivation's eigenvector test refused, with its messages; an
    accepted pair fixes |0_L> as a +1 eigenvector of Z_L and
    |1_L> = X_L|0_L>."""
    gens = BELL2_CODE["generators"]
    ops = {"X": x_l, "Z": z_l}
    if message is not None:
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            st.build_code(gens, [0, 1], logical_ops=ops)
        return
    code = st.build_code(gens, [0, 1], logical_ops=ops)
    zero, one = code.logical_basis
    z = st.to_matrix(st.pauli_from_string(z_l))
    np.testing.assert_allclose(z @ zero, zero, atol=1e-12)
    np.testing.assert_allclose(st.to_matrix(st.pauli_from_string(x_l)) @ zero, one,
                               atol=1e-15)
    for g in code.generators:
        np.testing.assert_allclose(st.to_matrix(g) @ one, one, atol=1e-12)


def test_a_generator_build_forms_no_product_table_or_error_word(monkeypatch, capsys):
    """Building a code from generators and scanning it read the error
    masks only: no product table, element or label is derived."""
    code = st.build_code(bell_pair_generators(5), range(5))
    assert st.kl_scan(code)[1] == 0.0
    assert set(vars(code.error_basis)) == {"n_total", "coords", "masks"}

    def refuse(basis):
        raise AssertionError("product table formed")

    monkeypatch.setattr(ErrorBasis, "product_index", property(refuse))
    monkeypatch.setattr(ErrorBasis, "product_phase", property(refuse))
    assert cli.main(["validate", "--code", "code5"]) == 0
    assert "16 distinct syndromes" in capsys.readouterr().out
