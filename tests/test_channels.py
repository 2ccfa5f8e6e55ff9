"""Channel constructors and the chi-matrix transforms they feed."""

import re
import tracemalloc

import numpy as np
import pytest

import syntomo as st
from syntomo import channels
from syntomo.channels import Channel, ProcessMatrix


def one_qubit_basis():
    return st.enumerate_error_basis(1, [0])


def two_qubit_basis():
    return st.enumerate_error_basis(2, [0, 1])


class TestBuiltinChannels:
    def test_identity(self):
        ch = st.builtin_channel("identity", [1])
        assert ch.p == 1
        assert len(ch.kraus) == 1
        np.testing.assert_array_equal(ch.kraus[0], np.eye(2))

    def test_amplitude_damping_limits(self):
        ch = st.builtin_channel("amplitude-damping", [1.0])
        e0, e1 = ch.kraus
        np.testing.assert_allclose(e0, [[1, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(e1, [[0, 1], [0, 0]], atol=1e-15)
        ch0 = st.builtin_channel("amplitude-damping", [0.0])
        np.testing.assert_allclose(ch0.kraus[0], np.eye(2), atol=1e-15)

    def test_amplitude_damping_kraus_form(self):
        lam = 0.36
        e0, e1 = st.builtin_channel("amplitude-damping", [lam]).kraus
        root = np.sqrt(1 - lam)
        np.testing.assert_allclose(e0, np.diag([1.0, root]), atol=1e-15)
        np.testing.assert_allclose(e1, [[0, np.sqrt(lam)], [0, 0]],
                                   atol=1e-15)

    def test_correlated_flip(self):
        ch = st.builtin_channel("correlated-flip", [0.25])
        assert ch.p == 2
        np.testing.assert_allclose(ch.kraus[0], np.sqrt(0.75) * np.eye(4),
                                   atol=1e-15)
        xx = st.to_matrix(st.pauli_from_string("XX"))
        np.testing.assert_allclose(ch.kraus[1], 0.5 * xx, atol=1e-15)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            st.builtin_channel("amplitude-damping", [1.5])
        with pytest.raises(ValueError):
            st.builtin_channel("correlated-flip", [-0.1])
        with pytest.raises(ValueError):
            st.builtin_channel("depolarizing", [2.0])

    def test_qubit_cap_is_checked_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the qubit cap check")

        monkeypatch.setattr(np, "eye", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(ValueError, match="12-qubit cap"):
            st.builtin_channel("identity", [40])
        with pytest.raises(ValueError, match="12-qubit cap"):
            st.builtin_channel("random-cp", [1, 40, 2])
        with pytest.raises(ValueError, match="12-qubit cap"):
            st.channel_from_json({"p": 40, "kraus": [[[[1.0, 0.0]]]]})

    def test_random_cp_kraus_stack_is_checked_before_drawing(self):
        # rank 4^8 on 8 qubits is 2^32 Kraus entries, 4^4 dense matrices
        # at the cap; rank 4^2 on 10 qubits is exactly one
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^random-CP rank 65536 on 8 qubits "
                                                 "needs 4294967296 Kraus entries"):
                st.builtin_channel("random-cp", [1, 8, 65536])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError, match="12-qubit cap"):
            st.builtin_channel("random-cp", [1, 10, 17])

    def test_integer_parameters_must_be_finite(self):
        # int() of inf overflows and of nan raises its own bare message
        for bad in (float("inf"), float("-inf"), float("nan")):
            for pos, name in enumerate(("seed", "qubit-count", "rank")):
                params = [3, 1, 1]
                params[pos] = bad
                with pytest.raises(ValueError, match="^random-CP %s parameter must be "
                                                     "an integer, got %r$" % (name, bad)):
                    st.builtin_channel("random-cp", params)
            with pytest.raises(ValueError, match="^identity qubit-count parameter must "
                                                 "be an integer, got %r$" % bad):
                st.builtin_channel("identity", [bad])
        # an integer too large for a float is still an integer
        with pytest.raises(ValueError, match="12-qubit cap"):
            st.builtin_channel("identity", [10 ** 400])
        assert st.builtin_channel("random-cp", [10 ** 400, 1, 2]).p == 1

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_],
                             ids=["True", "False", "np.True_", "np.False_"])
    def test_integer_parameters_refuse_bools(self, flag):
        for pos, name in enumerate(("seed", "qubit-count", "rank")):
            params = [3, 1, 1]
            params[pos] = flag
            with pytest.raises(ValueError, match="^%s$" % re.escape(
                    "random-CP %s parameter must be an integer, got %r" % (name, flag))):
                st.builtin_channel("random-cp", params)
        with pytest.raises(ValueError, match="^%s$" % re.escape(
                "identity qubit-count parameter must be an integer, got %r" % flag)):
            st.builtin_channel("identity", [flag])

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(ValueError, match="amplitude-damping"):
            st.builtin_channel("nosuch")

    def test_all_builtins_are_tp(self):
        cases = [("identity", [1]), ("identity", [2]),
                 ("amplitude-damping", [0.3]), ("correlated-flip", [0.2]),
                 ("depolarizing", [0.1]), ("phase-damping", [0.4]),
                 ("random-cp", [11, 1, 3]), ("random-cp", [5, 2, 4])]
        for name, params in cases:
            report = st.validate_channel(st.builtin_channel(name, params))
            assert report["cp"]
            assert report["tp"], name
            assert report["defect"] < 1e-12

    def test_random_cp_deterministic(self):
        a = st.builtin_channel("random-cp", [7, 1, 2])
        b = st.builtin_channel("random-cp", [7, 1, 2])
        c = st.builtin_channel("random-cp", [8, 1, 2])
        for ka, kb in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(ka, kb)
        assert not np.allclose(a.kraus[0], c.kraus[0])
        assert len(a.kraus) == 2

    def test_channel_shape_validation(self):
        with pytest.raises(ValueError):
            Channel(p=1, kraus=(np.eye(4, dtype=complex),))
        with pytest.raises(ValueError):
            Channel(p=1, kraus=())
        for p in (0, -1):
            with pytest.raises(ValueError, match="p must be positive, got %d" % p):
                Channel(p=p, kraus=(np.eye(1, dtype=complex),))


def per_word_chi(channel, basis):
    """chi_from_kraus with one trace per (word, Kraus operator)."""
    d = channel.dim
    words = [st.to_matrix(basis.restricted[m]) for m in range(basis.size)]
    chi = np.zeros((basis.size, basis.size), dtype=complex)
    for e in channel.kraus:
        coeffs = np.array([np.trace(w.conj().T @ e) / d for w in words])
        chi += np.outer(coeffs, coeffs.conj())
    return chi


class TestChiFromKraus:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_equals_the_per_word_loop(self, p):
        """Bit for bit, on random, trace-decreasing and structured channels."""
        basis = st.enumerate_error_basis(p + 1, range(p))
        channels = [st.builtin_channel("random-cp", [seed, p, rank])
                    for seed, rank in ((p, 1), (10 + p, 3))]
        channels.append(Channel(p, channels[1].kraus[:2]))
        channels.append(st.extend_channel(
            st.builtin_channel("amplitude-damping", [0.36]), p))
        for channel in channels:
            got = st.chi_from_kraus(channel, basis).entries
            assert got.tobytes() == per_word_chi(channel, basis).tobytes()

    def test_identity_channel(self):
        chi = st.chi_from_kraus(st.builtin_channel("identity", [1]),
                                one_qubit_basis())
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(chi.entries, expected, atol=1e-15)

    def test_correlated_flip_diagonal(self):
        p = 0.3
        basis = two_qubit_basis()
        chi = st.chi_from_kraus(st.builtin_channel("correlated-flip", [p]),
                                basis)
        xx = basis.index_of_label("XX")
        expected = np.zeros((16, 16))
        expected[0, 0] = 1 - p
        expected[xx, xx] = p
        np.testing.assert_allclose(chi.entries, expected, atol=1e-15)

    def test_amplitude_damping_036(self):
        basis = one_qubit_basis()
        chi = st.chi_from_kraus(st.builtin_channel("amplitude-damping",
                                                   [0.36]), basis).entries
        # basis order I, Z, X, Y
        expected = np.array([
            [0.81, 0.09, 0.0, 0.0],
            [0.09, 0.01, 0.0, 0.0],
            [0.0, 0.0, 0.09, -0.09j],
            [0.0, 0.0, 0.09j, 0.09],
        ])
        np.testing.assert_allclose(chi, expected, atol=1e-15)

    def test_amplitude_damping_closed_form(self):
        basis = one_qubit_basis()
        for lam in (0.1, 0.36, 0.75):
            chi = st.chi_from_kraus(
                st.builtin_channel("amplitude-damping", [lam]), basis).entries
            root = np.sqrt(1 - lam)
            assert abs(chi[0, 0] - (1 + root) ** 2 / 4) < 1e-14
            assert abs(chi[1, 1] - (1 - root) ** 2 / 4) < 1e-14
            assert abs(chi[0, 1] - lam / 4) < 1e-14
            assert abs(chi[2, 2] - lam / 4) < 1e-14
            assert abs(chi[2, 3] - (-1j * lam / 4)) < 1e-14

    def test_trace_is_one_for_tp_channels(self):
        basis = two_qubit_basis()
        chi = st.chi_from_kraus(st.builtin_channel("random-cp", [3, 2, 5]),
                                basis)
        assert abs(np.trace(chi.entries) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            st.chi_from_kraus(st.builtin_channel("identity", [2]),
                              one_qubit_basis())


class TestKrausFromChi:
    def test_identity_round_trip(self):
        basis = one_qubit_basis()
        entries = np.zeros((4, 4), dtype=complex)
        entries[0, 0] = 1.0
        ch = st.kraus_from_chi(ProcessMatrix(entries, basis))
        assert len(ch.kraus) == 1
        # recovered up to a global phase
        phase = ch.kraus[0][0, 0]
        np.testing.assert_allclose(ch.kraus[0], phase * np.eye(2),
                                   atol=1e-12)

    def test_amplitude_damping_round_trip(self):
        basis = one_qubit_basis()
        chi = st.chi_from_kraus(st.builtin_channel("amplitude-damping",
                                                   [0.36]), basis)
        again = st.chi_from_kraus(st.kraus_from_chi(chi), basis)
        assert np.abs(again.entries - chi.entries).max() < 1e-10

    def test_random_channel_round_trips(self):
        basis = two_qubit_basis()
        for seed in range(5):
            chi = st.chi_from_kraus(
                st.builtin_channel("random-cp", [seed, 2, 3]), basis)
            again = st.chi_from_kraus(st.kraus_from_chi(chi), basis)
            assert np.abs(again.entries - chi.entries).max() < 1e-10

    def test_rejects_negative_chi(self):
        basis = one_qubit_basis()
        entries = np.diag([1.0, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            st.kraus_from_chi(ProcessMatrix(entries, basis))

    def test_rejects_non_hermitian_chi(self):
        basis = one_qubit_basis()
        entries = np.zeros((4, 4), dtype=complex)
        entries[0, 0] = 1.0
        entries[0, 1] = 0.2
        with pytest.raises(ValueError):
            st.kraus_from_chi(ProcessMatrix(entries, basis))


def reference_kraus_from_chi(chi):
    """The per-word loop: each Kraus operator summed word by word, with
    every word rendered by ``to_matrix``."""
    basis = chi.basis
    eigvals, eigvecs = np.linalg.eigh(chi.entries)
    words = [st.to_matrix(basis.restricted[i]) for i in range(basis.size)]
    ops = []
    for k in range(len(eigvals)):
        if eigvals[k] <= st.DEFAULT_POLICY.psd:
            continue
        e = np.zeros((basis.dim, basis.dim), dtype=complex)
        for i in range(basis.size):
            e += eigvecs[i, k] * words[i]
        ops.append(np.sqrt(eigvals[k]) * e)
    return ops


@pytest.mark.parametrize("name,params", [
    ("identity", [1]), ("identity", [2]), ("phase-damping", [0.3]),
    ("amplitude-damping", [0.36]), ("correlated-flip", [0.2]),
    ("depolarizing", [0.1]), ("random-cp", [4, 1, 2]), ("random-cp", [5, 2, 3]),
    ("random-cp", [6, 2, 4]), ("random-cp", [7, 3, 2])])
def test_kraus_from_chi_equals_the_per_word_loop(name, params):
    # bit for bit, signed zeros included: the stacked words are
    # to_matrix's, and each operator sums them in basis order from zero
    channel = st.builtin_channel(name, params)
    chi = st.chi_from_kraus(channel, st.enumerate_error_basis(channel.p, range(channel.p)))
    got = st.kraus_from_chi(chi).kraus
    want = reference_kraus_from_chi(chi)
    assert len(got) == len(want)
    for e, ref in zip(got, want):
        assert e.tobytes() == ref.tobytes()


def test_kraus_from_chi_renders_no_word(monkeypatch):
    # the oracle caches its stack of words for p = 2 here
    chi = st.chi_from_kraus(st.builtin_channel("random-cp", [3, 2, 2]),
                            two_qubit_basis())

    def refuse(*args, **kwargs):
        raise AssertionError("kraus_from_chi rendered a Pauli word")

    monkeypatch.setattr("syntomo.channels.to_matrix", refuse)
    assert len(st.kraus_from_chi(chi).kraus) == 2


def test_validate_channel_identity():
    report = st.validate_channel(st.builtin_channel("identity", [1]))
    assert report == {"cp": True, "tp": True, "defect": report["defect"]}
    assert report["defect"] < 1e-15


def test_validate_channel_flags_trace_decreasing():
    half = Channel(p=1, kraus=(np.sqrt(0.5) * np.eye(2, dtype=complex),))
    report = st.validate_channel(half)
    assert report["cp"]
    assert not report["tp"]
    assert report["defect"] > 0.4


def test_validity_report_on_oracle_chi(ad036):
    chi = st.chi_from_kraus(ad036, one_qubit_basis())
    report = st.validity_report(chi)
    assert report["hermiticity_defect"] < 1e-15
    assert report["min_eigenvalue"] > -1e-12
    assert abs(report["trace"] - 1.0) < 1e-12


def test_process_matrix_shape_validation():
    with pytest.raises(ValueError):
        ProcessMatrix(np.eye(3, dtype=complex), one_qubit_basis())


def test_extend_channel_pads_with_identity(ad036):
    wide = st.extend_channel(ad036, 2)
    assert wide.p == 2
    assert wide.label == ad036.label
    report = st.validate_channel(wide)
    assert report["cp"] and report["tp"]
    # the one-qubit chi block reappears on the F (x) I labels
    chi1 = st.chi_from_kraus(ad036, one_qubit_basis()).entries
    basis = two_qubit_basis()
    chi2 = st.chi_from_kraus(wide, basis).entries
    labels = ["I", "Z", "X", "Y"]
    idx = [basis.index_of_label(l + "I") for l in labels]
    np.testing.assert_allclose(chi2[np.ix_(idx, idx)], chi1, atol=1e-14)
    mask = np.ones(16, dtype=bool)
    mask[idx] = False
    assert np.abs(chi2[np.ix_(mask, mask)]).max() < 1e-14


@pytest.mark.parametrize("p, p_total", [(1, 2), (1, 3), (2, 3)])
def test_extend_channel_equals_kron_bit_for_bit(p, p_total):
    # signed zeros in both parts of the operators: -0.0 * 1.0 stays -0.0
    # and -0.0 * 0.0 gives -0.0 in np.kron, and so in the padding
    ops = [np.array(e) for e in st.builtin_channel("random-cp", [7, p, 3]).kraus]
    ops[0][0, 0] = complex(-0.0, -0.0)
    ops[1][0, 1] = complex(-0.0, 0.0)
    ops[2][1, 0] = complex(0.0, -0.0)
    ops = [e / 2 for e in ops]
    eye = np.eye(1 << (p_total - p), dtype=complex)
    padded = st.extend_channel(st.Channel(p, tuple(ops), "signed"), p_total)
    assert padded.p == p_total and padded.label == "signed"
    assert [e.tobytes() for e in padded.kraus] == [np.kron(e, eye).tobytes() for e in ops]
    assert all(not e.flags.writeable for e in padded.kraus)


def test_extend_channel_rejects_shrinking():
    ch = st.builtin_channel("correlated-flip", [0.2])
    with pytest.raises(ValueError):
        st.extend_channel(ch, 1)


def test_channel_json_round_trip(ad036):
    doc = st.channel_to_json(ad036)
    again = st.channel_from_json(doc)
    assert again.p == ad036.p
    assert again.label == ad036.label
    for ka, kb in zip(again.kraus, ad036.kraus):
        np.testing.assert_allclose(ka, kb, atol=1e-15)
    chi_a = st.chi_from_kraus(ad036, one_qubit_basis()).entries
    chi_b = st.chi_from_kraus(again, one_qubit_basis()).entries
    np.testing.assert_allclose(chi_a, chi_b, atol=1e-15)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_pauli_coefficients_match_the_oracle_words(p):
    """C[x, r] = Tr(F_x E_r)/d, read from the words' signed rows, equals
    the traces of the oracle's dense words, and C C† is chi."""
    channel = st.builtin_channel("random-cp", [p, p, 3])
    words = channels._adjoint_words(p)
    want = np.stack([np.trace(words @ e, axis1=1, axis2=2)
                     for e in channel.kraus], axis=1) / channel.dim
    coeffs = channel._pauli_coefficients
    assert coeffs.shape == (4 ** p, 3) and not coeffs.flags.writeable
    assert np.abs(coeffs - want).max() <= 1e-15
    chi = st.chi_from_kraus(channel, st.enumerate_error_basis(p, range(p)))
    assert np.abs(coeffs @ coeffs.conj().T - chi.entries).max() <= 1e-15
