"""Channel constructors and the chi-matrix transforms they feed."""

import numpy as np
import pytest

import syntomo as st
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
