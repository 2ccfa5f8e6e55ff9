"""Measurement configurations, readout algebra, and reconstruction."""

import ast
import copy
import dataclasses
import gc
import inspect
import json
import re
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

import syntomo as st
from conftest import (FRAME_CODES, bell_pair_generators, built_frame_code, fresh_builtin,
                      malformed, register)
from syntomo import channels, codes, densesim, jsonio, pauli, protocol
from syntomo.channels import ProcessMatrix


def exact_records(code, channel, beta=(1.0, 0.0)):
    configs, readouts = st.plan_configurations(code)
    return configs, readouts, st.simulate(code, beta, channel, configs)


def table_rows(readouts):
    """Every readout of a table as (A, B, c, s), in readout order."""
    return list(zip(readouts.a_index.ravel().tolist(),
                    readouts.b_index.ravel().tolist(),
                    readouts.coeff_re.ravel().tolist(),
                    readouts.coeff_im.ravel().tolist()))


def rotated(code, a, b):
    """The rotated configuration of pair (a, b), by error labels."""
    doc = {"configurations": [{"kind": "rotated", "a": a, "b": b}]}
    return st.plan_from_json(code, doc)[0][0]


def random_hermitian_chi(basis, rng):
    d2 = basis.size
    m = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
    return ProcessMatrix((m + m.conj().T) / 2, basis)


class TestEncode:
    """The encoded state: the register oracle's, from the generators and
    logical operators, is the derived logical basis up to one global
    phase; ``simulate`` checks the amplitudes it is given."""

    def test_basis_amplitudes(self, code3):
        zero, one = register(code3).encode((1.0, 0.0)), register(code3).encode((0.0, 1.0))
        phase = np.vdot(zero, code3.logical_basis[0])
        assert abs(abs(phase) - 1.0) < 1e-15
        np.testing.assert_allclose(phase * zero, code3.logical_basis[0], atol=1e-15)
        np.testing.assert_allclose(phase * one, code3.logical_basis[1], atol=1e-15)

    def test_superposition_is_stabilized(self, code3):
        state = register(code3).encode(np.array([1.0, 1.0]) / np.sqrt(2))
        for gen in code3.generators:
            np.testing.assert_allclose(st.to_matrix(gen) @ state, state,
                                       atol=1e-12)

    def test_bad_amplitudes(self, code3, ad036):
        configs, _ = st.plan_configurations(code3)
        for beta in ((1.0, 0.0, 0.0), (0.0, 0.0), (np.nan, 0.0)):
            with pytest.raises(ValueError):
                st.simulate(code3, beta, ad036, configs)


class TestPauliFactors:
    def test_xy_pair_through_z(self, code3):
        basis = code3.error_basis
        x, y, z = (basis.index_of_label(l) for l in "XYZ")
        # F_X F_Z = -i F_Y and F_Y F_Z = i F_X
        assert basis.product_phase[x, z] == 3
        assert basis.label(basis.product_index[x, z]) == "Y"
        assert basis.product_phase[y, z] == 1
        assert basis.label(basis.product_index[y, z]) == "X"

    def test_identity_pair(self, code3):
        basis = code3.error_basis
        y = basis.index_of_label("Y")
        assert basis.product_phase[0, 0] == 0
        assert basis.label(basis.product_index[0, 0]) == "I"
        assert basis.product_phase[y, 0] == 0
        assert basis.label(basis.product_index[y, 0]) == "Y"

    def test_factors_multiply_back(self, code5):
        # F_a F_x = g_A F_A must hold as matrices for every triple
        basis = code5.error_basis
        rng = np.random.default_rng(9)
        mats = [st.to_matrix(e) for e in
                st.enumerate_error_basis(basis.p, range(basis.p)).elements]
        for _ in range(30):
            a, b, x = rng.integers(0, basis.size, size=3)
            for f in (a, b):
                k, e = basis.product_index[f, x], basis.product_phase[f, x]
                np.testing.assert_allclose(mats[f] @ mats[x],
                                           1j ** e * mats[k], atol=1e-14)


class TestRotationUnitary:
    def test_commuting_pair_form(self, code3):
        basis = code3.error_basis
        z = basis.index_of_label("Z")
        u = st.rotation_unitary(code3, 0, z)
        eye = np.eye(8, dtype=complex)
        f_z = st.to_matrix(basis.elements[z])
        np.testing.assert_allclose(u, (eye + 1j * f_z) / np.sqrt(2),
                                   atol=1e-12)

    def test_anticommuting_pair_form(self, code3):
        basis = code3.error_basis
        x, y = basis.index_of_label("X"), basis.index_of_label("Y")
        u = st.rotation_unitary(code3, x, y)
        f_x = st.to_matrix(basis.elements[x])
        f_y = st.to_matrix(basis.elements[y])
        np.testing.assert_allclose(u, (f_x + f_y) / np.sqrt(2), atol=1e-12)

    def test_always_unitary(self, code5):
        rng = np.random.default_rng(3)
        eye = np.eye(32)
        for _ in range(10):
            a, b = rng.integers(0, 16, size=2)
            if a == b:
                continue
            u = st.rotation_unitary(code5, int(a), int(b))
            np.testing.assert_allclose(u @ u.conj().T, eye, atol=1e-12)


class TestToggle:
    def test_quarter_turn_phases(self, code3):
        # signs in basis order I, Z, X, Y put gamma = 1+i on the I and Y
        # spaces and its conjugate on Z and X
        s = st.build_toggle(code3, [1, -1, -1, 1])
        gamma = (1 + 1j) / np.sqrt(2)
        for label, phase in (("I", gamma), ("Z", gamma.conjugate()),
                             ("X", gamma.conjugate()), ("Y", gamma)):
            idx = code3.error_basis.index_of_label(label)
            proj = st.syndrome_projector(code3, code3.syndrome_table[idx])
            np.testing.assert_allclose(s @ proj, phase * proj, atol=1e-12)

    def test_unitary(self, code3):
        s = st.build_toggle(code3, [1, 1, -1, -1])
        np.testing.assert_allclose(s @ s.conj().T, np.eye(8), atol=1e-12)

    def test_balanced_signs_required(self, code3):
        with pytest.raises(ValueError):
            st.build_toggle(code3, [1, 1, 1, 1])
        with pytest.raises(ValueError):
            st.build_toggle(code3, [1, 1, 1, -1])

    def test_sign_values_checked(self, code3):
        with pytest.raises(ValueError):
            st.build_toggle(code3, [1, 0, -1, 1])
        with pytest.raises(ValueError):
            st.build_toggle(code3, [1, -1])


class TestPredictedReadout:
    def test_bare_reads_diagonal(self, code3, rng):
        chi = random_hermitian_chi(code3.error_basis, rng)
        cfg = st.plan_configurations(code3)[0][0]
        for x in range(4):
            assert abs(st.xi_predicted(chi, cfg, x)
                       - chi.entries[x, x].real) < 1e-12

    def test_xy_rotation_at_z_syndrome(self, code3, rng):
        basis = code3.error_basis
        x, y, z = (basis.index_of_label(l) for l in "XYZ")
        cfg = rotated(code3, "X", "Y")
        chi = random_hermitian_chi(basis, rng)
        e = chi.entries
        expected = 0.5 * (e[x, x].real + e[y, y].real) - e[x, y].real
        assert abs(st.xi_predicted(chi, cfg, z) - expected) < 1e-12

    def test_xy_rotation_amplitude_damping_value(self, code3, ad036):
        basis = code3.error_basis
        z = basis.index_of_label("Z")
        cfg = rotated(code3, "X", "Y")
        chi = st.chi_from_kraus(ad036, basis)
        assert abs(st.xi_predicted(chi, cfg, z) - 0.09) < 1e-12

    def test_toggle_acts_by_conjugation(self, code3, rng):
        # prediction for a toggled configuration equals the plain rotated
        # prediction on D chi D+ with D the toggle phase diagonal
        chi = random_hermitian_chi(code3.error_basis, rng)
        configs, _ = st.plan_configurations(code3)
        for rot, tog in zip(configs[1::2], configs[2::2]):
            assert rot.kind == "rotated" and tog.kind == "toggled"
            phases = np.exp(1j * np.pi / 4 * np.array(tog.theta_signs))
            conj = ProcessMatrix(np.diag(phases) @ chi.entries
                                 @ np.diag(phases).conj(), code3.error_basis)
            for x in range(4):
                assert abs(st.xi_predicted(chi, tog, x)
                           - st.xi_predicted(conj, rot, x)) < 1e-12


class TestSimulatedReadout:
    def test_identity_channel_all_weight_on_zero_syndrome(self, code3):
        cfg = st.plan_configurations(code3)[0][0]
        rec = st.xi_simulated(code3, (1.0, 0.0),
                              st.builtin_channel("identity", [1]), cfg)
        assert rec.exact
        assert abs(rec.value((0, 0)) - 1.0) < 1e-12

    def test_amplitude_damping_bare_distribution(self, code3, ad036):
        cfg = st.plan_configurations(code3)[0][0]
        rec = st.xi_simulated(code3, (1.0, 0.0), ad036, cfg)
        expected = {"I": 0.81, "Z": 0.01, "X": 0.09, "Y": 0.09}
        for label, prob in expected.items():
            idx = code3.error_basis.index_of_label(label)
            assert abs(rec.value(code3.syndrome_table[idx]) - prob) < 1e-12

    def test_correlated_flip_bare_distribution(self, code5):
        for p in (0.1, 0.3):
            ch = st.builtin_channel("correlated-flip", [p])
            cfg = st.plan_configurations(code5)[0][0]
            rec = st.xi_simulated(code5, (1.0, 0.0), ch, cfg)
            zero = rec.value((0, 0, 0, 0))
            xx = code5.error_basis.index_of_label("XX")
            flip = rec.value(code5.syndrome_table[xx])
            assert abs(zero - (1 - p)) < 1e-12
            assert abs(flip - p) < 1e-12
            assert abs(sum(rec.distribution.values()) - 1.0) < 1e-12

    def test_agrees_with_prediction(self, code3, ad036):
        chi = st.chi_from_kraus(ad036, code3.error_basis)
        configs, _ = st.plan_configurations(code3)
        beta = np.array([0.8, 0.6j])
        for cfg in configs:
            rec = st.xi_simulated(code3, beta, ad036, cfg)
            for x in range(4):
                syn = code3.syndrome_table[x]
                assert abs(rec.value(syn)
                           - st.xi_predicted(chi, cfg, x)) < 1e-10

    def test_support_mismatch(self, code3):
        cfg = st.plan_configurations(code3)[0][0]
        with pytest.raises(ValueError):
            st.xi_simulated(code3, (1.0, 0.0),
                            st.builtin_channel("correlated-flip", [0.2]), cfg)

    def test_smaller_channel_acts_on_leading_noisy_qubit(self, code5, ad036):
        # characterize pads a narrower channel; the padding is identity
        # on the trailing noisy qubit
        narrow = st.characterize(code5, ad036, (1.0, 0.0)).records[0]
        cfg = st.plan_configurations(code5)[0][0]
        wide = st.xi_simulated(code5, (1.0, 0.0),
                               st.extend_channel(ad036, 2), cfg)
        for syn, prob in wide.distribution.items():
            assert abs(narrow.value(syn) - prob) < 1e-12
        for x, label in enumerate(code5.error_basis.labels):
            if label[1] != "I":
                assert narrow.value(code5.syndrome_table[x]) == 0.0

    def test_missing_syndrome_reads_zero(self, code3):
        rec = st.MeasurementRecord.from_distribution(0, {(0, 0): 1.0})
        assert rec.value((1, 1)) == 0.0

    @pytest.mark.parametrize("shots, counts, message", [
        (0, [100, 0, 0, 0], "shots must be a positive integer, got 0"),
        (-100, [100, 0, 0, 0], "shots must be a positive integer, got -100"),
        (1.5, [1, 0, 0, 0], "shots must be a positive integer, got 1.5"),
        (True, [1, 0, 0, 0], "shots must be a positive integer, got True"),
        (100, [90.0, 10, 0, 0], "sampled counts must be integers, got 90.0"),
        (100, [105, -5, 0, 0], "sampled counts must be nonnegative, got -5"),
        (100, [90, 11, 0, 0], "sampled counts sum to 101, over 100 shots"),
        # a trace-decreasing record may leave its no-detection count out
        (100, [90, 5, 0, 0], None),
        (np.int64(100), [90, 10, 0, 0], None),
        # True would be one shot; numpy integers are counts
        (1, [True, False], "sampled counts must be integers, got True"),
        (2, [0, np.False_], "sampled counts must be integers, got np.False_"),
        (3, [np.int64(2), np.uint8(1)], None),
    ])
    def test_sampled_counts_fit_the_shots(self, code3, shots, counts, message):
        dist = dict(zip(code3.syndrome_table, counts))
        if message is None:
            rec = st.MeasurementRecord.from_distribution(0, dist, shots)
            assert rec.row.tolist() == counts and rec.shots == shots
        else:
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                st.MeasurementRecord.from_distribution(0, dist, shots)

    @pytest.mark.parametrize("probs, message", [
        ([0.5, float("nan"), 0.5, 0.0], "syndrome (1, 1) must be finite, got nan"),
        ([float("inf"), 0.0, 0.0, 0.0], "syndrome (0, 0) must be finite, got inf"),
        ([0.5, 0.5, 0.0, -np.inf], "syndrome (1, 0) must be finite, got -inf"),
        ([0.5, 0.5, np.float64("nan"), float("nan")],
         "syndrome (0, 1) must be finite, got np.float64(nan)"),
        ([0.5, 0.5, 0.0, -0.0], None),
    ])
    def test_exact_probabilities_are_finite(self, code3, probs, message):
        dist = dict(zip(code3.syndrome_table, probs))
        if message is None:
            rec = st.MeasurementRecord.from_distribution(0, dist)
            assert rec.row.tolist() == probs and rec.exact
        else:
            with pytest.raises(ValueError, match="^exact probability for %s$"
                                                 % re.escape(message)):
                st.MeasurementRecord.from_distribution(0, dist)


def oracle_channels(code):
    """A random channel, a trace-decreasing Kraus subset and, when the
    noisy subsystem has room, a channel on fewer qubits than it."""
    p = len(code.noisy_coords)
    wide = st.builtin_channel("random-cp", [11, p, 3])
    out = {"random-cp": st.builtin_channel("random-cp", [5, p, 2]),
           "kraus-subset": st.Channel(p, wide.kraus[:2])}
    if p > 1:
        out["narrow"] = st.builtin_channel("random-cp", [7, p - 1, 2])
    return out


class TestFrameEngine:
    """xi_simulated against the register oracle (``oracle.py``): the
    encoded state, the channel, each configuration's U from its plan
    descriptor and Tr(Pi_s U rho U†) per syndrome, all from the code's
    strings."""

    def test_matches_dense_oracle(self, frame_code):
        code = frame_code
        dim = 1 << code.k
        beta = np.exp(1j * np.arange(dim)) / np.sqrt(dim)
        configs, _ = st.plan_configurations(code)
        plan = st.plan_to_json(code, configs)
        for name, channel in oracle_channels(code).items():
            dists, out_trace = register(code).records(plan, channel.kraus, beta)
            if name == "kraus-subset":
                assert out_trace < 0.99
            for cfg, dist in zip(configs, dists, strict=True):
                rec = st.xi_simulated(code, beta, st.extend_channel(
                    channel, len(code.noisy_coords)), cfg)
                assert set(dist) == set(code.syndrome_table)
                got = np.array([rec.value(syn) for syn in code.syndrome_table])
                want = np.array([dist[syn] for syn in code.syndrome_table])
                assert np.abs(got - want).max() < 1e-12, (name, cfg.index)
                assert abs(got.sum() - out_trace) < 1e-12

    def test_rejections(self, code5, ad036):
        cfg = st.plan_configurations(code5)[0][1]
        over = st.extend_channel(st.Channel(1, (np.eye(2), np.eye(2))), 2)
        with pytest.raises(ValueError, match="exceeds identity"):
            st.xi_simulated(code5, (1.0, 0.0), over, cfg)
        with pytest.raises(ValueError, match="not normalized"):
            st.xi_simulated(code5, (1.0, 1.0), st.extend_channel(ad036, 2), cfg)
        wide = st.builtin_channel("random-cp", [1, 3, 1])
        with pytest.raises(ValueError, match="noisy subsystem"):
            st.xi_simulated(code5, (1.0, 0.0), wide, cfg)


def record_bits(records):
    """Each record's index, syndrome order and probability bits."""
    return [(rec.config_index, list(rec.distribution),
             np.array(list(rec.distribution.values())).tobytes())
            for rec in records]


class TestFrameBlockMemo:
    """Each ``Channel`` computes its Pauli coefficients once, on first
    use, and keeps them: equal (code, channel) in a row run the
    transform once, whatever the logical amplitudes."""

    def test_a_configuration_loop_runs_the_kernel_once(self, code5, transforms):
        configs, _ = st.plan_configurations(code5)
        channel = st.builtin_channel("random-cp", [3, 2, 2])
        records = [st.xi_simulated(code5, (0.6, 0.8j), channel, cfg)
                   for cfg in configs]
        assert len(records) == 31 and transforms == [channel]
        # an equal channel is another object: the transform runs again
        twin = st.Channel(channel.p, channel.kraus, channel.label)
        reference = st.simulate(code5, (0.6, 0.8j), twin, configs)
        assert transforms == [channel, twin]
        assert record_bits(records) == record_bits(reference)

    def test_rejections_raise_on_every_call(self, code5, transforms):
        cfg = st.plan_configurations(code5)[0][1]
        good = st.extend_channel(st.builtin_channel("amplitude-damping", [0.36]), 2)
        over = st.extend_channel(st.Channel(1, (np.eye(2), np.eye(2))), 2)
        wide = st.builtin_channel("random-cp", [1, 3, 1])
        st.xi_simulated(code5, (1.0, 0.0), good, cfg)
        for _ in range(2):
            with pytest.raises(ValueError, match="exceeds identity"):
                st.xi_simulated(code5, (1.0, 0.0), over, cfg)
            with pytest.raises(ValueError, match="not normalized"):
                st.xi_simulated(code5, (1.0, 1.0), good, cfg)
            with pytest.raises(ValueError, match="expected 2 logical amplitudes"):
                st.xi_simulated(code5, [(0.6, 0.8j)], good, cfg)
            with pytest.raises(ValueError, match="noisy subsystem"):
                st.xi_simulated(code5, (1.0, 0.0), wide, cfg)
        # the width and amplitude checks come first; a failed transform
        # stores nothing, and the good channel's coefficients still serve
        assert transforms == [good, over, over]
        assert "_pauli_coefficients" not in vars(over)
        st.xi_simulated(code5, (1.0, 0.0), good, cfg)
        assert len(transforms) == 3

    def test_keeps_neither_code_nor_channel_alive(self):
        """A planned code, the plan it keeps and its channel are freed
        together: the plan holds no reference to the code."""
        code = fresh_builtin("code3")
        channel = st.builtin_channel("depolarizing", [0.1])
        configs, readouts = st.plan_configurations(code)
        cfg = configs[0]
        st.xi_simulated(code, (1.0, 0.0), channel, cfg)
        assert not channel._pauli_coefficients.flags.writeable
        assert "_paper_plan" in vars(code)
        refs = tuple(map(weakref.ref, (code, channel, cfg, readouts)))
        del code, channel, configs, readouts, cfg
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4

    def test_codes_and_channels_are_read_only(self, code5):
        mine = np.eye(2, dtype=complex)
        channel = st.Channel(1, (mine,))
        with pytest.raises(ValueError, match="read-only"):
            channel.kraus[0][0, 0] = 2.0
        mine[0, 0] = 2.0
        assert channel.kraus[0][0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            code5.logical_basis[0][0] = 1.0
        words = [np.array(v) for v in code5.logical_basis]
        code = st.build_code(code5.generators, code5.noisy_coords, codewords=words)
        words[0][0] = 1.0
        assert code.logical_basis[0][0] == code5.logical_basis[0][0]
        # a code made around build_code copies what the caller can write
        replaced = dataclasses.replace(code5, codewords=words)
        words[1][0] = 1.0
        assert replaced.logical_basis[1].tobytes() == code5.logical_basis[1].tobytes()
        assert not replaced.logical_basis[1].flags.writeable


def register_block(code, beta, channel):
    """The register kernel, the reference for ``simulate``, from the
    register oracle: psi encoded in the oracle's logical basis, the Kraus
    operators applied to it as dense words on the noisy coordinates, and
    every branch expanded in the oracle's syndrome frame F_x|j_L>, x in
    error-basis order. Returns (block, leak): row x of the d^2 x (2^k K)
    block holds the amplitudes of all branches on F_x|j_L>, column
    j K + r, and leak is the branches' squared norm that the frame does
    not hold."""
    reg = register(code)
    branches = reg.branches(reg.encode(beta), channel.kraus)
    coeffs = reg.frame(code.error_basis.labels).conj().T @ branches
    leak = np.vdot(branches, branches).real - np.vdot(coeffs, coeffs).real
    return coeffs.reshape(code.d2, -1), leak


def register_simulate(code, beta, channel, configs):
    """Each configuration's syndrome probabilities from ``register_block``."""
    block, _ = register_block(code, beta, channel)
    out = []
    for cfg in configs:
        amps = cfg.action @ block
        out.append(np.einsum("ij,ij->i", amps.conj(), amps).real)
    return out


def test_simulate_equals_the_tensordot_kernel(frame_code):
    """Within 1e-15 of the register kernel (``register_block``, which once
    applied the Kraus operators by tensordot), for channels on 1..p of
    the noisy qubits, padded with ``extend_channel`` for simulate."""
    code = frame_code
    noisy = len(code.noisy_coords)
    configs, _ = st.plan_configurations(code)
    rng = np.random.default_rng(noisy * 100 + code.n)
    for q in range(1, noisy + 1):
        wide = st.builtin_channel("random-cp", [q, q, 3])
        for channel in (wide, st.Channel(q, wide.kraus[:2])):
            beta = rng.normal(size=1 << code.k) + 1j * rng.normal(size=1 << code.k)
            beta /= np.linalg.norm(beta)
            want = register_simulate(code, beta, channel, configs)
            channel = st.extend_channel(channel, noisy)
            got = st.simulate(code, beta, channel, configs)
            for rec, probs in zip(got, want, strict=True):
                assert rec.syndromes == code.syndrome_table
                assert np.abs(rec.row - probs).max() <= 1e-15
            one = st.xi_simulated(code, beta, channel, configs[-1])
            assert np.abs(one.row - want[-1]).max() <= 1e-15


@pytest.mark.parametrize("name", sorted(FRAME_CODES) + ["bell4"])
def test_the_register_block_is_the_pauli_coefficients_times_beta(name):
    """For every accepted code the register kernel's block is C ⊗ beta,
    with C the Pauli coefficients of the channel padded to the noisy
    subsystem, and the branches stay in the frame's span, also for a
    non-perfect code: so beta drops out of the records."""
    code = (st.build_code(bell_pair_generators(4), range(4)) if name == "bell4"
            else built_frame_code(name))
    noisy = len(code.noisy_coords)
    rng = np.random.default_rng(noisy * 100 + code.n)
    for q in range(1, noisy + 1):
        channel = st.builtin_channel("random-cp", [q, q, 3])
        coeffs = st.extend_channel(channel, noisy)._pauli_coefficients
        beta = rng.normal(size=1 << code.k) + 1j * rng.normal(size=1 << code.k)
        beta /= np.linalg.norm(beta)
        block, leak = register_block(code, beta, channel)
        want = coeffs[:, None, :] * beta[None, :, None]
        assert np.abs(block.reshape(want.shape) - want).max() <= 1e-15
        assert abs(leak) <= 1e-15


def test_records_do_not_depend_on_the_logical_state(frame_code):
    """Bit for bit the same records for every normalized beta: the
    paper's claim that any element of the code space serves."""
    code = frame_code
    dim = 1 << code.k
    configs, _ = st.plan_configurations(code)
    channel = st.builtin_channel("random-cp", [7, len(code.noisy_coords), 2])
    rng = np.random.default_rng(17)
    random = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    betas = [np.eye(dim)[0], np.eye(dim)[-1], np.full(dim, dim ** -0.5),
             np.exp(1j * np.arange(dim)) / np.sqrt(dim), random / np.linalg.norm(random)]
    want = record_bits(st.simulate(code, betas[0], channel, configs))
    for beta in betas[1:]:
        assert record_bits(st.simulate(code, beta, channel, configs)) == want


def test_simulate_subset_matches_xi_simulated(code5):
    """A shuffled subset of a plan, one configuration repeated and the
    bare one included: each position holds the record xi_simulated
    gives for its configuration."""
    configs, _ = st.plan_configurations(code5)
    channel = st.builtin_channel("random-cp", [11, 2, 3])
    beta = np.array([0.6, 0.8j])
    order = np.random.default_rng(16).permutation(len(configs))[:9].tolist()
    subset = [configs[i] for i in order + [order[2], 0]]
    records = st.simulate(code5, beta, channel, subset)
    assert len(records) == len(subset)
    for cfg, rec in zip(subset, records):
        want = st.xi_simulated(code5, beta, channel, cfg)
        assert rec.config_index == want.config_index == cfg.index
        assert rec.syndromes is code5.syndrome_table
        assert rec.row.dtype == want.row.dtype and rec.row.tobytes() == want.row.tobytes()
        assert not rec.row.flags.writeable


def test_simulate_holds_far_less_than_the_frame_maps():
    # bell3's 126 frame maps are 8 MiB; stacking them, or every
    # configuration's amplitudes at once, held more than that
    code = built_frame_code("bell3")
    configs, _ = st.plan_configurations(code)
    maps = sum(cfg.action.nbytes for cfg in configs if cfg.kind != "bare")
    channel = st.builtin_channel("random-cp", [5, 3, 64])
    beta = np.array([0.6, 0.8j])
    # the first call computes the channel's coefficients, which the second reuses
    st.simulate(code, beta, channel, configs[:1])
    tracemalloc.start()
    try:
        records = st.simulate(code, beta, channel, configs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < maps / 8
    assert [rec.config_index for rec in records] == [cfg.index for cfg in configs]


def test_simulate_of_no_configurations_runs_the_gates(code3):
    channel = st.builtin_channel("depolarizing", [0.1])
    assert st.simulate(code3, (1.0, 0.0), channel, []) == []
    with pytest.raises(ValueError, match="not normalized"):
        st.simulate(code3, (1.0, 1.0), channel, [])
    wide = st.builtin_channel("random-cp", [3, 2, 1])
    with pytest.raises(ValueError, match="channel acts on 2 qubits"):
        st.simulate(code3, (1.0, 0.0), wide, [])


def test_simulate_refuses_a_narrower_channel(code5, ad036):
    configs, _ = st.plan_configurations(code5)
    message = ("^channel acts on 1 qubits but the code's noisy subsystem has 2; "
               "extend_channel pads a narrower channel$")
    with pytest.raises(ValueError, match=message):
        st.simulate(code5, (1.0, 0.0), ad036, configs)
    with pytest.raises(ValueError, match=message):
        st.xi_simulated(code5, (1.0, 0.0), ad036, configs[0])


def test_every_configuration_carries_a_frame_map(frame_code):
    """The bare configuration's map is the identity, bit for bit, also
    when the plan is rebuilt from its JSON descriptors."""
    code = frame_code
    configs, _ = st.plan_configurations(code)
    again, _ = st.plan_from_json(code, st.plan_to_json(code, configs))
    for plan in (configs, again):
        for cfg in plan:
            assert cfg.action.shape == (code.d2, code.d2)
            assert cfg.action.dtype == complex and not cfg.action.flags.writeable
        assert [cfg.kind for cfg in plan].count("bare") == 1
        assert plan[0].kind == "bare"
        assert same_bits(plan[0].action, np.eye(code.d2, dtype=complex))


@pytest.mark.parametrize("name", ["code5", "bell2-tail"])
def test_characterize_pads_a_narrower_channel_for_simulate(name):
    code = built_frame_code(name)
    configs, _ = st.plan_configurations(code)
    beta = np.array([0.6, 0.8j])
    for channel in (st.builtin_channel("amplitude-damping", [0.36]),
                    st.builtin_channel("random-cp", [9, 1, 2])):
        want = st.characterize(code, channel, beta).records
        got = st.simulate(code, beta,
                          st.extend_channel(channel, len(code.noisy_coords)), configs)
        assert ([(rec.config_index, rec.syndromes, rec.row.tobytes()) for rec in got]
                == [(rec.config_index, rec.syndromes, rec.row.tobytes()) for rec in want])


@pytest.fixture(scope="session")
def frame_oracle(frame_code):
    """A random channel on the noisy subsystem, its chi and amplitudes."""
    p = len(frame_code.noisy_coords)
    channel = st.builtin_channel("random-cp", [5, p, 2])
    dim = 1 << frame_code.k
    beta = np.exp(2j * np.arange(dim)) / np.sqrt(dim)
    return channel, st.chi_from_kraus(channel, frame_code.error_basis), beta


@settings(max_examples=20, deadline=None)
@given(data=hs.data())
def test_plan_from_json_pairs_match_simulation(frame_code, frame_oracle, data):
    """Any pair a != b, commuting or not, with any balanced toggle:
    the readout rule predicts what the frame simulation measures."""
    code, basis = frame_code, frame_code.error_basis
    channel, chi, beta = frame_oracle
    a = data.draw(hs.integers(0, code.d2 - 1), label="a")
    commuting = data.draw(hs.booleans(), label="commuting")
    partners = [b for b in range(code.d2) if b != a and commuting
                == st.commutes(basis.elements[a], basis.elements[b])]
    assume(partners)
    b = data.draw(hs.sampled_from(partners), label="b")
    signs = data.draw(hs.permutations([1, -1] * (code.d2 // 2)), label="signs")
    pair = {"a": basis.label(a), "b": basis.label(b)}
    theta = {basis.label(m): "+" if s > 0 else "-" for m, s in enumerate(signs)}
    doc = {"configurations": [{"kind": "rotated", **pair},
                              {"kind": "toggled", "theta": theta, **pair}]}
    configs, readouts = st.plan_from_json(code, doc)
    assert (readouts.a_index < readouts.b_index).all()
    for cfg in configs:
        rec = st.xi_simulated(code, beta, channel, cfg)
        for x, syn in enumerate(code.syndrome_table):
            assert abs(st.xi_predicted(chi, cfg, x) - rec.value(syn)) < 1e-12


def test_pipeline_forms_no_dense_operator(code5, monkeypatch):
    """Code building, planning, simulation, reconstruction, validation
    and recovery form no dense Pauli matrix, no syndrome projector and
    no dense pre-processing, and call no dense simulator."""
    # oracle words that earlier tests kept would hide a to_matrix call
    channels._adjoint_words.cache_clear()
    channel = st.builtin_channel("random-cp", [3, 2, 2])
    oracle = st.chi_from_kraus(channel, code5.error_basis)
    psi = np.column_stack(code5.logical_basis) @ np.array([0.6, 0.8j])
    public_densesim = [fn for name, fn in inspect.getmembers(densesim, inspect.isfunction)
                       if fn.__module__ == densesim.__name__ and not name.startswith("_")]
    assert densesim.apply_channel in public_densesim
    banned = [pauli.to_matrix, codes.syndrome_projector, protocol.rotation_unitary,
              protocol.build_toggle] + public_densesim

    def refuse(*args, **kwargs):
        raise AssertionError("dense 2^n operator on the pipeline path")

    for name, module in list(sys.modules.items()):
        if name != "syntomo" and not name.startswith("syntomo."):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in banned):
                monkeypatch.setattr(module, attr, refuse)
    for call in (lambda: st.build_toggle(code5, [1, -1] * 8),
                 lambda: pauli.to_matrix(code5.generators[0]),
                 lambda: st.syndrome_projector(code5, code5.syndrome_table[0]),
                 lambda: st.apply_unitary(np.eye(2), np.eye(2))):
        with pytest.raises(AssertionError):
            call()

    for name in ("code3", "code5"):
        st.builtin_code(name)
    for build in FRAME_CODES.values():
        build()
    st.build_code(["XIX", "YYZ"], [0], logical_ops={"X": "−ZXZ", "Z": "XYX"})
    _, residual = st.kl_scan(code5)
    assert residual < 1e-12

    configs, readouts = st.plan_configurations(code5)
    again, _ = st.plan_from_json(code5, st.plan_to_json(code5, configs))
    records = [st.xi_simulated(code5, (0.6, 0.8j), channel, cfg)
               for cfg in again]
    chi = st.reconstruct(records, readouts, code5.error_basis)
    for cfg, rec in zip(configs, records):
        for x, syn in enumerate(code5.syndrome_table):
            assert abs(st.xi_predicted(chi, cfg, x) - rec.value(syn)) < 1e-12
    assert st.compare(chi, oracle).frobenius_error < 1e-12
    exact = st.characterize(code5, channel, (0.6, 0.8j))
    assert st.compare(exact.chi, oracle).frobenius_error < 1e-12
    shots = 20000
    sampled = st.characterize(code5, channel, (0.6, 0.8j),
                              st.SamplingPolicy(shots, seed=1))
    assert st.compare(sampled.chi, oracle).max_entry_error < 6 / np.sqrt(shots)

    m = code5.error_basis.index_of_label("XY")
    error_space = pauli.apply_pauli(code5.error_basis.elements[m],
                                    np.column_stack(code5.logical_basis))
    corrupted = error_space @ np.array([0.6, 0.8j])  # F_m psi
    fixed = st.recover(corrupted, code5, code5.syndrome_table[m])
    np.testing.assert_allclose(fixed, psi, atol=1e-12)
    rho = np.outer(corrupted, corrupted.conj())
    np.testing.assert_allclose(st.recover(rho, code5, code5.syndrome_table[m]),
                               np.outer(psi, psi.conj()), atol=1e-12)


def test_only_the_package_root_imports_densesim():
    # no pipeline module calls densesim; the package re-exports it
    src = Path(st.__file__).parent
    importers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "densesim" for n in names):
                importers.append(path.name)
    assert importers == ["__init__.py"]


class TestPlanner:
    def test_configuration_counts(self, code3, code5):
        assert len(st.plan_configurations(code3)[0]) == 7
        assert len(st.plan_configurations(code5)[0]) == 31

    def test_structure(self, code5):
        configs, _ = st.plan_configurations(code5)
        assert configs[0].kind == "bare"
        rotated = [c for c in configs if c.kind == "rotated"]
        toggled = [c for c in configs if c.kind == "toggled"]
        assert len(rotated) == len(toggled) == 15
        # each non-identity element appears once as the pair partner
        assert sorted(c.b for c in rotated) == list(range(1, 16))
        assert [c.index for c in configs] == list(range(31))

    def test_toggle_signs_two_color_the_pairing(self, code5):
        configs, _ = st.plan_configurations(code5)
        basis = code5.error_basis
        for cfg in configs:
            if cfg.kind != "toggled":
                continue
            signs = cfg.theta_signs
            assert sum(signs) == 0
            for x in range(basis.size):
                partner = basis.product_index[cfg.b, x]
                assert signs[x] == -signs[partner]

    def test_the_plan_is_compiled_once_per_code(self, monkeypatch):
        """Every call returns a new list of the same frozen configurations
        and the same table, compiled by the first: a caller that clears
        its list leaves the next call's plan whole. A
        ``dataclasses.replace`` copy compiles its own plan, and
        ``plan_from_json`` compiles on every call."""
        code = fresh_builtin("code3")
        compile_, compiled = protocol._compile, []

        def counted(*args):
            compiled.append(args)
            return compile_(*args)

        monkeypatch.setattr(protocol, "_compile", counted)
        first, table = st.plan_configurations(code)
        kept = list(first)
        first.clear()
        second, again = st.plan_configurations(code)
        assert len(compiled) == 1 and second is not first and again is table
        assert len(kept) == 7 and all(a is b for a, b in zip(second, kept, strict=True))
        copy = dataclasses.replace(code)
        configs, readouts = st.plan_configurations(copy)
        assert len(compiled) == 2 and readouts is not table
        assert table_rows(readouts) == table_rows(table)
        doc = st.plan_to_json(copy, configs)
        assert doc == st.plan_to_json(code, second)
        st.plan_from_json(code, doc)
        st.plan_from_json(code, doc)
        assert len(compiled) == 4
        st.plan_configurations(copy)
        assert len(compiled) == 4

    def test_readout_coefficients(self, code3):
        configs, readouts = st.plan_configurations(code3)
        assert len(readouts) == len(configs) * 4
        assert readouts.configs == tuple(range(len(configs)))
        assert readouts.syndromes == code3.syndrome_table
        for column in (readouts.a_index, readouts.b_index,
                       readouts.coeff_re, readouts.coeff_im):
            assert column.shape == (len(configs), 4)
            assert column.dtype.kind == "i" and not column.flags.writeable
        for a_index, b_index, coeff_re, coeff_im in table_rows(readouts):
            assert a_index <= b_index
            if a_index == b_index:
                assert (coeff_re, coeff_im) == (0, 0)
            else:
                assert (coeff_re, coeff_im) in ((1, 0), (-1, 0),
                                                (0, 1), (0, -1))

    def test_every_entry_has_both_parts(self, code5):
        configs, readouts = st.plan_configurations(code5)
        seen = {}
        for a_index, b_index, coeff_re, _ in table_rows(readouts):
            if a_index == b_index:
                continue
            kind = "re" if coeff_re else "im"
            seen.setdefault((a_index, b_index), set()).add(kind)
        for a in range(16):
            for b in range(a + 1, 16):
                assert seen[(a, b)] == {"re", "im"}

    def test_plan_json_round_trip(self, code3):
        configs, readouts = st.plan_configurations(code3)
        doc = st.plan_to_json(code3, configs)
        again_cfgs, again_ros = st.plan_from_json(code3, doc)
        assert len(again_cfgs) == len(configs)
        for c, d in zip(configs, again_cfgs):
            assert (c.kind, c.a, c.b, c.theta_signs) == \
                (d.kind, d.a, d.b, d.theta_signs)
            assert np.abs(c.action - d.action).max() < 1e-12
        assert again_ros.configs == readouts.configs
        assert again_ros.syndromes == readouts.syndromes
        assert table_rows(again_ros) == table_rows(readouts)

    def test_plan_json_accepts_ascii_minus(self, code3):
        configs, _ = st.plan_configurations(code3)
        doc = st.plan_to_json(code3, configs)
        for cfg in doc["configurations"]:
            if cfg.get("theta"):
                cfg["theta"] = {k: v.replace("−", "-")
                                for k, v in cfg["theta"].items()}
        again, _ = st.plan_from_json(code3, doc)
        assert len(again) == len(configs)


def reference_plan(code, doc):
    """The plan built one configuration at a time, as (action, rule,
    theta signs) per descriptor: the identity for a bare one, else a
    dense d^2 x d^2 rotation map with a dense unitarity check, its
    toggle, and the readout rule evaluated for that configuration
    alone."""
    basis = code.error_basis
    idx, phase = basis.product_index, basis.product_phase
    powers = np.array([1.0, 1j, -1.0, -1j])
    cols = np.arange(code.d2)
    out = []
    for entry in doc["configurations"]:
        if entry["kind"] == "bare":
            out.append((np.eye(code.d2, dtype=complex),
                        np.stack([cols, cols, 0 * cols, 0 * cols], axis=1), None))
            continue
        a, b = basis.index_of_label(entry["a"]), basis.index_of_label(entry["b"])
        commuting = phase[a, b] == phase[b, a]
        m = np.zeros((code.d2, code.d2), dtype=complex)
        m[idx[a], cols] = powers[phase[a]]
        m[idx[b], cols] = (1j if commuting else 1.0) * powers[phase[b]]
        m /= np.sqrt(2.0)
        assert np.abs(m.conj().T @ m - np.eye(code.d2)).max() <= 1e-12
        e = phase[b].astype(np.int64) - phase[a]
        signs = None
        if entry["kind"] == "toggled":
            signs = [0] * code.d2
            for label, sign in entry["theta"].items():
                signs[basis.index_of_label(label)] = 1 if sign == "+" else -1
            signs = tuple(signs)
            theta = np.array(signs)
            m = m * np.exp(1j * theta * np.pi / 4.0)
            e += (theta[idx[a]] - theta[idx[b]]) // 2
        if commuting:
            e -= 1
        c = np.array([1, 0, -1, 0])[e % 4]
        s = np.array([0, -1, 0, 1])[e % 4]
        rule = np.stack([np.minimum(idx[a], idx[b]), np.maximum(idx[a], idx[b]),
                         c, np.where(idx[a] < idx[b], s, -s)], axis=1)
        out.append((m, rule, signs))
    return out


def dense_rotation_map(basis, a, b):
    """The frame map of the rotation of pair (a, b), built densely from
    the product table by ``reference_plan``'s formula, unchecked."""
    idx, phase = basis.product_index, basis.product_phase
    powers = np.array([1.0, 1j, -1.0, -1j])
    cols = np.arange(basis.size)
    m = np.zeros((basis.size, basis.size), dtype=complex)
    m[idx[a], cols] = powers[phase[a]]
    m[idx[b], cols] = (1j if phase[a, b] == phase[b, a] else 1.0) * powers[phase[b]]
    return m / np.sqrt(2.0)


def with_phase(basis, phase):
    """A fresh copy of ``basis`` that reads ``phase`` as its product
    phases: the derived table, put in the copy's instance dict."""
    broken = dataclasses.replace(basis)
    vars(broken)["product_phase"] = phase
    return broken


def pair_plan(code, pairs, rng):
    """A rotated and a toggled configuration, with random balanced
    signs, per pair (a, b)."""
    basis = code.error_basis
    entries = [{"kind": "bare"}]
    for a, b in pairs:
        pair = {"a": basis.label(a), "b": basis.label(b)}
        signs = rng.permutation([1, -1] * (code.d2 // 2))
        theta = {basis.label(m): "+" if v > 0 else "−" for m, v in enumerate(signs)}
        entries += [{"kind": "rotated", **pair},
                    {"kind": "toggled", "theta": theta, **pair}]
    return {"configurations": entries}


def some_pairs(code, rng, count):
    """Every ordered pair a != b, or ``count`` random ones when d^2 > 16."""
    pairs = [(a, b) for a in range(code.d2) for b in range(code.d2) if a != b]
    if code.d2 <= 16:
        return pairs
    return [pairs[i] for i in rng.choice(len(pairs), count, replace=False)]


@settings(max_examples=30, deadline=None)
@given(name=hs.sampled_from(sorted(FRAME_CODES)), seed=hs.integers(0, 2 ** 32 - 1),
       count=hs.integers(1, 6))
def test_pair_plan_json_text_round_trip(name, seed, count):
    """plan_to_json, jsonio text and plan_from_json rebuild a random pair
    plan bit for bit: descriptors, rules, frame maps and table columns."""
    code = built_frame_code(name)
    rng = np.random.default_rng(seed)
    pairs = some_pairs(code, rng, count)
    pairs = [pairs[i] for i in rng.permutation(len(pairs))[:count]]
    configs, readouts = st.plan_from_json(code, pair_plan(code, pairs, rng))
    text = jsonio.dumps(st.plan_to_json(code, configs))
    again, again_readouts = st.plan_from_json(code, json.loads(text))

    def described(cfg):
        action = (cfg.action.dtype, cfg.action.tobytes())
        return cfg.index, cfg.kind, cfg.a, cfg.b, cfg.theta_signs, cfg.rule, action

    assert list(map(described, again)) == list(map(described, configs))
    assert again_readouts.syndromes == readouts.syndromes
    assert again_readouts.configs == readouts.configs
    for field in ("a_index", "b_index", "coeff_re", "coeff_im"):
        column, want = getattr(again_readouts, field), getattr(readouts, field)
        assert column.dtype == want.dtype and np.array_equal(column, want)


class TestCompiledPlan:
    """The one-pass compile against per-configuration construction."""

    def test_equals_the_reference_builder(self, frame_code):
        code = frame_code
        rng = np.random.default_rng(17)
        default = st.plan_configurations(code)
        docs = [st.plan_to_json(code, default[0]),
                pair_plan(code, some_pairs(code, rng, 40)[::3], rng)]
        plans = [default, st.plan_from_json(code, docs[1])]
        for doc, (configs, readouts) in zip(docs, plans):
            want = reference_plan(code, doc)
            assert len(configs) == len(want)
            for cfg, (action, rule, signs) in zip(configs, want):
                assert same_bits(cfg.action, action)
                assert cfg.rule == tuple(map(tuple, rule.tolist()))
                assert cfg.theta_signs == signs
            rules = np.array([rule for _, rule, _ in want]).reshape(-1, code.d2, 4)
            for table in (readouts, st.derive_readouts(code, configs)):
                assert table.configs == tuple(range(len(configs)))
                for column, field in zip(rules.transpose(2, 0, 1), ("a_index", "b_index",
                                                                    "coeff_re", "coeff_im")):
                    assert np.array_equal(getattr(table, field), column)
                    assert getattr(table, field).dtype == np.int64
                    assert not getattr(table, field).flags.writeable

    def test_every_pair_gives_a_unitary_map(self, frame_code):
        # every ordered pair at p <= 2, random pairs at p = 3
        code = frame_code
        rng = np.random.default_rng(23)
        configs, _ = st.plan_from_json(code, pair_plan(code, some_pairs(code, rng, 60), rng))
        eye = np.eye(code.d2)
        for cfg in configs[1:]:
            assert np.abs(cfg.action.conj().T @ cfg.action - eye).max() <= 1e-12

    def test_corrupted_product_phase_fails_the_unitarity_check(self, code5):
        basis = code5.error_basis
        a, x = basis.index_of_label("XZ"), basis.index_of_label("IX")
        phase = basis.product_phase.copy()
        phase[a, x] = (phase[a, x] + 1) % 4
        phase.flags.writeable = False
        broken = dataclasses.replace(code5, error_basis=with_phase(basis, phase))
        theta = {basis.label(m): "+" if m < 8 else "-" for m in range(16)}
        doc = {"configurations": [
            {"kind": "bare"},
            {"kind": "rotated", "a": "IZ", "b": "ZI"},
            {"kind": "toggled", "a": "XZ", "b": "YI", "theta": theta},
            {"kind": "rotated", "a": "XZ", "b": "ZY"}]}
        st.plan_from_json(code5, doc)
        with pytest.raises(ValueError, match=r"^rotation for pair \(XZ, YI\) "
                                             r"failed the unitarity check$"):
            st.plan_from_json(broken, doc)

    def test_exact_check_equals_the_dense_one(self, code3, code5):
        # every product_phase entry of code3 shifted by 1, 2 and 3, 60
        # seeded (entry, shift) draws on code5, and both tables intact
        rng = np.random.default_rng(41)
        cases = [(code3, i, j, shift) for i in range(4) for j in range(4)
                 for shift in (1, 2, 3)]
        cases += [(code5, k // 48, k // 3 % 16, k % 3 + 1)
                  for k in rng.choice(16 * 16 * 3, 60, replace=False).tolist()]
        cases += [(code3, 0, 0, 0), (code5, 0, 0, 0)]
        failed = 0
        for code, i, j, shift in cases:
            basis = code.error_basis
            phase = basis.product_phase.copy()
            phase[i, j] = (phase[i, j] + shift) % 4
            phase.flags.writeable = False
            broken = dataclasses.replace(code, error_basis=with_phase(basis, phase))
            pairs = [(a, b) for a in range(code.d2) for b in range(code.d2) if a != b]
            doc = {"configurations": [{"kind": "bare"}] + [
                {"kind": "rotated", "a": basis.label(a), "b": basis.label(b)}
                for a, b in pairs]}
            maps = [dense_rotation_map(broken.error_basis, a, b) for a, b in pairs]
            bad = [pair for pair, m in zip(pairs, maps)
                   if np.abs(m.conj().T @ m - np.eye(code.d2)).max() > 1e-12]
            if not bad:
                st.plan_from_json(broken, doc)
                continue
            failed += 1
            message = ("rotation for pair (%s, %s) failed the unitarity check"
                       % tuple(map(basis.label, bad[0])))
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                st.plan_from_json(broken, doc)
        assert failed == len(cases) - 2

    @pytest.mark.parametrize("entry, message", [
        ({"kind": "rotated", "a": "X", "b": "X"},
         "rotation needs two distinct error indices"),
        ({"kind": "toggled", "a": "I", "b": "Z",
          "theta": {"I": "+", "Z": "*", "X": "-", "Y": "-"}},
         "bad theta sign '*'"),
        ({"kind": "toggled", "a": "I", "b": "Z",
          "theta": {"I": "+", "Z": "+", "X": "-"}},
         "theta map does not cover the error basis"),
        ({"kind": "spun", "a": "I", "b": "Z"},
         "unknown configuration kind 'spun'"),
        # a sign would silently name the basis element
        ({"kind": "rotated", "a": "I", "b": "-Y"},
         "error label '-Y' carries a minus sign"),
        ({"kind": "toggled", "a": "I", "b": "Z",
          "theta": {"I": "+", "Z": "+", "−X": "-", "Y": "-"}},
         "error label '−X' carries a minus sign"),
    ])
    def test_plan_from_json_rejections(self, code3, entry, message):
        doc = {"configurations": [{"kind": "bare"}, entry]}
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            st.plan_from_json(code3, doc)


# valid documents for the plan fuzz: the default plans of code3 and code5
PLAN_DOCS = {name: st.plan_to_json(code, st.plan_configurations(code)[0])
             for name, code in (("code3", st.builtin_code("code3")),
                                ("code5", st.builtin_code("code5")))}


@hs.composite
def malformed_plan(draw):
    """(code name, its plan document with one node made wrong)."""
    name = draw(hs.sampled_from(sorted(PLAN_DOCS)))
    return name, draw(malformed([PLAN_DOCS[name]]))


def with_theta(value):
    """code3's plan with the first toggled entry's theta set to ``value``."""
    doc = copy.deepcopy(PLAN_DOCS["code3"])
    doc["configurations"][2]["theta"] = value
    return "code3", doc


@settings(max_examples=150, deadline=None)
@given(case=malformed_plan())
@example(case=with_theta(["+", "-", "-", "+"]))
@example(case=with_theta("+--+"))
@example(case=with_theta(None))
@example(case=("code3", {"configurations": ""}))
def test_fuzzed_plans_raise_only_schema_errors(code3, code5, case):
    name, doc = case
    code = {"code3": code3, "code5": code5}[name]
    with pytest.raises((KeyError, TypeError, ValueError)):
        st.plan_from_json(code, doc)


class TestReconstruct:
    def test_amplitude_damping_exact(self, code3, ad036):
        configs, readouts, records = exact_records(code3, ad036)
        chi = st.reconstruct(records, readouts, code3.error_basis)
        oracle = st.chi_from_kraus(ad036, code3.error_basis)
        assert np.abs(chi.entries - oracle.entries).max() < 1e-10
        basis = code3.error_basis
        assert abs(chi.entries[0, basis.index_of_label("Z")] - 0.09) < 1e-10
        assert abs(chi.entries[basis.index_of_label("X"),
                               basis.index_of_label("Y")] + 0.09j) < 1e-10

    def test_identity_channel(self, code3):
        ch = st.builtin_channel("identity", [1])
        configs, readouts, records = exact_records(code3, ch)
        chi = st.reconstruct(records, readouts, code3.error_basis).entries
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(chi, expected, atol=1e-10)

    def test_random_two_qubit_channel(self, code3, code5):
        ch = st.builtin_channel("random-cp", [42, 2, 4])
        configs, readouts, records = exact_records(code5, ch)
        chi = st.reconstruct(records, readouts, code5.error_basis)
        oracle = st.chi_from_kraus(ch, code5.error_basis)
        assert np.linalg.norm(chi.entries - oracle.entries, "fro") < 1e-8
        # a basis smaller or larger than the table's, on every call
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^the readout table is for a "
                                                 r"basis of 16 elements, not 4$"):
                st.reconstruct(records, readouts, code3.error_basis)
        configs, readouts, records = exact_records(
            code3, st.builtin_channel("amplitude-damping", [0.36]))
        with pytest.raises(ValueError, match=r"^the readout table is for a "
                                             r"basis of 4 elements, not 16$"):
            st.reconstruct(records, readouts, code5.error_basis)

    def test_missing_record(self, code3, ad036):
        configs, readouts, records = exact_records(code3, ad036)
        with pytest.raises(ValueError, match="missing records"):
            st.reconstruct(records[:-1], readouts, code3.error_basis)

    def test_inconsistent_exact_readouts(self, code3, ad036):
        configs, readouts, records = exact_records(code3, ad036)
        rec = records[1]
        broken = dict(rec.distribution)
        syn = code3.syndrome_table[2]
        broken[syn] = broken.get(syn, 0.0) + 1e-5
        records[1] = st.MeasurementRecord.from_distribution(rec.config_index, broken)
        with pytest.raises(ValueError, match="inconsistent redundant"):
            st.reconstruct(records, readouts, code3.error_basis)

    def test_sampled_records_average_instead(self, code3, ad036):
        # the same perturbation is tolerated once records carry counts
        configs, readouts, records = exact_records(code3, ad036)
        sampler = st.SamplingPolicy(shots_per_configuration=200000, seed=5)
        counts = [st.sample_record(r, sampler) for r in records]
        chi = st.reconstruct(counts, readouts, code3.error_basis)
        oracle = st.chi_from_kraus(ad036, code3.error_basis)
        assert np.abs(chi.entries - oracle.entries).max() < 0.02

    def test_incomplete_plan(self, code3, ad036):
        # bare plus one rotation exposes one part of (I, Z) but not the other
        doc = {"configurations": [{"kind": "bare"},
                                  {"kind": "rotated", "a": "I", "b": "Z"}]}
        configs, readouts = st.plan_from_json(code3, doc)
        records = st.simulate(code3, (1.0, 0.0), ad036, configs)
        # the table keeps its structure, and the check runs on every call
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^entry \(I, Z\) lacks a real "
                                                 r"or imaginary readout$"):
                st.reconstruct(records, readouts, code3.error_basis)


def reference_reconstruct(records, readouts, basis, policy=st.DEFAULT_POLICY):
    """Reconstruction as one loop over the readouts: the diagonal from the
    bare readouts, then each entry's redundant readouts summed in readout
    order, spread-checked in exact mode and averaged."""
    by_config = {rec.config_index: rec for rec in records}
    missing = sorted(set(readouts.configs) - set(by_config))
    if missing:
        raise ValueError("missing records for configurations %s" % missing)
    exact = all(rec.exact for rec in by_config.values())
    rows = table_rows(readouts)
    keys = [(cfg, syn) for cfg in readouts.configs for syn in readouts.syndromes]

    d2 = basis.size
    diag = np.zeros(d2)
    for (cfg, syn), (a, b, _, _) in zip(keys, rows):
        if a == b:
            diag[a] = by_config[cfg].value(syn)

    estimates = {}
    for (cfg, syn), (a, b, c, s) in zip(keys, rows):
        if a == b:
            continue
        value = by_config[cfg].value(syn)
        value -= 0.5 * (diag[a] + diag[b])
        slot = estimates.setdefault((a, b), ([], []))
        if c != 0:
            slot[0].append(value / c)
        elif s != 0:
            slot[1].append(value / s)

    chi = np.zeros((d2, d2), dtype=complex)
    chi[np.diag_indices(d2)] = diag
    for a in range(d2):
        for b in range(a + 1, d2):
            parts = []
            for vals in estimates.get((a, b), ([], [])):
                if not vals:
                    raise ValueError("entry (%s, %s) lacks a real or imaginary "
                                     "readout" % (basis.label(a), basis.label(b)))
                if exact and max(vals) - min(vals) > policy.readout_consistency:
                    raise ValueError(
                        "inconsistent redundant readouts for entry "
                        "(%s, %s): spread %g"
                        % (basis.label(a), basis.label(b), max(vals) - min(vals)))
                parts.append(sum(vals[1:], vals[0]) / len(vals))
            chi[a, b] = complex(*parts)
            chi[b, a] = chi[a, b].conjugate()
    return chi


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def same_bits(x, y):
    return all(np.array_equal(f(x), f(y)) for f in (
        np.real, np.imag, lambda z: np.signbit(z.real), lambda z: np.signbit(z.imag)))


RECONSTRUCT_CASES = {
    # phase damping leaves zero entries, so -0.0 occurs
    "code3-phase-damping": ("code3", "phase-damping", [0.3]),
    "code3-amplitude-damping": ("code3", "amplitude-damping", [0.36]),
    "code5-random-cp": ("code5", "random-cp", [11, 2, 3]),
}


def restrict(readouts, keep):
    """The table's readouts of the syndrome indices in ``keep`` only."""
    return dataclasses.replace(
        readouts, syndromes=tuple(readouts.syndromes[x] for x in keep),
        **{f: getattr(readouts, f)[:, keep] for f in
           ("a_index", "b_index", "coeff_re", "coeff_im")})


def random_plan(code, data):
    """Plan descriptors with a random pair (a, P.a) and a random
    two-coloring per non-identity P, then configurations repeated,
    dropped and shuffled."""
    basis = code.error_basis
    entries = [{"kind": "bare"}]
    for p in range(1, code.d2):
        a = data.draw(hs.integers(0, code.d2 - 1), label="a")
        pair = {"a": basis.label(a), "b": basis.label(int(basis.product_index[p, a]))}
        flips = data.draw(hs.lists(hs.booleans(), min_size=code.d2,
                                   max_size=code.d2), label="colors")
        theta = {}
        for x in range(code.d2):
            y = int(basis.product_index[p, x])
            plus = (x < y) != flips[min(x, y)]
            theta[basis.label(x)] = "+" if plus else "-"
        entries += [{"kind": "rotated", **pair},
                    {"kind": "toggled", "theta": theta, **pair}]
    entries += data.draw(hs.lists(hs.sampled_from(entries), max_size=8), label="repeats")
    dropped = data.draw(hs.lists(hs.integers(0, len(entries) - 1), max_size=2,
                                 unique=True), label="dropped")
    kept = [e for i, e in enumerate(entries) if i not in dropped]
    return data.draw(hs.permutations(kept), label="order")


@settings(max_examples=60, deadline=None)
@given(data=hs.data())
def test_reconstruct_matches_readout_loop(code3, code5, data):
    """Array reconstruction equals the per-readout loop bit for bit
    (values, signed zeros and error messages) on random plans that
    repeat configurations, for exact and sampled records, simulated or
    built by hand from dicts."""
    name = data.draw(hs.sampled_from(sorted(RECONSTRUCT_CASES)), label="case")
    code_name, channel_name, params = RECONSTRUCT_CASES[name]
    code = code3 if code_name == "code3" else code5
    basis = code.error_basis
    doc = {"configurations": random_plan(code, data)}
    configs, readouts = st.plan_from_json(code, doc)
    if data.draw(hs.booleans(), label="restricted"):
        # the readouts of some syndromes only: lone and single-signed
        # groups, so averages of -0.0 occur
        keep = data.draw(hs.sets(hs.integers(0, code.d2 - 1), min_size=1),
                         label="syndromes")
        readouts = restrict(readouts, sorted(keep))
    channel = st.builtin_channel(channel_name, params)
    if channel.p < len(code.noisy_coords):
        channel = st.extend_channel(channel, len(code.noisy_coords))
    records = st.simulate(code, (0.6, 0.8j), channel, configs)
    if data.draw(hs.booleans(), label="sampled"):
        sampler = st.SamplingPolicy(shots_per_configuration=data.draw(
            hs.sampled_from([50, 1000, 100000]), label="shots"),
            seed=data.draw(hs.integers(0, 1 << 32), label="seed"))
        records = [st.sample_record(rec, sampler) for rec in records]
    else:
        # exact records off by more than the consistency tolerance
        for _ in range(data.draw(hs.integers(0, 3), label="perturbed")):
            r = data.draw(hs.integers(0, len(records) - 1), label="record")
            x = data.draw(hs.integers(0, code.d2 - 1), label="syndrome")
            dist = dict(records[r].distribution)
            dist[code.syndrome_table[x]] += 1e-5
            records[r] = st.MeasurementRecord.from_distribution(records[r].config_index,
                                                                dist)
    # hand-built records, through the one constructor: syndromes
    # reordered, dropped (they read 0), repeated among the pairs the dict
    # is built from (the last value wins) or foreign; a record may also
    # come twice for one configuration, and the later one counts
    for _ in range(data.draw(hs.integers(0, 3), label="hand-built")):
        r = data.draw(hs.integers(0, len(records) - 1), label="hand-built record")
        rec = records[r]
        pairs = data.draw(hs.permutations(list(rec.distribution.items())),
                          label="reordered")
        dropped = data.draw(hs.sets(hs.integers(0, code.d2 - 1), max_size=2),
                            label="dropped")
        pairs = [pair for i, pair in enumerate(pairs) if i not in dropped]
        step = 1 if rec.shots is not None else 1e-5
        if pairs and data.draw(hs.booleans(), label="repeated"):
            syn, val = data.draw(hs.sampled_from(pairs), label="repeat")
            pairs.append((syn, val + step))
        if data.draw(hs.booleans(), label="foreign"):
            pairs.insert(0, ((2,) * len(code.syndrome_table[0]), 7 * step))
        # counts may not sum past shots: a sampled record's shots cover
        # the one count a repeat adds and the seven of a foreign syndrome
        shots = None if rec.shots is None else rec.shots + 8
        rebuilt = st.MeasurementRecord.from_distribution(rec.config_index,
                                                         dict(pairs), shots)
        if data.draw(hs.booleans(), label="twice"):
            records.append(rebuilt)
        else:
            records[r] = rebuilt
    want = outcome(reference_reconstruct, records, readouts, basis)
    got = outcome(st.reconstruct, records, readouts, basis)
    if isinstance(want, str):
        assert got == want
    else:
        assert same_bits(got.entries, want)


def test_reconstruct_keeps_a_lone_negative_zero(code3):
    # without the Y syndrome's readouts, some parts of the zero entries
    # of phase damping rest on one readout, which reads -0.0
    channel = st.builtin_channel("phase-damping", [0.3])
    configs, readouts = st.plan_configurations(code3)
    records = st.simulate(code3, (0.6, 0.8j), channel, configs)
    readouts = restrict(readouts, [0, 1, 2])
    got = st.reconstruct(records, readouts, code3.error_basis).entries
    assert same_bits(got, reference_reconstruct(records, readouts, code3.error_basis))
    upper = got[np.triu_indices(4, 1)]
    assert ((upper.imag == 0) & np.signbit(upper.imag)).any()


@pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
def test_a_warm_table_reconstructs_as_the_readout_loop(frame_code, sampled):
    """A table keeps what reconstruct derives from it alone; a second
    call, on other records, equals the per-readout loop bit for bit."""
    configs, readouts = st.plan_configurations(frame_code)
    basis = frame_code.error_basis
    p = len(frame_code.noisy_coords)
    sampler = st.SamplingPolicy(shots_per_configuration=10_000, seed=8)
    kept = []
    for seed in (3, 4):
        channel = st.builtin_channel("random-cp", [seed, p, 2])
        records = st.simulate(frame_code, (0.6, 0.8j), channel, configs)
        if sampled:
            records = [st.sample_record(rec, sampler) for rec in records]
        got = st.reconstruct(records, readouts, basis).entries
        kept.append(vars(readouts)["_reduction"])
    # built by the first call and kept for the second
    assert kept[0] is kept[1]
    assert same_bits(got, reference_reconstruct(records, readouts, basis))


def test_characterize_evaluates_the_rule_once_per_configuration(monkeypatch):
    """One compile per code: the first characterize compiles the plan,
    whose one rule pass yields a row per (configuration, syndrome), and
    a second compiles nothing; the residuals never re-evaluate the rule."""
    code5 = fresh_builtin("code5")
    compiled, rules = [], []

    def counted(fn, out):
        def wrapper(*args, **kwargs):
            out.append(fn(*args, **kwargs))
            return out[-1]
        return wrapper

    def refuse(*args, **kwargs):
        raise AssertionError("readout rule evaluated again for the residuals")

    monkeypatch.setattr(protocol, "_compile", counted(protocol._compile, compiled))
    monkeypatch.setattr(protocol, "_rules", counted(protocol._rules, rules))
    for name, module in list(sys.modules.items()):
        if name == "syntomo" or name.startswith("syntomo."):
            for attr, value in list(vars(module).items()):
                if value is protocol.xi_predicted:
                    monkeypatch.setattr(module, attr, refuse)
    channel = st.builtin_channel("random-cp", [3, 2, 2])
    result = st.characterize(code5, channel, (0.6, 0.8j))
    assert len(compiled) == len(rules) == 1
    assert [column.shape for column in rules[0]] == [(31, 16)] * 4
    assert len(result.configs) == 31
    assert all(a is b for a, b in zip(compiled[0][0], result.configs, strict=True))
    assert [len(cfg.rule) for cfg in result.configs] == [16] * 31
    assert len(result.residuals) == 31 and max(result.residuals) < 1e-12
    again = st.characterize(code5, channel, (0.6, 0.8j))
    assert len(compiled) == len(rules) == 1
    assert all(a is b for a, b in zip(again.configs, result.configs, strict=True))
    assert again.residuals == result.residuals


class TestRecovery:
    def test_every_correctable_error(self, code3):
        beta = np.array([0.6, 0.8j])
        psi = register(code3).encode(beta)
        for m in range(code3.d2):
            err = st.to_matrix(code3.error_basis.elements[m])
            corrupted = err @ psi
            fixed = st.recover(corrupted, code3, code3.syndrome_table[m])
            assert abs(abs(np.vdot(fixed, psi)) - 1.0) < 1e-10

    def test_zero_syndrome_leaves_state(self, code3):
        psi = register(code3).encode((1.0, 0.0))
        np.testing.assert_allclose(st.recover(psi, code3, (0, 0)), psi,
                                   atol=1e-12)

    def test_density_matrix_branch(self, code3):
        psi = register(code3).encode(np.array([1.0, 1.0]) / np.sqrt(2))
        m = code3.error_basis.index_of_label("Y")
        corrupted = st.to_matrix(code3.error_basis.elements[m]) @ psi
        rho = np.outer(corrupted, corrupted.conj())
        fixed = st.recover(rho, code3, code3.syndrome_table[m])
        np.testing.assert_allclose(fixed, np.outer(psi, psi.conj()), atol=1e-10)

    def test_unknown_syndrome(self, code3):
        psi = register(code3).encode((1.0, 0.0))
        with pytest.raises(ValueError, match="not in table"):
            st.recover(psi, code3, (3, 1))

    def test_wrong_shapes(self, code3):
        for shape in ((4,), (16,), (8, 4), (16, 16), (8, 8, 1)):
            with pytest.raises(ValueError, match="expected a state vector"):
                st.recover(np.zeros(shape), code3, (0, 1))


@pytest.mark.parametrize("name", ["code3", "code5", "nonperfect4", "bell2-tail"])
def test_recovery_after_channel_and_configuration(name):
    """The paper's on-line claim: under any configuration of the default
    plan, every syndrome outcome of a noisy encoded state is corrected
    back to it. Register oracle: channel, then the configuration's U, then
    the syndrome's projector branch and ``recover`` on the density matrix."""
    code = FRAME_CODES[name]()
    reg = register(code)
    beta = (0.6, 0.8j)
    psi = reg.encode(beta)
    p = len(code.noisy_coords)
    channel = st.builtin_channel("random-cp", [19, p, 3])
    rho = reg.state(beta, channel.kraus)
    projectors = {syn: reg.projector(syn) for syn in code.syndrome_table}
    configs, _ = st.plan_configurations(code)
    plan = st.plan_to_json(code, configs)["configurations"]
    branches = 0
    for cfg, entry in zip(configs, plan, strict=True):
        u = reg.unitary(entry)
        rho_u = u @ rho @ u.conj().T
        total = 0.0
        for syn, proj in projectors.items():
            branch = proj @ rho_u @ proj
            prob = np.trace(branch).real
            total += prob
            if prob <= 1e-12:
                continue
            fixed = st.recover(branch / prob, code, syn)
            assert np.vdot(psi, fixed @ psi).real >= 1 - 1e-10, (cfg.index, syn)
            branches += 1
        assert abs(total - 1.0) < 1e-10
    assert branches > len(configs)


def test_non_bare_configurations_fix_the_diagonal(frame_code):
    """The paper's bound is 2(d^2 - 1) configurations; the default plan's
    bare one is redundant. Under a rotated or toggled (a, b), syndromes x
    and x' = b.a.x read p_x + p_x' = chi_AA + chi_BB with A = a.x and
    B = b.x, and over the non-bare configurations these sums fix chi's
    diagonal."""
    code = frame_code
    channel = st.builtin_channel("random-cp", [23, len(code.noisy_coords), 3])
    configs, _, records = exact_records(code, channel, (0.6, 0.8j))
    idx, eye = code.error_basis.product_index, np.eye(code.d2)
    system, sums = [], []
    for cfg, rec in zip(configs, records):
        if cfg.kind != "bare":
            big_a, big_b = idx[cfg.a], idx[cfg.b]
            system.append(eye[big_a] + eye[big_b])
            sums.append(rec.row + rec.row[big_b[big_a]])
    system, sums = np.concatenate(system), np.concatenate(sums)
    assert system.shape == (2 * (code.d2 - 1) * code.d2, code.d2)
    assert np.linalg.matrix_rank(system) == code.d2
    diag = np.linalg.lstsq(system, sums, rcond=None)[0]
    oracle = st.chi_from_kraus(channel, code.error_basis).entries.diagonal().real
    assert np.abs(diag - oracle).max() < 1e-12


def test_plan_from_json_parses_each_label_once(code5, monkeypatch):
    configs, readouts = st.plan_configurations(code5)
    doc = st.plan_to_json(code5, configs)
    labels = set()
    for entry in doc["configurations"]:
        labels.update(entry[key] for key in ("a", "b") if key in entry)
        labels.update(entry.get("theta", {}))
    parsed = []
    parse = pauli.pauli_from_string

    def counted(text, *args):
        parsed.append(text)
        return parse(text, *args)

    monkeypatch.setattr(pauli, "pauli_from_string", counted)
    again, table = st.plan_from_json(code5, doc)
    assert sorted(parsed) == sorted(labels) and len(labels) <= 16
    assert table_rows(table) == table_rows(readouts)
    assert [c.theta_signs for c in again] == [c.theta_signs for c in configs]


def test_logical_state_does_not_bias_syndromes(code3, ad036):
    configs, _ = st.plan_configurations(code3)
    rng = np.random.default_rng(12)
    reference = None
    for _ in range(3):
        beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        beta /= np.linalg.norm(beta)
        dists = [st.xi_simulated(code3, beta, ad036, cfg).distribution
                 for cfg in configs]
        if reference is None:
            reference = dists
            continue
        for ref, got in zip(reference, dists):
            for syn in ref:
                assert abs(ref[syn] - got.get(syn, 0.0)) < 1e-10


def reference_observed(readouts, records):
    """The table layout read record by record: the last record of each
    configuration counts, and each value is read by syndrome, 0 where
    absent."""
    by_config = {rec.config_index: rec for rec in records}
    missing = sorted(set(readouts.configs) - set(by_config))
    if missing:
        raise ValueError("missing records for configurations %s" % missing)
    rows = [[by_config[i].value(syn) for syn in readouts.syndromes]
            for i in readouts.configs]
    return np.array(rows, dtype=float), all(rec.exact for rec in by_config.values())


def test_observed_equals_the_record_by_record_reading(code5):
    """Records as simulate and sample_record make them are stacked as
    they come; shuffled, repeated, replaced, missing, mixed and
    foreign-syndrome records, and records for a table that lists a
    configuration twice, are read by configuration and syndrome. Both
    give the reference's bits, exactness and messages."""
    configs, readouts = st.plan_configurations(code5)
    exact = st.simulate(code5, (0.6, 0.8j), st.builtin_channel("random-cp", [3, 2, 2]),
                        configs)
    sampler = st.SamplingPolicy(shots_per_configuration=1000, seed=9)
    sampled = [st.sample_record(rec, sampler) for rec in exact]
    # a trace-decreasing channel: sampled records add a NO_DETECTION column
    leaky = st.simulate(code5, (1.0, 0.0), st.Channel(2, (0.9 * np.eye(4),)), configs)
    lossy = [st.sample_record(rec, sampler) for rec in leaky]
    assert lossy[0].syndromes[-1] == st.NO_DETECTION
    order = np.random.default_rng(2).permutation(len(configs)).tolist()
    cases = {
        "exact": exact, "sampled": sampled, "lossy": lossy,
        "mixed": exact[:5] + sampled[5:],
        "shuffled": [sampled[i] for i in order],
        "repeated": exact + sampled[:3],
        "missing": exact[:4] + exact[5:],
        # a sampled record of a configuration the table does not read
        "foreign": exact + [dataclasses.replace(sampled[0], config_index=len(configs))],
        # a sampled record replaced by an exact one of its configuration
        "replaced": sampled[:1] + exact,
    }
    tables = dict.fromkeys(cases, readouts)
    # a table that lists configuration 1 twice, and records in its order
    # whose two records of that configuration differ: the later counts
    cases["listed twice"] = exact[:2] + sampled[1:]
    tables["listed twice"] = st.derive_readouts(code5, configs[:2] + configs[1:])
    for name, records in cases.items():
        want = outcome(reference_observed, tables[name], records)
        got = outcome(tables[name].observed, records)
        if isinstance(want, str):
            assert got == want, name
            continue
        assert got[1] == want[1], name
        assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes(), name
    got, _ = readouts.observed(iter(sampled))
    assert got.tobytes() == reference_observed(readouts, sampled)[0].tobytes()
