"""End-to-end acceptance checks, one test per criterion.

Each test exercises the full public surface at its stated tolerance;
run with -v to get one pass/fail line per criterion.
"""

import time

import numpy as np
import pytest

import syntomo as st
from conftest import register


def exact_chi(code, channel, beta=(1.0, 0.0)):
    return st.characterize(code, channel, beta).chi


def test_01_builtin_codes_validate():
    start = time.perf_counter()
    code3 = st.builtin_code("code3")
    code5 = st.builtin_code("code5")

    for code, size in ((code3, 4), (code5, 16)):
        c, residual = st.kl_scan(code)
        assert residual < 1e-8
        np.testing.assert_allclose(c, np.eye(size), atol=1e-8)
        assert len(set(code.syndrome_table)) == size
        bound = st.hamming_bound(code.n, code.k, len(code.noisy_coords))
        assert bound == {"satisfied": True, "perfect": True}

    # the [[5,1]] table follows (u2, v1+v2, u1+v2, u1+u2) mod 2
    for idx in range(16):
        u1, u2 = (idx >> 3) & 1, (idx >> 2) & 1
        v1, v2 = (idx >> 1) & 1, idx & 1
        assert code5.syndrome_table[idx] == (u2, v1 ^ v2, u1 ^ v2, u1 ^ u2)

    assert time.perf_counter() - start < 1.0


def test_02_correlated_flip_statistics():
    start = time.perf_counter()
    code5 = st.builtin_code("code5")
    cfg = st.plan_configurations(code5)[0][0]
    beta = np.array([0.6, 0.8])
    flip = code5.error_basis.index_of_label("XX")
    flip_syndrome = code5.syndrome_table[flip]

    for p in (0.1, 0.3):
        ch = st.builtin_channel("correlated-flip", [p])
        rec = st.xi_simulated(code5, beta, ch, cfg)
        assert abs(rec.value((0, 0, 0, 0)) - (1 - p)) < 1e-12
        assert abs(rec.value(flip_syndrome) - p) < 1e-12
        for syn, prob in rec.distribution.items():
            if syn not in ((0, 0, 0, 0), flip_syndrome):
                assert abs(prob) < 1e-12

    assert time.perf_counter() - start < 1.0


def test_03_amplitude_damping_end_to_end():
    start = time.perf_counter()
    code3 = st.builtin_code("code3")
    basis = code3.error_basis

    for lam in (0.1, 0.36, 0.75):
        ch = st.builtin_channel("amplitude-damping", [lam])
        chi = exact_chi(code3, ch)
        oracle = st.chi_from_kraus(ch, basis)
        assert st.compare(chi, oracle).frobenius_error < 1e-9

    chi = exact_chi(code3, st.builtin_channel("amplitude-damping",
                                              [0.36])).entries
    i, z = 0, basis.index_of_label("Z")
    x, y = basis.index_of_label("X"), basis.index_of_label("Y")
    assert abs(chi[i, z] - 0.09) < 1e-9
    assert abs(chi[z, i] - 0.09) < 1e-9
    assert abs(chi[x, y] - (-0.09j)) < 1e-9
    assert abs(chi[y, x] - 0.09j) < 1e-9
    off = chi.copy()
    np.fill_diagonal(off, 0.0)
    off[i, z] = off[z, i] = off[x, y] = off[y, x] = 0.0
    assert np.abs(off).max() < 1e-9

    assert time.perf_counter() - start < 1.0


def test_04_random_channel_oracle_equivalence():
    start = time.perf_counter()

    code3 = st.builtin_code("code3")
    for seed in range(50):
        ch = st.builtin_channel("random-cp", [seed, 1, (seed % 4) + 1])
        chi = exact_chi(code3, ch)
        oracle = st.chi_from_kraus(ch, code3.error_basis)
        assert st.compare(chi, oracle).frobenius_error < 1e-8

    code5 = st.builtin_code("code5")
    for seed in range(10):
        ch = st.builtin_channel("random-cp", [seed, 2, (seed % 5) + 2])
        chi = exact_chi(code5, ch)
        oracle = st.chi_from_kraus(ch, code5.error_basis)
        assert st.compare(chi, oracle).frobenius_error < 1e-8

    assert time.perf_counter() - start < 30.0


def test_05_configuration_count_bound():
    for name, d2 in (("code3", 4), ("code5", 16)):
        code = st.builtin_code(name)
        configs, _ = st.plan_configurations(code)
        assert len(configs) == 1 + 2 * (d2 - 1)
    assert len(st.plan_configurations(st.builtin_code("code3"))[0]) == 7
    assert len(st.plan_configurations(st.builtin_code("code5"))[0]) == 31


def test_06_formula_matches_simulation_everywhere():
    code3 = st.builtin_code("code3")
    code5 = st.builtin_code("code5")
    damping = st.builtin_channel("amplitude-damping", [0.36])
    flip = st.builtin_channel("correlated-flip", [0.3])
    beta = np.array([0.48 + 0.36j, 0.8])

    cases = [
        (code3, damping),
        (code5, flip),
        # one-qubit damping on the two-qubit subsystem, padded by identity
        (code5, st.extend_channel(damping, 2)),
    ]
    for code, channel in cases:
        chi = st.chi_from_kraus(channel, code.error_basis)
        configs, _ = st.plan_configurations(code)
        for cfg in configs:
            rec = st.xi_simulated(code, beta, channel, cfg)
            for x in range(code.d2):
                syn = code.syndrome_table[x]
                assert abs(rec.value(syn)
                           - st.xi_predicted(chi, cfg, x)) < 1e-10

    # the two-qubit flip cannot act on the one-qubit subsystem
    cfg = st.plan_configurations(code3)[0][0]
    with pytest.raises(ValueError):
        st.xi_simulated(code3, beta, flip, cfg)


def test_07_encoded_state_independence():
    rng = np.random.default_rng(20260816)
    for name, channel in (("code3", st.builtin_channel("amplitude-damping",
                                                       [0.36])),
                          ("code5", st.builtin_channel("correlated-flip",
                                                       [0.3]))):
        code = st.builtin_code(name)
        configs, _ = st.plan_configurations(code)
        reference = None
        for _ in range(10):
            beta = rng.normal(size=2) + 1j * rng.normal(size=2)
            beta /= np.linalg.norm(beta)
            dists = [st.xi_simulated(code, beta, channel, cfg).distribution
                     for cfg in configs]
            if reference is None:
                reference = dists
                continue
            for ref, got in zip(reference, dists):
                for syn in ref:
                    assert abs(ref[syn] - got[syn]) < 1e-10


def test_08_recovery_restores_the_logical_state():
    for name in ("code3", "code5"):
        code = st.builtin_code(name)
        reg = register(code)
        psi = reg.encode(np.array([0.6, 0.8j]))
        configs, _ = st.plan_configurations(code)
        projectors = {syn: reg.projector(syn) for syn in code.syndrome_table}
        errors = [reg.error(label) for label in code.error_basis.labels]
        # dense pre-processing U, rebuilt by the register oracle from each
        # configuration's plan descriptor
        plan = st.plan_to_json(code, configs)["configurations"]
        unitaries = {cfg.index: reg.unitary(entry)
                     for cfg, entry in zip(configs, plan) if cfg.kind != "bare"}
        assert len(unitaries) == len(configs) - 1
        checked = dict.fromkeys(unitaries, 0)

        for m, err in enumerate(errors):
            corrupted = err @ psi
            fixed = st.recover(corrupted, code, code.syndrome_table[m])
            assert abs(abs(np.vdot(fixed, psi)) - 1.0) < 1e-10

            # pre-processing moves weight between spaces but every
            # branch still recovers the encoded state
            for index, u in unitaries.items():
                rotated = u @ corrupted
                for syn, proj in projectors.items():
                    branch = proj @ rotated
                    weight = np.linalg.norm(branch)
                    if weight < 1e-9:
                        continue
                    fixed = st.recover(branch / weight, code, syn)
                    assert abs(abs(np.vdot(fixed, psi)) - 1.0) < 1e-10
                    checked[index] += 1
        assert min(checked.values()) > 0


def test_09_shot_noise_scaling():
    start = time.perf_counter()
    code3 = st.builtin_code("code3")
    ch = st.builtin_channel("amplitude-damping", [0.36])
    configs, readouts = st.plan_configurations(code3)
    records = [st.xi_simulated(code3, (1.0, 0.0), ch, cfg) for cfg in configs]
    oracle = st.chi_from_kraus(ch, code3.error_basis)

    shot_levels = (10000, 100000, 1000000)
    medians = []
    for shots in shot_levels:
        errors = []
        for seed in range(20):
            policy = st.SamplingPolicy(shots_per_configuration=shots,
                                       seed=seed)
            sampled = [st.sample_record(rec, policy) for rec in records]
            chi = st.reconstruct(sampled, readouts, code3.error_basis)
            errors.append(st.compare(chi, oracle).frobenius_error)
        medians.append(float(np.median(errors)))

    assert medians[-1] < 0.01
    slope = np.polyfit(np.log10(shot_levels), np.log10(medians), 1)[0]
    assert -0.65 < slope < -0.35
    assert time.perf_counter() - start < 120.0
