"""Seeded multinomial sampling and error reporting."""

import re

import numpy as np
import pytest

import syntomo as st
from syntomo import protocol


def exact_record(dist, index=0):
    return st.MeasurementRecord(config_index=index, distribution=dict(dist),
                                shots=None)


def test_counts_are_deterministic():
    rec = exact_record({(0, 0): 0.7, (1, 1): 0.3})
    policy = st.SamplingPolicy(shots_per_configuration=10000, seed=123)
    a = st.sample_record(rec, policy)
    b = st.sample_record(rec, policy)
    assert a.distribution == b.distribution
    assert a.shots == 10000
    assert not a.exact


def test_counts_sum_to_shots():
    rec = exact_record({(0,): 0.25, (1,): 0.75})
    out = st.sample_record(rec, st.SamplingPolicy(7777, seed=0))
    assert sum(out.distribution.values()) == 7777


def test_streams_keyed_by_configuration_index():
    dist = {(0, 0): 0.5, (1, 1): 0.5}
    policy = st.SamplingPolicy(shots_per_configuration=10000, seed=1)
    a = st.sample_record(exact_record(dist, index=0), policy)
    b = st.sample_record(exact_record(dist, index=1), policy)
    assert a.distribution != b.distribution


def test_seed_changes_counts():
    dist = {(0, 0): 0.5, (1, 1): 0.5}
    rec = exact_record(dist)
    a = st.sample_record(rec, st.SamplingPolicy(10000, seed=1))
    b = st.sample_record(rec, st.SamplingPolicy(10000, seed=2))
    assert a.distribution != b.distribution


def test_even_split_lands_near_half_million():
    rec = exact_record({"A": 0.5, "B": 0.5})
    out = st.sample_record(rec, st.SamplingPolicy(1000000, seed=31))
    for count in out.distribution.values():
        assert abs(count - 500000) < 5 * 500


def test_trace_deficit_goes_to_overflow_bin():
    rec = exact_record({(0, 0): 0.7})
    out = st.sample_record(rec, st.SamplingPolicy(100000, seed=2))
    assert st.NO_DETECTION in out.distribution
    assert abs(out.distribution[st.NO_DETECTION] - 30000) < 5 * np.sqrt(
        100000 * 0.3 * 0.7)
    assert sum(out.distribution.values()) == 100000


def test_value_normalizes_counts():
    rec = exact_record({(0,): 0.5, (1,): 0.5})
    out = st.sample_record(rec, st.SamplingPolicy(4000, seed=9))
    total = sum(out.value(s) for s in out.distribution)
    assert abs(total - 1.0) < 1e-12


def test_negative_dust_is_clamped():
    rec = exact_record({(0, 0): 1.0, (1, 1): -1e-13})
    out = st.sample_record(rec, st.SamplingPolicy(1000, seed=4))
    assert out.distribution[(1, 1)] == 0


def test_negative_probability_rejected():
    rec = exact_record({(0, 0): 1.0, (1, 1): -1e-6})
    with pytest.raises(ValueError, match="negative"):
        st.sample_record(rec, st.SamplingPolicy(1000, seed=4))


def test_excess_probability_rejected():
    rec = exact_record({(0, 0): 0.8, (1, 1): 0.4})
    with pytest.raises(ValueError, match="> 1"):
        st.sample_record(rec, st.SamplingPolicy(1000, seed=4))


def test_sampled_record_cannot_be_resampled():
    rec = exact_record({(0,): 1.0})
    out = st.sample_record(rec, st.SamplingPolicy(10, seed=0))
    with pytest.raises(ValueError, match="exact"):
        st.sample_record(out, st.SamplingPolicy(10, seed=0))


def test_shots_must_be_positive():
    with pytest.raises(ValueError):
        st.SamplingPolicy(shots_per_configuration=0, seed=1)


def test_shots_must_be_an_integer(code3):
    # 1000.7 would draw 1000 shots but divide by 1000.7
    for shots in (1000.7, 1000.0, "1000"):
        message = "shots must be an integer, got %r" % (shots,)
        with pytest.raises(ValueError, match=re.escape(message)):
            st.SamplingPolicy(shots, seed=1)
    rec = st.simulate(code3, (1.0, 0.0), st.builtin_channel("depolarizing", [0.1]),
                      st.plan_configurations(code3)[0][:1])[0]
    wide = st.sample_record(rec, st.SamplingPolicy(np.int64(1000), seed=1))
    plain = st.sample_record(rec, st.SamplingPolicy(1000, seed=1))
    assert wide.distribution == plain.distribution
    assert sum(wide.distribution.values()) == 1000


def test_seed_must_fit_64_bits():
    # the seed is one 64-bit word of the sampler's key, used as it is
    for seed in (-1, 1 << 64, 1.0, "1"):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64 - 1\]"):
            st.SamplingPolicy(10, seed=seed)


def test_sampling_is_unbiased(code3, ad036):
    # mean of many sampled frequencies approaches the exact distribution
    cfg = st.plan_configurations(code3)[0][0]
    rec = st.xi_simulated(code3, (1.0, 0.0), ad036, cfg)
    shots = 10000
    runs = 100
    totals = {syn: 0.0 for syn in rec.distribution}
    for seed in range(runs):
        out = st.sample_record(rec, st.SamplingPolicy(shots, seed=seed))
        for syn in totals:
            totals[syn] += out.value(syn)
    for syn, prob in rec.distribution.items():
        mean = totals[syn] / runs
        stderr = np.sqrt(prob * (1 - prob) / (shots * runs))
        assert abs(mean - prob) < 3 * stderr + 1e-12


class TestCompare:
    def test_identical_matrices(self, code3, ad036):
        chi = st.chi_from_kraus(ad036, code3.error_basis)
        report = st.compare(chi, chi)
        assert report.frobenius_error == 0.0
        assert report.max_entry_error == 0.0
        assert report.trace_defect == 0.0

    def test_hermitian_perturbation(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = 1.0
        b = a.copy()
        eps = 1e-3
        b[0, 1] = eps
        b[1, 0] = eps
        report = st.compare(b, a)
        assert abs(report.frobenius_error - eps * np.sqrt(2)) < 1e-15
        assert abs(report.max_entry_error - eps) < 1e-15
        assert report.trace_defect == 0.0

    def test_trace_defect(self):
        report = st.compare(np.eye(4) * 0.3, np.eye(4) * 0.25)
        assert abs(report.trace_defect - 0.2) < 1e-12

    def test_min_eigenvalue_of_estimate(self):
        a = np.diag([1.0, -0.2, 0.0, 0.0]).astype(complex)
        report = st.compare(a, np.zeros((4, 4)))
        assert abs(report.min_eigenvalue + 0.2) < 1e-12

    def test_accepts_process_matrices_and_arrays(self, code3, ad036):
        chi = st.chi_from_kraus(ad036, code3.error_basis)
        report = st.compare(chi, chi.entries)
        assert report.frobenius_error == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            st.compare(np.eye(4), np.eye(16))


def bits(values):
    """Floats as hex strings, so equality is bitwise (-0.0 != 0.0)."""
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("sampling", [None, st.SamplingPolicy(50, seed=3)],
                         ids=["exact", "sampled"])
def test_characterize_equals_the_stages(code5, ad036, sampling):
    beta = np.array([0.6, 0.8j])
    got = st.characterize(code5, ad036, beta, sampling)
    # the one-qubit channel is padded to the two noisy qubits first
    wide = st.extend_channel(ad036, 2)
    configs, readouts = st.plan_configurations(code5)
    records = [st.xi_simulated(code5, beta, wide, cfg) for cfg in configs]
    if sampling is not None:
        records = [st.sample_record(rec, sampling) for rec in records]
    chi = st.reconstruct(records, readouts, code5.error_basis)
    residuals = [max(abs(rec.value(syn) - st.xi_predicted(chi, cfg, x))
                     for x, syn in enumerate(code5.syndrome_table))
                 for cfg, rec in zip(configs, records)]

    assert got.channel.p == 2
    assert np.array_equal(np.stack(got.channel.kraus), np.stack(wide.kraus))
    assert [(c.index, c.kind, c.a, c.b, c.theta_signs) for c in got.configs] \
        == [(c.index, c.kind, c.a, c.b, c.theta_signs) for c in configs]
    for mine, theirs in zip(got.records, records, strict=True):
        assert (mine.config_index, mine.shots) == (theirs.config_index, theirs.shots)
        assert list(mine.distribution) == list(theirs.distribution)
        assert bits(mine.distribution.values()) == bits(theirs.distribution.values())
    assert got.chi.entries.tobytes() == chi.entries.tobytes()
    assert bits(got.residuals) == bits(residuals)


def test_characterize_applies_the_channel_once(code5, monkeypatch):
    """One Kraus application and frame projection per characterize,
    shared by all 31 configurations."""
    calls = []
    frame_block = protocol._frame_block

    def counting(*args, **kwargs):
        calls.append(args)
        return frame_block(*args, **kwargs)

    monkeypatch.setattr(protocol, "_frame_block", counting)
    result = st.characterize(code5, st.builtin_channel("random-cp", [3, 2, 2]),
                             (0.6, 0.8j))
    assert len(result.records) == 31
    assert len(calls) == 1
