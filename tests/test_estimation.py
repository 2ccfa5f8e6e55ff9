"""Seeded multinomial sampling and error reporting."""

import dataclasses
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import syntomo as st
from syntomo import estimation, jsonio, protocol


def exact_record(dist, index=0):
    return st.MeasurementRecord.from_distribution(index, dict(dist))


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


def rejected_every_call(rec, message):
    """Two samplings raise ``message``, and the record caches nothing."""
    for _ in range(2):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            st.sample_record(rec, st.SamplingPolicy(1000, seed=4))
    assert set(vars(rec)) == {f.name for f in dataclasses.fields(rec)}


def test_negative_probability_rejected():
    rejected_every_call(exact_record({(0, 0): 1.0, (1, 1): -1e-6}),
                        "probability -1e-06 for syndrome (1, 1) is negative beyond tolerance")


def test_excess_probability_rejected():
    rejected_every_call(exact_record({(0, 0): 0.8, (1, 1): 0.4}),
                        "probabilities sum to 1.2 > 1")


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


def sampled_report(code, channel, policy):
    """A sampled report as a library caller writes one."""
    result = st.characterize(code, channel, (0.6, 0.8j), policy)
    return jsonio.dumps({
        "shots": policy.shots_per_configuration, "seed": policy.seed,
        "chi": [[[float(v.real), float(v.imag)] for v in row]
                for row in result.chi.entries],
        "records": [{"configuration": rec.config_index, "shots": rec.shots}
                    for rec in result.records],
        "residuals": result.residuals})


def test_numpy_shot_count_writes_the_same_report(code3):
    channel = st.builtin_channel("amplitude-damping", [0.36])
    wide = sampled_report(code3, channel, st.SamplingPolicy(np.int64(1000), seed=1))
    plain = sampled_report(code3, channel, st.SamplingPolicy(1000, seed=1))
    assert wide == plain
    assert '"shots": 1000,' in plain


def test_bools_are_refused():
    # bool is an Integral, so True would sample one shot and write "shots": true
    for shots in (True, False, np.True_):
        message = "shots must be an integer, got %r" % (shots,)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            st.SamplingPolicy(shots, seed=1)
    for seed in (True, False, np.False_):
        message = "seed must be an integer in [0, 2^64 - 1], got %r" % (seed,)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            st.SamplingPolicy(10, seed=seed)


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


def test_characterize_applies_the_channel_once(code5, transforms):
    """One Pauli-coefficient transform of the channel per characterize,
    shared by all 31 configurations."""
    result = st.characterize(code5, st.builtin_channel("random-cp", [3, 2, 2]),
                             (0.6, 0.8j))
    assert len(result.records) == 31
    assert len(transforms) == 1


def reference_sample(record, sampling, generator):
    """The per-syndrome sampling loop over the record's distribution,
    drawing from ``generator(seed, config_index)``."""
    if not record.exact:
        raise ValueError("sampling needs an exact-mode record")
    syndromes = list(record.distribution)
    probs = []
    for syn in syndromes:
        p = float(record.distribution[syn])
        if p < -st.DEFAULT_POLICY.sampling_clamp:
            raise ValueError("probability %g for syndrome %s is negative "
                             "beyond tolerance" % (p, syn))
        probs.append(max(p, 0.0))
    total = sum(probs)
    if total > 1.0 + st.DEFAULT_POLICY.algebraic:
        raise ValueError("probabilities sum to %g > 1" % total)
    deficit = max(1.0 - total, 0.0)
    has_overflow = deficit > st.DEFAULT_POLICY.algebraic
    if has_overflow:
        probs.append(deficit)
    pvals = np.array(probs) / (total + deficit)
    counts = generator(sampling.seed, record.config_index).multinomial(
        sampling.shots_per_configuration, pvals)
    dist = {syn: int(c) for syn, c in zip(syndromes, counts)}
    if has_overflow:
        dist[st.NO_DETECTION] = int(counts[-1])
    return protocol.MeasurementRecord.from_distribution(
        record.config_index, dist, sampling.shots_per_configuration)


def fresh_generator(seed, config_index):
    """A generator built from the key, as the sampler's stream is defined."""
    key = np.array([seed, config_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class Capture:
    """Generator factory that records every pvals handed to multinomial
    and draws from the keyed stream."""

    def __init__(self):
        self.pvals = []

    def __call__(self, seed, config_index):
        rng = fresh_generator(seed, config_index)
        capture = self

        class Stub:
            def multinomial(self, n, pvals):
                capture.pvals.append(np.array(pvals).tobytes())
                return rng.multinomial(n, pvals)

        return Stub()


def sample_outcome(fn, *args):
    try:
        rec = fn(*args)
    except ValueError as exc:
        return str(exc)
    dist = rec.distribution
    return (rec.config_index, rec.shots, list(dist), bits(dist.values()),
            [type(v) for v in dist.values()],
            bits(rec.value(syn) for syn in list(dist) + [("absent",)]))


PROBABILITIES = hs.one_of(
    hs.floats(0.0, 1.0), hs.floats(0.01, 1.0), hs.floats(0.01, 1.0),
    hs.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25, 1e-300]),
    # dust at or below the clamp, and, rarely, negatives beyond it
    hs.floats(-1e-12, 0.0), hs.floats(-1e-12, 0.0),
    hs.floats(-1e-3, -1.01e-12))
SYNDROMES = hs.one_of(hs.lists(hs.integers(0, 1), min_size=5, max_size=5).map(tuple),
                      hs.text(max_size=2), hs.just(st.NO_DETECTION))


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_sampler_matches_the_per_syndrome_loop(data):
    """The array sampler hands multinomial the same pvals bit for bit,
    draws the same counts and raises the same messages, naming the same
    first offending syndrome, as the per-syndrome loop: on dust
    negatives, trace-decreasing records and extra keys (a no-detection
    key among them)."""
    # more than 8 entries now and then, where numpy's pairwise sum
    # departs from a running sum
    size = data.draw(hs.sampled_from([1, 4, 12, 24]), label="size")
    dist = data.draw(hs.dictionaries(SYNDROMES, PROBABILITIES, min_size=(size + 1) // 2,
                                     max_size=size),
                     label="distribution")
    # scaled to sum to 1 (the trace-preserving path), or to a little
    # more (the excess error), or left as drawn (mostly trace decreasing)
    scale = data.draw(hs.sampled_from([1.0, 1.0, 1.0 + 1e-9, None]), label="scale")
    total = sum(max(v, 0.0) for v in dist.values())
    if scale is not None and total > 0:
        dist = {k: scale * v / total for k, v in dist.items()}
    config = data.draw(hs.integers(0, 40), label="config")
    if data.draw(hs.sampled_from(["exact"] * 9 + ["counts"]), label="mode") == "counts":
        record = protocol.MeasurementRecord.from_distribution(
            config, dict.fromkeys(dist, 1), shots=len(dist))
    else:
        bad = [(syn, v) for syn, v in dist.items() if not np.isfinite(v)]
        if bad:
            # scaled past float range (a subnormal total): exact records
            # are finite, so there is nothing to sample
            message = "exact probability for syndrome %s must be finite, got %r" % bad[0]
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                protocol.MeasurementRecord.from_distribution(config, dist)
            return
        record = protocol.MeasurementRecord.from_distribution(config, dist)
    policy = st.SamplingPolicy(data.draw(hs.sampled_from([1, 50, 100_000]), label="shots"),
                               seed=data.draw(hs.integers(0, (1 << 64) - 1), label="seed"))
    want_capture, got_capture = Capture(), Capture()
    want = sample_outcome(reference_sample, record, policy, want_capture)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_generator", got_capture)
        got = sample_outcome(st.sample_record, record, policy)
    assert got == want
    assert got_capture.pvals == want_capture.pvals
    # the sampler's own per-thread generator draws the same counts
    assert sample_outcome(st.sample_record, record, policy) == got


def test_a_record_samples_as_a_fresh_copy():
    """The distribution a record keeps from its first sampling gives,
    under every seed, the counts and pvals of a copy that keeps nothing:
    with dust clamped and a no-detection column."""
    rec = exact_record({(0, 0): 0.5, (0, 1): 0.25, (1, 0): -1e-13, (1, 1): 0.2},
                       index=3)
    for seed in (1, 2, (1 << 64) - 1):
        policy = st.SamplingPolicy(1000, seed=seed)
        want_capture, got_capture = Capture(), Capture()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimation, "_generator", want_capture)
            want = st.sample_record(dataclasses.replace(rec), policy)
            mp.setattr(estimation, "_generator", got_capture)
            got = st.sample_record(rec, policy)
        assert got.syndromes == want.syndromes == rec.syndromes + (st.NO_DETECTION,)
        assert got.row.tobytes() == want.row.tobytes()
        assert got_capture.pvals == want_capture.pvals
    assert not rec._sampling[1].flags.writeable


def uniform_record(index, width=4):
    return exact_record({(k,): 1.0 / width for k in range(width)}, index=index)


def test_generator_reuse_matches_fresh_streams():
    """Sample A, then B, then A again; between draws a 32-bit draw
    leaves half a word and a partial buffer behind. Every draw equals
    one from a generator built fresh from its key."""
    a, b = uniform_record(3), uniform_record(11)
    pa, pb = st.SamplingPolicy(100_000, seed=5), st.SamplingPolicy(777, seed=(1 << 64) - 1)
    pvals = np.full(4, 0.25)
    for rec, policy in ((a, pa), (b, pb), (a, pa)):
        got = st.sample_record(rec, policy)
        want = fresh_generator(policy.seed, rec.config_index).multinomial(
            policy.shots_per_configuration, pvals)
        assert got.row.tolist() == want.tolist()
        estimation._generator(policy.seed, 99).random(3, dtype=np.float32)
    for seed, index in ((5, 3), (0, 0), ((1 << 64) - 1, 7)):
        rng = estimation._generator(seed, index)
        first = rng.random(5)
        assert first.tobytes() == fresh_generator(seed, index).random(5).tobytes()


def test_threads_sample_as_a_serial_run():
    """More threads than cores, each with its own seed, draw what a
    serial run draws."""
    records = [uniform_record(i, width=16) for i in range(40)]
    policies = [st.SamplingPolicy(10_000, seed=s) for s in (21, 22, 23)]

    def run(policy):
        return [st.sample_record(rec, policy).row.tolist()
                for _ in range(10) for rec in records]

    serial = [run(policy) for policy in policies]
    results = [None] * len(policies)
    barrier = threading.Barrier(len(policies))

    def worker(k):
        barrier.wait(timeout=60)
        results[k] = run(policies[k])

    # switch threads as often as the interpreter allows, so one thread's
    # reset lands between another's reset and draw if they shared one
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(len(policies))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial
