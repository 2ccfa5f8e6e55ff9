"""The characterization pipeline, finite-shot sampling and error metrics."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .channels import Channel, ProcessMatrix, extend_channel
from .codes import StabilizerCode
from .numeric import DEFAULT_POLICY
from .protocol import (
    NO_DETECTION,
    MeasurementRecord,
    plan_configurations,
    reconstruct,
    simulate,
)


@dataclass(frozen=True)
class SamplingPolicy:
    """Shot budget and seed; identical inputs give identical counts."""

    shots_per_configuration: int
    seed: int

    def __post_init__(self):
        if self.shots_per_configuration <= 0:
            raise ValueError("shots must be positive")
        # numpy's multinomial draws take a signed 64-bit count
        if self.shots_per_configuration >= 1 << 63:
            raise ValueError("shots must be at most 2^63 - 1")
        # the seed is one 64-bit word of the Philox key
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an integer in [0, 2^64 - 1], got %r"
                             % (self.seed,))


@dataclass(frozen=True)
class ErrorReport:
    """Distance metrics between an estimated and a reference chi."""

    frobenius_error: float
    max_entry_error: float
    trace_defect: float
    min_eigenvalue: float


def _generator(seed: int, config_index: int) -> np.random.Generator:
    # counter-based and keyed per configuration, so sampling is
    # reproducible regardless of execution order
    key = np.array([seed, config_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_record(record: MeasurementRecord, sampling: SamplingPolicy) -> MeasurementRecord:
    """Draw multinomial counts from an exact-mode record.

    Negative probabilities beyond floating-point dust are an error;
    dust is clamped to zero. For trace-decreasing channels the missing
    probability goes to a no-detection bin.
    """
    if not record.exact:
        raise ValueError("sampling needs an exact-mode record")
    syndromes = list(record.distribution)
    probs = []
    for syn in syndromes:
        p = float(record.distribution[syn])
        if p < -DEFAULT_POLICY.sampling_clamp:
            raise ValueError("probability %g for syndrome %s is negative "
                             "beyond tolerance" % (p, syn))
        probs.append(max(p, 0.0))
    total = sum(probs)
    if total > 1.0 + DEFAULT_POLICY.algebraic:
        raise ValueError("probabilities sum to %g > 1" % total)
    deficit = max(1.0 - total, 0.0)
    has_overflow = deficit > DEFAULT_POLICY.algebraic
    if has_overflow:
        probs.append(deficit)
    pvals = np.array(probs) / (total + deficit)
    rng = _generator(sampling.seed, record.config_index)
    counts = rng.multinomial(sampling.shots_per_configuration, pvals)
    dist = {syn: int(c) for syn, c in zip(syndromes, counts)}
    if has_overflow:
        dist[NO_DETECTION] = int(counts[-1])
    return MeasurementRecord(config_index=record.config_index,
                             distribution=dist,
                             shots=sampling.shots_per_configuration)


@dataclass(frozen=True, eq=False)
class Characterization:
    """One pipeline run: the channel padded to the noisy subsystem, the
    plan, its records, chi and, per configuration, the largest residual
    |observed - xi_predicted(chi)| over the syndromes."""

    channel: Channel
    configs: list
    records: list
    chi: ProcessMatrix
    residuals: list


def characterize(code: StabilizerCode, channel: Channel, beta,
                 sampling: SamplingPolicy | None = None) -> Characterization:
    """Plan, simulate, sample unless ``sampling`` is None (exact mode),
    reconstruct chi and evaluate its residuals on every record."""
    if channel.p < len(code.noisy_coords):
        channel = extend_channel(channel, len(code.noisy_coords))
    configs, readouts = plan_configurations(code)
    records = simulate(code, beta, channel, configs)
    if sampling is not None:
        records = [sample_record(rec, sampling) for rec in records]
    chi = reconstruct(records, readouts, code.error_basis)
    observed, _ = readouts.observed(records)
    residuals = np.abs(observed - readouts.predicted(chi)).max(axis=1).tolist()
    return Characterization(channel, configs, records, chi, residuals)


def compare(chi_est, chi_oracle) -> ErrorReport:
    """Error metrics between two process matrices of equal dimension."""
    a = chi_est.entries if isinstance(chi_est, ProcessMatrix) else np.asarray(chi_est)
    b = chi_oracle.entries if isinstance(chi_oracle, ProcessMatrix) else np.asarray(chi_oracle)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch %s vs %s" % (a.shape, b.shape))
    diff = a - b
    herm = (a + a.conj().T) / 2.0
    return ErrorReport(
        frobenius_error=float(np.linalg.norm(diff, "fro")),
        max_entry_error=float(np.abs(diff).max()),
        trace_defect=float(abs(np.trace(a).real - np.trace(b).real)),
        min_eigenvalue=float(np.linalg.eigvalsh(herm).min()),
    )
