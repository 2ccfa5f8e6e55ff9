"""The characterization pipeline, finite-shot sampling and error metrics."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .channels import Channel, ProcessMatrix, _hermitian_spectrum, extend_channel
from .codes import StabilizerCode
from .pauli import _is_integer
from .protocol import (
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
        # a fractional count would be truncated by the draw but still
        # divide the frequencies; a bool would be one shot written as true
        if not _is_integer(self.shots_per_configuration):
            raise ValueError("shots must be an integer, got %r"
                             % (self.shots_per_configuration,))
        if self.shots_per_configuration <= 0:
            raise ValueError("shots must be positive")
        # numpy's multinomial draws take a signed 64-bit count
        if self.shots_per_configuration >= 1 << 63:
            raise ValueError("shots must be at most 2^63 - 1")
        # the seed is one 64-bit word of the Philox key
        if not (_is_integer(self.seed) and 0 <= self.seed < 1 << 64):
            raise ValueError("seed must be an integer in [0, 2^64 - 1], got %r"
                             % (self.seed,))


@dataclass(frozen=True)
class ErrorReport:
    """Distance metrics between an estimated and a reference chi."""

    frobenius_error: float
    max_entry_error: float
    trace_defect: float
    min_eigenvalue: float


# one Philox generator per thread, re-keyed for every draw
_THREAD = threading.local()
_ZEROS = (0, 0, 0, 0)


def _generator(seed: int, config_index: int) -> np.random.Generator:
    """This thread's generator, reset to the Philox stream of key
    (seed, config_index) at counter 0 with an empty buffer: the stream
    of ``Philox(key=(seed, config_index))``, without the entropy draw
    that constructor makes and discards. Counter-based and keyed per
    configuration, so sampling is reproducible regardless of execution
    order; the generator is never shared between threads."""
    try:
        bits, rng = _THREAD.philox
    except AttributeError:
        bits = np.random.Philox(0)
        rng = np.random.Generator(bits)
        _THREAD.philox = bits, rng
    bits.state = {"bit_generator": "Philox",
                  "state": {"counter": _ZEROS, "key": (seed, config_index)},
                  "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def sample_record(record: MeasurementRecord, sampling: SamplingPolicy) -> MeasurementRecord:
    """Draw multinomial counts from an exact-mode record.

    Negative probabilities beyond floating-point dust are an error;
    dust is clamped to zero. For trace-decreasing channels the missing
    probability goes to a no-detection bin, a last column. The record
    checks and normalizes its probabilities once, at its first sampling
    (``MeasurementRecord._sampling``); every call after that resets the
    generator and draws.
    """
    if not record.exact:
        raise ValueError("sampling needs an exact-mode record")
    syndromes, pvals = record._sampling
    rng = _generator(sampling.seed, record.config_index)
    counts = rng.multinomial(sampling.shots_per_configuration, pvals)
    counts.flags.writeable = False
    return MeasurementRecord(record.config_index, syndromes, counts,
                             sampling.shots_per_configuration)


@dataclass(frozen=True, eq=False)
class Characterization:
    """One pipeline run: the channel padded to the noisy subsystem, the
    plan, its records, chi and, per configuration, the largest residual
    |observed - predicted(chi)| over the syndromes, both read through
    the plan's ``ReadoutTable``."""

    channel: Channel
    configs: list
    records: list
    chi: ProcessMatrix
    residuals: list


def characterize(code: StabilizerCode, channel: Channel, beta,
                 sampling: SamplingPolicy | None = None) -> Characterization:
    """Pad a narrower channel to the noisy subsystem (``extend_channel``;
    ``simulate`` takes no other width), take the code's plan
    (``plan_configurations``, compiled once per code), simulate, sample
    unless ``sampling`` is None (exact mode), reconstruct chi and
    evaluate its residuals on every record."""
    if channel.p < len(code.noisy_coords):
        channel = extend_channel(channel, len(code.noisy_coords))
    configs, readouts = plan_configurations(code)
    records = simulate(code, beta, channel, configs)
    if sampling is not None:
        records = [sample_record(rec, sampling) for rec in records]
    chi = reconstruct(records, readouts, code.error_basis)
    observed, _ = readouts.observed(records)
    residuals = np.abs(observed - chi._predicted(readouts)).max(axis=1).tolist()
    return Characterization(channel, configs, records, chi, residuals)


def compare(chi_est, chi_oracle) -> ErrorReport:
    """Error metrics between two process matrices of equal dimension.

    The minimum eigenvalue is ``chi_est``'s kept spectrum when it is a
    ``ProcessMatrix`` (the one ``validity_report`` reads), and that of a
    raw array's Hermitian part otherwise."""
    a = chi_est.entries if isinstance(chi_est, ProcessMatrix) else np.asarray(chi_est)
    b = chi_oracle.entries if isinstance(chi_oracle, ProcessMatrix) else np.asarray(chi_oracle)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch %s vs %s" % (a.shape, b.shape))
    diff = a - b
    eigs = (chi_est._spectrum if isinstance(chi_est, ProcessMatrix)
            else _hermitian_spectrum(a))
    return ErrorReport(
        frobenius_error=float(np.linalg.norm(diff, "fro")),
        max_entry_error=float(np.abs(diff).max()),
        trace_defect=float(abs(np.trace(a).real - np.trace(b).real)),
        min_eigenvalue=float(eigs.min()),
    )
