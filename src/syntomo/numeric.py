"""The package's numeric tolerances.

Every tolerance a validation gate compares against is a field of
``DEFAULT_POLICY``, so the whole set is written down in one place.
The gates read it when they run; no public function takes a
tolerance of its own. The sampling gates run at an exact record's
first sampling, and the record keeps the distribution they pass.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    """Fixed, package-wide tolerances.

    Attributes
    ----------
    algebraic : float
        Hermiticity, unitarity, stabilization and trace checks.
    orthonormality : float
        Gram-matrix deviation allowed for basis-vector inputs.
    psd : float
        Slack below zero allowed for eigenvalues of nominally
        positive semidefinite matrices.
    kl_residual : float
        Allowed residual in the error-correcting-condition check.
    readout_consistency : float
        Allowed spread between redundant exact-mode readouts of the
        same process-matrix entry.
    sampling_clamp : float
        Negative probabilities above this magnitude are an error;
        smaller ones are treated as floating-point dust and clamped.
    """

    algebraic: float = 1e-10
    orthonormality: float = 1e-8
    psd: float = 1e-10
    kl_residual: float = 1e-8
    readout_consistency: float = 1e-8
    sampling_clamp: float = 1e-12


DEFAULT_POLICY = NumericPolicy()
