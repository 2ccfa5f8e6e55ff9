"""Kraus-operator channels and the process matrix over the error basis.

The process matrix chi expands a channel over the Hermitian Pauli words
F_m of an :class:`~syntomo.pauli.ErrorBasis`:

    E(rho) = sum_{m,n} chi_{m,n} F_m rho F_n†,

with chi_{m,n} = sum_j a_{j,m} a*_{j,n} and a_{j,m} = Tr(F_m† E_j) / d,
d = 2^p. The identity channel then has chi_{0,0} = 1 and the diagonal
sums to 1 exactly for trace-preserving channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numeric import DEFAULT_POLICY
from .pauli import MATRIX_QUBIT_CAP, ErrorBasis, to_matrix

_BUILTIN_NAMES = (
    "identity",
    "amplitude-damping",
    "correlated-flip",
    "depolarizing",
    "phase-damping",
    "random-cp",
)
# accepted parameter counts; every other built-in takes exactly one
_PARAM_COUNTS = {"identity": (0, 1), "random-cp": (3,)}

_EYE = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class Channel:
    """A completely positive map given by Kraus operators on p qubits."""

    p: int
    kraus: tuple
    label: str = ""

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("channel qubit count p must be positive, got %d"
                             % self.p)
        dim = 1 << self.p
        ops = tuple(np.asarray(e, dtype=complex) for e in self.kraus)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for e in ops:
            if e.shape != (dim, dim):
                raise ValueError("Kraus operator shape %s does not fit %d qubits"
                                 % (e.shape, self.p))
            if not np.isfinite(e).all():
                raise ValueError("Kraus operator has non-finite entries")
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return 1 << self.p


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """d^2 x d^2 process matrix over a fixed error-basis order."""

    entries: np.ndarray
    basis: ErrorBasis = field(repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        d2 = self.basis.size
        if entries.shape != (d2, d2):
            raise ValueError("chi shape %s does not match basis size %d"
                             % (entries.shape, d2))
        object.__setattr__(self, "entries", entries)

    @property
    def d2(self) -> int:
        return self.basis.size


def validity_report(chi: ProcessMatrix) -> dict:
    """Hermiticity defect, smallest eigenvalue and trace of chi.

    Reconstruction never projects onto the positive cone, so validity
    is reported rather than enforced.
    """
    m = chi.entries
    herm = float(np.abs(m - m.conj().T).max())
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return {
        "hermiticity_defect": herm,
        "min_eigenvalue": float(eigs.min()),
        "trace": float(np.trace(m).real),
    }


def chi_from_kraus(channel: Channel, basis: ErrorBasis) -> ProcessMatrix:
    """Brute-force process matrix of a Kraus channel.

    Expands every Kraus operator over the restricted error basis using
    Tr(F_i F_j†) = d delta_{ij}, all words in one stacked product, and
    assembles chi as a sum of outer products, one per Kraus operator.
    """
    if basis.p != channel.p:
        raise ValueError("basis is on %d qubits, channel on %d"
                         % (basis.p, channel.p))
    d = channel.dim
    adjoints = np.stack([to_matrix(w) for w in basis.restricted]).conj()
    adjoints = adjoints.transpose(0, 2, 1)
    chi = np.zeros((basis.size, basis.size), dtype=complex)
    for e in channel.kraus:
        coeffs = np.trace(adjoints @ e, axis1=1, axis2=2) / d
        chi += np.outer(coeffs, coeffs.conj())
    return ProcessMatrix(chi, basis)


def kraus_from_chi(chi: ProcessMatrix) -> Channel:
    """Kraus set reproducing a positive semidefinite process matrix.

    Eigendecomposes chi and reassembles one Kraus operator per positive
    eigenvalue; chi_from_kraus round-trips the result.
    """
    basis = chi.basis
    m = chi.entries
    if np.abs(m - m.conj().T).max() > DEFAULT_POLICY.algebraic:
        raise ValueError("process matrix is not Hermitian")
    eigvals, eigvecs = np.linalg.eigh(m)
    if eigvals.min() < -DEFAULT_POLICY.psd:
        raise ValueError("process matrix has negative eigenvalue %g" % eigvals.min())
    words = [to_matrix(basis.restricted[i]) for i in range(basis.size)]
    ops = []
    for k in range(len(eigvals)):
        if eigvals[k] <= DEFAULT_POLICY.psd:
            continue
        e = np.zeros((basis.dim, basis.dim), dtype=complex)
        for i in range(basis.size):
            e += eigvecs[i, k] * words[i]
        ops.append(np.sqrt(eigvals[k]) * e)
    if not ops:
        raise ValueError("process matrix is numerically zero")
    return Channel(p=basis.p, kraus=tuple(ops), label="from-chi")


def validate_channel(channel: Channel) -> dict:
    """Report complete positivity and trace preservation.

    cp is true by construction from Kraus form; tp holds iff the
    completeness sum matches the identity. The defect is the spectral
    norm of sum_j E_j† E_j - I.
    """
    total = sum(e.conj().T @ e for e in channel.kraus)
    defect = float(np.linalg.norm(total - np.eye(channel.dim), 2))
    return {"cp": True, "tp": defect < DEFAULT_POLICY.algebraic, "defect": defect}


def extend_channel(channel: Channel, p_total: int) -> Channel:
    """Pad a channel with identity action on trailing qubits."""
    if p_total < channel.p:
        raise ValueError("cannot shrink a %d-qubit channel to %d qubits"
                         % (channel.p, p_total))
    if p_total == channel.p:
        return channel
    eye = np.eye(1 << (p_total - channel.p), dtype=complex)
    ops = tuple(np.kron(e, eye) for e in channel.kraus)
    return Channel(p=p_total, kraus=ops, label=channel.label)


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    if not (lo <= value <= hi):
        raise ValueError("%s parameter %g outside [%g, %g]" % (name, value, lo, hi))
    return float(value)


def _int_param(name: str, value) -> int:
    if float(value) != int(value):
        raise ValueError("%s parameter must be an integer, got %r" % (name, value))
    return int(value)


def _check_qubit_cap(p: int) -> int:
    """Refuse a qubit count whose dense Kraus matrices are not desk scale."""
    if p > MATRIX_QUBIT_CAP:
        raise ValueError("channel on %d qubits exceeds the %d-qubit cap "
                         "on dense matrices" % (p, MATRIX_QUBIT_CAP))
    return p


def builtin_channel(name: str, params=()) -> Channel:
    """Construct a channel from the built-in library.

    Known names: identity, amplitude-damping(lam), correlated-flip(p),
    depolarizing(p), phase-damping(gam), random-CP(seed, p_qubits, rank).
    """
    key = name.strip().lower()
    params = list(params)
    if key not in _BUILTIN_NAMES:
        raise ValueError("unknown channel name %r; known names: %s"
                         % (name, ", ".join(_BUILTIN_NAMES)))
    counts = _PARAM_COUNTS.get(key, (1,))
    if len(params) not in counts:
        raise ValueError("%s takes %s parameter%s, got %d"
                         % (key, " or ".join(map(str, counts)),
                            "" if counts == (1,) else "s", len(params)))
    if key == "identity":
        p = _int_param("identity qubit-count", params[0]) if params else 1
        if p < 1:
            raise ValueError("identity qubit-count must be positive")
        _check_qubit_cap(p)
        return Channel(p, (np.eye(1 << p, dtype=complex),), "identity")

    if key == "amplitude-damping":
        lam = _check_range("amplitude-damping", params[0], 0.0, 1.0)
        s = np.sqrt(1.0 - lam)
        e0 = ((1.0 + s) / 2.0) * _EYE + ((1.0 - s) / 2.0) * _Z
        e1 = (np.sqrt(lam) / 2.0) * _X + (1j * np.sqrt(lam) / 2.0) * _Y
        return Channel(1, (e0, e1), "amplitude-damping(%g)" % lam)

    if key == "correlated-flip":
        prob = _check_range("correlated-flip", params[0], 0.0, 1.0)
        xx = np.kron(_X, _X)
        return Channel(2, (np.sqrt(1.0 - prob) * np.eye(4, dtype=complex),
                           np.sqrt(prob) * xx),
                       "correlated-flip(%g)" % prob)

    if key == "depolarizing":
        prob = _check_range("depolarizing", params[0], 0.0, 1.0)
        ops = (np.sqrt(1.0 - prob) * _EYE,
               np.sqrt(prob / 3.0) * _X,
               np.sqrt(prob / 3.0) * _Y,
               np.sqrt(prob / 3.0) * _Z)
        return Channel(1, ops, "depolarizing(%g)" % prob)

    if key == "phase-damping":
        gam = _check_range("phase-damping", params[0], 0.0, 1.0)
        e0 = np.diag([1.0, np.sqrt(1.0 - gam)]).astype(complex)
        e1 = np.diag([0.0, np.sqrt(gam)]).astype(complex)
        return Channel(1, (e0, e1), "phase-damping(%g)" % gam)

    # random-cp, the one name left
    seed = _int_param("random-CP seed", params[0])
    p = _int_param("random-CP qubit-count", params[1])
    rank = _int_param("random-CP rank", params[2])
    if p < 1 or rank < 1:
        raise ValueError("random-CP qubit-count and rank must be positive")
    _check_qubit_cap(p)
    return _random_cp(seed, p, rank)


def _random_cp(seed: int, p: int, rank: int) -> Channel:
    """Haar-random CP and trace-preserving channel of the given Kraus rank.

    Draws a random isometry from the system into system x environment
    via QR and slices it into ``rank`` Kraus blocks; the completeness
    sum is exactly the identity by construction.
    """
    d = 1 << p
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(rank * d, d)) + 1j * rng.normal(size=(rank * d, d))
    q, r = np.linalg.qr(g)
    # fix the column phases so the isometry is a deterministic function of the seed
    diag = np.diagonal(r)
    q = q * (diag.conj() / np.abs(diag))
    ops = tuple(q[j * d:(j + 1) * d, :].copy() for j in range(rank))
    return Channel(p, ops, "random-CP(seed=%d,p=%d,r=%d)" % (seed, p, rank))


def channel_to_json(channel: Channel) -> dict:
    """Schema: {"p", "label", "kraus": [[[ [re, im], ... ]]]}."""
    kraus = [[[[float(v.real), float(v.imag)] for v in row] for row in e]
             for e in channel.kraus]
    return {"p": channel.p, "label": channel.label, "kraus": kraus}


def channel_from_json(doc: dict) -> Channel:
    p = doc["p"]
    if type(p) is not int:  # also refuses 1.5, "1" and true
        raise TypeError("channel qubit count p must be an integer, got %r" % (p,))
    _check_qubit_cap(p)
    ops = []
    for mat in doc["kraus"]:
        ops.append(np.array([[complex(v[0], v[1]) for v in row] for row in mat]))
    return Channel(p=p, kraus=tuple(ops), label=str(doc.get("label", "")))
