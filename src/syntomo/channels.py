"""Kraus-operator channels and the process matrix over the error basis.

The process matrix chi expands a channel over the Hermitian Pauli words
F_m of an :class:`~syntomo.pauli.ErrorBasis`:

    E(rho) = sum_{m,n} chi_{m,n} F_m rho F_n†,

with chi_{m,n} = sum_j a_{j,m} a*_{j,n} and a_{j,m} = Tr(F_m† E_j) / d,
d = 2^p. The identity channel then has chi_{0,0} = 1 and the diagonal
sums to 1 exactly for trace-preserving channels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import _json_object, complex_from_pair
from .numeric import DEFAULT_POLICY
from .pauli import (MATRIX_QUBIT_CAP, ErrorBasis, _is_integer, _signed_rows,
                    _word_table, enumerate_error_basis, to_matrix)

_EYE = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _amplitude_damping(lam: float) -> tuple:
    s = np.sqrt(1.0 - lam)
    return (((1.0 + s) / 2.0) * _EYE + ((1.0 - s) / 2.0) * _Z,
            (np.sqrt(lam) / 2.0) * _X + (1j * np.sqrt(lam) / 2.0) * _Y)


# the built-ins of one parameter x in [0, 1]: name -> (qubit count,
# Kraus operators of x)
_ONE_PARAMETER = {
    "amplitude-damping": (1, _amplitude_damping),
    "correlated-flip": (2, lambda x: (np.sqrt(1.0 - x) * np.eye(4, dtype=complex),
                                      np.sqrt(x) * np.kron(_X, _X))),
    "depolarizing": (1, lambda x: (np.sqrt(1.0 - x) * _EYE, np.sqrt(x / 3.0) * _X,
                                   np.sqrt(x / 3.0) * _Y, np.sqrt(x / 3.0) * _Z)),
    "phase-damping": (1, lambda x: (np.diag([1.0, np.sqrt(1.0 - x)]).astype(complex),
                                    np.diag([0.0, np.sqrt(x)]).astype(complex))),
}
_BUILTIN_NAMES = ("identity", *_ONE_PARAMETER, "random-cp")
# accepted parameter counts; every other built-in takes exactly one
_PARAM_COUNTS = {"identity": (0, 1), "random-cp": (3,)}


@dataclass(frozen=True, eq=False)
class Channel:
    """A completely positive map given by Kraus operators on p qubits.

    ``kraus`` is given as a sequence of 2^p x 2^p operators (a stack
    among them) and kept as one read-only complex (r, 2^p, 2^p) stack,
    copied once: the caller's arrays stay writable, and a channel never
    changes after construction.
    """

    p: int
    kraus: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("channel qubit count p must be positive, got %d"
                             % self.p)
        dim = 1 << self.p
        ops = [np.asarray(e) for e in self.kraus]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for e in ops:
            if e.shape != (dim, dim):
                raise ValueError("Kraus operator shape %s does not fit %d qubits"
                                 % (e.shape, self.p))
        stack = np.array(ops, dtype=complex)
        if not np.isfinite(stack).all():
            raise ValueError("Kraus operator has non-finite entries")
        stack.flags.writeable = False
        object.__setattr__(self, "kraus", stack)

    @property
    def dim(self) -> int:
        return 1 << self.p

    @functools.cached_property
    def _pauli_coefficients(self) -> np.ndarray:
        """C[x, r] = Tr(F_x E_r)/d over the channel's own p-qubit error
        basis, d^2 x (Kraus operators), read-only, built by the first
        call. A completeness sum above the identity raises and stores
        nothing, so such a channel fails every call. Word x is row x of
        the p-qubit word table (``pauli._word_table``), a signed
        permutation (``pauli._signed_rows``), so row x of C reads d
        entries of each Kraus operator.
        """
        # row r d + i is row i of E_r, so flat† flat is the completeness sum
        flat = self.kraus.reshape(-1, self.dim)
        if np.linalg.eigvalsh(flat.conj().T @ flat).max() > 1.0 + DEFAULT_POLICY.algebraic:
            raise ValueError("Kraus completeness sum exceeds identity")
        cols, phases = _signed_rows(_word_table(self.p), self.dim)
        # Tr(F_x E) is the sum over rows i of F_x[i, c] E[c, i], c = cols[i, x]
        entries = self.kraus[:, cols, np.arange(self.dim)[:, None]]
        coeffs = np.einsum("ix,rix->xr", phases, entries) / self.dim
        coeffs.flags.writeable = False
        return coeffs


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

    Expands every Kraus operator over the p-qubit error words using
    Tr(F_i F_j†) = d delta_{ij}, all words in one stacked product (the
    stack is rendered once per p), and assembles chi as a sum of outer
    products, one per Kraus operator.
    """
    if basis.p != channel.p:
        raise ValueError("basis is on %d qubits, channel on %d"
                         % (basis.p, channel.p))
    d = channel.dim
    adjoints = _adjoint_words(basis.p)
    chi = np.zeros((basis.size, basis.size), dtype=complex)
    for e in channel.kraus:
        coeffs = np.trace(adjoints @ e, axis1=1, axis2=2) / d
        chi += np.outer(coeffs, coeffs.conj())
    return ProcessMatrix(chi, basis)


@functools.lru_cache(maxsize=8)
def _adjoint_words(p: int) -> np.ndarray:
    """The conjugate transposes of the p-qubit error words (the error
    basis of a p-qubit register, whose elements depend on p alone),
    stacked in basis order, read-only."""
    words = enumerate_error_basis(p, range(p)).elements
    adjoints = np.stack([to_matrix(w) for w in words]).conj().transpose(0, 2, 1)
    adjoints.flags.writeable = False
    return adjoints


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
    # conj undoes the stack's conj, so these are to_matrix's words bit for bit
    words = _adjoint_words(basis.p).conj().transpose(0, 2, 1)
    ops = []
    for k in range(len(eigvals)):
        if eigvals[k] <= DEFAULT_POLICY.psd:
            continue
        # the words' terms added in basis order onto an exact zero, as a
        # running sum would
        e = np.add.reduce(eigvecs[:, k, None, None] * words, axis=0, initial=0)
        ops.append(np.sqrt(eigvals[k]) * e)
    if not ops:
        raise ValueError("process matrix is numerically zero")
    return Channel(p=basis.p, kraus=ops, label="from-chi")


def validate_channel(channel: Channel) -> dict:
    """Report complete positivity and trace preservation.

    cp is true by construction from Kraus form; tp holds iff the
    completeness sum matches the identity. The defect is the spectral
    norm of sum_j E_j† E_j - I.
    """
    flat = channel.kraus.reshape(-1, channel.dim)
    total = flat.conj().T @ flat
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
    # np.kron(e, eye) of every operator at once: entry (i m + k, j m + l)
    # is e[i, j] * eye[k, l], the same products
    ops = channel.kraus[:, :, None, :, None] * eye[:, None, :]
    size = 1 << p_total
    return Channel(p=p_total, kraus=ops.reshape(-1, size, size), label=channel.label)


def _int_param(name: str, value) -> int:
    if _is_integer(value):
        return int(value)
    # bool and np.bool_ convert by float(): neither is a count
    if isinstance(value, (bool, np.bool_)):
        raise ValueError("%s parameter must be an integer, got %r" % (name, value))
    # int() raises OverflowError on inf and a bare ValueError on nan
    number = float(value)
    if not math.isfinite(number) or number != int(number):
        raise ValueError("%s parameter must be an integer, got %r" % (name, value))
    return int(number)


def _format_g(value) -> str:
    """``value`` as %g writes it, or in full an int past the float range,
    which %g cannot convert."""
    try:
        return "%g" % value
    except OverflowError:
        return "%d" % value


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
    _, draw = _builtin_recipe(name, params)
    return draw()


def _builtin_recipe(name: str, params=()) -> tuple:
    """(p, draw): the qubit count of ``builtin_channel(name, params)`` and
    a call that forms the channel, after every check of the name and
    the parameters. The width is known before any Kraus operator is
    formed, so a caller can refuse a channel that does not fit first.
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
        return p, lambda: Channel(p, (np.eye(1 << p, dtype=complex),), "identity")

    if key in _ONE_PARAMETER:
        p, kraus = _ONE_PARAMETER[key]
        if not 0.0 <= params[0] <= 1.0:
            raise ValueError("%s parameter %s outside [0, 1]"
                             % (key, _format_g(params[0])))
        x = float(params[0])
        return p, lambda: Channel(p, kraus(x), "%s(%g)" % (key, x))

    # random-cp, the one name left
    seed = _int_param("random-CP seed", params[0])
    p = _int_param("random-CP qubit-count", params[1])
    rank = _int_param("random-CP rank", params[2])
    if p < 1 or rank < 1:
        raise ValueError("random-CP qubit-count and rank must be positive")
    _check_qubit_cap(p)
    # 4^p Kraus operators span every p-qubit channel
    if rank > 4 ** p:
        raise ValueError("random-CP rank %d exceeds 4^%d = %d, the most Kraus "
                         "operators a %d-qubit channel needs"
                         % (rank, p, 4 ** p, p))
    # the Kraus stack holds rank 4^p entries: at most one dense matrix's
    # at the qubit cap
    if rank * 4 ** p > 4 ** MATRIX_QUBIT_CAP:
        raise ValueError("random-CP rank %d on %d qubits needs %d Kraus entries, "
                         "over the 4^%d of one dense matrix at the %d-qubit cap"
                         % (rank, p, rank * 4 ** p, MATRIX_QUBIT_CAP, MATRIX_QUBIT_CAP))
    return p, lambda: _random_cp(seed, p, rank)


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
    # rows j d .. (j + 1) d - 1 of the isometry are Kraus operator j
    return Channel(p, q.reshape(rank, d, d), "random-CP(seed=%d,p=%d,r=%d)" % (seed, p, rank))


def channel_to_json(channel: Channel) -> dict:
    """Schema: {"p", "label", "kraus": [[[ [re, im], ... ]]]}."""
    kraus = np.stack((channel.kraus.real, channel.kraus.imag), -1).tolist()
    return {"p": channel.p, "label": channel.label, "kraus": kraus}


def channel_from_json(doc: dict) -> Channel:
    p = _json_object(doc)["p"]
    if type(p) is not int:  # also refuses 1.5, "1" and true
        raise TypeError("channel qubit count p must be an integer, got %r" % (p,))
    _check_qubit_cap(p)
    ops = []
    for mat in doc["kraus"]:
        ops.append(np.array([[complex_from_pair(v) for v in row] for row in mat]))
    return Channel(p=p, kraus=ops, label=str(doc.get("label", "")))
