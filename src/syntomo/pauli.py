"""Exact algebra of the n-qubit Pauli group.

An operator is stored in symplectic form as a pair of n-bit masks plus a
phase exponent,

    P = i**phase_exp * X**x_mask * Z**z_mask,

where bit q of a mask refers to qubit q, and qubit q is letter q of the
string form as well as the q-th tensor factor counted from the most
significant side of the matrix form. Per-qubit Y occupies both masks
under the convention Y = i X Z, with the i absorbed into ``phase_exp``.
With this layout, multiplication reduces to mask XOR plus exact integer
phase bookkeeping, and commutation to a symplectic inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Dense rendering above this qubit count is not desk scale.
MATRIX_QUBIT_CAP = 12

_MINUS = "−"

# i^e * (-1)^m, indexed by (e, m)
_SIGNED_POWERS = np.array([[1.0, -1.0], [1j, -1j], [-1.0, 1.0], [-1j, 1j]])

# letter for (x_bit, z_bit)
_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_MASK_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}

_PREFIX_EXPONENT = {
    "": 0,
    "+": 0,
    "i": 1,
    "+i": 1,
    "-": 2,
    _MINUS: 2,
    "-i": 3,
    _MINUS + "i": 3,
}
_EXPONENT_PREFIX = {0: "", 1: "i", 2: _MINUS, 3: _MINUS + "i"}


@dataclass(frozen=True)
class PauliFactor:
    """A scalar from {+1, +i, -1, -i}, stored as the exponent of i."""

    exp: int

    def __post_init__(self):
        object.__setattr__(self, "exp", self.exp % 4)

    @property
    def value(self) -> complex:
        return 1j ** self.exp

    @property
    def is_real(self) -> bool:
        return self.exp % 2 == 0

    def __mul__(self, other: "PauliFactor") -> "PauliFactor":
        return PauliFactor(self.exp + other.exp)

    def conjugate(self) -> "PauliFactor":
        return PauliFactor(-self.exp)

    def __str__(self) -> str:
        return {0: "+1", 1: "+i", 2: "-1", 3: "-i"}[self.exp]


_FACTORS = tuple(PauliFactor(e) for e in range(4))


@dataclass(frozen=True)
class PauliOperator:
    """n-qubit Pauli operator in symplectic form.

    Parameters
    ----------
    n : int
        Qubit count.
    x_mask, z_mask : int
        Bit q set means an X (respectively Z) factor on qubit q.
    phase_exp : int
        Exponent of the global i prefactor, taken mod 4.
    """

    n: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("qubit count must be positive")
        limit = 1 << self.n
        if not (0 <= self.x_mask < limit and 0 <= self.z_mask < limit):
            raise ValueError("mask does not fit %d qubits" % self.n)
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0 and self.phase_exp == 0

    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def is_hermitian(self) -> bool:
        # (X^u Z^v)† = (-1)^{u·v} X^u Z^v, so the phase must compensate
        return (self.phase_exp - self.y_count) % 2 == 0

    def __str__(self) -> str:
        return pauli_to_string(self)


def pauli_mul(p: PauliOperator, q: PauliOperator) -> tuple[PauliFactor, PauliOperator]:
    """Multiply two Pauli operators exactly.

    Returns ``(g, r)`` where ``r`` is a bare word (``phase_exp`` 0) and
    ``g * r`` equals ``p @ q``. Moving Z factors of ``p`` past X factors
    of ``q`` contributes (-1) per crossing.
    """
    if p.n != q.n:
        raise ValueError("qubit counts differ: %d vs %d" % (p.n, q.n))
    crossings = (p.z_mask & q.x_mask).bit_count()
    exp = (p.phase_exp + q.phase_exp + 2 * crossings) % 4
    word = PauliOperator(p.n, p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask, 0)
    return PauliFactor(exp), word


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    """True iff the two operators commute (symplectic inner product is 0)."""
    if p.n != q.n:
        raise ValueError("qubit counts differ: %d vs %d" % (p.n, q.n))
    s = (p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()
    return s % 2 == 0


def to_matrix(p: PauliOperator) -> np.ndarray:
    """Render ``p`` as a dense 2^n x 2^n complex matrix.

    Qubit 0 is the most significant tensor factor, matching the string
    form read left to right. X^u Z^v is a signed permutation: column c
    holds (-1)^{|c & v|} in row c ^ u, where u and v are the X and Z
    masks with qubit 0 moved to the top bit.
    """
    if p.n > MATRIX_QUBIT_CAP:
        raise ValueError("dense rendering capped at %d qubits" % MATRIX_QUBIT_CAP)
    u = int(format(p.x_mask, "0%db" % p.n)[::-1], 2)
    v = int(format(p.z_mask, "0%db" % p.n)[::-1], 2)
    cols = np.arange(1 << p.n)
    out = np.zeros((1 << p.n, 1 << p.n), dtype=complex)
    out[cols ^ u, cols] = _SIGNED_POWERS[p.phase_exp, np.bitwise_count(cols & v) & 1]
    return out


def pauli_from_string(text: str, n: int | None = None) -> PauliOperator:
    """Parse a Pauli word such as ``"XIX"``, ``"-ZXZ"`` or ``"+iY"``.

    The optional prefix is one of +, -, +i, -i (ASCII hyphen and the
    typographic minus sign are both accepted). Each Y letter contributes
    one factor of i on top of the prefix.
    """
    body = text.strip()
    prefix = ""
    while body and body[0] in ("+", "-", _MINUS, "i"):
        prefix += body[0]
        body = body[1:]
    if prefix not in _PREFIX_EXPONENT:
        raise ValueError("bad phase prefix in %r" % text)
    if not body:
        raise ValueError("empty Pauli word in %r" % text)
    if n is not None and len(body) != n:
        raise ValueError("expected %d letters, got %r" % (n, text))
    x_mask = 0
    z_mask = 0
    y_count = 0
    for q, letter in enumerate(body):
        if letter not in _MASK_BITS:
            raise ValueError("bad Pauli letter %r in %r" % (letter, text))
        xb, zb = _MASK_BITS[letter]
        x_mask |= xb << q
        z_mask |= zb << q
        y_count += xb & zb
    exp = _PREFIX_EXPONENT[prefix] + y_count
    return PauliOperator(len(body), x_mask, z_mask, exp)


def pauli_to_string(p: PauliOperator) -> str:
    """Format ``p`` with Y letters and a canonical phase prefix."""
    letters = []
    for q in range(p.n):
        xb = (p.x_mask >> q) & 1
        zb = (p.z_mask >> q) & 1
        letters.append(_LETTERS[(xb, zb)])
    rel = (p.phase_exp - p.y_count) % 4
    return _EXPONENT_PREFIX[rel] + "".join(letters)


@dataclass(frozen=True)
class ErrorBasis:
    """The 4^p Hermitian Pauli words supported on a coordinate subset.

    Element index is lexicographic in the restricted bit vectors (u, v)
    with u major and ``coords[0]`` the most significant bit, so the
    single-qubit order is I, Z, X, Y. Each element carries
    ``phase_exp`` equal to its Y count, making it Hermitian; products
    are mapped back onto the basis with the leftover phase returned as
    a :class:`PauliFactor`.

    ``product_index[i, j]`` and ``product_phase[i, j]`` tabulate every
    product F_i F_j = i^e F_k as (k, e), read-only. ``labels[i]`` is
    ``label(i)``, formatted once.
    """

    n_total: int
    coords: tuple[int, ...]
    elements: tuple[PauliOperator, ...]
    restricted: tuple[PauliOperator, ...] = field(repr=False)
    _word_index: dict = field(repr=False, compare=False)
    product_index: np.ndarray = field(repr=False, compare=False)
    product_phase: np.ndarray = field(repr=False, compare=False)
    labels: tuple = field(repr=False, compare=False)

    @property
    def p(self) -> int:
        return len(self.coords)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension 2^p of the noisy subsystem."""
        return 1 << self.p

    def label(self, index: int) -> str:
        """Word restricted to the coordinate subset, e.g. ``"XZ"``."""
        return self.labels[index]

    def index_of_label(self, label: str) -> int:
        if self.p == 0:
            if label.strip() in ("I", "", "+I"):
                return 0
            raise ValueError("bad error label %r for empty coordinate set" % label)
        word = pauli_from_string(label, self.p)
        if not word.is_hermitian:
            raise ValueError("error label %r carries a non-Hermitian phase" % label)
        key = (word.x_mask, word.z_mask)
        if key not in self._restricted_index:
            raise ValueError("unknown error label %r" % label)
        return self._restricted_index[key]

    @property
    def _restricted_index(self) -> dict:
        return self._word_index["restricted"]

    def index_of_word(self, word: PauliOperator) -> int:
        """Index of the basis element sharing ``word``'s masks."""
        key = (word.x_mask, word.z_mask)
        try:
            return self._word_index["embedded"][key]
        except KeyError:
            raise ValueError("word %s not supported on coords %s"
                             % (pauli_to_string(word), list(self.coords)))

    def mul(self, i: int, j: int) -> tuple[PauliFactor, int]:
        """Product of two basis elements as (factor, basis index).

        Group closure: F_i F_j = g F_k with g in {+-1, +-i}.
        """
        return _FACTORS[self.product_phase[i, j]], int(self.product_index[i, j])


def enumerate_error_basis(n_total: int, coords) -> ErrorBasis:
    """Build the error basis for the given noisy coordinates.

    Returns all 4^p Hermitian Pauli words on ``coords`` embedded as
    identity elsewhere, in the fixed lexicographic (u, v) order.
    """
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise ValueError("duplicate coordinates: %s" % list(coords))
    for c in coords:
        if not (0 <= c < n_total):
            raise ValueError("coordinate %d outside 0..%d" % (c, n_total - 1))
    p = len(coords)
    elements = []
    restricted = []
    embedded_index = {}
    restricted_index = {}
    for u in range(1 << p):
        for v in range(1 << p):
            x_mask = 0
            z_mask = 0
            rx = 0
            rz = 0
            for j, c in enumerate(coords):
                # coords[0] is the most significant bit of u and v
                ub = (u >> (p - 1 - j)) & 1
                vb = (v >> (p - 1 - j)) & 1
                x_mask |= ub << c
                z_mask |= vb << c
                rx |= ub << j
                rz |= vb << j
            y = (u & v).bit_count()
            index = len(elements)
            elements.append(PauliOperator(n_total, x_mask, z_mask, y))
            restricted.append(PauliOperator(max(p, 1), rx, rz, y))
            embedded_index[(x_mask, z_mask)] = index
            restricted_index[(rx, rz)] = index
    index, phase = _product_table(p)
    return ErrorBasis(
        n_total=n_total,
        coords=coords,
        elements=tuple(elements),
        restricted=tuple(restricted),
        _word_index={"embedded": embedded_index, "restricted": restricted_index},
        product_index=index,
        product_phase=phase,
        labels=tuple(pauli_to_string(r) for r in restricted),
    )


def _product_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, e) with F_i F_j = i^e F_k for all 4^p x 4^p index pairs.

    Element i = (u << p) | v is i^{y_i} X^u Z^v with y_i = |u & v|, so
    pauli_mul gives the bare word (u_i ^ u_j, v_i ^ v_j) with phase
    y_i + y_j + 2|v_i & u_j|, and the canonical element k absorbs y_k.
    """
    idx = np.arange(1 << (2 * p))
    u = idx >> p
    v = idx & ((1 << p) - 1)
    y = np.bitwise_count(u & v).astype(np.int64)
    k = ((u[:, None] ^ u[None, :]) << p) | (v[:, None] ^ v[None, :])
    crossings = np.bitwise_count(v[:, None] & u[None, :]).astype(np.int64)
    e = ((y[:, None] + y[None, :] + 2 * crossings - y[k]) % 4).astype(np.int8)
    k.flags.writeable = False
    e.flags.writeable = False
    return k, e
