"""Exact algebra of the n-qubit Pauli group.

An operator is stored in symplectic form as a pair of n-bit masks plus a
phase exponent,

    P = i**phase_exp * X**x_mask * Z**z_mask,

where bit n - 1 - q of a mask refers to qubit q: qubit q is letter q of
the string form and the q-th tensor factor counted from the most
significant side of the matrix form, so the masks index the matrix
form's rows and columns directly. Per-qubit Y occupies both masks
under the convention Y = i X Z, with the i absorbed into ``phase_exp``.
With this layout, multiplication reduces to mask XOR plus exact integer
phase bookkeeping, commutation to a symplectic inner product, and the
action on a state vector to a signed permutation of its amplitudes
(``apply_pauli``, the one-word case of ``_apply_words``, which gathers
the images of many words at once). The dense matrix form
(``to_matrix``) is for the tests' oracle.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

# Dense rendering above this qubit count is not desk scale.
MATRIX_QUBIT_CAP = 12
# Mask arrays are int64 (``_register_masks``).
MASK_QUBIT_CAP = 62

_MINUS = "−"

# i^e * (-1)^m, indexed by (e, m)
_SIGNED_POWERS = np.array([[1.0, -1.0], [1j, -1j], [-1.0, 1.0], [-1j, 1j]])
_SIGNED_POWERS.flags.writeable = False
# i^e for a phase exponent e, such as an entry of a product table
I_POWERS = _SIGNED_POWERS[:, 0]

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
class PauliOperator:
    """n-qubit Pauli operator in symplectic form.

    Parameters
    ----------
    n : int
        Qubit count.
    x_mask, z_mask : int
        Bit n - 1 - q set means an X (respectively Z) factor on qubit q.
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


def pauli_mul(p: PauliOperator, q: PauliOperator) -> tuple[int, PauliOperator]:
    """Multiply two Pauli operators exactly.

    Returns ``(e, r)`` where ``r`` is a bare word (``phase_exp`` 0) and
    ``i**e * r`` equals ``p @ q``, with e in 0..3. Moving Z factors of
    ``p`` past X factors of ``q`` contributes (-1) per crossing.
    """
    if p.n != q.n:
        raise ValueError("qubit counts differ: %d vs %d" % (p.n, q.n))
    crossings = (p.z_mask & q.x_mask).bit_count()
    exp = (p.phase_exp + q.phase_exp + 2 * crossings) % 4
    word = PauliOperator(p.n, p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask, 0)
    return exp, word


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    """True iff the two operators commute (symplectic inner product is 0)."""
    if p.n != q.n:
        raise ValueError("qubit counts differ: %d vs %d" % (p.n, q.n))
    s = (p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()
    return s % 2 == 0


# bytes of states gathered at once by ``_apply_words``: a chunk of
# words at a time, so the gather never holds a frame-sized temporary
_GATHER_BYTES = 1 << 16


def _register_masks(words) -> np.ndarray:
    """The words' X and Z masks and phase exponents: a 3 x len(words)
    integer array with rows (u, v, phase_exp). Words on more than
    ``MASK_QUBIT_CAP`` qubits are refused before any mask is built."""
    if words:
        _check_mask_cap(words[0].n)
    return np.array([(w.x_mask, w.z_mask, w.phase_exp) for w in words],
                    dtype=np.int64).reshape(-1, 3).T


def _check_mask_cap(n: int) -> None:
    if n > MASK_QUBIT_CAP:
        raise ValueError("Pauli masks are capped at %d qubits (int64), got %d"
                         % (MASK_QUBIT_CAP, n))


def _anticommuting(p_masks: np.ndarray, q_masks: np.ndarray) -> np.ndarray:
    """Entry (i, j) is 1 when word i of ``p_masks`` and word j of
    ``q_masks`` (``_register_masks`` of two lists of words on the same
    qubits) anticommute, else 0: the symplectic inner product of
    ``commutes``."""
    (px, pz, _), (qx, qz, _) = p_masks, q_masks
    return (np.bitwise_count(px[:, None] & qz)
            + np.bitwise_count(pz[:, None] & qx)) & 1


def _symplectic_rank(masks: np.ndarray, n: int) -> int:
    """Rank over GF(2) of n-qubit words in (x|z) form, from their
    ``_register_masks``; the rows are Python ints, since the 2n-bit
    rows of a word past 31 qubits overflow int64. Each row is reduced
    by the kept rows, whose leading bits differ, in descending order."""
    x, z, _ = masks.tolist()
    kept = []
    for row in ((u << n) | v for u, v in zip(x, z)):
        for pivot in kept:
            row = min(row, row ^ pivot)
        if row:
            kept = sorted(kept + [row], reverse=True)
    return len(kept)


@functools.lru_cache(maxsize=8)
def _word_table(p: int) -> np.ndarray:
    """Rows (u, v, |u & v| mod 4), read-only, of every p-qubit error
    index x = (u << p) | v: the ``_register_masks`` of the word
    i^{|u & v|} X^u Z^v. The one place an error index is decoded."""
    x = np.arange(1 << (2 * p))
    u, v = x >> p, x & ((1 << p) - 1)
    table = np.stack((u, v, np.bitwise_count(u & v) & 3))
    table.flags.writeable = False
    return table


def _signed_rows(masks: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The signed permutations of words on a register of dimension ``dim``
    = 2^n as (cols, phases), each dim x (number of words), from their
    ``_register_masks``.

    Qubit 0 is the most significant tensor factor, matching the string
    form read left to right. X^u Z^v is a signed permutation: row r
    holds its one nonzero entry i^phase (-1)^{|c & v|} in column
    c = r ^ u, where u and v are the X and Z masks.
    Column w of ``cols`` and ``phases`` is word w's c and entry.
    """
    u, v, phase = masks
    cols = np.arange(dim)[:, None] ^ u
    return cols, _SIGNED_POWERS[phase, np.bitwise_count(cols & v) & 1]


def _apply_words(masks: np.ndarray, states: np.ndarray, out: np.ndarray) -> None:
    """``out[:, w] = (word w) @ states`` for every word of ``masks``
    (``_register_masks``), in place.

    ``states`` is a complex vector or a stack of column vectors with 2^n
    rows, and ``out`` has shape (2^n, number of words) + states.shape[1:].
    Row r of word w's image is row c = r ^ u of ``states`` times its
    entry (``_signed_rows``), gathered for a chunk of words at a time;
    no 2^n x 2^n matrix is formed.
    """
    chunk = max(1, _GATHER_BYTES // max(states.nbytes, 1))
    for start in range(0, masks.shape[1], chunk):
        cols, phases = _signed_rows(masks[:, start:start + chunk], len(states))
        if states.ndim == 2:
            phases = phases[:, :, None]
        np.multiply(phases, states[cols], out=out[:, start:start + chunk])


def apply_pauli(p: PauliOperator, states) -> np.ndarray:
    """``p @ states`` for a vector or a stack of column vectors: the
    one-word case of ``_apply_words``."""
    states = np.asarray(states, dtype=complex)
    if states.ndim not in (1, 2) or states.shape[0] != 1 << p.n:
        raise ValueError("a %d-qubit Pauli word needs %d rows, got shape %s"
                         % (p.n, 1 << p.n, states.shape))
    out = np.empty((states.shape[0], 1) + states.shape[1:], dtype=complex)
    _apply_words(_register_masks((p,)), states, out)
    return out.reshape(states.shape)


def to_matrix(p: PauliOperator) -> np.ndarray:
    """Render ``p`` as a dense 2^n x 2^n complex matrix (see
    ``_signed_rows`` for the layout)."""
    if p.n > MATRIX_QUBIT_CAP:
        raise ValueError("dense rendering capped at %d qubits" % MATRIX_QUBIT_CAP)
    cols, phases = _signed_rows(_register_masks((p,)), 1 << p.n)
    out = np.zeros((1 << p.n, 1 << p.n), dtype=complex)
    out[np.arange(1 << p.n), cols[:, 0]] = phases[:, 0]
    return out


def pauli_from_string(text: str, n: int | None = None) -> PauliOperator:
    """Parse a Pauli word such as ``"XIX"``, ``"-ZXZ"`` or ``"+iY"``.

    The optional prefix is one of +, -, +i, -i (ASCII hyphen and the
    typographic minus sign are both accepted). Each Y letter contributes
    one factor of i on top of the prefix.
    """
    if not isinstance(text, str):
        raise TypeError("a Pauli word must be a string, got %r" % (text,))
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
    # letter 0 ends at the top bit
    for letter in body:
        if letter not in _MASK_BITS:
            raise ValueError("bad Pauli letter %r in %r" % (letter, text))
        xb, zb = _MASK_BITS[letter]
        x_mask = x_mask << 1 | xb
        z_mask = z_mask << 1 | zb
        y_count += xb & zb
    exp = _PREFIX_EXPONENT[prefix] + y_count
    return PauliOperator(len(body), x_mask, z_mask, exp)


def _letters(x_mask: int, z_mask: int, n: int) -> str:
    """The letters of X^x_mask Z^z_mask on n qubits, qubit 0 first."""
    return "".join("IZXY"[(x_mask >> shift & 1) << 1 | z_mask >> shift & 1]
                   for shift in range(n - 1, -1, -1))


def pauli_to_string(p: PauliOperator) -> str:
    """Format ``p`` with Y letters and a canonical phase prefix."""
    rel = (p.phase_exp - p.y_count) % 4
    return _EXPONENT_PREFIX[rel] + _letters(p.x_mask, p.z_mask, p.n)


@dataclass(frozen=True)
class ErrorBasis:
    """The 4^p Hermitian Pauli words supported on a coordinate subset.

    Element i = (u << p) | v is the word i^{|u & v|} X^u Z^v
    (``_word_table``) with bit p - 1 - j of u and v on ``coords[j]``,
    so the single-qubit order is I, Z, X, Y; the Y count in
    ``phase_exp`` makes it Hermitian. The p = 0 word is labelled "I".

    A basis is its two fields; the rest is derived on first read and
    kept: read-only ``masks``, ``elements``, ``labels`` and the read-only
    product table F_i F_j = i^e F_k as ``product_index[i, j]`` = k and
    ``product_phase[i, j]`` = e.
    """

    n_total: int
    coords: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.coords)

    @property
    def size(self) -> int:
        return 1 << (2 * self.p)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension 2^p of the noisy subsystem."""
        return 1 << self.p

    @functools.cached_property
    def masks(self) -> np.ndarray:
        """The elements' ``_register_masks``, placed from the word table."""
        p, n = self.p, self.n_total
        _check_mask_cap(n)
        moves = [(p - 1 - j, n - 1 - c) for j, c in enumerate(self.coords)]
        placed = np.array([sum((w >> src & 1) << dst for src, dst in moves)
                           for w in range(1 << p)], dtype=np.int64)
        u, v, y = _word_table(p)
        masks = np.stack((placed[u], placed[v], y))
        masks.flags.writeable = False
        return masks

    @functools.cached_property
    def elements(self) -> tuple[PauliOperator, ...]:
        return tuple(PauliOperator(self.n_total, u, v, y) for u, v, y in self.masks.T.tolist())

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        words = _word_table(self.p).T.tolist()
        return tuple(_letters(u, v, max(self.p, 1)) for u, v, _ in words)

    @functools.cached_property
    def product_index(self) -> np.ndarray:
        """k: the bare word of F_i F_j is (u_i ^ u_j, v_i ^ v_j)."""
        u, v, _ = _word_table(self.p)
        k = ((u[:, None] ^ u[None, :]) << self.p) | (v[:, None] ^ v[None, :])
        k.flags.writeable = False
        return k

    @functools.cached_property
    def product_phase(self) -> np.ndarray:
        """e: with y_i = |u_i & v_i|, ``pauli_mul`` gives the phase
        y_i + y_j + 2|v_i & u_j|, of which element k absorbs y_k."""
        u, v, y = _word_table(self.p)
        crossings = np.bitwise_count(v[:, None] & u[None, :]).astype(np.int64)
        e = ((y[:, None] + y + 2 * crossings - y[self.product_index]) % 4).astype(np.int8)
        e.flags.writeable = False
        return e

    def label(self, index: int) -> str:
        """Word restricted to the coordinate subset, e.g. ``"XZ"``."""
        return self.labels[index]

    def index_of_label(self, label: str) -> int:
        """The index a label names; a minus sign or an i (``-XZ``, ``iY``) is refused."""
        if self.p == 0:
            if not isinstance(label, str):
                raise TypeError("a Pauli word must be a string, got %r" % (label,))
            if label.strip() in ("I", "", "+I"):
                return 0
            raise ValueError("bad error label %r for empty coordinate set" % label)
        word = pauli_from_string(label, self.p)
        sign = (word.phase_exp - word.y_count) % 4
        if sign:
            raise ValueError("error label %r carries a %s" % (
                label, "non-Hermitian phase" if sign % 2 else "minus sign"))
        return (word.x_mask << self.p) | word.z_mask


def enumerate_error_basis(n_total: int, coords) -> ErrorBasis:
    """Build the error basis for the given noisy coordinates.

    Returns all 4^p Hermitian Pauli words on ``coords`` embedded as
    identity elsewhere, in the fixed lexicographic (u, v) order. A
    coordinate that is not an integer (a bool is not one) is a
    ``TypeError``.
    """
    return ErrorBasis(n_total, _check_coords(n_total, coords))


def _is_integer(value) -> bool:
    """An integer, numpy's included; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_coords(n_total: int, coords) -> tuple:
    """The coordinates as a tuple of ints, after checking that they are
    integers (a bool is not one), distinct and inside the register."""
    given = coords
    coords = tuple(coords)
    if not all(map(_is_integer, coords)):
        raise TypeError("noisy coordinates must be integers, got %r" % (given,))
    coords = tuple(map(int, coords))
    if len(set(coords)) != len(coords):
        raise ValueError("duplicate coordinates: %s" % list(coords))
    for c in coords:
        if not (0 <= c < n_total):
            raise ValueError("coordinate %d outside 0..%d" % (c, n_total - 1))
    return coords
