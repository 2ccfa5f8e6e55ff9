"""Stabilizer codes that correct arbitrary errors on known coordinates.

A code is specified by commuting generators, the noisy coordinate
subset and, optionally, a logical basis. Every error-basis element must
map the code space to a distinct syndrome space, so that one round of
syndrome measurement identifies the error exactly. A code given by its
generators alone is checked by symplectic algebra on the words' mask
arrays: Hermiticity, commutation, GF(2) rank, the logical operators and
the syndrome table. These imply the error-correcting condition with
C = I, and no 2^n vector is formed; the logical basis is derived from
the generators only when it is read. A code given by explicit codewords
also has its vectors checked: they must be orthonormal and stabilized,
and the syndrome frame they span, whose columns F_x|j_L> span the
error spaces, must be orthonormal. That check, and ``kl_scan`` of such
a code, read the frame's Gram matrix off d² blocks of 2^k x 2^k
(``_overlap_blocks``), formed a chunk of error words at a time
(``pauli._apply_words``), so no code stores its frame.
"""

from __future__ import annotations

import functools
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .jsonio import _json_object, complex_from_pair
from .numeric import DEFAULT_POLICY
from .pauli import (
    I_POWERS,
    MATRIX_QUBIT_CAP,
    ErrorBasis,
    PauliOperator,
    _anticommuting,
    _apply_words,
    _register_masks,
    _symplectic_rank,
    apply_pauli,
    enumerate_error_basis,
    pauli_from_string,
    pauli_to_string,
)

Syndrome = tuple

# builtin_code's names: (generators, noisy coordinates, logical
# operators); the derived bases are the textbook codewords to rounding
_BUILTIN_CODES = {
    "code3": (("XIX", "YYZ"), (0,), {"X": "-XZI", "Z": "XXI"}),
    "code5": (("IZZZZ", "XXXII", "ZXZIX", "ZZXXI"), (0, 1),
              {"X": "IIIXX", "Z": "IIXXZ"}),
}
# bytes of error-word images that ``_overlap_blocks`` holds at once; one
# word per chunk (64 KiB at bell5) moved bell5's residual in its last bits
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class StabilizerCode:
    """[[n, k]] stabilizer code with a group-closed correctable error set.

    ``codewords`` holds the vectors the code was given, as read-only
    arrays (one that could still be written through, as
    ``dataclasses.replace`` may hand over, is copied), or None for a
    code given by its generators; ``logical_ops`` (X_L, Z_L) then fixes
    the basis that ``logical_basis`` derives. ``syndrome_index`` maps
    each syndrome to its first error, read-only. A code never changes
    after construction, so one code can serve every caller, as
    ``builtin_code`` does.
    """

    n: int
    k: int
    generators: tuple
    noisy_coords: tuple
    error_basis: ErrorBasis
    syndrome_table: tuple
    syndrome_index: Mapping = field(repr=False, compare=False)
    codewords: tuple | None = field(default=None, repr=False, kw_only=True)
    logical_ops: tuple | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.codewords is not None:
            object.__setattr__(self, "codewords", tuple(map(_frozen, self.codewords)))

    @property
    def d2(self) -> int:
        """Error-basis size 4^p."""
        return self.error_basis.size

    @functools.cached_property
    def logical_basis(self) -> tuple:
        """The given codewords, or else the basis derived from the
        generators (``_derive_logical_basis``), built by the first read;
        past ``MATRIX_QUBIT_CAP`` qubits that read is an error and
        stores nothing."""
        if self.codewords is not None:
            return self.codewords
        if self.n > MATRIX_QUBIT_CAP:
            raise ValueError("the logical basis of a %d-qubit code is past "
                             "the %d-qubit cap on dense vectors"
                             % (self.n, MATRIX_QUBIT_CAP))
        return tuple(map(_frozen, _derive_logical_basis(
            self.generators, self.k, self.logical_ops)))

    @functools.cached_property
    def _paper_plan(self) -> tuple:
        """(configurations as a tuple, readout table) of the paper's plan,
        compiled by the first ``plan_configurations`` call and kept: the
        plan depends on the code alone, and holds no reference to it."""
        from . import protocol
        return protocol._paper_plan(self)


def _frozen(array) -> np.ndarray:
    """``array`` if it is read-only and owns its data, else a read-only
    copy."""
    if (isinstance(array, np.ndarray) and not array.flags.writeable
            and array.base is None):
        return array
    array = np.array(array, dtype=complex)
    array.flags.writeable = False
    return array


def _lead_real(v: np.ndarray) -> np.ndarray:
    """Rotate so the first amplitude above the orthonormality cut is
    real and positive."""
    lead = v[np.flatnonzero(np.abs(v) > DEFAULT_POLICY.orthonormality)[0]]
    return v * (lead / abs(lead)).conjugate()


def _derive_logical_basis(generators, k: int, logical_ops) -> tuple:
    """Joint +1 eigenspace of the generators, with a fixed basis.

    A fixed Gaussian 2^n x 2^k block is projected by every (I + g)/2,
    applied as a signed permutation, and orthonormalized by QR; the
    projection and QR run twice, so the columns are stabilized to
    rounding. With logical operators (X_L, Z_L), which ``build_code``
    has checked, the basis is the Z_L eigenvector pair,
    |1_L> = X_L |0_L>; without them it is the QR columns. Each derived
    vector except |1_L> gets its first amplitude above the
    orthonormality cut made real and positive.
    """
    dim = 1 << generators[0].n
    real, imag = np.random.default_rng(0).standard_normal((2, dim, 1 << k))
    block = real + 1j * imag
    for _ in range(2):
        for g in generators:
            block = (block + apply_pauli(g, block)) / 2.0
        block, _ = np.linalg.qr(block)
    if logical_ops is None:
        return tuple(_lead_real(col) for col in block.T)
    x_l, z_l = logical_ops
    # Z_L acts on the code space with eigenvalues +1 and -1
    _, v = np.linalg.eigh(apply_pauli(z_l, block).conj().T @ block)
    zero = _lead_real(block @ v[:, -1])
    return (zero, apply_pauli(x_l, zero))


def build_code(generators, noisy_coords, codewords=None, logical_ops=None) -> StabilizerCode:
    """Construct and verify a stabilizer code for the given error set.

    Parameters
    ----------
    generators : iterable of PauliOperator or str
        Mutually commuting, independent, Hermitian stabilizer generators.
    noisy_coords : iterable of int
        Coordinates of the subsystem carrying unknown dynamics.
    codewords : optional iterable of vectors
        Explicit logical basis, which must be orthonormal and
        stabilized by every generator, and whose syndrome frame must be
        orthonormal. When omitted the code is checked by symplectic
        algebra alone, and its basis is derived from the joint +1
        eigenspace when first read (see ``logical_ops``).
    logical_ops : optional dict {"X": X_L, "Z": Z_L} of PauliOperator or str
        Used only when codewords are omitted, to fix the derived basis
        as Z_L eigenvectors with X_L mapping between them.

    Raises
    ------
    ValueError
        Non-commuting, dependent or non-Hermitian generators, logical
        operators that fix no basis, a basis that is not orthonormal or
        not stabilized, a syndrome collision, or failure of the
        error-correcting condition. Codes with codewords have at most
        ``MATRIX_QUBIT_CAP`` qubits, and codes given by generators at
        most ``MASK_QUBIT_CAP``.
    TypeError
        A noisy coordinate that is not an integer, such as ``True``,
        ``1.0``, or a character of the string ``"01"``.
    """
    gens = tuple(g if isinstance(g, PauliOperator) else pauli_from_string(g)
                 for g in generators)
    if not gens:
        raise ValueError("no generators given")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ValueError("generators act on different qubit counts")
    if codewords is not None and n > MATRIX_QUBIT_CAP:
        raise ValueError("codes are capped at %d qubits, got %d"
                         % (MATRIX_QUBIT_CAP, n))
    gen_masks = _register_masks(gens)
    for g in gens:
        if not g.is_hermitian:
            raise ValueError("generator %s is not Hermitian" % pauli_to_string(g))
    # symmetric with a zero diagonal, so the first nonzero entry in row
    # order is the first anticommuting pair i < j
    first, second = np.nonzero(_anticommuting(gen_masks, gen_masks))
    if first.size:
        raise ValueError("generators %s and %s do not commute"
                         % (pauli_to_string(gens[first[0]]),
                            pauli_to_string(gens[second[0]])))
    if _symplectic_rank(gen_masks, n) != len(gens):
        raise ValueError("generators are not independent")
    k = n - len(gens)
    if k < 1:
        raise ValueError("no logical qubits: %d generators on %d qubits"
                         % (len(gens), n))

    basis_states = ops = None
    if codewords is not None:
        basis_states = tuple(np.array(v, dtype=complex) for v in codewords)
        if len(basis_states) != (1 << k):
            raise ValueError("expected %d codewords, got %d"
                             % (1 << k, len(basis_states)))
        for v in basis_states:
            if v.shape != (1 << n,):
                raise ValueError("codeword has shape %s, expected (%d,) for "
                                 "%d qubits" % (v.shape, 1 << n, n))
            if not np.isfinite(v).all():
                raise ValueError("codeword has non-finite amplitudes")
        logical = np.column_stack(basis_states)
        gap = np.abs(logical.conj().T @ logical - np.eye(1 << k)).max()
        if not gap <= DEFAULT_POLICY.orthonormality:  # NaN fails
            raise ValueError("states are not orthonormal")
        # every generator's image of the basis, gathered at once; NaN fails
        images = np.empty((1 << n, len(gens), 1 << k), dtype=complex)
        _apply_words(gen_masks, logical, images)
        stabilized = np.abs(images - logical[:, None]).max(axis=(0, 2)) <= DEFAULT_POLICY.algebraic
        if not stabilized.all():
            raise ValueError("codeword is not stabilized by %s"
                             % pauli_to_string(gens[int(np.argmin(stabilized))]))
    elif logical_ops is not None:
        ops = tuple(op if isinstance(op, PauliOperator) else pauli_from_string(op, n)
                    for op in (logical_ops["X"], logical_ops["Z"]))
        if k != 1:
            raise ValueError("logical-operator basis fixing supports k=1 only")
        # both must map the code space to itself, and X_L exchange the
        # eigenspaces of Z_L; a Hermitian Z_L then has eigenvalues +1 and
        # -1 there, and one with an i or -i prefix +i and -i
        for op in ops:
            if op.n != n:
                raise ValueError("qubit counts differ: %d vs %d" % (op.n, n))
        op_masks = _register_masks(ops)
        # X_L and Z_L against every generator, and last against Z_L
        clash = _anticommuting(op_masks, np.hstack((gen_masks, op_masks[:, 1:])))
        # the first anticommuting pair in (operator, generator) order
        first, second = np.nonzero(clash[:, :-1])
        if first.size:
            raise ValueError("logical operator %s anticommutes with generator %s"
                             % (pauli_to_string(ops[first[0]]),
                                pauli_to_string(gens[second[0]])))
        if not clash[0, -1]:
            raise ValueError("logical operators must anticommute")
        if not ops[1].is_hermitian:
            raise ValueError("Z logical operator has no +1 eigenvector "
                             "inside the code space")

    error_basis = enumerate_error_basis(n, noisy_coords)
    # 4^p errors cannot have distinct syndromes among 2^(n-k)
    if k + 2 * error_basis.p > n:
        raise ValueError("syndrome collision: %d errors on %d noisy qubits "
                         "exceed the %d syndromes of %d generators"
                         % (error_basis.size, error_basis.p, 1 << len(gens), len(gens)))
    # bit j of error i's syndrome is 1 when it anticommutes with generator j
    table = tuple(map(tuple, _anticommuting(error_basis.masks, gen_masks).tolist()))
    # the first error of each syndrome
    index = dict(zip(table[::-1], range(len(table) - 1, -1, -1)))
    if len(index) != len(table):
        i = next(i for i, syn in enumerate(table) if index[syn] != i)
        raise ValueError(
            "syndrome collision: errors %s and %s share syndrome %s"
            % (error_basis.label(index[table[i]]), error_basis.label(i), table[i]))

    # distinct syndromes mean every product F_a† F_b but the identity
    # anticommutes with a generator, so Pi F_a† F_b Pi = delta_ab Pi on
    # the generators' code space. Given codewords must span it: with
    # distinct syndromes, frame† frame = I is the condition with C = I,
    # and frame† frame − I is made of B_0 − I and the i^e B_z, z != 0
    if basis_states is not None:
        blocks = _overlap_blocks(logical, error_basis.masks)
        blocks[0] -= np.eye(1 << k)
        residual = float(np.abs(blocks).max())
        if not residual <= DEFAULT_POLICY.kl_residual:  # NaN fails
            raise ValueError("error-correcting condition fails with residual %g"
                             % residual)
        # frozen in place, so StabilizerCode keeps them without a copy;
        # the caller's codewords were copied above
        for array in basis_states:
            array.flags.writeable = False
    return StabilizerCode(
        n=n, k=k, generators=gens, noisy_coords=error_basis.coords,
        error_basis=error_basis, syndrome_table=table,
        syndrome_index=types.MappingProxyType(index),
        codewords=basis_states, logical_ops=ops,
    )


def _overlap_blocks(logical: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The blocks B_z = W_0† F_z W_0 of every error z, shape (d², dim, dim).

    W_0 is ``logical``, the 2^n x dim logical block, and ``masks`` the
    error words' ``_register_masks``; the images F_z W_0 of a chunk of
    words, at most ``_BLOCK_BYTES``, are multiplied by W_0† at a time.
    The words are Hermitian, so F_x† F_y = i^e F_{x.y} with (x.y, e)
    from the product table, and block (x, y) of the frame's Gram matrix
    is i^e B_{x.y}: d² blocks stand for all d⁴ of it.
    """
    rows, dim = logical.shape
    adjoint = logical.conj().T
    chunk = max(1, _BLOCK_BYTES // logical.nbytes)
    buffer = np.empty((rows, min(chunk, masks.shape[1]), dim), dtype=complex)
    products = []
    for start in range(0, masks.shape[1], chunk):
        part = masks[:, start:start + chunk]
        images = buffer[:, :part.shape[1]]
        _apply_words(part, logical, images)
        products.append(adjoint @ images.reshape(rows, -1))
    return np.hstack(products).reshape(dim, -1, dim).transpose(1, 0, 2)


def kl_scan(code: StabilizerCode) -> tuple:
    """Error-correcting-condition matrix and worst residual, unchecked.

    For a code given by its generators this is C = I and residual 0
    exactly: ``build_code`` checked that every error has its own
    syndrome, so Pi F_a† F_b Pi = delta_ab Pi (see there). For a code
    that holds given vectors, they are read off the overlap blocks
    B_z = W_0† F_z W_0 (``_overlap_blocks``): c_z = Tr(B_z) / 2^k,
    C_ab = i^e c_{a.b} with F_a F_b = i^e F_{a.b}, and residual is the
    largest |B_z − c_z I| over all errors z. Since
    Pi F_a† F_b Pi = i^e W_0 B_{a.b} W_0†, the residual is zero exactly
    when Pi F_a† F_b Pi = C_ab Pi for every pair.
    """
    if code.codewords is None:
        return np.eye(code.d2, dtype=complex), 0.0
    dim = 1 << code.k
    blocks = _overlap_blocks(np.column_stack(code.logical_basis), code.error_basis.masks)
    c = np.trace(blocks, axis1=1, axis2=2) / dim
    residual = float(np.abs(blocks - c[:, None, None] * np.eye(dim)).max())
    basis = code.error_basis
    return I_POWERS[basis.product_phase] * c[basis.product_index], residual


def kl_condition(code: StabilizerCode) -> np.ndarray:
    """Error-correcting-condition matrix C with Pi F_a† F_b Pi = C_ab Pi.

    A residual above ``DEFAULT_POLICY.kl_residual`` means the code
    cannot correct this error set, and is an error.
    """
    c, residual = kl_scan(code)
    if residual > DEFAULT_POLICY.kl_residual:
        raise ValueError("error-correcting condition fails with residual %g"
                         % residual)
    return c


def hamming_bound(n: int, k: int, m: int) -> dict:
    """Check 2^k 4^m <= 2^n, i.e. k + 2m <= n; perfect iff equality."""
    if n < 0 or k < 0 or m < 0:
        raise ValueError("arguments must be nonnegative")
    return {"satisfied": k + 2 * m <= n, "perfect": k + 2 * m == n}


def syndrome_projector(code: StabilizerCode, syndrome: Syndrome) -> np.ndarray:
    """Projector onto the error space of the given syndrome: F_x Pi F_x†."""
    syn = tuple(int(b) for b in syndrome)
    if syn not in code.syndrome_index:
        raise ValueError("syndrome %s not in table" % (syn,))
    word = code.error_basis.elements[code.syndrome_index[syn]]
    w = apply_pauli(word, np.column_stack(code.logical_basis))
    return w @ w.conj().T


def builtin_code(name: str) -> StabilizerCode:
    """Built-in codes, given by their generators: "code3" ([[3,1]], one
    noisy qubit) and "code5" ([[5,1]], two noisy qubits). Each name is
    built once per process, and every call returns that one code."""
    key = name.strip().lower()
    if key not in _BUILTIN_CODES:
        raise ValueError("unknown code name %r; known names: %s"
                         % (name, ", ".join(_BUILTIN_CODES)))
    return _build_builtin(key)


@functools.cache
def _build_builtin(key: str) -> StabilizerCode:
    generators, noisy_coords, logical_ops = _BUILTIN_CODES[key]
    return build_code(generators, noisy_coords, logical_ops=logical_ops)


def code_to_json(code: StabilizerCode) -> dict:
    """Schema: {"n", "k", "generators", "noisy_coords"}, then the
    "codewords" of a code given by them, or else the "logical_ops"
    {"X", "Z"} of a code that has them; no 2^n vector is formed for a
    code given by its generators."""
    doc = {
        "n": code.n,
        "k": code.k,
        "generators": [pauli_to_string(g) for g in code.generators],
        "noisy_coords": list(code.noisy_coords),
    }
    if code.codewords is not None:
        words = np.array(code.codewords)
        doc["codewords"] = np.stack((words.real, words.imag), -1).tolist()
    elif code.logical_ops is not None:
        doc["logical_ops"] = dict(zip("XZ", map(pauli_to_string, code.logical_ops)))
    return doc


def code_from_json(doc: dict) -> StabilizerCode:
    """Build a code from its JSON form.

    Codewords take precedence; otherwise optional logical_ops
    {"X": ..., "Z": ...} fix the derived basis.
    """
    generators = _json_object(doc)["generators"]
    # a string would iterate its letters, and an object its keys
    if not isinstance(generators, (list, tuple)):
        raise TypeError('"generators" must be a list, got %r' % (generators,))
    codewords = None
    if "codewords" in doc and doc["codewords"] is not None:
        codewords = [np.array([complex_from_pair(a) for a in vec])
                     for vec in doc["codewords"]]
    ops = doc.get("logical_ops")
    return build_code(generators, doc["noisy_coords"], codewords=codewords,
                      logical_ops=ops if ops is None else _json_object(ops, "logical_ops"))
