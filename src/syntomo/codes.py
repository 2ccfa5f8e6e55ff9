"""Stabilizer codes that correct arbitrary errors on known coordinates.

A code is specified by commuting generators, the noisy coordinate
subset and a logical basis. Every error-basis element must map the
code space to a distinct syndrome space, so that one round of syndrome
measurement identifies the error exactly. The builder stores the
syndrome frame, whose columns F_x|j_L> span the error spaces, and
rejects the code unless the frame is orthonormal: with distinct
syndromes that is the error-correcting condition with C = I. Pauli
words act on vectors as signed permutations (``apply_pauli``), and a
logical basis that is not given is derived by applying the generator
projectors to a fixed 2^n x 2^k block, so no 2^n x 2^n matrix is
formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numeric import DEFAULT_POLICY
from .pauli import (
    MATRIX_QUBIT_CAP,
    ErrorBasis,
    PauliOperator,
    apply_pauli,
    commutes,
    enumerate_error_basis,
    pauli_from_string,
    pauli_to_string,
)

Syndrome = tuple

_FIVE_QUBIT_GENERATORS = ("IZZZZ", "XXXII", "ZXZIX", "ZZXXI")
_THREE_QUBIT_GENERATORS = ("XIX", "YYZ")


@dataclass(frozen=True, eq=False)
class StabilizerCode:
    """[[n, k]] stabilizer code with a group-closed correctable error set."""

    n: int
    k: int
    generators: tuple
    logical_basis: tuple
    noisy_coords: tuple
    error_basis: ErrorBasis
    syndrome_table: tuple
    syndrome_index: dict = field(repr=False, compare=False)
    # column x * 2^k + j is F_x |j_L>, x in error-basis order
    frame: np.ndarray = field(repr=False, compare=False)

    @property
    def d2(self) -> int:
        """Error-basis size 4^p."""
        return self.error_basis.size

    def error_space(self, x: int) -> np.ndarray:
        """Orthonormal columns F_x |j_L> spanning error x's syndrome space."""
        dim = 1 << self.k
        return self.frame[:, x * dim:(x + 1) * dim]


def _symplectic_rank(generators) -> int:
    """Rank of the generators over GF(2) in (x|z) mask form."""
    rows = [(g.x_mask << g.n) | g.z_mask for g in generators]
    rank = 0
    while True:
        rows = [r for r in rows if r]
        if not rows:
            return rank
        pivot = max(rows)
        rows.remove(pivot)
        bit = 1 << (pivot.bit_length() - 1)
        rows = [r ^ pivot if r & bit else r for r in rows]
        rank += 1


def _syndrome_bits(error: PauliOperator, generators) -> Syndrome:
    return tuple(0 if commutes(error, g) else 1 for g in generators)


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
    rounding. With logical operators supplied, the basis is the Z_L
    eigenvector pair, |1_L> = X_L |0_L>; without them it is the QR
    columns. Each derived vector except |1_L> gets its first amplitude
    above the orthonormality cut made real and positive.
    """
    dim = 1 << generators[0].n
    real, imag = np.random.default_rng(0).standard_normal((2, dim, 1 << k))
    block = real + 1j * imag
    for _ in range(2):
        for g in generators:
            block = (block + apply_pauli(g, block)) / 2.0
        block, r = np.linalg.qr(block)
    rank = int((np.abs(np.diagonal(r)) > DEFAULT_POLICY.orthonormality).sum())
    if rank != (1 << k):
        raise ValueError("code space has dimension %d, expected %d"
                         % (rank, 1 << k))

    if logical_ops is None:
        return tuple(_lead_real(col) for col in block.T)
    if k != 1:
        raise ValueError("logical-operator basis fixing supports k=1 only")
    x_l, z_l = logical_ops
    for op in (x_l, z_l):
        for g in generators:
            if not commutes(op, g):
                raise ValueError("logical operator %s anticommutes with "
                                 "generator %s" % (pauli_to_string(op),
                                                   pauli_to_string(g)))
    if commutes(x_l, z_l):
        raise ValueError("logical operators must anticommute")
    small = apply_pauli(z_l, block).conj().T @ block
    w, v = np.linalg.eigh(small)
    if abs(w[-1] - 1.0) > DEFAULT_POLICY.orthonormality:
        raise ValueError("Z logical operator has no +1 eigenvector "
                         "inside the code space")
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
        Explicit logical basis. When omitted the basis is derived from
        the joint +1 eigenspace by projecting a fixed random block (see
        ``logical_ops``). Given or derived, the basis must be
        orthonormal and stabilized by every generator.
    logical_ops : optional dict {"X": X_L, "Z": Z_L} of PauliOperator or str
        Used only when codewords are omitted, to fix the derived basis
        as Z_L eigenvectors with X_L mapping between them.

    Raises
    ------
    ValueError
        Non-commuting, dependent or non-Hermitian generators, a basis
        that is not orthonormal or not stabilized, a syndrome
        collision, or failure of the error-correcting condition.
    """
    gens = tuple(g if isinstance(g, PauliOperator) else pauli_from_string(g)
                 for g in generators)
    if not gens:
        raise ValueError("no generators given")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ValueError("generators act on different qubit counts")
    if n > MATRIX_QUBIT_CAP:
        raise ValueError("codes are capped at %d qubits, got %d"
                         % (MATRIX_QUBIT_CAP, n))
    for g in gens:
        if not g.is_hermitian:
            raise ValueError("generator %s is not Hermitian" % pauli_to_string(g))
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not commutes(gens[i], gens[j]):
                raise ValueError("generators %s and %s do not commute"
                                 % (pauli_to_string(gens[i]),
                                    pauli_to_string(gens[j])))
    if _symplectic_rank(gens) != len(gens):
        raise ValueError("generators are not independent")
    k = n - len(gens)
    if k < 1:
        raise ValueError("no logical qubits: %d generators on %d qubits"
                         % (len(gens), n))

    if codewords is not None:
        basis_states = tuple(np.asarray(v, dtype=complex) for v in codewords)
        if len(basis_states) != (1 << k):
            raise ValueError("expected %d codewords, got %d"
                             % (1 << k, len(basis_states)))
        for v in basis_states:
            if v.shape != (1 << n,):
                raise ValueError("codeword has shape %s, expected (%d,) for "
                                 "%d qubits" % (v.shape, 1 << n, n))
            if not np.isfinite(v).all():
                raise ValueError("codeword has non-finite amplitudes")
    else:
        ops = None
        if logical_ops is not None:
            ops = tuple(op if isinstance(op, PauliOperator) else pauli_from_string(op, n)
                        for op in (logical_ops["X"], logical_ops["Z"]))
        basis_states = _derive_logical_basis(gens, k, ops)

    logical = np.column_stack(basis_states)
    gap = np.abs(logical.conj().T @ logical - np.eye(1 << k)).max()
    if not gap <= DEFAULT_POLICY.orthonormality:  # NaN fails
        raise ValueError("states are not orthonormal")
    for g in gens:
        if not np.abs(apply_pauli(g, logical) - logical).max() <= DEFAULT_POLICY.algebraic:
            raise ValueError("codeword is not stabilized by %s"
                             % pauli_to_string(g))

    error_basis = enumerate_error_basis(n, noisy_coords)
    table = tuple(_syndrome_bits(e, gens) for e in error_basis.elements)
    index = {}
    for i, syn in enumerate(table):
        if syn in index:
            raise ValueError(
                "syndrome collision: errors %s and %s share syndrome %s"
                % (error_basis.label(index[syn]), error_basis.label(i), syn))
        index[syn] = i

    # with distinct syndromes, an orthonormal frame is the
    # error-correcting condition with C = I
    frame = np.hstack([apply_pauli(e, logical) for e in error_basis.elements])
    residual = float(np.abs(frame.conj().T @ frame
                            - np.eye(frame.shape[1])).max())
    if not residual <= DEFAULT_POLICY.kl_residual:
        raise ValueError("error-correcting condition fails with residual %g"
                         % residual)
    return StabilizerCode(
        n=n, k=k, generators=gens, logical_basis=basis_states,
        noisy_coords=tuple(noisy_coords), error_basis=error_basis,
        syndrome_table=table, syndrome_index=index, frame=frame,
    )


def kl_scan(code: StabilizerCode) -> tuple:
    """Error-correcting-condition matrix and worst residual, unchecked.

    Read off the frame's Gram matrix: with W_a = F_a W_0 the 2^k x 2^k
    block W_a† W_b, C_ab = Tr(W_a† W_b) / 2^k, and residual is the
    largest |W_a† W_b - C_ab I| over all error pairs. Since
    Pi F_a† F_b Pi = W_0 (W_a† W_b) W_0†, the residual is zero exactly
    when Pi F_a† F_b Pi = C_ab Pi for every pair.
    """
    dim = 1 << code.k
    gram = code.frame.conj().T @ code.frame
    blocks = gram.reshape(code.d2, dim, code.d2, dim).transpose(0, 2, 1, 3)
    c = np.trace(blocks, axis1=2, axis2=3) / dim
    residual = float(np.abs(blocks - c[:, :, None, None] * np.eye(dim)).max())
    return c, residual


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
    w = code.error_space(code.syndrome_index[syn])
    return w @ w.conj().T


def builtin_code(name: str) -> StabilizerCode:
    """Built-in codes: "code3" ([[3,1]], one noisy qubit) and
    "code5" ([[5,1]], two noisy qubits)."""
    key = name.strip().lower()
    if key == "code3":
        return build_code(_THREE_QUBIT_GENERATORS, (0,),
                          codewords=_three_qubit_codewords())
    if key == "code5":
        return build_code(_FIVE_QUBIT_GENERATORS, (0, 1),
                          codewords=_five_qubit_codewords())
    raise ValueError("unknown code name %r; known names: code3, code5" % name)


def _ket(bits: str) -> np.ndarray:
    v = np.zeros(1 << len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def _three_qubit_codewords() -> tuple:
    zero = (_ket("001") + _ket("010") + _ket("100") + _ket("111")) / 2.0
    one = (_ket("110") - _ket("101") + _ket("011") - _ket("000")) / 2.0
    return (zero, one)


def _five_qubit_codewords() -> tuple:
    zero = (_ket("00000") + _ket("00110") + _ket("01001") - _ket("01111")
            - _ket("10011") + _ket("10101") + _ket("11010") + _ket("11100"))
    zero = zero / (2.0 * np.sqrt(2.0))
    return (zero, apply_pauli(pauli_from_string("XXXXX"), zero))


def code_to_json(code: StabilizerCode) -> dict:
    """Schema: {"n", "k", "generators", "noisy_coords", "codewords"}."""
    codewords = [[[float(a.real), float(a.imag)] for a in v]
                 for v in code.logical_basis]
    return {
        "n": code.n,
        "k": code.k,
        "generators": [pauli_to_string(g) for g in code.generators],
        "noisy_coords": list(code.noisy_coords),
        "codewords": codewords,
    }


def code_from_json(doc: dict) -> StabilizerCode:
    """Build a code from its JSON form.

    Codewords take precedence; otherwise optional logical_ops
    {"X": ..., "Z": ...} fix the derived basis.
    """
    codewords = None
    if "codewords" in doc and doc["codewords"] is not None:
        codewords = [np.array([complex(a[0], a[1]) for a in vec])
                     for vec in doc["codewords"]]
    return build_code(doc["generators"], doc["noisy_coords"],
                      codewords=codewords, logical_ops=doc.get("logical_ops"))
