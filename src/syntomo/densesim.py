"""Dense linear algebra for states, density matrices and channels.

States are plain complex vectors of length 2^n and operators are
2^n x 2^n arrays; qubit 0 is the most significant tensor factor. All
functions are pure and operate at desk scale only. This is the
independent oracle the tests check the frame pipeline against; no
pipeline module imports it.
"""

from __future__ import annotations

import numpy as np

from .numeric import DEFAULT_POLICY


def _qubit_count(dim: int, what: str) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError("%s dimension %d is not a power of two" % (what, dim))
    return n


def outer(v: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |v><v|."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def projector_from_states(states) -> np.ndarray:
    """Projector onto the span of mutually orthonormal states."""
    vecs = [np.asarray(s, dtype=complex) for s in states]
    if not vecs:
        raise ValueError("no states given")
    stack = np.column_stack(vecs)
    gram = stack.conj().T @ stack
    if np.abs(gram - np.eye(len(vecs))).max() > DEFAULT_POLICY.orthonormality:
        raise ValueError("states are not orthonormal")
    return stack @ stack.conj().T


def apply_unitary(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Conjugate a density matrix: U rho U†."""
    u = np.asarray(u, dtype=complex)
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > DEFAULT_POLICY.algebraic:
        raise ValueError("operator is not unitary")
    return u @ rho @ u.conj().T


def embed_operator(op: np.ndarray, coords, n_total: int) -> np.ndarray:
    """Embed an operator on the listed qubits, identity elsewhere.

    The operator's own qubit order follows the coords list order.
    """
    op = np.asarray(op, dtype=complex)
    coords = list(coords)
    p = _qubit_count(op.shape[0], "operator")
    if p != len(coords):
        raise ValueError("operator acts on %d qubits, got %d coords" % (p, len(coords)))
    rest = [q for q in range(n_total) if q not in coords]
    if len(coords) != len(set(coords)) or len(rest) + len(coords) != n_total:
        raise ValueError("bad coordinate list %s" % coords)
    big = np.kron(op, np.eye(1 << len(rest), dtype=complex))
    # big's bit slot k (most significant first) belongs to qubit order[k];
    # permute computational-basis indices so slot q belongs to qubit q
    order = coords + rest
    idx = np.arange(1 << n_total)
    src = np.zeros_like(idx)
    for slot, q in enumerate(order):
        bit = (idx >> (n_total - 1 - q)) & 1
        src |= bit << (n_total - 1 - slot)
    return big[np.ix_(src, src)]


def apply_channel(rho: np.ndarray, kraus, coords) -> np.ndarray:
    """Apply a Kraus-operator channel on the listed qubits.

    Computes sum_j (E_j (x) I) rho (E_j (x) I)† with each operator
    embedded on ``coords``. The Kraus set must satisfy
    sum_j E_j† E_j <= I, so trace-decreasing channels are allowed.
    """
    rho = np.asarray(rho, dtype=complex)
    n = _qubit_count(rho.shape[0], "density matrix")
    ops = [np.asarray(e, dtype=complex) for e in kraus]
    if not ops:
        raise ValueError("empty Kraus list")
    dim = 1 << len(list(coords))
    for e in ops:
        if e.shape != (dim, dim):
            raise ValueError("Kraus operator shape %s does not match %d coords"
                             % (e.shape, len(list(coords))))
    total = sum(e.conj().T @ e for e in ops)
    if np.linalg.eigvalsh(total).max() > 1.0 + DEFAULT_POLICY.algebraic:
        raise ValueError("Kraus completeness sum exceeds identity")
    out = np.zeros_like(rho)
    for e in ops:
        full = embed_operator(e, coords, n)
        out += full @ rho @ full.conj().T
    return out


def expectation(rho: np.ndarray, m: np.ndarray) -> float:
    """Tr(rho M), returned as a real number."""
    rho = np.asarray(rho)
    m = np.asarray(m)
    if rho.shape != m.shape:
        raise ValueError("shape mismatch %s vs %s" % (rho.shape, m.shape))
    return float(np.trace(rho @ m).real)
