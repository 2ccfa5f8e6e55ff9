"""Dense linear algebra on density matrices: unitaries, channels and
expectation values.

Operators are 2^n x 2^n arrays; qubit 0 is the most significant tensor
factor. All functions are pure and operate at desk scale only. No
pipeline module imports this module, and the tests check the pipeline
against their own register oracle (``tests/oracle.py``); the benchmark
harness still traces these functions (``perfbench/tracing.py``).
"""

from __future__ import annotations

import numpy as np

from .numeric import DEFAULT_POLICY


def _qubit_count(dim: int, what: str) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError("%s dimension %d is not a power of two" % (what, dim))
    return n


def apply_unitary(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Conjugate a density matrix: U rho U†."""
    u = np.asarray(u, dtype=complex)
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > DEFAULT_POLICY.algebraic:
        raise ValueError("operator is not unitary")
    return u @ rho @ u.conj().T


def _embed_operator(op: np.ndarray, coords: list, n_total: int) -> np.ndarray:
    """``op`` on the listed qubits, its first tensor factor on coords[0],
    and the identity on the other qubits of an n_total-qubit register."""
    rest = [q for q in range(n_total) if q not in coords]
    if len(coords) != len(set(coords)) or len(rest) + len(coords) != n_total:
        raise ValueError("bad coordinate list %s" % coords)
    big = np.kron(op, np.eye(1 << len(rest))).reshape((2,) * (2 * n_total))
    # row axis k of big belongs to qubit (coords + rest)[k]
    axes = np.argsort(coords + rest).tolist()
    return big.transpose(axes + [n_total + a for a in axes]).reshape(1 << n_total, -1)


def apply_channel(rho: np.ndarray, kraus, coords) -> np.ndarray:
    """Apply a Kraus-operator channel on the listed qubits.

    Computes sum_j (E_j (x) I) rho (E_j (x) I)† with each operator
    embedded on ``coords``. The Kraus set must satisfy
    sum_j E_j† E_j <= I, so trace-decreasing channels are allowed.
    """
    rho = np.asarray(rho, dtype=complex)
    n = _qubit_count(rho.shape[0], "density matrix")
    coords = list(coords)
    ops = [np.asarray(e, dtype=complex) for e in kraus]
    if not ops:
        raise ValueError("empty Kraus list")
    dim = 1 << len(coords)
    for e in ops:
        if e.shape != (dim, dim):
            raise ValueError("Kraus operator shape %s does not match %d coords"
                             % (e.shape, len(coords)))
    total = sum(e.conj().T @ e for e in ops)
    if np.linalg.eigvalsh(total).max() > 1.0 + DEFAULT_POLICY.algebraic:
        raise ValueError("Kraus completeness sum exceeds identity")
    out = np.zeros_like(rho)
    for e in ops:
        full = _embed_operator(e, coords, n)
        out += full @ rho @ full.conj().T
    return out


def expectation(rho: np.ndarray, m: np.ndarray) -> float:
    """Tr(rho M), returned as a real number."""
    rho = np.asarray(rho)
    m = np.asarray(m)
    if rho.shape != m.shape:
        raise ValueError("shape mismatch %s vs %s" % (rho.shape, m.shape))
    return float(np.trace(rho @ m).real)
