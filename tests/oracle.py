"""An independent register oracle for syndrome statistics.

Everything here is built from a code's definition (generator strings,
noisy coordinates, optional logical-operator strings), from plan JSON
as ``plan_to_json`` writes it and from Kraus operators, with numpy
alone. It imports nothing from the package, so it shares no syndrome
table, logical basis, error basis or product table with the code it
checks: dense words come from the 2 x 2 letter matrices and ``np.kron``
(qubit 0 the most significant factor), syndrome projectors straight
from the generators, and a word's syndrome from whether it commutes
with each dense generator.

``random_code`` draws seeded H, S and CNOT images of the trivial
[[n, 1]] code in tableau form, so the oracle's checks reach codes that
nobody wrote down.
"""

import itertools

import numpy as np

LETTERS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# the typographic minus sign is read as "-"
SIGNS = {"+": 1, "-": -1, "−": -1}


def word(text):
    """A Pauli string such as ``"-XZI"`` or ``"iY"`` as a dense matrix."""
    text = text.strip()
    phase = 1
    if text[:1] in SIGNS:
        phase, text = SIGNS[text[0]], text[1:]
    if text[:1] == "i":
        phase, text = phase * 1j, text[1:]
    out = np.ones((1, 1), dtype=complex)
    for letter in text:
        out = np.kron(out, LETTERS[letter])
    return phase * out


def embed(op, coords, n):
    """``op`` on the listed qubits, its first tensor factor on coords[0],
    and the identity on the other qubits of an n-qubit register."""
    coords = list(coords)
    rest = [q for q in range(n) if q not in coords]
    full = np.kron(op, np.eye(1 << len(rest))).reshape((2,) * (2 * n))
    # row axis k of full belongs to qubit (coords + rest)[k]
    axes = np.argsort(coords + rest).tolist()
    return full.transpose(axes + [n + a for a in axes]).reshape(1 << n, 1 << n)


def commute(a, b):
    """Whether two dense Pauli words commute; their entries are 0, +-1
    and +-i, so both products are exact."""
    return np.array_equal(a @ b, b @ a)


class Register:
    """A code's register, from ``generators`` (Pauli strings),
    ``noisy_coords`` and optional ``logical_ops`` {"X": X_L, "Z": Z_L}.

    ``logical`` holds the logical basis as columns: |0_L> from projecting
    with (I + Z_L)/2 and |1_L> = X_L|0_L> with logical operators, else an
    orthonormal basis of the code space from ``np.linalg.eigh``.
    """

    def __init__(self, generators, noisy_coords, logical_ops=None):
        self.generators = [word(g) for g in generators]
        self.dim = len(self.generators[0])
        self.n = self.dim.bit_length() - 1
        self.coords = tuple(noisy_coords)
        self._projectors, self._syndromes, self._frames = {}, {}, {}
        code_space = self.projector((0,) * len(self.generators))
        if logical_ops is None:
            values, vectors = np.linalg.eigh(code_space)
            self.logical = vectors[:, values > 0.5]
        else:
            x_l, z_l = word(logical_ops["X"]), word(logical_ops["Z"])
            zero_space = code_space @ (np.eye(self.dim) + z_l) / 2
            column = zero_space[:, np.argmax(np.linalg.norm(zero_space, axis=0))]
            zero = column / np.linalg.norm(column)
            self.logical = np.column_stack((zero, x_l @ zero))

    def projector(self, syndrome):
        """Pi_s = prod_g (I + (-1)^{s_g} G)/2 for the syndrome bits s."""
        syndrome = tuple(syndrome)
        if syndrome not in self._projectors:
            eye = np.eye(self.dim)
            proj = eye
            for bit, g in zip(syndrome, self.generators, strict=True):
                proj = proj @ (eye + (-1) ** bit * g) / 2
            self._projectors[syndrome] = proj
        return self._projectors[syndrome]

    def error(self, label):
        """The error word of a label, letter j on noisy coordinate j."""
        letters = ["I"] * self.n
        for q, letter in zip(self.coords, label, strict=True):
            letters[q] = letter
        return word("".join(letters))

    @property
    def labels(self):
        """Every error label on the noisy coordinates."""
        return ["".join(t) for t in itertools.product("IXYZ", repeat=len(self.coords))]

    def syndrome(self, label):
        """Bit g is 1 when the error anticommutes with generator g."""
        if label not in self._syndromes:
            e = self.error(label)
            self._syndromes[label] = tuple(int(not commute(e, g)) for g in self.generators)
        return self._syndromes[label]

    def encode(self, beta):
        """sum_j beta_j |j_L>."""
        return self.logical @ np.asarray(beta, dtype=complex)

    def frame(self, labels):
        """Column x 2^k + j is F_x|j_L>, x in the order of ``labels``."""
        labels = tuple(labels)
        if labels not in self._frames:
            self._frames[labels] = np.hstack([self.error(label) @ self.logical
                                              for label in labels])
        return self._frames[labels]

    def branches(self, psi, kraus):
        """E_r|psi> as columns, each operator on the first of the noisy
        coordinates in their listed order."""
        kraus = [np.asarray(e) for e in kraus]
        coords = self.coords[:len(kraus[0]).bit_length() - 1]
        return np.column_stack([embed(e, coords, self.n) @ psi for e in kraus])

    def state(self, beta, kraus):
        """rho = sum_r E_r|psi><psi|E_r†, psi the encoded beta."""
        branches = self.branches(self.encode(beta), kraus)
        return branches @ branches.conj().T

    def rotation(self, a, b):
        """(F_a + c F_b)/sqrt(2), c = i for a commuting pair, else 1."""
        fa, fb = self.error(a), self.error(b)
        return (fa + (1j if commute(fa, fb) else 1) * fb) / np.sqrt(2)

    def toggle(self, theta):
        """sum_m e^{i theta_m} Pi_{s(m)}, theta_m = +-pi/4 by the signs
        {label: "+" or "-"}, plus the identity on every other syndrome."""
        out = np.eye(self.dim, dtype=complex)
        for label, sign in theta.items():
            proj = self.projector(self.syndrome(label))
            out += (np.exp(1j * SIGNS[sign] * np.pi / 4) - 1) * proj
        return out

    def unitary(self, entry):
        """A plan descriptor's pre-processing: rotation · toggle."""
        if entry["kind"] == "bare":
            return np.eye(self.dim)
        u = self.rotation(entry["a"], entry["b"])
        if entry["kind"] == "toggled":
            u = u @ self.toggle(entry["theta"])
        return u

    def records(self, plan, kraus, beta):
        """({syndrome: Tr(Pi_s U rho U†)} per configuration of the plan
        JSON, the channel's output trace), rho the encoded state after
        the channel, over the syndromes of the errors on the noisy
        coordinates."""
        rho = self.state(beta, kraus)
        syndromes = sorted({self.syndrome(label) for label in self.labels})
        out = []
        for entry in plan["configurations"]:
            u = self.unitary(entry)
            sigma = u @ rho @ u.conj().T
            # Tr(Pi sigma) = sum_ij conj(Pi_ji) sigma_ji for Hermitian Pi
            out.append({s: np.vdot(self.projector(s), sigma).real for s in syndromes})
        return out, float(np.trace(rho).real)


def _circuit(seed):
    """(n, gates, noisy coordinates) that ``random_code(seed)`` draws: n in
    3..6, 4 n^2 gates (kind, a, b), kind 0 for H and 1 for S on qubit a
    and 2 for CNOT a -> b, and one or two noisy qubits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    p = int(rng.integers(1, 3))
    gates = [(int(rng.integers(3)), *(int(q) for q in rng.choice(n, size=2, replace=False)))
             for _ in range(4 * n * n)]
    return n, gates, tuple(int(q) for q in rng.choice(n, size=p, replace=False))


def random_code(seed):
    """(generators, noisy_coords, logical_ops) of a seeded Clifford image
    of the trivial [[n, 1]] code: generators Z_1 ... Z_{n-1}, X_L = X_0
    and Z_L = Z_0, each mapped by the H, S and CNOT gates of
    ``_circuit(seed)``.

    The strings are tracked as a tableau of X bits, Z bits and a sign
    (Aaronson & Gottesman, PRA 70, 052328 (2004)), (1, 1) being Y."""
    n, gates, coords = _circuit(seed)
    x = np.zeros((n + 1, n), dtype=bool)
    z = np.zeros((n + 1, n), dtype=bool)
    r = np.zeros(n + 1, dtype=bool)
    z[np.arange(n - 1), np.arange(1, n)] = True
    x[n - 1, 0] = z[n, 0] = True
    for kind, a, b in gates:
        if kind == 0:  # H
            r ^= x[:, a] & z[:, a]
            x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
        elif kind == 1:  # S
            r ^= x[:, a] & z[:, a]
            z[:, a] ^= x[:, a]
        else:  # CNOT
            r ^= x[:, a] & z[:, b] & ~(x[:, b] ^ z[:, a])
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]
    strings = ["-+"[not sign] + "".join("IZXY"[2 * u + v] for u, v in zip(xs, zs))
               for sign, xs, zs in zip(r, x, z)]
    return strings[:n - 1], coords, {"X": strings[n - 1], "Z": strings[n]}


def clifford_images(seed):
    """U P U† for the starting strings P of ``random_code(seed)``, U the
    dense circuit of ``_circuit(seed)``: a cross-check of the tableau."""
    n, gates, _ = _circuit(seed)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.diag([1, 1j])
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    u = np.eye(1 << n, dtype=complex)
    for kind, a, b in gates:
        u = (embed(cnot, (a, b), n) if kind == 2 else embed((h, s)[kind], (a,), n)) @ u
    start = ["I" * q + "Z" + "I" * (n - q - 1) for q in range(1, n)]
    start += ["X" + "I" * (n - 1), "Z" + "I" * (n - 1)]
    return [u @ word(text) @ u.conj().T for text in start]
