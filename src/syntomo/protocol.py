"""Channel characterization from syndrome statistics.

The procedure encodes an arbitrary logical state, lets the unknown
channel act on the noisy coordinates, optionally applies a
pre-processing unitary, and measures the stabilizer generators. Each
measurement configuration turns syndrome probabilities into linear
readouts of process-matrix entries:

* bare: the syndrome of error x occurs with probability chi_{x,x};
* rotated by U = (F_a + F_b)/sqrt(2) (anticommuting pair) or
  U = (F_a + i F_b)/sqrt(2) (commuting pair): the syndrome of x gives
  (chi_{A,A} + chi_{B,B})/2 plus the real respectively imaginary part
  of g_A* g_B chi_{A,B}, where g_A F_A = F_a F_x and g_B F_B = F_b F_x;
* toggled: the same readout applied to chi' = S chi S† with
  S = diag(e^{i theta_m}), theta_m = +-pi/4, which swaps the exposed
  real and imaginary parts for index pairs of opposite sign.

The default planner uses (a, b) = (I, P) for every non-identity basis
element P. Identity commutes with everything, so one uniform unitary
form applies, and x -> index(P F_x) is a fixed-point-free pairing whose
two-coloring (+pi/4 to the smaller index of each pair) satisfies the
equal-sign requirement. One bare configuration plus a rotated and a
toggled configuration per P meets the 1 + 2(d^2 - 1) bound, and every
off-diagonal entry is determined twice over for cross-checking.

Simulation never leaves the syndrome frame F_x|j_L>: a configuration
acts there as a d^2 x d^2 map on error indices (F_a F_x = g F_{a.x},
and the toggle is a diagonal phase), so no 2^n operator is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, ProcessMatrix
from .codes import StabilizerCode
from .numeric import DEFAULT_POLICY, NumericPolicy
from .pauli import commutes, to_matrix

# sampled-mode overflow bin for trace-decreasing channels
NO_DETECTION = "no-detection"

_MINUS = "−"

# i^e for a product phase exponent e
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])

# (c, s) with Re(i^e z) = c Re z + s Im z, indexed by e mod 4
_RE_IM = ((1, 0), (0, -1), (-1, 0), (0, 1))


@dataclass(frozen=True, eq=False)
class Configuration:
    """One measurement setup: pre-processing followed by syndrome readout.

    ``theta_signs`` maps error index m to the sign of theta_m = +-pi/4.
    ``action`` is the pre-processing U in frame coordinates (None when
    bare): the d^2 x d^2 matrix M with U F_x|j_L> = sum_y M[y, x] F_y|j_L>.
    """

    index: int
    kind: str  # "bare" | "rotated" | "toggled"
    a: int | None = None
    b: int | None = None
    theta_signs: tuple | None = None
    action: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class LinearReadout:
    """An affine relation between one syndrome probability and chi.

    xi = (chi_{A,A} + chi_{B,B})/2 + c * Re chi_{A,B} + s * Im chi_{A,B}
    with A = a_index <= b_index = B, c = coeff_re, s = coeff_im. Bare
    readouts carry A = B and zero coefficients: xi = chi_{A,A}.
    """

    config_index: int
    syndrome: tuple
    a_index: int
    b_index: int
    coeff_re: int
    coeff_im: int


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Syndrome distribution observed under one configuration.

    Exact mode stores probabilities (``shots`` is None); sampled mode
    stores counts. The distribution may carry a no-detection bin when
    the channel is trace decreasing.
    """

    config_index: int
    distribution: dict
    shots: int | None = None

    @property
    def exact(self) -> bool:
        return self.shots is None

    def value(self, syndrome) -> float:
        """Probability estimate for one syndrome."""
        raw = self.distribution.get(syndrome, 0.0)
        if self.shots is None:
            return float(raw)
        return float(raw) / float(self.shots)


def encode(code: StabilizerCode, beta, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Encoded logical state sum_j beta_j |j_L>."""
    beta = np.asarray(beta, dtype=complex)
    if beta.shape != (1 << code.k,):
        raise ValueError("expected %d logical amplitudes, got shape %s"
                         % (1 << code.k, beta.shape))
    if not abs(np.linalg.norm(beta) - 1.0) <= policy.algebraic:  # NaN fails
        raise ValueError("logical amplitudes are not normalized")
    out = np.zeros(1 << code.n, dtype=complex)
    for amp, vec in zip(beta, code.logical_basis):
        out = out + amp * vec
    return out


def rotation_unitary(code: StabilizerCode, a: int, b: int) -> np.ndarray:
    """Pre-processing unitary for an error pair.

    (F_a + F_b)/sqrt(2) when the pair anticommutes, else
    (F_a + i F_b)/sqrt(2); only these combinations are unitary.
    """
    if a == b:
        raise ValueError("rotation needs two distinct error indices")
    basis = code.error_basis
    fa = to_matrix(basis.elements[a])
    fb = to_matrix(basis.elements[b])
    if commutes(basis.elements[a], basis.elements[b]):
        u = (fa + 1j * fb) / np.sqrt(2.0)
    else:
        u = (fa + fb) / np.sqrt(2.0)
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > 1e-12:
        raise ValueError("rotation for pair (%s, %s) failed the unitarity check"
                         % (basis.label(a), basis.label(b)))
    return u


def _rotation_action(basis, a: int, b: int) -> np.ndarray:
    """Frame map of the planner rotation (F_a + c F_b)/sqrt(2).

    M[a.x, x] = g_a/sqrt(2) and M[b.x, x] = c g_b/sqrt(2), where
    F_a F_x = g_a F_{a.x} and c is i for a commuting pair, else 1.
    """
    if a == b:
        raise ValueError("rotation needs two distinct error indices")
    c = 1j if basis.product_phase[a, b] == basis.product_phase[b, a] else 1.0
    cols = np.arange(basis.size)
    m = np.zeros((basis.size, basis.size), dtype=complex)
    m[basis.product_index[a], cols] = _I_POWERS[basis.product_phase[a]]
    m[basis.product_index[b], cols] = c * _I_POWERS[basis.product_phase[b]]
    m /= np.sqrt(2.0)
    if np.abs(m.conj().T @ m - np.eye(basis.size)).max() > 1e-12:
        raise ValueError("rotation for pair (%s, %s) failed the unitarity check"
                         % (basis.label(a), basis.label(b)))
    return m


def _toggle_phases(d2: int, theta_signs) -> np.ndarray:
    """e^{i theta_m} per error index, after checking the signs."""
    signs = tuple(int(s) for s in theta_signs)
    if len(signs) != d2:
        raise ValueError("expected %d theta signs, got %d" % (d2, len(signs)))
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("theta signs must be +1 or -1")
    if sum(1 for s in signs if s > 0) != d2 // 2:
        raise ValueError("theta must carry both signs in equal number")
    return np.exp(1j * np.array(signs) * np.pi / 4.0)


def _configuration(index: int, kind: str, a=None, b=None, rotation=None,
                   signs=None) -> Configuration:
    """A configuration of either planner; ``rotation`` is the pair's
    frame map and ``signs`` are read only when toggled."""
    if kind in ("bare", "rotated"):
        return Configuration(index=index, kind=kind, a=a, b=b, action=rotation)
    if kind != "toggled":
        raise ValueError("unknown configuration kind %r" % kind)
    phases = _toggle_phases(len(rotation), signs)
    return Configuration(index=index, kind=kind, a=a, b=b,
                         theta_signs=tuple(signs), action=rotation * phases)


def build_toggle(code: StabilizerCode, theta_signs) -> np.ndarray:
    """Toggling operator S+ = sum_m e^{i theta_m} Pi_m plus identity
    on the complement of the error ball.

    ``theta_signs`` assigns each error index the sign of theta_m =
    +-pi/4 and must carry both signs in equal number. Every correctable
    pure state F_m |Psi_L> is an eigenstate with eigenvalue
    e^{i theta_m}, so the syndrome statistics transform as
    chi -> S chi S†.
    """
    phases = _toggle_phases(code.d2, theta_signs)
    # W diag(e^{i theta} - 1) W† + I: identity outside the error ball
    shift = np.repeat(phases - 1.0, 1 << code.k)
    return (code.frame * shift) @ code.frame.conj().T + np.eye(1 << code.n)


def _readout(basis, cfg: Configuration, x: int) -> tuple:
    """The readout rule: (A, B, c, s), A <= B, such that the syndrome of
    x has probability (chi_AA + chi_BB)/2 + c Re chi_AB + s Im chi_AB.
    With F_a F_x = i^{e_a} F_A and F_b F_x = i^{e_b} F_B the cross term
    is Re(i^e chi_AB) for e = e_b - e_a, plus (s_A - s_B)/2 when toggled,
    minus 1 for a commuting pair; A > B folds via chi_BA = chi_AB*."""
    if cfg.kind == "bare":
        return x, x, 0, 0
    idx, phase, a, b = basis.product_index, basis.product_phase, cfg.a, cfg.b
    big_a, big_b = idx.item(a, x), idx.item(b, x)
    e = phase.item(b, x) - phase.item(a, x)
    if cfg.kind == "toggled":
        e += (cfg.theta_signs[big_a] - cfg.theta_signs[big_b]) // 2
    if phase.item(a, b) == phase.item(b, a):
        e -= 1
    c, s = _RE_IM[e % 4]
    return (big_a, big_b, c, s) if big_a < big_b else (big_b, big_a, c, -s)


def xi_predicted(chi: ProcessMatrix, cfg: Configuration, x: int) -> float:
    """Closed-form syndrome probability for error index x under cfg."""
    a, b, c, s = _readout(chi.basis, cfg, x)
    ent = chi.entries
    z = ent[a, b]
    return (0.5 * float((ent[a, a] + ent[b, b]).real)
            + (c * float(z.real) + s * float(z.imag)))


def simulate(code: StabilizerCode, beta, channel: Channel, configs,
             policy: NumericPolicy = DEFAULT_POLICY) -> list:
    """Exact syndrome distributions of configurations under one channel.

    Encodes, applies each Kraus operator E_r to the state vector on the
    noisy coordinates and expands every branch E_r|psi> in the syndrome
    frame W, once: row x of the d^2 x (2^k K) coefficient block holds
    the amplitudes on F_x|j_L> for all j and r. Each configuration's
    frame map acts on that block; the squared norm of row x is the
    probability of the syndrome of x, and the probabilities sum to the
    output trace. Branches stay in the frame's span, also for
    non-perfect codes (a norm check guards that). A channel on fewer
    qubits than the noisy subsystem acts on its leading ones.
    """
    if channel.p > len(code.noisy_coords):
        raise ValueError("channel acts on %d qubits but the code's noisy "
                         "subsystem has %d" % (channel.p, len(code.noisy_coords)))
    psi = encode(code, beta, policy)
    total = sum(e.conj().T @ e for e in channel.kraus)
    if np.linalg.eigvalsh(total).max() > 1.0 + policy.algebraic:
        raise ValueError("Kraus completeness sum exceeds identity")
    p = channel.p
    coords = code.noisy_coords[:p]
    # Kraus axes: (r, outputs in coords order, inputs in coords order)
    ops = np.stack(channel.kraus).reshape((-1,) + (2,) * (2 * p))
    branches = np.tensordot(ops, psi.reshape((2,) * code.n),
                            axes=(tuple(range(p + 1, 2 * p + 1)), coords))
    branches = np.moveaxis(branches, tuple(range(1, p + 1)),
                           tuple(c + 1 for c in coords))
    branches = branches.reshape(len(channel.kraus), -1)
    coeffs = code.frame.conj().T @ branches.T
    defect = abs(np.vdot(branches, branches).real - np.vdot(coeffs, coeffs).real)
    if not defect <= policy.algebraic:
        raise ValueError("channel output leaves the syndrome frame "
                         "(norm defect %g)" % defect)
    block = coeffs.reshape(code.d2, -1)
    records = []
    for cfg in configs:
        out = block if cfg.action is None else cfg.action @ block
        probs = np.einsum("ij,ij->i", out.conj(), out).real
        records.append(MeasurementRecord(
            config_index=cfg.index, shots=None,
            distribution=dict(zip(code.syndrome_table, probs.tolist()))))
    return records


def xi_simulated(code: StabilizerCode, beta, channel: Channel, cfg: Configuration,
                 policy: NumericPolicy = DEFAULT_POLICY) -> MeasurementRecord:
    """Exact syndrome distribution of one configuration (see simulate)."""
    return simulate(code, beta, channel, [cfg], policy)[0]


def plan_configurations(code: StabilizerCode):
    """Measurement plan determining every process-matrix entry.

    Returns (configurations, readouts): one bare configuration, then a
    rotated and a toggled configuration for each non-identity basis
    element P with (a, b) = (I, P), totalling 1 + 2(d^2 - 1). The
    toggle signs two-color the pairing x <-> index(P F_x) by giving
    +pi/4 to the smaller index of each pair.
    """
    basis = code.error_basis
    configs = [_configuration(0, "bare")]
    for p in range(1, basis.size):
        m = _rotation_action(basis, 0, p)
        signs = [1 if x < y else -1 for x, y in enumerate(basis.product_index[p])]
        for kind in ("rotated", "toggled"):
            configs.append(_configuration(len(configs), kind, 0, p, m, signs))
    return configs, derive_readouts(code, configs)


def derive_readouts(code: StabilizerCode, configs) -> list:
    """Linear readouts of every configuration, normalized to row <= col
    by the readout rule (``_readout``)."""
    basis = code.error_basis
    return [LinearReadout(cfg.index, syn, *_readout(basis, cfg, x))
            for cfg in configs for x, syn in enumerate(code.syndrome_table)]


def reconstruct(records, readouts, basis,
                policy: NumericPolicy = DEFAULT_POLICY) -> ProcessMatrix:
    """Assemble the process matrix from measurement records.

    The diagonal comes straight from the bare readouts. Each
    off-diagonal readout is reduced to c*Re + s*Im of one upper-triangle
    entry by subtracting the diagonal half-sum; the redundant estimates
    are averaged, and in exact mode additionally cross-checked against
    each other within the policy tolerance.
    """
    by_config = {rec.config_index: rec for rec in records}
    missing = sorted({ro.config_index for ro in readouts} - set(by_config))
    if missing:
        raise ValueError("missing records for configurations %s" % missing)
    exact = all(rec.exact for rec in by_config.values())

    d2 = basis.size
    diag = np.zeros(d2)
    for ro in readouts:
        if ro.a_index == ro.b_index:
            diag[ro.a_index] = by_config[ro.config_index].value(ro.syndrome)

    estimates = {}
    for ro in readouts:
        if ro.a_index == ro.b_index:
            continue
        value = by_config[ro.config_index].value(ro.syndrome)
        value -= 0.5 * (diag[ro.a_index] + diag[ro.b_index])
        slot = estimates.setdefault((ro.a_index, ro.b_index), ([], []))
        if ro.coeff_re != 0:
            slot[0].append(value / ro.coeff_re)
        elif ro.coeff_im != 0:
            slot[1].append(value / ro.coeff_im)

    chi = np.zeros((d2, d2), dtype=complex)
    chi[np.diag_indices(d2)] = diag
    for a in range(d2):
        for b in range(a + 1, d2):
            parts = []
            for vals in estimates.get((a, b), ([], [])):
                if not vals:
                    raise ValueError("entry (%s, %s) lacks a real or imaginary "
                                     "readout" % (basis.label(a), basis.label(b)))
                if exact and max(vals) - min(vals) > policy.readout_consistency:
                    raise ValueError(
                        "inconsistent redundant readouts for entry "
                        "(%s, %s): spread %g"
                        % (basis.label(a), basis.label(b), max(vals) - min(vals)))
                # seeding the sum with the first value keeps a lone -0.0
                parts.append(sum(vals[1:], vals[0]) / len(vals))
            chi[a, b] = complex(*parts)
            chi[b, a] = chi[a, b].conjugate()
    return ProcessMatrix(chi, basis)


def recover(state: np.ndarray, code: StabilizerCode, syndrome) -> np.ndarray:
    """Undo the error identified by a syndrome.

    Applies the table's error operator (Hermitian, hence its own
    inverse) to a state vector or a density matrix. A collapsed state
    F_x |Psi_L> returns to |Psi_L> up to global phase, also when the
    collapse followed a planner rotation, since rotations map
    correctable states to correctable states.
    """
    syn = tuple(int(b) for b in syndrome)
    if syn not in code.syndrome_index:
        raise ValueError("syndrome %s not in table" % (syn,))
    f = to_matrix(code.error_basis.elements[code.syndrome_index[syn]])
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return f @ state
    if state.ndim == 2:
        return f @ state @ f.conj().T
    raise ValueError("expected a state vector or a density matrix")


def plan_to_json(code: StabilizerCode, configs) -> dict:
    """Schema: ordered descriptors {"kind", "a", "b", "theta"}."""
    basis = code.error_basis
    out = []
    for cfg in configs:
        if cfg.kind == "bare":
            out.append({"kind": "bare"})
            continue
        entry = {"kind": cfg.kind, "a": basis.label(cfg.a), "b": basis.label(cfg.b)}
        if cfg.kind == "toggled":
            entry["theta"] = {basis.label(m): ("+" if s > 0 else _MINUS)
                              for m, s in enumerate(cfg.theta_signs)}
        out.append(entry)
    return {"configurations": out}


def plan_from_json(code: StabilizerCode, doc: dict):
    """Rebuild (configurations, readouts) from the JSON descriptors."""
    basis = code.error_basis
    configs = []
    for entry in doc["configurations"]:
        kind = entry["kind"]
        if kind == "bare":
            configs.append(_configuration(len(configs), kind))
            continue
        a = basis.index_of_label(entry["a"])
        b = basis.index_of_label(entry["b"])
        m = _rotation_action(basis, a, b)
        signs = None
        if kind == "toggled":
            signs = [0] * code.d2
            for label, sign in entry["theta"].items():
                if sign not in ("+", "-", _MINUS):
                    raise ValueError("bad theta sign %r" % sign)
                signs[basis.index_of_label(label)] = 1 if sign == "+" else -1
            if any(s == 0 for s in signs):
                raise ValueError("theta map does not cover the error basis")
        configs.append(_configuration(len(configs), kind, a, b, m, signs))
    return configs, derive_readouts(code, configs)
