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
toggled configuration per P gives 1 + 2(d^2 - 1) configurations, one
more than the paper's bound of 2(d^2 - 1): the bare one is redundant,
since under a non-bare (a, b) the syndromes of x and b.a.x have
probabilities summing to chi_AA + chi_BB, and these sums fix the
diagonal. Every off-diagonal entry is determined twice over for
cross-checking.

Simulation works in the syndrome frame F_x|j_L>: every configuration
acts there as two weighted row maps on error indices, x -> a.x and
x -> b.x with one phase each (F_a F_x = g F_{a.x}, toggle phase
applied; a bare configuration has a = b = I and weights 1 and 0), and
a channel on the whole noisy subsystem as its Pauli coefficients, so
neither a 2^n operator, a 2^n state nor a d^2 x d^2 frame map is
formed. A channel evaluates a plan whole at its first simulation and
keeps the records (``Channel._simulated``); later calls read rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, ProcessMatrix
from .codes import StabilizerCode
from .jsonio import _json_list, _json_object
from .numeric import DEFAULT_POLICY
from .pauli import _MINUS, I_POWERS, _is_integer, apply_pauli, commutes, to_matrix

# sampled-mode overflow bin for trace-decreasing channels
NO_DETECTION = "no-detection"

# rows (c, s) with Re(i^e z) = c Re z + s Im z, columns indexed by e mod 4
_RE_IM = np.array([[1, 0, -1, 0], [0, -1, 0, 1]])
_RE_IM.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Configuration:
    """One measurement setup: pre-processing followed by syndrome readout.

    A configuration is its descriptor. ``theta_signs`` maps error index
    m to the sign of theta_m = +-pi/4. Its pre-processing U is row
    ``index`` of the plan's two weighted row maps, and its readout rule
    row ``index`` of the plan's readout table (``_PlanRows``).
    """

    index: int
    kind: str  # "bare" | "rotated" | "toggled"
    a: int | None = None
    b: int | None = None
    theta_signs: tuple | None = None
    _rows: _PlanRows = field(repr=False, kw_only=True)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Syndrome statistics observed under one configuration.

    ``row`` holds one value per entry of ``syndromes``, in that order,
    read-only: probabilities (float64) in exact mode, where ``shots`` is
    None, and counts (int64) in sampled mode. The records that
    ``simulate`` and ``sample_record`` make share the code's
    ``syndrome_table`` tuple; a trace-decreasing channel's sampled
    records add a last ``NO_DETECTION`` column. ``from_distribution``
    builds a record from a dict.
    """

    config_index: int
    syndromes: tuple
    row: np.ndarray = field(repr=False)
    shots: int | None = None

    @classmethod
    def from_distribution(cls, config_index: int, distribution: dict,
                          shots: int | None = None) -> MeasurementRecord:
        """A record of ``distribution``'s keys and values, in its order:
        finite probabilities when ``shots`` is None, else counts within it."""
        values = list(distribution.values())
        if shots is None:
            row = np.array(values, dtype=float)
            if not np.isfinite(row).all():
                i = int(np.argmin(np.isfinite(row)))
                raise ValueError("exact probability for syndrome %s must be "
                                 "finite, got %r" % (list(distribution)[i], values[i]))
        elif not _is_integer(shots) or shots <= 0:
            raise ValueError("shots must be a positive integer, got %r" % (shots,))
        elif not all(map(_is_integer, values)):
            raise ValueError("sampled counts must be integers, got %r"
                             % (next(v for v in values if not _is_integer(v)),))
        elif min(values, default=0) < 0:
            raise ValueError("sampled counts must be nonnegative, got %d" % min(values))
        elif sum(values) > shots:
            raise ValueError("sampled counts sum to %d, over %d shots" % (sum(values), shots))
        else:
            row = np.array(values, dtype=np.int64)
        row.flags.writeable = False
        return cls(config_index, tuple(distribution), row, shots)

    @property
    def exact(self) -> bool:
        return self.shots is None

    @property
    def distribution(self) -> dict:
        """{syndrome: value}, built on request: floats in exact mode,
        ints in sampled mode; of a repeated syndrome the last column."""
        return dict(zip(self.syndromes, self.row.tolist()))

    @functools.cached_property
    def _estimates(self) -> dict:
        """{syndrome: probability estimate}, built by the first ``value`` call."""
        row = self.row if self.shots is None else self.row / float(self.shots)
        return dict(zip(self.syndromes, row.tolist()))

    def value(self, syndrome) -> float:
        """Probability estimate for one syndrome; 0.0 when it is absent."""
        return self._estimates.get(syndrome, 0.0)

    @functools.cached_property
    def _sampling(self) -> tuple:
        """(syndromes, pvals) that ``sample_record`` draws from, pvals
        read-only: built at an exact record's first sampling, after the
        checks ``sample_record`` describes. A record that fails a check
        stores nothing and fails again on the next call."""
        row = self.row
        negative = row < -DEFAULT_POLICY.sampling_clamp
        if negative.any():
            i = int(negative.argmax())
            raise ValueError("probability %g for syndrome %s is negative "
                             "beyond tolerance" % (float(row[i]), self.syndromes[i]))
        # max(p, 0.0) per entry: -0.0 and NaN stay, where np.maximum
        # would turn -0.0 into 0.0
        probs = np.where(row < 0.0, 0.0, row)
        # Python's sum of the floats, as the per-syndrome loop took it:
        # numpy's pairwise sum can differ in the last bit, and pvals with it
        total = sum(probs.tolist())
        if total > 1.0 + DEFAULT_POLICY.algebraic:
            raise ValueError("probabilities sum to %g > 1" % total)
        deficit = max(1.0 - total, 0.0)
        syndromes = self.syndromes
        if deficit > DEFAULT_POLICY.algebraic:
            probs = np.append(probs, deficit)
            syndromes += (NO_DETECTION,)
        pvals = probs / (total + deficit)
        pvals.flags.writeable = False
        return syndromes, pvals


@dataclass(frozen=True, eq=False)
class ReadoutTable:
    """The readout rule of a plan, evaluated once per configuration.

    Row r belongs to configuration ``configs[r]`` and column x to
    syndrome ``syndromes[x]``, whose probability is
    (chi_AA + chi_BB)/2 + c Re chi_AB + s Im chi_AB with A = a_index,
    B = b_index, c = coeff_re and s = coeff_im, read-only integer arrays
    of shape configurations x d^2 for a basis of ``d2`` elements. Bare
    rows carry A = B and c = s = 0; ``len`` counts the readouts.
    """

    syndromes: tuple
    configs: tuple
    a_index: np.ndarray = field(repr=False)
    b_index: np.ndarray = field(repr=False)
    coeff_re: np.ndarray = field(repr=False)
    coeff_im: np.ndarray = field(repr=False)
    d2: int

    def __len__(self) -> int:
        return self.a_index.size

    def observed(self, records) -> tuple[np.ndarray, bool]:
        """(probability estimates, exact): the records' values in the
        table's layout, and whether every record that counts (the last
        of its configuration) is exact. Records that are the table's
        distinct configurations in order, as ``simulate`` and
        ``sample_record`` make them, are read as they come. A record
        whose syndromes start with the table's gives its row as it is;
        any other is gathered by syndrome, a missing one reading 0."""
        rows = counted = tuple(records)
        configs, syndromes = self.configs, self.syndromes
        if (tuple(rec.config_index for rec in rows) != configs
                or len(set(configs)) < len(configs)):
            by_config = {rec.config_index: rec for rec in rows}
            missing = sorted(set(configs) - set(by_config))
            if missing:
                raise ValueError("missing records for configurations %s" % missing)
            counted = by_config.values()
            rows = [by_config[i] for i in configs]
        width = len(syndromes)
        raw = np.array([rec.row[:width] if rec.syndromes is syndromes
                        or rec.syndromes[:width] == syndromes
                        else self._gather(rec) for rec in rows], dtype=float)
        raw = raw.reshape(self.a_index.shape)
        # x / 1.0 is x: exact rows need no division
        if all(rec.shots is None for rec in counted):
            return raw, True
        shots = np.array([1.0 if rec.shots is None else float(rec.shots)
                          for rec in rows])
        return raw / shots[:, None], False

    @functools.cached_property
    def _reduction(self) -> tuple:
        """What ``reconstruct`` derives from the table alone, built by its
        first call: (order, slot, A, B, c + s, n, counted, missing, upper, lower).

        ``order`` puts the bare readouts first. Slot 2 (A d2 + B) is the
        real part of entry (A, B), the next its imaginary part; a bare
        readout is the real part of (x, x). A, B and c + s (one of c, s is
        +-1, the other 0) belong to the others. ``n`` counts each slot's
        readouts, NaN where none are ``counted``; ``missing`` marks the
        uncounted slots of entries A <= B but the diagonal's imaginary parts.
        ``upper`` and ``lower`` place the strict upper triangle and its mirror.
        """
        d2 = self.d2
        a, b = self.a_index.ravel(), self.b_index.ravel()
        order = np.argsort(a != b, kind="stable")
        k = np.count_nonzero(a == b)
        a, b, s = a[order], b[order], self.coeff_im.ravel()[order]
        cs = self.coeff_re.ravel()[order] + s
        slot = 2 * (a * d2 + b) + (s != 0)
        n = np.bincount(slot, minlength=2 * d2 * d2)
        counted = n > 0
        big_a, big_b, part = np.indices((d2, d2, 2)).reshape(3, -1)
        rows, cols = np.triu_indices(d2, 1)
        out = (order, slot, a[k:], b[k:], cs[k:], np.where(counted, n, np.nan), counted,
               ~counted & (big_a + part <= big_b), rows * d2 + cols, cols * d2 + rows)
        for array in out:
            array.flags.writeable = False
        return out

    def _check_size(self, d2: int) -> None:
        """Refuse a basis of other than the table's ``d2`` elements."""
        if d2 != self.d2:
            raise ValueError("the readout table is for a basis of %d elements, "
                             "not %d" % (self.d2, d2))

    def _gather(self, rec: MeasurementRecord) -> list:
        """The record's values at the table's syndromes, 0 where absent."""
        dist = rec.distribution
        return [dist.get(syn, 0) for syn in self.syndromes]

    def predicted(self, chi: ProcessMatrix) -> np.ndarray:
        """Every readout's closed-form probability under chi, a chi on a
        basis of the table's ``d2`` elements."""
        self._check_size(chi.d2)
        ent = chi.entries
        diag = ent.diagonal().real
        z = ent[self.a_index, self.b_index]
        return (0.5 * (diag[self.a_index] + diag[self.b_index])
                + (self.coeff_re * z.real + self.coeff_im * z.imag))


@dataclass(frozen=True, eq=False)
class _PlanRows:
    """What the configurations of one compiled plan read: the readout
    table and two weighted row maps per configuration (each
    configurations x d^2). Row y of its frame map holds alpha_y in
    column A_y = a.y and beta_y in column B_y = b.y, toggle phases
    applied; a bare row has A = B = y, alpha = 1 and beta = 0."""

    readouts: ReadoutTable
    big_a: np.ndarray
    big_b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def probabilities(self, block: np.ndarray) -> np.ndarray:
        """Every configuration's syndrome probabilities under the Pauli
        coefficients ``block`` (d^2 x K), one read-only configurations x
        d^2 array: row i, entry y is |alpha_y block[A_y] + beta_y
        block[B_y]|^2, row y of M_i block. The rows are gathered for a
        stack of at most ``_STACK_BYTES`` of amplitudes at a time (one
        configuration, if that is larger) and summed in place, and one
        reduction per stack takes every squared row norm."""
        big_a, big_b, alpha, beta = self.big_a, self.big_b, self.alpha, self.beta
        probs = np.empty(big_a.shape)
        step = max(1, _STACK_BYTES // block.nbytes)
        for start in range(0, len(big_a), step):
            part = slice(start, start + step)
            amps = alpha[part, :, None] * block[big_a[part]]
            amps += beta[part, :, None] * block[big_b[part]]
            probs[part] = np.einsum("kij,kij->ki", amps.conj(), amps).real
        probs.flags.writeable = False
        return probs


# amplitudes that one reduction of _PlanRows.probabilities takes: all of
# a code5 plan's, and a small share of a wider plan's at a time
_STACK_BYTES = 1 << 18


def _normalized(beta: np.ndarray) -> bool:
    """Whether a complex vector has norm 1 within ``DEFAULT_POLICY.algebraic``,
    taken as np.linalg.norm would but without its overflow warning; NaN fails."""
    return abs(math.sqrt(np.vdot(beta, beta).real) - 1.0) <= DEFAULT_POLICY.algebraic


def _amplitudes(code: StabilizerCode, beta) -> np.ndarray:
    """The logical amplitudes as a complex vector, after checking their
    count and their norm."""
    beta = np.asarray(beta, dtype=complex)
    if beta.shape != (1 << code.k,):
        raise ValueError("expected %d logical amplitudes, got shape %s"
                         % (1 << code.k, beta.shape))
    if not _normalized(beta):
        raise ValueError("logical amplitudes are not normalized")
    return beta


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
        return (fa + 1j * fb) / np.sqrt(2.0)
    return (fa + fb) / np.sqrt(2.0)


def _check_signs(d2: int, theta_signs) -> tuple:
    """The theta signs as ints, after checking them."""
    signs = tuple(int(s) for s in theta_signs)
    if len(signs) != d2:
        raise ValueError("expected %d theta signs, got %d" % (d2, len(signs)))
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("theta signs must be +1 or -1")
    if sum(1 for s in signs if s > 0) != d2 // 2:
        raise ValueError("theta must carry both signs in equal number")
    return signs


def build_toggle(code: StabilizerCode, theta_signs) -> np.ndarray:
    """Toggling operator S+ = sum_m e^{i theta_m} Pi_m plus identity
    on the complement of the error ball.

    ``theta_signs`` assigns each error index the sign of theta_m =
    +-pi/4 and must carry both signs in equal number. Every correctable
    pure state F_m |Psi_L> is an eigenstate with eigenvalue
    e^{i theta_m}, so the syndrome statistics transform as
    chi -> S chi S†.
    """
    phases = np.exp(1j * np.array(_check_signs(code.d2, theta_signs)) * np.pi / 4.0)
    # W diag(e^{i theta} - 1) W† + I, W the frame: identity outside the error ball
    logical = np.column_stack(code.logical_basis)
    frame = np.hstack([apply_pauli(e, logical) for e in code.error_basis.elements])
    shift = np.repeat(phases - 1.0, 1 << code.k)
    return (frame * shift) @ frame.conj().T + np.eye(1 << code.n)


def xi_predicted(chi: ProcessMatrix, cfg: Configuration, x: int) -> float:
    """Closed-form syndrome probability for error index x under cfg: entry
    (cfg.index, x) of ``ReadoutTable.predicted`` for cfg's plan, which chi
    computes on the first such call and keeps (``ProcessMatrix._predicted``)."""
    return chi._predicted(cfg._rows.readouts).item(cfg.index, x)


def simulate(code: StabilizerCode, beta, channel: Channel, configs) -> list:
    """Exact syndrome distributions of configurations under one channel.

    ``channel`` acts on the whole noisy subsystem (``extend_channel``
    pads a narrower one, as ``characterize`` does). For every code that
    ``build_code`` accepts, branch E_r|psi> expands in the syndrome
    frame as sum_x C[x, r] F_x|psi>, with C the channel's Pauli
    coefficients Tr(F_x E_r)/2^p (``Channel._pauli_coefficients``,
    computed once per channel). A configuration's frame map M acts on
    the error index alone, so the syndrome of y has probability
    |row y of M C|^2 = |alpha_y C[A_y] + beta_y C[B_y]|^2 (``_PlanRows``)
    whatever the logical state: beta is only checked.
    The probabilities sum to the output trace. Every call checks the
    channel's width, beta and completeness sum; the channel then
    evaluates each distinct plan among ``configs`` whole at its first
    request (``_PlanRows.probabilities``) and keeps the read-only array
    for its lifetime (``Channel._simulated``). The records are
    read-only rows of it, in the order of ``configs``.
    """
    noisy = len(code.noisy_coords)
    if channel.p != noisy:
        raise ValueError("channel acts on %d qubits but the code's noisy "
                         "subsystem has %d; extend_channel pads a narrower "
                         "channel" % (channel.p, noisy))
    _amplitudes(code, beta)
    # the completeness check, which a channel that fails it fails every time
    channel._pauli_coefficients
    configs = tuple(configs)
    kept = {rows: channel._simulated(rows) for rows in dict.fromkeys(
        cfg._rows for cfg in configs)}
    return [MeasurementRecord(cfg.index, code.syndrome_table, kept[cfg._rows][cfg.index])
            for cfg in configs]


def xi_simulated(code: StabilizerCode, beta, channel: Channel,
                 cfg: Configuration) -> MeasurementRecord:
    """Exact syndrome distribution of one configuration: ``simulate`` of
    one, so the first call on a channel evaluates cfg's whole plan and
    the others read a row of what the channel keeps."""
    return simulate(code, beta, channel, [cfg])[0]


def plan_configurations(code: StabilizerCode):
    """Measurement plan determining every process-matrix entry.

    Returns (configurations, readout table): one bare configuration,
    then a rotated and a toggled configuration for each non-identity
    basis element P with (a, b) = (I, P), totalling 1 + 2(d^2 - 1). The
    toggle signs two-color the pairing x <-> index(P F_x) by giving
    +pi/4 to the smaller index of each pair. The plan depends on the
    code alone: it is compiled by the first call and kept on the code,
    and every call returns a new list of the same frozen configurations
    and the same table.
    """
    configs, readouts = code._paper_plan
    return list(configs), readouts


def _paper_plan(code: StabilizerCode) -> tuple:
    """(configurations as a tuple, readout table) of ``plan_configurations``,
    compiled; ``StabilizerCode._paper_plan`` keeps it."""
    basis = code.error_basis
    d2 = basis.size
    kinds = ("bare",) + ("rotated", "toggled") * (d2 - 1)
    b = np.concatenate(([0], np.repeat(np.arange(1, d2), 2)))
    signs = np.zeros((len(kinds), d2), dtype=np.int64)
    signs[2::2] = np.where(np.arange(d2) < basis.product_index[1:], 1, -1)
    configs, readouts = _compile(code, kinds, np.zeros_like(b), b, signs)
    return tuple(configs), readouts


def _compile(code: StabilizerCode, kinds, a, b, signs):
    """(configurations, readout table) of a whole plan, in one pass over
    the error basis's product table.

    Configuration i has kind ``kinds[i]``, pair (a[i], b[i]) and theta
    signs ``signs[i]``; a bare row carries the pair (0, 0) and a row
    that is not toggled zero signs. The pairs' table rows A = a.x,
    B = b.x, e_a and e_b (F_a F_x = i^{e_a} F_A, F_b F_x = i^{e_b} F_B)
    are gathered once for the rules, the row maps and their check;
    the configurations keep them in one ``_PlanRows`` as two weighted
    row maps, and no d^2 x d^2 array is formed.

    Every configuration is (F_a + c F_b)/sqrt(2), c = i for a commuting
    pair and 1 otherwise: column x goes to A_x with weight
    i^{e_a}/sqrt(2) and to B_x with weight c i^{e_b}/sqrt(2), a toggle
    scales both by e^{i theta_x}, and a bare row, whose A and B
    coincide, has weights 1 and 0. A and B are involutions, so row y
    holds the weights of columns A_y and B_y; ``_PlanRows`` keeps them
    per row. Column x shares its rows only with
    column x' = b.a.x, so M†M = I exactly when e(x') + e(x) +
    2[commuting] = 2 mod 4 for e = e_b - e_a; bare rows pass. The first
    failing pair is named.
    """
    basis = code.error_basis
    idx, phase = basis.product_index, basis.product_phase
    toggled = np.array([kind == "toggled" for kind in kinds], dtype=bool)
    commuting = phase[a, b] == phase[b, a]
    big_a, big_b, e_a, e_b = idx[a], idx[b], phase[a], phase[b]
    e = e_b.astype(np.int64) - e_a
    row = np.arange(len(kinds))[:, None]
    overlap = e[row, big_b[row, big_a]] + e + 2 * commuting[:, None]
    bad = (overlap % 4 != 2).any(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        raise ValueError("rotation for pair (%s, %s) failed the unitarity check"
                         % (basis.label(a[r]), basis.label(b[r])))
    readouts = ReadoutTable(code.syndrome_table, tuple(range(len(kinds))),
                            *_rules(big_a, big_b, e, commuting, signs), code.d2)

    alpha = I_POWERS[e_a] / np.sqrt(2.0)
    beta = np.where(commuting, 1j, 1.0)[:, None] * I_POWERS[e_b] / np.sqrt(2.0)
    bare = big_a == big_b
    alpha[bare], beta[bare] = 1.0, 0.0
    phases = np.exp(1j * signs[toggled] * np.pi / 4.0)
    alpha[toggled] *= phases
    beta[toggled] *= phases
    rows = _PlanRows(readouts, big_a, big_b, np.take_along_axis(alpha, big_a, 1),
                     np.take_along_axis(beta, big_b, 1))
    configs = [Configuration(index=i, kind=kind, a=None if kind == "bare" else a_i,
                             b=None if kind == "bare" else b_i, _rows=rows,
                             theta_signs=tuple(theta) if kind == "toggled" else None)
               for i, (kind, a_i, b_i, theta) in enumerate(
                   zip(kinds, a.tolist(), b.tolist(), signs.tolist()))]
    return configs, readouts


def _rules(big_a, big_b, e, commuting, signs) -> tuple:
    """The readout rule of every configuration as the read-only columns
    (A, B, c, s) of a ``ReadoutTable``, each of shape configurations x d^2,
    from the gathered table rows A, B and e = e_b - e_a of ``_compile``.

    Entry x of configuration i is (A, B, c, s), A <= B, such that the
    syndrome of x has probability (chi_AA + chi_BB)/2 + c Re chi_AB +
    s Im chi_AB. The cross term is Re(i^e chi_AB), with e raised by
    (s_A - s_B)/2 when toggled and lowered by 1 for a commuting pair;
    A > B folds via chi_BA = chi_AB*. A bare row, whose A and B coincide,
    is (x, x, 0, 0) and reads chi_xx alone.
    """
    row = np.arange(len(signs))[:, None]
    e = (e + (signs[row, big_a] - signs[row, big_b]) // 2 - commuting[:, None]) % 4
    crossed = big_a != big_b
    c, s = _RE_IM[0, e] * crossed, _RE_IM[1, e] * crossed
    columns = (np.minimum(big_a, big_b), np.maximum(big_a, big_b),
               c, np.where(big_a < big_b, s, -s))
    for column in columns:
        column.flags.writeable = False
    return columns


def derive_readouts(code: StabilizerCode, configs) -> ReadoutTable:
    """The readout table of ``configs``: row ``cfg.index`` of each
    configuration's own plan table, one table row per configuration."""
    configs = tuple(configs)
    columns = np.array([[getattr(cfg._rows.readouts, name)[cfg.index] for cfg in configs]
                        for name in ("a_index", "b_index", "coeff_re", "coeff_im")],
                       dtype=np.int64).reshape(4, -1, code.d2)
    columns.flags.writeable = False
    return ReadoutTable(code.syndrome_table, tuple(cfg.index for cfg in configs),
                        *columns, code.d2)


def reconstruct(records, readouts: ReadoutTable, basis) -> ProcessMatrix:
    """Assemble the process matrix from measurement records.

    Each readout estimates one slot, a real or imaginary part: a bare
    readout chi_xx, any other c*Re + s*Im of an upper-triangle entry
    less the diagonal half-sum. A slot's estimates are averaged and, in
    exact mode, checked within ``DEFAULT_POLICY.readout_consistency``
    of each other; chi is the means' complex view, mirrored.
    """
    probs, exact = readouts.observed(records)
    d2 = basis.size
    readouts._check_size(d2)
    order, slot, a, b, cs, n, counted, missing, upper, lower = readouts._reduction
    est = probs.ravel()[order]
    k = est.size - cs.size
    # sums start at -0.0, the exact additive identity, and accumulate in
    # readout order
    sums = np.full(n.size, -0.0)
    np.add.at(sums, slot[:k], est[:k])
    # a diagonal entry without a bare readout is NaN, as is what subtracts it
    diag = sums[::2 * d2 + 2] / n[::2 * d2 + 2]
    est[k:] = (est[k:] - 0.5 * (diag[a] + diag[b])) / cs
    np.add.at(sums, slot[k:], est[k:])
    bad = missing
    if exact:
        hi, lo = np.full(n.size, -np.inf), np.full(n.size, np.inf)
        # fmax and fmin pass over NaN estimates without numpy's warning
        np.fmax.at(hi, slot, est)
        np.fmin.at(lo, slot, est)
        spread = hi - lo
        bad = bad | (spread > DEFAULT_POLICY.readout_consistency)
    if bad.any():
        i = int(np.argmax(bad))
        pair = tuple(map(basis.label, divmod(i // 2, d2)))
        if missing[i]:
            raise ValueError("entry (%s, %s) lacks a real or imaginary "
                             "readout" % pair)
        raise ValueError("inconsistent redundant readouts for entry "
                         "(%s, %s): spread %g" % (pair + (spread[i],)))
    # an uncounted slot, such as a diagonal entry's imaginary part, reads 0.0
    chi = np.divide(sums, n, out=np.zeros(n.size), where=counted).view(complex)
    chi[lower] = chi[upper].conj()
    return ProcessMatrix(chi.reshape(d2, d2), basis)


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
    f = code.error_basis.elements[code.syndrome_index[syn]]
    state = np.asarray(state, dtype=complex)
    dim = 1 << code.n
    if state.shape == (dim,):
        return apply_pauli(f, state)
    if state.shape == (dim, dim):
        # F rho F† = (F (F rho)†)†
        return apply_pauli(f, apply_pauli(f, state).conj().T).conj().T
    raise ValueError("expected a state vector of length %d or a %d x %d "
                     "density matrix, got shape %s" % (dim, dim, dim, state.shape))


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
            entry["theta"] = {label: ("+" if s > 0 else _MINUS)
                              for label, s in zip(basis.labels, cfg.theta_signs)}
        out.append(entry)
    return {"configurations": out}


def plan_from_json(code: StabilizerCode, doc: dict):
    """Rebuild (configurations, readout table) from the JSON descriptors."""
    basis = code.error_basis
    # a plan repeats each label many times; parse each distinct one once
    index_of_label = functools.cache(basis.index_of_label)
    entries = _json_list(_json_object(doc)["configurations"], "configurations")
    kinds, pairs, signs = [], [], []
    for i, entry in enumerate(entries):
        kind = _json_object(entry, "configurations[%d]" % i)["kind"]
        kinds.append(kind)
        row = [0] * code.d2
        signs.append(row)
        if kind == "bare":
            pairs.append((0, 0))
            continue
        pair = (index_of_label(entry["a"]), index_of_label(entry["b"]))
        if pair[0] == pair[1]:
            raise ValueError("rotation needs two distinct error indices")
        pairs.append(pair)
        if kind == "toggled":
            theta = entry["theta"]
            if not isinstance(theta, dict):
                raise TypeError('"theta" must map error labels to signs, got %r'
                                % (theta,))
            for label, sign in theta.items():
                if sign not in ("+", "-", _MINUS):
                    raise ValueError("bad theta sign %r" % sign)
                row[index_of_label(label)] = 1 if sign == "+" else -1
            if any(s == 0 for s in row):
                raise ValueError("theta map does not cover the error basis")
            _check_signs(code.d2, row)
        elif kind != "rotated":
            raise ValueError("unknown configuration kind %r" % kind)
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    signs = np.array(signs, dtype=np.int64).reshape(-1, code.d2)
    return _compile(code, tuple(kinds), pairs[:, 0], pairs[:, 1], signs)
