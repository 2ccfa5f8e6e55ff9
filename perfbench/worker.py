"""Run one benchmark workload in this process and print its measurements.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--ops N] [--setup-only] [--inject-chi-error EPS]

``run.py`` starts this with PYTHONPATH set to the checkout's ``src``.
The worker sets the workload up, runs one checked warm-up op, then
runs checked ops in a closed loop with one client, in whole cycles of
the workload's op kinds, until ``--seconds`` have passed (or ``--ops``
ops have run). Every op's output is checked outside the timed region;
an op that raises, returns a nonzero exit code or fails a check counts
as failed.
With ``--trace 1`` an untraced half is followed by a traced half whose
spans give the per-layer metrics. The last stdout line is one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import syntomo as st
import syntomo.cli
import syntomo.jsonio

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1  # run.py's default; the count digests below are recorded for it
EXACT_FROBENIUS = 1e-12  # exact chi against the oracle
# sampled chi: every entry within SHOT_NOISE_K / sqrt(shots) of the oracle.
# Over 2000 sampled code3 and code5 reconstructions the largest entry error
# was 1.8 / sqrt(shots), so a correct run never comes near the bound.
SHOT_NOISE_K = 6.0
SHOTS = 100_000
KL_RESIDUAL = 1e-8  # largest error-correcting-condition residual a valid code reports
# Reported times are scaled to a host on which one Reference.run takes this
# long, about this host's speed when it is quiet (see Reference)
REFERENCE_S = 0.004
SETUP_REFERENCE_RUNS = 9

# sha256 of the sampled counts of shotnoise-code5 ops under DEFAULT_SEED,
# recorded at the commit that added the benchmark; guards bit-for-bit sampling
COUNT_DIGESTS = {
    -1: "e4c979930f686837", 0: "f0f5a3040f63a8a1", 1: "6dddcbb53c1f6e1d",
    2: "d9edf5d01d2363a1", 3: "5f9439da08b568c8", 4: "98d9a90a12a67748",
    5: "91de227f56f61fba", 6: "59003c040e24d4e3", 7: "ed1ecd5d634cf725",
}

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(label: str) -> np.ndarray:
    """Dense Pauli word, qubit 0 the most significant tensor factor."""
    m = np.eye(1, dtype=complex)
    for letter in label:
        m = np.kron(m, _PAULI[letter])
    return m


def oracle_chi(kraus, labels) -> np.ndarray:
    """chi_ab = sum_k c_ak conj(c_bk) with c_ak = Tr(P_a E_k) / d.

    Computed here from the Kraus operators, independently of the
    package, over the error basis named by ``labels``.
    """
    words = np.array([pauli_matrix(label) for label in labels])
    ops = np.array(kraus, dtype=complex)
    coeffs = np.einsum("aij,kji->ak", words, ops) / words.shape[1]
    return coeffs @ coeffs.conj().T


def pad_kraus(kraus, p: int):
    """Identity on trailing qubits up to p, as the package extends a channel."""
    return [np.kron(e, np.eye((1 << p) // len(e))) for e in kraus]


def counts_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        items = sorted((str(k), v) for k, v in rec.distribution.items())
        h.update(repr((rec.config_index, items)).encode())
    return h.hexdigest()[:16]


class Reference:
    """A fixed computation, independent of syntomo, timed just before every op.

    The host is shared, and its speed drifts: for minutes at a time other
    load slows every op by up to 2x, CPU time as much as wall time, so no
    statistic of one run's wall times repeats from run to run. Timed in
    the same moments as the ops, this computation measures the host's
    speed, and op time over its time reads the program's own speed. It
    does what an op does most, on the same sizes: 5-qubit Pauli words
    built with ``np.kron``, 32x32 complex products and traces, seeded
    multinomial draws, Python loops over dicts of floats and a JSON dump.
    """

    def __init__(self):
        rng = np.random.default_rng(14050964)
        g = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        rho = g @ g.conj().T
        self.rho = rho / np.trace(rho).real
        self.labels = [a + b + c for a in "IXYZ" for b in "IXYZ" for c in ("XZI", "ZXZ")]
        self.probs = np.abs(rng.normal(size=16))
        self.probs /= self.probs.sum()

    def run(self) -> float:
        """Seconds this call took."""
        t0 = time.perf_counter()
        dist = {}
        for label in self.labels:
            m = pauli_matrix(label)
            dist[label] = float(np.trace(m @ self.rho @ m.conj().T @ self.rho).real)
        draws = np.random.default_rng(len(dist)).multinomial(100_000, self.probs)
        table = {i: int(c) / 100_000 for i, c in enumerate(draws)}
        worst = 0.0
        for a in range(16):
            for b in range(16):
                worst = max(worst, abs(table[a] - table[b] * dist[self.labels[a]]))
        json.dumps({"dist": dist, "table": table, "worst": worst})
        return time.perf_counter() - t0


def random_beta(rng) -> np.ndarray:
    """Normalized amplitudes of one logical qubit."""
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


# the p=2 Bell-pair code: generators X_q X_{2+q} and Z_q Z_{2+q} for q < 2
# and a spectator logical qubit, a perfect [[5, 1]] code on qubits 0 and 1
BELL2_CODE = {"generators": ["XIXII", "ZIZII", "IXIXI", "IZIZI"],
              "noisy_coords": [0, 1],
              "logical_ops": {"X": "IIIIX", "Z": "IIIIZ"}}


@dataclass
class Output:
    """What one op produced, for the checks."""

    report: str = ""
    chi: np.ndarray | None = None  # in-process ops only
    kraus: list = field(default_factory=list)  # the channel the oracle uses
    labels: list = field(default_factory=list)
    shots: int | None = None
    records: list | None = None  # sampled records, for the digest
    returncode: int = 0
    stderr: str = ""


def characterize(code, channel, beta, plan=None, exact_records=None,
                 policy=None) -> Output:
    """The library pipeline of one characterization: plan, simulate,
    sample, reconstruct, residuals, oracle comparison and JSON report,
    called through the package's public names."""
    if channel.p < len(code.noisy_coords):
        channel = st.extend_channel(channel, len(code.noisy_coords))
    configs, readouts = plan if plan is not None else st.plan_configurations(code)
    records = exact_records
    if records is None:
        records = [st.xi_simulated(code, beta, channel, cfg) for cfg in configs]
    if policy is not None:
        records = [st.sample_record(rec, policy) for rec in records]
    chi = st.reconstruct(records, readouts, code.error_basis)
    residuals = []
    for cfg, rec in zip(configs, records):
        worst = max(abs(rec.value(code.syndrome_table[x]) - st.xi_predicted(chi, cfg, x))
                    for x in range(code.d2))
        residuals.append({"configuration": cfg.index, "kind": cfg.kind,
                          "max_residual": worst})
    err = st.compare(chi, st.chi_from_kraus(channel, code.error_basis))
    labels = [code.error_basis.label(i) for i in range(code.d2)]
    report = {
        "channel": channel.label,
        "mode": "exact" if policy is None else "sampled",
        "shots": None if policy is None else policy.shots_per_configuration,
        "seed": None if policy is None else policy.seed,
        "basis": labels,
        "chi": [[[float(v.real), float(v.imag)] for v in row] for row in chi.entries],
        "validity": st.validity_report(chi),
        "residuals": residuals,
        "error_report": {"frobenius_error": err.frobenius_error,
                         "max_entry_error": err.max_entry_error,
                         "trace_defect": err.trace_defect,
                         "min_eigenvalue": err.min_eigenvalue},
    }
    return Output(report=syntomo.jsonio.dumps(report), chi=chi.entries,
                  kraus=list(channel.kraus), labels=labels,
                  shots=None if policy is None else policy.shots_per_configuration,
                  records=None if policy is None else records)


def chi_of_report(doc) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc["chi"]])


def check_chi(chi, oracle, shots) -> str | None:
    if shots is None:
        err = float(np.linalg.norm(chi - oracle))
        if not err <= EXACT_FROBENIUS:
            return "exact chi is %.3g (Frobenius) from the oracle" % err
        return None
    err = float(np.abs(chi - oracle).max())
    bound = SHOT_NOISE_K / np.sqrt(shots)
    if not err <= bound:
        return "sampled chi entry is %.3g from the oracle, bound %.3g" % (err, bound)
    return None


class Workload:
    """Inputs drawn from the seed; ``op(i)`` is timed, ``check`` is not.

    Op i draws its inputs from its own stream (seed, i), so the inputs
    do not depend on how many ops a run reaches. Op -1 is the warm-up;
    set-up draws from stream -2.
    """

    cycle = 1  # op kinds per cycle; runs stop only at cycle boundaries
    window = 1  # ops per timing window, a multiple of cycle

    def __init__(self, seed: int, inject: float):
        self.seed = seed
        self.inject = inject  # added to every chi before checking

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i + 2])

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def check(self, i: int, out: Output) -> str | None:
        chi = out.chi + self.inject
        doc = json.loads(out.report)
        if not np.array_equal(chi_of_report(doc), chi):
            return "report does not reproduce chi"
        return check_chi(chi, oracle_chi(out.kraus, out.labels), out.shots)


class SweepCode5(Workload):
    """Code5 is built and planned once; each op characterizes the next
    channel of a seeded stream in exact mode. A cycle holds each of the
    four channel kinds four times, random-cp once at each rank 1-4, so
    every window does the same work."""

    cycle = 16
    window = 16

    def setup(self) -> None:
        self.code = st.builtin_code("code5")
        self.plan = st.plan_configurations(self.code)

    def op(self, i: int) -> Output:
        rng = self.rng(i)
        kind = i % 4
        if kind == 0:
            name, params = "random-cp", [int(rng.integers(1 << 31)), 2, 1 + i // 4 % 4]
        else:
            name = ("correlated-flip", "amplitude-damping", "depolarizing")[kind - 1]
            params = [float(rng.uniform(0.02, 0.98))]
        beta = random_beta(rng)
        channel = st.builtin_channel(name, params)
        return characterize(self.code, channel, beta, plan=self.plan)


class ShotNoiseCode5(Workload):
    """Exact code5 records for one seeded channel are simulated once;
    each op re-samples them with a fresh seed and reconstructs."""

    window = 25

    def setup(self) -> None:
        rng = self.rng(-2)
        self.code = st.builtin_code("code5")
        self.plan = st.plan_configurations(self.code)
        self.channel = st.builtin_channel(
            "random-cp", [int(rng.integers(1 << 31)), 2, int(rng.integers(1, 5))])
        beta = random_beta(rng)
        self.exact = [st.xi_simulated(self.code, beta, self.channel, cfg)
                      for cfg in self.plan[0]]

    def op(self, i: int) -> Output:
        policy = st.SamplingPolicy(shots_per_configuration=SHOTS,
                                   seed=int(self.rng(i).integers(1 << 62)))
        return characterize(self.code, self.channel, None, plan=self.plan,
                            exact_records=self.exact, policy=policy)

    def check(self, i: int, out: Output) -> str | None:
        problem = super().check(i, out)
        want = COUNT_DIGESTS.get(i) if self.seed == DEFAULT_SEED else None
        if not problem and want is not None and counts_digest(out.records) != want:
            problem = "sampled counts differ from the recorded digest"
        return problem


# Kraus operators of the analytic built-in channels, written out here so
# the oracle does not come from the package
def _amplitude_damping(lam):
    return [np.diag([1.0, np.sqrt(1.0 - lam)]),
            np.array([[0.0, np.sqrt(lam)], [0.0, 0.0]])]


def _phase_damping(gam):
    return [np.diag([1.0, np.sqrt(1.0 - gam)]), np.diag([0.0, np.sqrt(gam)])]


class CliMix(Workload):
    """Each op is one ``syntomo`` command, run through ``syntomo.cli.main``
    in this process, that writes a JSON report to a file; the ops cycle
    through six commands. Interpreter start and ``import syntomo`` are
    paid once per process, in ``setup_s``."""

    cycle = 6
    window = 6

    def setup(self) -> None:
        rng = self.rng(-2)
        self.dir = OUT / ("cli-mix-%d" % os.getpid())
        self.dir.mkdir(parents=True, exist_ok=True)
        self.code_file = self.dir / "bell2.json"
        self.code_file.write_text(json.dumps(BELL2_CODE))
        # a Haar-random rank-r isometry sliced into Kraus blocks
        rank, d = int(rng.integers(1, 5)), 4
        g = rng.normal(size=(rank * d, d)) + 1j * rng.normal(size=(rank * d, d))
        q = np.linalg.qr(g)[0]
        self.file_kraus = [q[j * d:(j + 1) * d] for j in range(rank)]
        self.channel_file = self.dir / "channel.json"
        self.channel_file.write_text(json.dumps({
            "p": 2, "label": "file-channel",
            "kraus": [[[[float(v.real), float(v.imag)] for v in row] for row in e]
                      for e in self.file_kraus]}))

    def command(self, i: int):
        """(CLI arguments, Kraus operators for the oracle, shots)."""
        rng = self.rng(i)
        kind = i % self.cycle
        if kind == 0:
            return ["validate", "--code", "code5"], None, None
        if kind == 1:
            return ["plan", "--code", "code5"], None, None
        beta = "--beta=" + ",".join(repr(complex(b)) for b in random_beta(rng))
        x = float(rng.uniform(0.02, 0.98))
        if kind == 2:
            return (["characterize", "--code", "code3", "--channel", "phase-damping",
                     "--params", repr(x), beta], _phase_damping(x), None)
        if kind == 3:
            return (["characterize", "--code", "code5", "--channel", "amplitude-damping",
                     "--params", repr(x), beta], pad_kraus(_amplitude_damping(x), 2), None)
        if kind == 4:
            return (["characterize", "--code", "code3", "--channel", "amplitude-damping",
                     "--params", repr(x), beta, "--mode", "sampled", "--shots", str(SHOTS),
                     "--seed", str(int(rng.integers(1 << 62)))],
                    _amplitude_damping(x), SHOTS)
        return (["characterize", "--code", str(self.code_file),
                 "--channel", str(self.channel_file), beta], self.file_kraus, None)

    def op(self, i: int) -> Output:
        args, _, _ = self.command(i)
        report = self.dir / "report.json"
        report.unlink(missing_ok=True)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                rc = syntomo.cli.main(args + ["--format", "json", "--out", str(report)])
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
        text = report.read_text(encoding="utf-8") if rc == 0 else ""
        return Output(report=text, returncode=rc, stderr=stderr.getvalue())

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def check(self, i: int, out: Output) -> str | None:
        if out.returncode != 0:
            return "exit code %d: %s" % (out.returncode, out.stderr.strip()[-200:])
        args, kraus, shots = self.command(i)
        doc = json.loads(out.report)
        if args[0] == "validate":
            if not (doc["pass"] is True and doc["syndrome_count"] == 16
                    and len(set(doc["syndromes"].values())) == 16
                    and doc["kl_residual"] <= KL_RESIDUAL
                    and doc["hamming"] == {"satisfied": True, "perfect": True}):
                return "validate report is wrong"
            return None
        if args[0] == "plan":
            configs = doc["configurations"]
            labels = [a + b for a in "IZXY" for b in "IZXY"][1:]
            rotated = [c["b"] for c in configs[1::2] if c["kind"] == "rotated"]
            if not (len(configs) == 31 and configs[0] == {"kind": "bare"}
                    and [c["kind"] for c in configs[2::2]] == ["toggled"] * 15
                    and sorted(rotated) == sorted(labels)):
                return "plan report is wrong"
            return None
        chi = chi_of_report(doc) + self.inject
        return check_chi(chi, oracle_chi(kraus, doc["basis"]), shots)


WORKLOADS = {
    "sweep-code5": SweepCode5,
    "shotnoise-code5": ShotNoiseCode5,
    "cli-mix": CliMix,
}


class Runner:
    """Runs and checks ops, tallying attempts and failures."""

    def __init__(self, workload: Workload, reference: Reference, tracer=None):
        self.w = workload
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_op(self, i: int) -> float:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = i
        t0 = time.perf_counter()
        try:
            out = self.w.op(i)
        except Exception:  # the loop goes on; the op counts as failed
            wall = time.perf_counter() - t0
            self._fail(i, traceback.format_exc(limit=-1).strip())
            return wall
        wall = time.perf_counter() - t0
        try:
            problem = self.w.check(i, out)
        except (ValueError, KeyError, TypeError) as exc:  # unreadable report
            problem = "report does not parse: %r" % exc
        if problem:
            self._fail(i, problem)
        return wall

    def _fail(self, i: int, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append("op %d: %s" % (i, problem))

    def loop(self, first: int, seconds: float, ops: int):
        """(op walls, reference walls) of whole cycles from op ``first``,
        until ``seconds`` have passed or, when ``ops`` > 0, ``ops`` ops
        have run. The reference computation runs just before each op."""
        walls, refs = [], []
        deadline = time.perf_counter() + seconds
        i = first
        while True:
            for _ in range(self.w.cycle):
                refs.append(self.reference.run())
                walls.append(self.run_op(i))
                i += 1
            if ops > 0:
                if len(walls) >= ops:
                    return walls, refs
            elif time.perf_counter() >= deadline:
                return walls, refs


def scaled_speed(walls, refs, window: int):
    """(op time, ops per second) at the reference host's speed.

    The run is cut into windows of ``window`` consecutive ops, each doing
    the same work. A window's op times are scaled by REFERENCE_S over the
    mean reference time measured among them; the result is the median
    over windows of the scaled median op time and of the scaled
    throughput. The mean, not the median, of the reference times: when
    the process shares a core, most reference runs fit between two
    preemptions and their median misses the slowdown that every longer
    op pays.
    """
    op_s, rate = [], []
    for i in range(0, max(len(walls) - window, 0) + 1, window):
        ops, ref = walls[i:i + window], refs[i:i + window]
        scale = REFERENCE_S * len(ref) / sum(ref)
        op_s.append(statistics.median(ops) * scale)
        rate.append(len(ops) / (sum(ops) * scale))
    return statistics.median(op_s), statistics.median(rate)


def import_seconds() -> float:
    """Median time of ``import syntomo`` in three fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import syntomo; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout)
             for _ in range(3)]
    return statistics.median(times)


def environment(seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads_env": {key: os.environ.get(key) for key in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run this many ops (whole cycles) instead of --seconds")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up op")
    parser.add_argument("--inject-chi-error", type=float, default=0.0,
                        help="add this to every chi before checking (tests the checks)")
    args = parser.parse_args(argv)

    source = (ROOT / "src").resolve()
    if Path(st.__file__).resolve().parent.parent != source:
        print("worker: syntomo imported from %s, not %s" % (st.__file__, source),
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, args.inject_chi_error)
    reference = Reference()
    runner = Runner(workload, reference)
    try:
        workload.setup()
        runner.run_op(-1)
        result = {"ready": time.monotonic()}
        # set-up time is scaled like op time, by the host's speed just after it
        result["setup_scale"] = REFERENCE_S / statistics.mean(
            reference.run() for _ in range(SETUP_REFERENCE_RUNS))
        if not args.setup_only:
            walls, refs = runner.loop(0, args.seconds / (2 if args.trace else 1), args.ops)
            if args.trace:
                result["metrics"] = traced_metrics(workload, runner, walls, refs, args)
            else:
                op_s, ops_per_s = scaled_speed(walls, refs, workload.window)
                result["raw"] = {"op_s": statistics.median(walls),
                                 "ops_per_s": len(walls) / sum(walls),
                                 "reference_s": statistics.median(refs)}
                result["metrics"] = {
                    "op_s": op_s,
                    "ops_per_s": ops_per_s,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                }
            result["env"] = environment(args.seed)
    finally:
        workload.close()
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems)
    print(json.dumps(result))
    return 0


def traced_metrics(workload, runner, untraced_walls, untraced_refs, args) -> dict:
    """Second half of a traced run: set up again and run ops under spans."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    workload.setup()
    walls, refs = runner.loop(len(untraced_walls), args.seconds / 2, args.ops)
    metrics = tracer.layer_metrics(walls)
    metrics["trace.overhead_frac"] = (
        scaled_speed(walls, refs, workload.window)[0]
        / scaled_speed(untraced_walls, untraced_refs, workload.window)[0] - 1.0)
    metrics["cli.import_s"] = import_seconds()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed)))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
