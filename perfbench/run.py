"""The syntomo benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each measurement runs in a
fresh ``perfbench/worker.py`` process that imports ``syntomo`` from the
checkout's ``src``. With ``--trace 0`` the run starts SETUP_PROBES
workers that only set up and warm up, half before and half after the
one that measures; ``setup_s`` is the median, over all seven, of the
time from process start to the first timed op, scaled like op time to
the reference host's speed (see ``worker.Reference``). The raw times
are in the record. With ``--trace 1`` one worker
reports the per-layer metrics. The metric names and units come from
``BENCHMARK.json``. The environment, any failed ops and the full record
are printed and saved under ``perfbench/out``; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
RUN_LIMIT_S = 170  # workers still running this long after start are killed


def run_worker(argv, env, deadline) -> tuple[dict, float]:
    """(the worker's JSON result, its seconds from spawn to first timed op)."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + argv,
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run.py: worker exited with code %d" % proc.returncode)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc, doc["ready"] - spawned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run this many ops instead of --seconds (tests)")
    parser.add_argument("--inject-chi-error", type=float, default=0.0,
                        help="perturb every chi before checking (tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    if not (ROOT / "src" / "syntomo" / "__init__.py").is_file():
        print("run.py: no syntomo source at %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--ops", str(args.ops),
                   "--inject-chi-error", repr(args.inject_chi_error)]
    # set-up probes before and after the measuring worker
    n_probes = 0 if args.trace else SETUP_PROBES
    probe = worker_args + ["--setup-only"]
    probes = [run_worker(probe, env, deadline) for _ in range(n_probes // 2)]
    probes.append(run_worker(worker_args, env, deadline))
    doc = probes[-1][0]
    probes += [run_worker(probe, env, deadline) for _ in range(n_probes - n_probes // 2)]
    runs = [doc for doc, _ in probes]
    raw_setup_s = [s for _, s in probes]
    measured = dict(doc["metrics"], setup_s=statistics.median(
        s * d["setup_scale"] for d, s in probes))

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in measured]
    if missing:
        raise SystemExit("run.py: worker did not report %s" % ", ".join(missing))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    problems = [p for r in runs for p in r["problems"]]
    record = dict(result, workload=args.workload, env=doc["env"], problems=problems,
                  raw=dict(doc.get("raw", {}), setup_s=raw_setup_s))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print("env " + json.dumps(doc["env"], sort_keys=True))
    print("raw " + json.dumps(record["raw"], sort_keys=True))
    for problem in problems:
        print("failed " + problem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
