"""The benchmark's own tests: every workload passes its checks, traced
call counts repeat, and the checks catch a wrong chi.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_passes_its_checks_at_a_tiny_op_count(workload):
    doc = result("--workload", workload, "--seed", "1", "--ops", "1")
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in doc["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat_exactly(workload):
    runs = [result("--workload", workload, "--seed", "3", "--ops", "16",
                   "--trace", "1") for _ in range(2)]
    counts = [{k: v["value"] for k, v in doc["metrics"].items()
               if k.endswith(".calls") or k in ("protocol.configurations",
                                                 "protocol.readouts")}
              for doc in runs]
    assert counts[0] == counts[1]
    assert [m["name"] for m in SPEC["per_layer"]] == list(runs[0]["metrics"])
    assert runs[0]["metrics"]["trace.unattributed_s"]["value"] > 0


def test_code5_plan_and_simulation_build_736_projectors():
    doc = result("--workload", "sweep-code5", "--seed", "3", "--ops", "16",
                 "--trace", "1")
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    # the plan runs in set-up, one simulation in each op
    assert metrics["setup.codes.syndrome_projector.calls"] == 240
    assert metrics["codes.syndrome_projector.calls"] == 496
    assert metrics["protocol.configurations"] == 31


@pytest.mark.parametrize("workload", ["sweep-code5", "shotnoise-code5", "cli-mix"])
def test_a_chi_off_by_1e_6_fails_the_op(workload):
    ops = "6" if workload == "cli-mix" else "4"
    doc = result("--workload", workload, "--seed", "2", "--ops", ops,
                 "--inject-chi-error", "1e-6")
    assert doc["correct"] is False
    # every op fails but cli-mix's validate, plan and sampled ops, which
    # carry no exact chi; the warm-up ops are all exact
    passing = 3 if workload == "cli-mix" else 0
    assert doc["failed"] == doc["attempted"] - passing


def test_op_times_are_scaled_by_the_reference_measured_beside_them():
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    try:
        import worker
    finally:
        del sys.path[:2]
    walls, refs = [0.1, 0.3] * 8, [0.002, 0.002] * 8
    quiet = worker.scaled_speed(walls, refs, 2)
    assert quiet == pytest.approx((0.2 * 2, 1 / 0.4))
    # a host half as fast for the second half of the run changes nothing
    slow = [2 * w for w in walls[8:]], [2 * r for r in refs[8:]]
    assert worker.scaled_speed(walls[:8] + slow[0], refs[:8] + slow[1], 2) == \
        pytest.approx(quiet)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep-code5", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
