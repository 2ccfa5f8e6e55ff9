"""The benchmark's bit-exact gate on sampled counts, run as a test.

``perfbench/worker.py`` checks the counts of its ``shotnoise-code5``
ops against ``COUNT_DIGESTS``. A change that moves the simulated
probabilities or the sampler past a drawn count would otherwise show
up only as a failed benchmark run. The worker is loaded by path and
only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_shotnoise_counts_match_the_recorded_digests(worker):
    assert sorted(worker.COUNT_DIGESTS) == list(range(-1, 8))
    workload = worker.ShotNoiseCode5(worker.DEFAULT_SEED, 0.0)
    workload.setup()
    digests = {i: worker.counts_digest(workload.op(i).records)
               for i in worker.COUNT_DIGESTS}
    assert digests == worker.COUNT_DIGESTS
