"""The register oracle (``oracle.py``) against the package, on random codes.

The paper's claim holds for any stabilizer code whose syndromes tell
every error on the noisy subsystem apart, so ``simulate`` is checked on
seeded random Clifford images of the trivial code, against an oracle
built from each code's strings alone.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import oracle
import syntomo as st

# seeds of ``oracle.random_code``: 62 of them build, 18 with two noisy
# qubits; every other one is a syndrome collision
RANDOM_CODE_SEEDS = range(150)


def test_the_oracle_imports_numpy_alone():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or ".").split(".")[0])
    assert imported == {"itertools", "numpy"}


@pytest.mark.parametrize("seed", range(8))
def test_random_code_tableau_matches_dense_conjugation(seed):
    """The tableau's signed strings are the dense circuit's images U P U†."""
    generators, _, ops = oracle.random_code(seed)
    strings = list(generators) + [ops["X"], ops["Z"]]
    for text, image in zip(strings, oracle.clifford_images(seed), strict=True):
        assert np.abs(oracle.word(text) - image).max() < 1e-12


def test_register_reads_signed_strings_and_places_letters_by_coordinate():
    assert np.array_equal(oracle.word("−iY"), -1j * oracle.LETTERS["Y"])
    reg = oracle.Register(["XXII", "ZZII", "IIZZ"], (3, 0))
    assert np.array_equal(reg.error("XZ"), oracle.word("ZIIX"))
    assert reg.syndrome("XZ") == (1, 0, 1)
    assert reg.logical.shape == (16, 2)


def test_simulate_matches_the_oracle_on_random_codes():
    """Every accepted random code: each ``simulate`` record within 1e-12
    of the oracle's Tr(Pi_s U rho U†), matched by syndrome, and the
    reconstruction within 1e-12 of ``chi_from_kraus``."""
    accepted = two_qubit = 0
    for seed in RANDOM_CODE_SEEDS:
        generators, coords, ops = oracle.random_code(seed)
        try:
            code = st.build_code(generators, coords, logical_ops=ops)
        except ValueError as exc:
            assert str(exc).startswith("syndrome collision: "), (seed, exc)
            continue
        accepted += 1
        two_qubit += len(coords) == 2
        p = len(coords)
        channel = st.builtin_channel("random-cp", [seed, p, 2])
        beta = np.array([0.6, 0.8j])
        configs, readouts = st.plan_configurations(code)
        records = st.simulate(code, beta, channel, configs)
        reg = oracle.Register(generators, coords, ops)
        want, trace = reg.records(st.plan_to_json(code, configs), channel.kraus, beta)
        for rec, dist in zip(records, want, strict=True):
            assert set(dist) == set(rec.syndromes), seed
            got = dict(zip(rec.syndromes, rec.row.tolist()))
            assert max(abs(got[s] - dist[s]) for s in dist) < 1e-12, (seed, rec.config_index)
            assert abs(rec.row.sum() - trace) < 1e-12
        chi = st.reconstruct(records, readouts, code.error_basis)
        oracle_chi = st.chi_from_kraus(channel, code.error_basis)
        assert np.abs(chi.entries - oracle_chi.entries).max() < 1e-12, seed
    assert (accepted, two_qubit) == (62, 18)
