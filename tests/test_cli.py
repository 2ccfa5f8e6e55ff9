"""Command-line pipeline: validate, plan, characterize."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

import syntomo as st
from conftest import BELL2_CODE, bell_pair_generators, malformed, rotated_surface_generators
from syntomo.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    return rc, json.loads(out), err


def code3_codewords_doc():
    """The JSON of code3 given by codewords (its derived basis), so the
    document has codeword nodes."""
    code = st.builtin_code("code3")
    return st.code_to_json(st.build_code(code.generators, code.noisy_coords,
                                         codewords=code.logical_basis))


class TestValidate:
    def test_code3_text(self, capsys):
        rc, out, _ = run(capsys, "validate", "--code", "code3")
        assert rc == 0
        assert "satisfied, perfect" in out
        assert "4 distinct syndromes" in out
        for row in ("I    -> 00", "Z    -> 11", "X    -> 01", "Y    -> 10"):
            assert row in out

    def test_code5_json(self, capsys):
        rc, doc, _ = run_json(capsys, "validate", "--code", "code5")
        assert rc == 0
        assert doc["pass"] is True
        assert doc["kl_residual"] < 1e-8
        assert doc["syndrome_count"] == 16
        assert len(doc["syndromes"]) == 16
        assert doc["hamming"] == {"satisfied": True, "perfect": True}

    def test_code_file(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(st.code_to_json(st.builtin_code("code3"))))
        rc, doc, _ = run_json(capsys, "validate", "--code", str(path))
        assert rc == 0 and doc["pass"] is True

    def test_bell_pair_code_file(self, capsys, tmp_path):
        # the p=3 rung of the ladder: 64 errors on a 7-qubit register,
        # logical basis derived from the spectator qubit's X and Z
        path = tmp_path / "bell3.json"
        path.write_text(json.dumps({
            "generators": bell_pair_generators(3), "noisy_coords": [0, 1, 2],
            "logical_ops": {"X": "IIIIIIX", "Z": "IIIIIIZ"}}))
        rc, doc, _ = run_json(capsys, "validate", "--code", str(path))
        assert rc == 0 and doc["pass"] is True
        assert doc["syndrome_count"] == 64 and len(set(doc["syndromes"].values())) == 64
        assert doc["kl_residual"] <= 1e-8
        rc, out, _ = run(capsys, "plan", "--code", str(path))
        assert rc == 0 and out.startswith("127 configurations\n")
        assert out.count("\n") == 128

    def test_unknown_code_name(self, capsys):
        rc, _, err = run(capsys, "validate", "--code", "code7")
        assert rc == 2
        assert "neither a builtin name" in err

    def test_colliding_code_file(self, capsys, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps({"generators": ["XX"],
                                    "noisy_coords": [0]}))
        rc, _, err = run(capsys, "validate", "--code", str(path))
        assert rc == 1
        assert "syndrome collision" in err

    @pytest.mark.parametrize("noisy", [6, 7])
    def test_too_many_noisy_qubits_for_the_syndromes(self, capsys, tmp_path, noisy):
        # 11 generators Z_q Z_{q+1} on 12 qubits have 2^11 syndromes,
        # fewer than the 4^6 errors on six noisy qubits
        path = tmp_path / "zz12.json"
        path.write_text(json.dumps({
            "generators": ["I" * q + "ZZ" + "I" * (10 - q) for q in range(11)],
            "noisy_coords": list(range(noisy))}))
        rc, out, err = run(capsys, "validate", "--code", str(path))
        assert rc == 1 and out == ""
        assert err == ("error: syndrome collision: %d errors on %d noisy qubits "
                       "exceed the 2048 syndromes of 11 generators\n"
                       % (4 ** noisy, noisy))

    def test_code_file_past_the_mask_cap(self, capsys, tmp_path):
        path = tmp_path / "z63.json"
        path.write_text(json.dumps({"generators": ["Z" * 63], "noisy_coords": []}))
        rc, out, err = run(capsys, "validate", "--code", str(path))
        assert rc == 1 and out == ""
        assert err == "error: Pauli masks are capped at 62 qubits (int64), got 63\n"

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        rc, _, err = run(capsys, "validate", "--code", str(path))
        assert rc == 2


class TestPlan:
    def test_counts(self, capsys):
        rc, out, _ = run(capsys, "plan", "--code", "code3")
        assert rc == 0 and "7 configurations" in out
        rc, out, _ = run(capsys, "plan", "--code", "code5")
        assert rc == 0 and "31 configurations" in out

    def test_json_round_trips_through_library(self, capsys):
        rc, doc, _ = run_json(capsys, "plan", "--code", "code3")
        assert rc == 0
        assert len(doc["configurations"]) == 7
        code = st.builtin_code("code3")
        configs, readouts = st.plan_from_json(code, doc)
        assert len(configs) == 7 and len(readouts) == 28
        assert readouts.a_index.shape == (7, 4)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        rc, out, _ = run(capsys, "plan", "--code", "code3", "--format",
                         "json", "--out", str(path))
        assert rc == 0
        doc = json.loads(path.read_text())
        assert len(doc["configurations"]) == 7


class TestCharacterize:
    def test_amplitude_damping_exact(self, capsys):
        rc, doc, _ = run_json(capsys, "characterize", "--code", "code3",
                              "--channel", "amplitude-damping",
                              "--params", "0.36")
        assert rc == 0
        assert doc["mode"] == "exact"
        assert doc["basis"] == ["I", "Z", "X", "Y"]
        chi = np.array([[complex(re, im) for re, im in row]
                        for row in doc["chi"]])
        assert abs(chi[0, 1] - 0.09) < 1e-9
        assert abs(chi[2, 3] + 0.09j) < 1e-9
        assert doc["error_report"]["frobenius_error"] < 1e-9
        assert max(r["max_residual"] for r in doc["residuals"]) < 1e-10

    def test_correlated_flip_diagonal(self, capsys):
        rc, doc, _ = run_json(capsys, "characterize", "--code", "code5",
                              "--channel", "correlated-flip",
                              "--params", "0.3")
        assert rc == 0
        chi = np.array([[complex(re, im) for re, im in row]
                        for row in doc["chi"]])
        basis = st.builtin_code("code5").error_basis
        xx = basis.index_of_label("XX")
        assert abs(chi[0, 0] - 0.7) < 1e-9
        assert abs(chi[xx, xx] - 0.3) < 1e-9
        off = chi.copy()
        off[0, 0] = off[xx, xx] = 0.0
        assert np.abs(off).max() < 1e-9

    def test_sampled_mode_is_reproducible(self, capsys):
        argv = ("characterize", "--code", "code3", "--channel",
                "amplitude-damping", "--params", "0.36", "--mode", "sampled",
                "--shots", "20000", "--seed", "11")
        rc_a, doc_a, _ = run_json(capsys, *argv)
        rc_b, doc_b, _ = run_json(capsys, *argv)
        assert rc_a == rc_b == 0
        assert doc_a == doc_b
        assert doc_a["mode"] == "sampled"
        assert doc_a["shots"] == 20000 and doc_a["seed"] == 11
        # finite-shot estimate is near but not equal to the oracle
        err = doc_a["error_report"]["frobenius_error"]
        assert 0.0 < err < 0.1

    def test_channel_file_has_no_oracle_report(self, capsys, tmp_path):
        ch = st.builtin_channel("amplitude-damping", [0.2])
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(st.channel_to_json(ch)))
        rc, doc, _ = run_json(capsys, "characterize", "--code", "code3",
                              "--channel", str(path))
        assert rc == 0
        assert "error_report" not in doc
        chi = np.array([[complex(re, im) for re, im in row]
                        for row in doc["chi"]])
        oracle = st.chi_from_kraus(ch, st.builtin_code("code3").error_basis)
        assert np.abs(chi - oracle.entries).max() < 1e-9

    def test_beta_option(self, capsys):
        rc, doc, _ = run_json(capsys, "characterize", "--code", "code3",
                              "--channel", "amplitude-damping",
                              "--params", "0.36", "--beta", "0.6,0.8")
        assert rc == 0
        assert doc["error_report"]["frobenius_error"] < 1e-9

    def test_support_mismatch_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "characterize", "--code", "code3",
                         "--channel", "correlated-flip", "--params", "0.2")
        assert rc == 1
        assert "qubit" in err

    @pytest.mark.parametrize("source", ["builtin", "file"])
    def test_too_wide_channel_refused_before_it_is_drawn(self, capsys, tmp_path, source):
        # a 5-qubit random-cp of rank 256 holds 2^18 Kraus entries, 4 MiB
        if source == "builtin":
            argv = ["--channel", "random-cp", "--params", "1,5,256"]
        else:
            path = tmp_path / "channel.json"
            path.write_text(json.dumps(st.channel_to_json(
                st.builtin_channel("correlated-flip", [0.2]))))
            argv = ["--channel", str(path)]
        tracemalloc.start()
        try:
            rc, out, err = run(capsys, "characterize", "--code", "code3", *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        width = 5 if source == "builtin" else 2
        assert rc == 1 and out == ""
        assert err == ("error: channel acts on %d qubits, wider than the code's "
                       "noisy subsystem of 1\n" % width)
        assert peak < 1 << 20

    def test_bad_params_are_input_errors(self, capsys):
        rc, _, err = run(capsys, "characterize", "--code", "code3",
                         "--channel", "amplitude-damping",
                         "--params", "peach")
        assert rc == 2
        rc, _, _ = run(capsys, "characterize", "--code", "code3",
                       "--channel", "amplitude-damping", "--params", "1.5")
        assert rc == 2
        rc, _, _ = run(capsys, "characterize", "--code", "code3",
                       "--channel", "amplitude-damping", "--params", "0.3",
                       "--beta", "1;0")
        assert rc == 2

    def test_unknown_channel(self, capsys):
        rc, _, err = run(capsys, "characterize", "--code", "code3",
                         "--channel", "nosuch")
        assert rc == 2
        assert "known names" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, _, _ = run(capsys, "characterize", "--code", "code3",
                       "--channel", "amplitude-damping", "--params", "0.1",
                       "--format", "json", "--out", str(path))
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["channel"] == "amplitude-damping(0.1)"

    def test_integer_params_past_2_53_keep_their_value(self, capsys):
        """Seeds 2^53 and 2^53 + 1 are two channels, as the library's are:
        each label names the seed given, and their chi differ."""
        reports = {}
        for seed in (1 << 53, (1 << 53) + 1):
            rc, doc, err = run_json(capsys, "characterize", "--code", "code3",
                                    "--channel", "random-cp", "--params", "%d,1,2" % seed)
            assert (rc, err) == (0, "")
            assert doc["channel"] == "random-CP(seed=%d,p=1,r=2)" % seed
            oracle = st.chi_from_kraus(st.builtin_channel("random-cp", [seed, 1, 2]),
                                       st.builtin_code("code3").error_basis)
            assert np.abs(np.array(doc["chi"]) @ (1, 1j) - oracle.entries).max() < 1e-12
            reports[seed] = doc["chi"]
        assert reports[1 << 53] != reports[(1 << 53) + 1]

    def test_an_integer_past_the_float_range_is_one_error_line(self, capsys):
        huge = "1" + "0" * 400
        rc, out, err = run(capsys, "characterize", "--code", "code3",
                           "--channel", "depolarizing", "--params", huge)
        assert (rc, out) == (2, "")
        assert err == "error: depolarizing parameter %s outside [0, 1]\n" % huge

    def test_a_repeated_command_builds_and_plans_nothing(self, capsys, monkeypatch):
        """A second characterize of a built-in in one process reuses its
        code and the plan kept on it, and writes the same bytes."""
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(st.codes, "build_code", counted("build", st.codes.build_code))
        monkeypatch.setattr(st.protocol, "_compile", counted("compile", st.protocol._compile))
        argv = ("characterize", "--code", "code5", "--channel", "random-cp",
                "--params", "3,2,2", "--mode", "sampled", "--seed", "4", "--format", "json")
        first = run(capsys, *argv)
        del calls[:]
        assert run(capsys, *argv) == first and first[0] == 0
        assert calls == []


GOLDEN_REPORTS = [
    (("--code", "code5", "--channel", "random-cp", "--params", "3,2,2",
      "--mode", "sampled", "--seed", "4"), "55f1ca3a8bb49222"),
    (("--code", "code5", "--channel", "random-cp", "--params", "3,2,2",
      "--seed", "4"), "ca2650639b20ad58"),
    (("--code", "code3", "--channel", "amplitude-damping", "--params", "0.36",
      "--mode", "sampled", "--shots", "10", "--seed", "1"), "6fb6974d66a37de3"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_REPORTS,
                         ids=["code5-sampled", "code5-exact", "code3-sampled"])
def test_golden_report(capsys, argv, digest):
    """JSON reports are byte stable: sha256 prefixes of fixed runs."""
    rc, out, _ = run(capsys, "characterize", *argv, "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


class TestInputBoundary:
    """Bad inputs end in one error line and exit 2, never a traceback."""

    def check(self, capsys, *argv):
        rc, out, err = run(capsys, "characterize", "--code", "code3", *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_infinite_params(self, capsys):
        err = self.check(capsys, "--channel", "random-cp",
                         "--params", "inf,1,1")
        assert "finite" in err

    def test_nan_in_channel_file(self, capsys, tmp_path):
        doc = st.channel_to_json(st.builtin_channel("amplitude-damping", [0.2]))
        path = tmp_path / "channel.json"
        doc["kraus"][0][0][0] = [float("nan"), 0.0]
        path.write_text(json.dumps(doc))
        err = self.check(capsys, "--channel", str(path))
        assert "non-finite" in err

    def check_code(self, capsys, tmp_path, doc):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "validate", "--code", str(path),
                           "--format", "json")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_nan_codeword_file(self, capsys, tmp_path):
        doc = code3_codewords_doc()
        for bad in ("nan", "inf", "-inf"):
            doc["codewords"][0][1] = [float(bad), 0.0]
            err = self.check_code(capsys, tmp_path, doc)
            assert "non-finite" in err

    def test_non_string_generator_or_logical_op(self, capsys, tmp_path):
        docs = [{"generators": [5, "YYZ"], "noisy_coords": [0]},
                {"generators": ["XIX", "YYZ"], "noisy_coords": [0],
                 "logical_ops": {"X": 5, "Z": "XYX"}},
                {"generators": ["XIX", "YYZ"], "noisy_coords": [0],
                 "logical_ops": {"X": "−ZXZ", "Z": ["XYX"]}}]
        for doc in docs:
            err = self.check_code(capsys, tmp_path, doc)
            assert "must be a string" in err

    def test_generators_must_be_a_list(self, capsys, tmp_path):
        # a string once iterated its letters, and an object its keys
        for generators in ("XIX", {"XIX": 1, "YYZ": 2}):
            err = self.check_code(capsys, tmp_path, {"generators": generators,
                                                     "noisy_coords": [0]})
            assert err == ('error: bad code schema in %s: "generators" must be '
                           "a list, got %r\n" % (tmp_path / "code.json", generators))

    def test_non_integer_noisy_coords(self, capsys, tmp_path):
        # bools once read as qubits 0 and 1; 1.0 and a string failed
        # with Python's own operator messages
        for coords, shown in (([False, True], "[False, True]"),
                              ([0, 1.0], "[0, 1.0]"), ("01", "'01'")):
            err = self.check_code(capsys, tmp_path, {
                "generators": ["XIXII", "ZIZII", "IXIXI", "IZIZI"],
                "noisy_coords": coords,
                "logical_ops": {"X": "IIIIX", "Z": "IIIIZ"}})
            assert err == ("error: bad code schema in %s: noisy coordinates "
                           "must be integers, got %s\n" % (tmp_path / "code.json", shown))

    def test_undecodable_code_file(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        path.write_bytes(b"\xff\xfe{")
        rc, out, err = run(capsys, "validate", "--code", str(path))
        assert rc == 2 and out == ""
        assert err.startswith("error: cannot parse") and err.count("\n") == 1

    def test_channel_over_qubit_cap(self, capsys):
        err = self.check(capsys, "--channel", "identity", "--params", "40")
        assert "cap" in err

    def test_wrong_length_beta(self, capsys):
        # parses fine and is normalized, but code3 has 2 logical amplitudes
        for beta, count in (("1,0,0", 3), ("1", 1)):
            err = self.check(capsys, "--channel", "amplitude-damping",
                             "--params", "0.3", "--beta", beta)
            assert err == "error: expected 2 logical amplitudes, got %d in %r\n" \
                % (count, beta)

    def test_unnormalized_beta(self, capsys):
        for beta in ("1,1", "nan,0"):
            err = self.check(capsys, "--channel", "amplitude-damping",
                             "--params", "0.3", "--beta", beta)
            assert "not normalized" in err

    def test_beta_whose_squared_norm_overflows(self, capsys):
        # np.linalg.norm once warned "overflow encountered in dot" on
        # stderr first, and raised where warnings are errors
        err = self.check(capsys, "--channel", "depolarizing", "--params", "0.1",
                         "--beta", "1e308,1e308")
        assert err == "error: logical amplitudes '1e308,1e308' are not normalized\n"

    def test_integer_params_past_the_digit_limit(self, capsys):
        # int() refuses such a literal, and its float once read as infinite
        limit = sys.get_int_max_str_digits()
        err = self.check(capsys, "--channel", "random-cp",
                         "--params", "1" * (limit + 1) + ",1,2")
        assert err == ("error: channel parameter of %d digits exceeds Python's "
                       "integer digit limit of %d\n" % (limit + 1, limit))
        rc, _, err = run(capsys, "characterize", "--code", "code3", "--channel",
                         "random-cp", "--params", "7" * 401 + ",1,2")
        assert (rc, err) == (0, "")

    def test_file_that_is_not_an_object(self, capsys, tmp_path):
        for doc, found in (([1, 2], "list"), ("XIX", "str"), (None, "null")):
            err = self.check_code(capsys, tmp_path, doc)
            assert err == ("error: bad code schema in %s: expected a JSON object, "
                           "got %s\n" % (tmp_path / "code.json", found))
        path = tmp_path / "channel.json"
        path.write_text("[1, 2]")
        err = self.check(capsys, "--channel", str(path))
        assert err == ("error: bad channel schema in %s: expected a JSON object, "
                       "got list\n" % path)

    def test_missing_keys_are_named(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        for ops, reason in (({"X": "IIIIX"}, "missing key 'Z'"),
                            (["IIIIX", "IIIIZ"],
                             'expected a JSON object for "logical_ops", got list')):
            err = self.check_code(capsys, tmp_path, {**BELL2_CODE, "logical_ops": ops})
            assert err == "error: bad code schema in %s: %s\n" % (path, reason)
        err = self.check_code(capsys, tmp_path, {"generators": ["XIX", "YYZ"]})
        assert err == "error: bad code schema in %s: missing key 'noisy_coords'\n" % path
        channel = tmp_path / "channel.json"
        channel.write_text(json.dumps({"p": 1}))
        err = self.check(capsys, "--channel", str(channel))
        assert err == "error: bad channel schema in %s: missing key 'kraus'\n" % channel

    def test_zero_shots(self, capsys):
        err = self.check(capsys, "--channel", "amplitude-damping",
                         "--params", "0.3", "--mode", "sampled",
                         "--shots", "0")
        assert "shots" in err

    def test_shots_beyond_int64(self, capsys):
        # numpy's multinomial takes a signed 64-bit count
        err = self.check(capsys, "--channel", "amplitude-damping",
                         "--params", "0.3", "--mode", "sampled",
                         "--shots", str(1 << 63))
        assert "shots must be at most 2^63 - 1" in err
        rc, _, _ = run(capsys, "characterize", "--code", "code3",
                       "--channel", "amplitude-damping", "--params", "0.3",
                       "--mode", "sampled", "--shots", str((1 << 63) - 1))
        assert rc == 0

    def test_fractional_shots_refused_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["characterize", "--code", "code3", "--channel", "depolarizing",
                  "--params", "0.1", "--mode", "sampled", "--shots", "1000.7"])
        assert exc.value.code == 2
        assert "argument --shots: invalid int value: '1000.7'" in capsys.readouterr().err
        rc, doc, _ = run_json(capsys, "characterize", "--code", "code3",
                              "--channel", "depolarizing", "--params", "0.1",
                              "--mode", "sampled", "--shots", "1000")
        assert rc == 0 and doc["shots"] == 1000

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_out_of_range(self, capsys, seed):
        # the seed keys the sampler as it is, so it must fit 64 bits
        err = self.check(capsys, "--channel", "amplitude-damping",
                         "--params", "0.3", "--mode", "sampled",
                         "--seed", str(seed))
        assert "seed must be an integer in [0, 2^64 - 1], got %d" % seed in err

    def test_largest_seed_runs(self, capsys):
        rc, doc, err = run_json(capsys, "characterize", "--code", "code3",
                                "--channel", "amplitude-damping", "--params", "0.3",
                                "--mode", "sampled", "--shots", "100",
                                "--seed", str((1 << 64) - 1))
        assert (rc, err) == (0, "")
        assert doc["seed"] == (1 << 64) - 1

    def test_channel_file_qubit_count_must_be_positive(self, capsys, tmp_path):
        path = tmp_path / "channel.json"
        for p in (-1, 0):
            path.write_text(json.dumps({"p": p, "kraus": [[[[1.0, 0.0]]]]}))
            err = self.check(capsys, "--channel", str(path))
            assert "channel qubit count p must be positive, got %d" % p in err

    @pytest.mark.parametrize("channel, params, want", [
        ("depolarizing", None, "depolarizing takes 1 parameter, got 0"),
        ("depolarizing", "0.1,0.2", "depolarizing takes 1 parameter, got 2"),
        ("amplitude-damping", "0.1,0.2", "amplitude-damping takes 1 parameter"),
        ("identity", "1,1", "identity takes 0 or 1 parameters, got 2"),
        ("random-cp", "1,1", "random-cp takes 3 parameters, got 2"),
        ("random-cp", "1,1,1,1", "random-cp takes 3 parameters, got 4"),
    ])
    def test_wrong_parameter_count(self, capsys, channel, params, want):
        argv = ["--channel", channel] + (["--params", params] if params else [])
        assert want in self.check(capsys, *argv)

    def test_channel_file_qubit_count_must_be_an_integer(self, capsys, tmp_path):
        doc = st.channel_to_json(st.builtin_channel("amplitude-damping", [0.2]))
        path = tmp_path / "channel.json"
        for bad in (1.5, 1.0, "1", True, None):
            doc["p"] = bad
            path.write_text(json.dumps(doc))
            err = self.check(capsys, "--channel", str(path))
            assert "bad channel schema" in err and "must be an integer" in err

    def test_unwritable_out(self, capsys, tmp_path):
        for out in (tmp_path / "missing" / "r.json", tmp_path):
            err = self.check(capsys, "--channel", "depolarizing",
                             "--params", "0.1", "--out", str(out))
            assert err.startswith("error: cannot write %s: " % out)

    def test_amplitude_must_be_a_pair(self, capsys, tmp_path):
        err = self.check_code(capsys, tmp_path, {
            "generators": ["XIX", "YYZ"], "noisy_coords": [0],
            "codewords": "abc"})
        assert err.startswith("error: bad code schema in %s: " % (tmp_path / "code.json"))
        assert "[re, im] pair" in err
        path = tmp_path / "channel.json"
        good = st.channel_to_json(st.builtin_channel("amplitude-damping", [0.2]))
        # a string, a one-number amplitude, an integer beyond float range
        for kraus in ("x", [[[[1], [0, 0]], [[0, 0], [1, 0]]]],
                      [[[[10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]]]):
            path.write_text(json.dumps({**good, "kraus": kraus}))
            err = self.check(capsys, "--channel", str(path))
            assert err.startswith("error: bad channel schema in %s: " % path)

    def test_random_cp_rank_capped_at_four_to_the_p(self, capsys):
        err = self.check(capsys, "--channel", "random-cp", "--params", "1,1,5")
        assert err == ("error: random-CP rank 5 exceeds 4^1 = 4, the most "
                       "Kraus operators a 1-qubit channel needs\n")

    def test_random_cp_kraus_stack_capped_at_one_dense_matrix(self, capsys):
        # rank 4^8 on 8 qubits passes the rank and qubit caps, but its
        # Kraus stack would be a 32 GiB draw
        err = self.check(capsys, "--channel", "random-cp", "--params", "1,8,65536")
        assert err == ("error: random-CP rank 65536 on 8 qubits needs 4294967296 "
                       "Kraus entries, over the 4^12 of one dense matrix at the "
                       "12-qubit cap\n")

    # argv decodes the byte 0xff of a file name to the lone surrogate \udcff
    NON_UTF8_COMMANDS = [("validate",), ("plan",),
                         ("characterize", "--channel", "amplitude-damping",
                          "--params", "0.2")]

    def non_utf8_code_file(self, tmp_path):
        path = tmp_path / os.fsdecode(b"c\xff.json")
        path.write_text(json.dumps(st.code_to_json(st.builtin_code("code3"))))
        return str(path)

    def test_non_utf8_path_reports(self, capsys, tmp_path):
        code = self.non_utf8_code_file(tmp_path)
        out = tmp_path / os.fsdecode(b"r\xff.out")
        for command, *rest in self.NON_UTF8_COMMANDS:
            argv = (command, "--code", code, *rest)
            rc, doc, err = run_json(capsys, *argv)
            assert (rc, err) == (0, "")
            if command != "plan":
                assert doc["code"] == code
            for fmt in ("json", "text"):
                out.unlink(missing_ok=True)
                rc, _, err = run(capsys, *argv, "--format", fmt, "--out", str(out))
                assert (rc, err) == (0, "")
                raw = out.read_bytes()
                if fmt == "json":
                    # valid UTF-8 JSON that names the file
                    assert json.loads(raw.decode("utf-8")) == doc
                elif command != "plan":
                    assert os.fsencode(code) in raw

    def test_non_utf8_path_text_on_a_strict_stdout(self, capsysbinary, tmp_path):
        code = self.non_utf8_code_file(tmp_path)
        assert sys.stdout.errors == "strict"
        assert main(["validate", "--code", code]) == 0
        out = capsysbinary.readouterr().out
        assert out.startswith(b"code: " + os.fsencode(code) + b"  [[3,1]]")


# small valid documents to corrupt: codes of 3 and 5 qubits with given
# and derived bases, channels on 1 and 2 qubits (rank 2)
FUZZ_CODES = [code3_codewords_doc(), BELL2_CODE]
FUZZ_CHANNELS = [st.channel_to_json(st.builtin_channel("amplitude-damping", [0.2])),
                 st.channel_to_json(st.builtin_channel("random-cp", [3, 2, 2]))]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=hs.data())
def test_fuzzed_files_end_in_one_error_line(capsys, tmp_path, data):
    path = tmp_path / "doc.json"
    if data.draw(hs.booleans(), label="code file"):
        path.write_text(json.dumps(data.draw(malformed(FUZZ_CODES))))
        argv = data.draw(hs.sampled_from([
            ["validate", "--code", str(path)],
            ["characterize", "--code", str(path), "--channel", "depolarizing",
             "--params", "0.1"]]))
    else:
        path.write_text(json.dumps(data.draw(malformed(FUZZ_CHANNELS))))
        code = data.draw(hs.sampled_from(["code3", "code5"]))
        argv = ["characterize", "--code", code, "--channel", str(path)]
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert rc in (1, 2), err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# command-line tokens: small counts, which keep a random-cp or identity
# channel at 6 qubits or fewer, floats, non-finite and junk text
FUZZ_TOKENS = (hs.integers(-3, 6).map(str) | hs.floats(-2, 2).map(repr)
               | hs.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "", " ",
                                  "x", ",", "1,", "0x1", "1j", "--", "1e", "[1]"]))
FUZZ_BIG = hs.integers(-3, (1 << 64) + 1).map(str) | FUZZ_TOKENS
# the options that a run on code3 accepts, as argv pieces
VALID_PARAMS = {
    "identity": hs.sampled_from(["", "1"]),
    "amplitude-damping": hs.floats(0, 1).map(repr),
    "depolarizing": hs.floats(0, 1).map(repr),
    "phase-damping": hs.floats(0, 1).map(repr),
    "random-cp": hs.tuples(hs.integers(0, 6), hs.integers(1, 4)).map(
        lambda seed_rank: "%d,1,%d" % seed_rank),
}
VALID_OPTIONS = {
    "--beta": hs.sampled_from(["1,0", "0,1", "0.6,0.8j", "0.6j,-0.8"]),
    "--mode": hs.sampled_from(["exact", "sampled"]),
    "--shots": hs.integers(1, (1 << 63) - 1).map(str),
    "--seed": hs.integers(0, (1 << 64) - 1).map(str),
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=hs.data())
def test_fuzzed_options_end_in_one_error_line(capsys, data):
    """characterize's options on code3: a run either succeeds, or ends
    in exit 1 or 2 with an ``error:`` line (argparse's usage error for
    option syntax), and never raises; with every option drawn valid, it
    succeeds."""
    channel = data.draw(hs.sampled_from(sorted(VALID_PARAMS) + ["correlated-flip"]),
                        label="channel")
    argv = ["characterize", "--code", "code3", "--channel", channel]
    valid = channel in VALID_PARAMS
    options = {"--params": VALID_PARAMS.get(channel), **VALID_OPTIONS}
    for option, good in options.items():
        # --params has no default but identity's, which VALID_PARAMS holds
        ways = ["valid", "fuzzed"] if option == "--params" else ["default", "valid", "fuzzed"]
        how = data.draw(hs.sampled_from(ways), label=option)
        if how == "default":
            continue
        if how == "valid" and good is not None:
            argv += [option, data.draw(good, label=option + " valid")]
            continue
        valid = False
        if option == "--params" or option == "--beta":
            tokens = data.draw(hs.lists(FUZZ_TOKENS, max_size=4), label=option + " tokens")
            argv += [option, ",".join(tokens)]
        else:
            argv += [option, data.draw(FUZZ_BIG if option in ("--shots", "--seed")
                                       else FUZZ_TOKENS, label=option + " token")]
    try:
        rc = main(argv)
        usage = False
    except SystemExit as exc:
        rc, usage = exc.code, True
    out, err = capsys.readouterr()
    if rc == 0:
        assert err == "" and out
        return
    assert not valid, err
    assert rc in (1, 2) and out == ""
    last = err.splitlines()[-1]
    if usage:
        assert rc == 2 and last.startswith("syntomo characterize: error: "), err
    else:
        assert last.startswith("error: ") and err.count("\n") == 1, err


def test_non_hermitian_generator_is_a_domain_error(capsys, tmp_path):
    # -iYYZ commutes with XIX but has eigenvalues +-i: no code space
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"generators": ["XIX", "-iYYZ"],
                                "noisy_coords": [0]}))
    rc, out, err = run(capsys, "validate", "--code", str(path))
    assert (rc, out) == (1, "")
    assert err == "error: generator −iYYZ is not Hermitian\n"


def test_report_escapes_label(capsys, tmp_path):
    label = 'line\nquote" back\\slash \x01'
    doc = st.channel_to_json(st.builtin_channel("amplitude-damping", [0.2]))
    doc["label"] = label
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    rc, report, _ = run_json(capsys, "characterize", "--code", "code3",
                             "--channel", str(path))
    assert rc == 0
    assert report["channel"] == label


@pytest.mark.parametrize("name", sorted(st.codes._BUILTIN_CODES))
def test_builtin_commands_read_no_logical_basis(capsys, basis_reads_refused, name):
    """A built-in is a generator code, and no command reads a basis."""
    for argv in (["validate"], ["plan"],
                 ["characterize", "--channel", "depolarizing", "--params", "0.1"],
                 ["characterize", "--channel", "random-cp", "--params", "3,1,2",
                  "--mode", "sampled", "--shots", "1000"]):
        rc, _, err = run(capsys, *argv, "--code", name)
        assert (rc, err) == (0, ""), argv
    rc, doc, _ = run_json(capsys, "validate", "--code", name)
    assert doc["kl_residual"] == 0 and doc["kl_identity_gap"] == 0


def surface_code_file(tmp_path, d, noisy):
    """A rotated surface-code file with ``noisy`` qubits next to the centre."""
    centre = (d // 2) * (d + 1)
    path = tmp_path / ("surface%d-p%d.json" % (d, noisy))
    path.write_text(json.dumps({"generators": rotated_surface_generators(d),
                                "noisy_coords": [centre, centre + 1, centre + d][:noisy]}))
    return path


@pytest.mark.parametrize("d, noisy", [(5, 2), (5, 3), (7, 2), (7, 3)])
def test_surface_code_files_past_the_dense_cap(capsys, tmp_path, d, noisy):
    """25- and 49-qubit codes given by generators validate, with the
    condition exact, and characterize exactly: no 2^n vector is formed."""
    path = surface_code_file(tmp_path, d, noisy)
    rc, doc, _ = run_json(capsys, "validate", "--code", str(path))
    assert rc == 0 and doc["pass"] is True
    assert (doc["n"], doc["k"], doc["syndrome_count"]) == (d * d, 1, 4 ** noisy)
    assert doc["kl_residual"] == 0 and doc["kl_identity_gap"] == 0
    rc, doc, _ = run_json(capsys, "characterize", "--code", str(path), "--channel",
                          "random-cp", "--params", "11,%d,2" % noisy)
    assert rc == 0
    code = st.code_from_json(json.loads(path.read_text()))
    oracle = st.chi_from_kraus(st.builtin_channel("random-cp", [11, noisy, 2]),
                               code.error_basis)
    chi = np.array(doc["chi"]) @ (1, 1j)
    assert np.abs(chi - oracle.entries).max() < 1e-12
    assert doc["error_report"]["frobenius_error"] < 1e-12


@pytest.mark.parametrize("d, noisy", [(5, 2), (5, 3), (7, 2), (7, 3)])
def test_surface_code_syndromes_letter_by_letter(capsys, tmp_path, d, noisy):
    """On the 25- and 49-qubit codes, which no dense oracle reaches: bit j
    of an error's syndrome is the parity of the positions where its letter
    and generator j's anticommute (both not I, and not equal), read off
    the strings alone, in the code's table and in ``validate``'s report."""
    path = surface_code_file(tmp_path, d, noisy)
    doc = json.loads(path.read_text())
    code = st.code_from_json(doc)
    rc, report, _ = run_json(capsys, "validate", "--code", str(path))
    assert rc == 0
    labels = ["".join(t) for t in itertools.product("IXYZ", repeat=noisy)]
    assert sorted(report["syndromes"]) == sorted(labels)
    for label in labels:
        bits = tuple(sum(e != "I" and gen[q] != "I" and e != gen[q]
                         for q, e in zip(doc["noisy_coords"], label)) % 2
                     for gen in doc["generators"])
        assert code.syndrome_table[code.error_basis.index_of_label(label)] == bits
        assert report["syndromes"][label] == "".join(map(str, bits))


def test_surface_code_validates_in_a_small_fresh_process(tmp_path):
    """``validate`` of the 49-qubit file as its own process stays under
    100 MB of resident memory: the child's child is the only process
    that RUSAGE_CHILDREN sees."""
    path = surface_code_file(tmp_path, 7, 3)
    src = str(Path(st.__file__).resolve().parents[1])
    script = ("import resource, subprocess, sys; "
              "subprocess.run([sys.executable, '-m', 'syntomo.cli', 'validate', "
              "'--code', sys.argv[1]], check=True, stdout=subprocess.DEVNULL); "
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    # ru_maxrss is in KiB on Linux
    assert int(proc.stdout) * 1024 < 100e6


def test_console_entry_point():
    # the child imports syntomo from where this process found it
    src = str(Path(st.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "syntomo.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "characterize" in proc.stdout
