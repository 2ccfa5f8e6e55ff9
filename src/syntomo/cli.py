"""Command-line interface.

Subcommands: validate (code checks), plan (measurement configurations),
characterize (full pipeline with reconstruction report). Exit codes:
0 success, 1 domain or validation failure, 2 input or parse failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import jsonio
from .channels import (
    _builtin_recipe,
    channel_from_json,
    chi_from_kraus,
    validity_report,
)
from .codes import (
    _BUILTIN_CODES,
    builtin_code,
    code_from_json,
    hamming_bound,
    kl_scan,
)
from .estimation import SamplingPolicy, characterize, compare
from .protocol import _normalized, plan_configurations, plan_to_json


class _InputError(Exception):
    pass


class _DomainError(Exception):
    pass


def _reject_constant(name: str):
    raise ValueError("non-finite number %s is not valid JSON" % name)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise _InputError("cannot read %s: %s" % (path, exc))
    except ValueError as exc:  # JSONDecodeError and undecodable bytes too
        raise _InputError("cannot parse %s: %s" % (path, exc))


def _schema_error(kind: str, path: str, exc: Exception) -> _InputError:
    """A code or channel file that does not fit its schema."""
    reason = "missing key %r" % exc.args[0] if isinstance(exc, KeyError) else exc
    return _InputError("bad %s schema in %s: %s" % (kind, path, reason))


def _resolve_code(spec: str):
    if spec.strip().lower() in _BUILTIN_CODES:
        try:
            return builtin_code(spec)
        except ValueError as exc:
            raise _DomainError(str(exc))
    if not os.path.exists(spec):
        raise _InputError("code %r is neither a builtin name (%s) nor a file"
                          % (spec, ", ".join(_BUILTIN_CODES)))
    doc = _load_json(spec)
    try:
        return code_from_json(doc)
    except (KeyError, TypeError) as exc:
        raise _schema_error("code", spec, exc)
    except ValueError as exc:
        raise _DomainError(str(exc))


def _resolve_channel(spec: str, params):
    """(p, draw, have_oracle): the channel's qubit count and a call that
    forms it. A file's channel is read here; a built-in one is only
    checked, so its width is compared with the code's before it is
    drawn."""
    if os.path.exists(spec):
        doc = _load_json(spec)
        try:
            channel = channel_from_json(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise _schema_error("channel", spec, exc)
        return channel.p, lambda: channel, False
    try:
        return _builtin_recipe(spec, params) + (True,)
    except ValueError as exc:
        raise _InputError(str(exc))


def _parse_param(token: str):
    """A channel parameter: the token's float, or its int where that
    float would round it (a random-CP seed past 2^53 keeps its value).
    An integer literal past Python's digit limit is refused: its float
    would read as infinite."""
    value = float(token)
    try:
        exact = int(token)
    except ValueError:
        # an integer literal, as int() reads one, past the digit limit
        if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", token):
            raise _InputError("channel parameter of %d digits exceeds Python's "
                              "integer digit limit of %d"
                              % (sum(map(str.isdigit, token)),
                                 sys.get_int_max_str_digits()))
        return value
    return value if exact == value else exact


def _parse_beta(text: str, dim: int) -> np.ndarray:
    try:
        beta = np.array([complex(tok.strip()) for tok in text.split(",")])
    except ValueError:
        raise _InputError("cannot parse logical amplitudes %r" % text)
    # simulate checks these too, but here they are input failures; NaN fails
    if len(beta) != dim:
        raise _InputError("expected %d logical amplitudes, got %d in %r"
                          % (dim, len(beta), text))
    if not _normalized(beta):
        raise _InputError("logical amplitudes %r are not normalized" % text)
    return beta


def _emit(report: dict, text_lines, args) -> None:
    """Write the report as JSON, or as the lines ``text_lines(report)``
    in text mode; the lines are formed only there."""
    if args.format == "json":
        payload = jsonio.dumps(report)
    else:
        payload = "\n".join(text_lines(report)) + "\n"
    # a file name that is not valid UTF-8 reaches the text as lone
    # surrogates; surrogateescape writes its original bytes back
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8",
                      errors="surrogateescape") as fh:
                fh.write(payload)
        except OSError as exc:
            raise _InputError("cannot write %s: %s" % (args.out, exc))
        return
    try:
        sys.stdout.write(payload)
    except UnicodeEncodeError:  # a stream that refuses surrogates
        sys.stdout.flush()
        sys.stdout.buffer.write(payload.encode(sys.stdout.encoding,
                                               "surrogateescape"))


def _cmd_validate(args) -> int:
    code = _resolve_code(args.code)
    c, residual = kl_scan(code)
    identity_gap = float(np.abs(c - np.eye(code.d2)).max())
    bound = hamming_bound(code.n, code.k, len(code.noisy_coords))
    syndromes = {code.error_basis.label(i):
                 "".join(str(b) for b in code.syndrome_table[i])
                 for i in range(code.d2)}
    report = {
        "code": args.code,
        "n": code.n,
        "k": code.k,
        "noisy_coords": list(code.noisy_coords),
        "generators_commute": True,
        "kl_residual": residual,
        "kl_identity_gap": identity_gap,
        "syndrome_count": code.d2,
        "syndromes": syndromes,
        "hamming": bound,
        "pass": True,
    }
    _emit(report, _validate_lines, args)
    return 0


def _validate_lines(report: dict) -> list:
    bound = report["hamming"]
    lines = [
        "code: %s  [[%d,%d]] with %d noisy coordinate(s)"
        % (report["code"], report["n"], report["k"], len(report["noisy_coords"])),
        "generators commute: yes",
        "error-correcting condition residual: %.3g" % report["kl_residual"],
        "syndrome table: %d distinct syndromes" % report["syndrome_count"],
    ]
    for label, bits in report["syndromes"].items():
        lines.append("  %-4s -> %s" % (label, bits))
    lines.append("hamming bound: %s%s"
                 % ("satisfied" if bound["satisfied"] else "violated",
                    ", perfect" if bound["perfect"] else ""))
    return lines


def _cmd_plan(args) -> int:
    code = _resolve_code(args.code)
    configs, _ = plan_configurations(code)
    _emit(plan_to_json(code, configs), _plan_lines, args)
    return 0


def _plan_lines(doc: dict) -> list:
    entries = doc["configurations"]
    return ["%d configurations" % len(entries)] + [
        "  bare" if e["kind"] == "bare"
        else "  %s (a=%s, b=%s)" % (e["kind"], e["a"], e["b"])
        for e in entries]


def _cmd_characterize(args) -> int:
    code = _resolve_code(args.code)
    try:
        params = [_parse_param(tok) for tok in args.params.split(",")] if args.params else []
    except ValueError:
        raise _InputError("cannot parse channel parameters %r" % args.params)
    # an int is finite, and math.isfinite cannot take one past the float range
    if not all(isinstance(v, int) or math.isfinite(v) for v in params):
        raise _InputError("channel parameters must be finite, got %r"
                          % args.params)
    width, draw, have_oracle = _resolve_channel(args.channel, params)
    dim = 1 << code.k
    if args.beta:
        beta = _parse_beta(args.beta, dim)
    else:
        beta = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    sampling = None
    if args.mode == "sampled":
        try:
            sampling = SamplingPolicy(shots_per_configuration=args.shots,
                                      seed=args.seed)
        except ValueError as exc:
            raise _InputError(str(exc))

    noisy = len(code.noisy_coords)
    if width > noisy:
        raise _DomainError("channel acts on %d qubits, wider than the code's "
                           "noisy subsystem of %d" % (width, noisy))
    try:
        result = characterize(code, draw(), beta, sampling)
    except ValueError as exc:
        raise _DomainError(str(exc))
    channel, chi_est = result.channel, result.chi
    residuals = [{"configuration": cfg.index, "kind": cfg.kind,
                  "max_residual": worst}
                 for cfg, worst in zip(result.configs, result.residuals)]

    entries = chi_est.entries
    report = {
        "code": args.code,
        "channel": channel.label,
        "mode": args.mode,
        "shots": args.shots if args.mode == "sampled" else None,
        "seed": args.seed if args.mode == "sampled" else None,
        "basis": list(code.error_basis.labels),
        # [re, im] pairs as Python floats, negative zeros kept
        "chi": np.stack((entries.real, entries.imag), -1).tolist(),
        "validity": validity_report(chi_est),
        "residuals": residuals,
    }
    if have_oracle:
        oracle = chi_from_kraus(channel, code.error_basis)
        report["error_report"] = dataclasses.asdict(compare(chi_est, oracle))
    _emit(report, _characterize_lines, args)
    return 0


def _characterize_lines(report: dict) -> list:
    validity = report["validity"]
    lines = [
        "channel: %s on %s (%s mode)" % (report["channel"], report["code"],
                                         report["mode"]),
        "chi diagonal: " + ", ".join(
            "%s=%.6g" % (lab, report["chi"][i][i][0])
            for i, lab in enumerate(report["basis"])),
        "validity: trace %.6g, min eigenvalue %.3g, hermiticity defect %.3g"
        % (validity["trace"], validity["min_eigenvalue"],
           validity["hermiticity_defect"]),
    ]
    if "error_report" in report:
        err = report["error_report"]
        lines.append("error vs oracle: frobenius %.3g, max entry %.3g"
                     % (err["frobenius_error"], err["max_entry_error"]))
    return lines


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it
    unchanged, and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="syntomo",
        description="Characterize quantum channels from stabilizer-code "
                    "syndrome statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--code", required=True,
                       help="builtin name (%s) or code JSON file"
                            % ", ".join(_BUILTIN_CODES))
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_validate = sub.add_parser("validate", help="check a code definition")
    common(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_plan = sub.add_parser("plan", help="emit the measurement plan")
    common(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_char = sub.add_parser("characterize", help="reconstruct the process matrix")
    common(p_char)
    p_char.add_argument("--channel", required=True,
                        help="builtin channel name or channel JSON file")
    p_char.add_argument("--params", default="",
                        help="comma-separated builtin-channel parameters")
    p_char.add_argument("--beta", default="",
                        help="comma-separated logical amplitudes "
                             "(default: uniform superposition)")
    p_char.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p_char.add_argument("--shots", type=int, default=100000,
                        help="shots per configuration in sampled mode")
    p_char.add_argument("--seed", type=int, default=0,
                        help="sampling seed in sampled mode")
    p_char.set_defaults(func=_cmd_characterize)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
