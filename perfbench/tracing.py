"""Per-layer spans around calls into syntomo, recorded from outside the package.

``Tracer.install`` wraps each function in ``TRACED`` at every module
attribute bound to it, so a call reaches the wrapper whichever name the
caller resolves: ``syntomo.protocol.syndrome_projector``,
``syntomo.codes.syndrome_projector`` or ``syntomo.syndrome_projector``.
Nothing is wrapped unless a traced run asks for it. Spans (name, start,
end, parent, op id) are kept in memory and written out at the end; a
layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

# (module under syntomo, public function): the layer boundaries
TRACED = (
    ("pauli", "to_matrix"),
    ("codes", "build_code"),
    ("codes", "kl_condition"),
    ("codes", "kl_scan"),
    ("codes", "syndrome_projector"),
    ("densesim", "apply_channel"),
    ("densesim", "apply_unitary"),
    ("densesim", "expectation"),
    ("channels", "chi_from_kraus"),
    ("channels", "extend_channel"),
    ("channels", "validity_report"),
    ("protocol", "plan_configurations"),
    ("protocol", "rotation_unitary"),
    ("protocol", "build_toggle"),
    ("protocol", "derive_readouts"),
    ("protocol", "xi_simulated"),
    ("protocol", "reconstruct"),
    ("protocol", "xi_predicted"),
    ("estimation", "sample_record"),
    ("estimation", "compare"),
    ("jsonio", "dumps"),
    ("cli", "main"),
)
NAMES = tuple("%s.%s" % pair for pair in TRACED)
# layers whose set-up work is reported too: the code build and plan path
SETUP_LAYERS = ("pauli.to_matrix", "codes.build_code", "codes.kl_scan",
                "codes.syndrome_projector", "protocol.plan_configurations",
                "protocol.build_toggle", "protocol.xi_simulated")


def _reconstruct_counts(args, kwargs, result):
    records = args[0] if args else kwargs["records"]
    readouts = args[1] if len(args) > 1 else kwargs["readouts"]
    return {"protocol.configurations": len(records),
            "protocol.readouts": len(readouts)}


def _dumps_counts(args, kwargs, result):
    return {"jsonio.bytes": len(result.encode("utf-8"))}


# work counters read off a traced call's arguments or result
COUNTERS = {
    "protocol.reconstruct": _reconstruct_counts,
    "jsonio.dumps": _dumps_counts,
}

SETUP_OP = -1  # op id of spans recorded while the workload sets up


class Tracer:
    """Span store for one process; ``op`` tags the spans being recorded."""

    def __init__(self):
        self.op = SETUP_OP
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_op = array("i")
        self.counts = {}  # (op id, counter name) -> total
        self._stack = []

    def install(self) -> None:
        """Wrap every function in TRACED wherever syntomo binds it."""
        import syntomo.cli  # noqa: F401  loads every syntomo module

        modules = [m for key, m in list(sys.modules.items())
                   if key == "syntomo" or key.startswith("syntomo.")]
        for ix, (module, func) in enumerate(TRACED):
            original = getattr(sys.modules["syntomo." + module], func)
            wrapper = self._wrap(ix, original, COUNTERS.get(NAMES[ix]))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, ix, fn, counter):
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.name)
            self.name.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(span)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[span] = t0
                self.end[span] = t1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    slot = (self.op, key)
                    self.counts[slot] = self.counts.get(slot, 0) + value
            return result

        return traced

    def self_times(self):
        """(layer index, op id, self time) arrays, one entry per span."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        return name, np.array(self.span_op, dtype=np.int32), dur - child

    def layer_metrics(self, op_walls) -> dict:
        """Per-op layer metrics over the spans with op id >= 0.

        ``op_walls`` are the wall times of those ops. Setup spans are
        reported once, under a ``setup.`` prefix.
        """
        name, op, self_s = self.self_times()
        n_ops = len(op_walls)
        in_ops = op >= 0
        in_setup = op == SETUP_OP
        out = {}
        for ix, layer in enumerate(NAMES):
            mine = name == ix
            out[layer + ".self_s"] = float(self_s[mine & in_ops].sum()) / n_ops
            out[layer + ".calls"] = int((mine & in_ops).sum()) / n_ops
            if layer in SETUP_LAYERS:
                out["setup." + layer + ".self_s"] = float(self_s[mine & in_setup].sum())
                out["setup." + layer + ".calls"] = int((mine & in_setup).sum())
        for key in ("protocol.configurations", "protocol.readouts", "jsonio.bytes"):
            total = sum(v for (o, k), v in self.counts.items() if k == key and o >= 0)
            out[key] = total / n_ops
        out["trace.unattributed_s"] = (sum(op_walls) - float(self_s[in_ops].sum())) / n_ops
        return out

    def save(self, path) -> None:
        """Write the spans as JSON columns, and the counters."""
        doc = {"names": list(NAMES), "name": self.name.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(),
               "parent": self.parent.tolist(), "op": self.span_op.tolist(),
               "counts": [[op, key, value] for (op, key), value in self.counts.items()]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
