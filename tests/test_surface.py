"""The package surface that the benchmark harness in ``perfbench/`` uses.

The harness is read with ``ast``, not imported: a public name deleted
from the package would otherwise only show up as a broken traced run.
"""

import ast
import importlib
from pathlib import Path

import syntomo
import syntomo.cli
import syntomo.jsonio

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_every_traced_name_resolves():
    traced = [ast.literal_eval(node.value) for node in parse("tracing.py").body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "TRACED" for t in node.targets)]
    assert len(traced) == 1 and traced[0]
    for module, name in traced[0]:
        found = getattr(importlib.import_module("syntomo." + module), name, None)
        assert callable(found), "syntomo.%s.%s" % (module, name)


def test_every_package_name_the_worker_uses_exists():
    tree = parse("worker.py")
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "syntomo"}
    assert aliases == {"st"}
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in ("st", "syntomo"):
            chains.add(tuple(reversed(parts)))
    assert ("xi_simulated",) in chains and ("cli", "main") in chains
    for chain in sorted(chains):
        obj = syntomo
        for attr in chain:
            assert hasattr(obj, attr), "syntomo." + ".".join(chain)
            obj = getattr(obj, attr)
