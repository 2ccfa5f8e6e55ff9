"""The package surface that the benchmark harness in ``perfbench/`` uses.

The harness is read with ``ast``, not imported: a public name deleted
from the package would otherwise only show up as a broken traced run.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

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


def package_chain(node):
    """("xi_simulated",) for ``st.xi_simulated``, ("cli", "main") for
    ``syntomo.cli.main``; None for anything outside the package."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if parts and isinstance(node, ast.Name) and node.id in ("st", "syntomo"):
        return tuple(reversed(parts))
    return None


def resolve(chain):
    obj = syntomo
    for attr in chain:
        assert hasattr(obj, attr), "syntomo." + ".".join(chain)
        obj = getattr(obj, attr)
    return obj


def test_every_package_name_the_worker_uses_exists():
    tree = parse("worker.py")
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "syntomo"}
    assert aliases == {"st"}
    chains = {package_chain(node) for node in ast.walk(tree)} - {None}
    assert ("xi_simulated",) in chains and ("cli", "main") in chains
    for chain in sorted(chains):
        resolve(chain)


def test_every_worker_call_binds():
    # a deleted or reordered parameter would otherwise only show up as
    # failed ops in a benchmark run
    shapes = set()
    for node in ast.walk(parse("worker.py")):
        chain = package_chain(node.func) if isinstance(node, ast.Call) else None
        if chain is None:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), chain
        assert all(kw.arg is not None for kw in node.keywords), chain
        shapes.add((chain, len(node.args), tuple(kw.arg for kw in node.keywords)))
    called = {chain for chain, _, _ in shapes}
    for chain in (("xi_simulated",), ("sample_record",), ("reconstruct",),
                  ("SamplingPolicy",), ("jsonio", "dumps"), ("cli", "main")):
        assert chain in called, chain
    for chain, n_args, keywords in sorted(shapes):
        signature = inspect.signature(resolve(chain))
        try:
            signature.bind(*range(n_args), **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError("syntomo.%s%s rejects %d positional arguments "
                                 "and keywords %s: %s"
                                 % (".".join(chain), signature, n_args,
                                    keywords, exc))


def test_no_callable_takes_a_tolerance():
    # tolerances are the fields of numeric.DEFAULT_POLICY, read by the
    # gates themselves; no function, public or private, takes one
    modules = [importlib.import_module("syntomo." + info.name)
               for info in pkgutil.iter_modules(syntomo.__path__)]
    found = {("syntomo", name): getattr(syntomo, name) for name in syntomo.__all__}
    for module in modules:
        found.update(((module.__name__, name), obj) for name, obj in vars(module).items()
                     if getattr(obj, "__module__", None) == module.__name__)
    found = {key: obj for key, obj in found.items() if callable(obj)
             and not (isinstance(obj, type) and issubclass(obj, Exception))}
    assert ("syntomo", "sample_record") in found
    assert ("syntomo.protocol", "_compile") in found
    for (where, name), obj in sorted(found.items()):
        for param in inspect.signature(obj).parameters.values():
            assert param.name not in ("policy", "numeric", "strict_tp"), \
                "%s.%s(%s)" % (where, name, param.name)
            assert "NumericPolicy" not in str(param.annotation), \
                "%s.%s(%s)" % (where, name, param.name)


# the record attributes the worker reads, directly or through its checks
WORKER_RECORD_ATTRIBUTES = ("distribution", "value", "config_index", "shots", "exact")


def worker_record_reads():
    """Attributes the worker reads on ``rec``, its name for a record."""
    return {node.attr for node in ast.walk(parse("worker.py"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "rec"}


def test_the_worker_reads_only_listed_record_attributes():
    reads = worker_record_reads()
    assert {"distribution", "value", "config_index"} <= reads
    assert reads <= set(WORKER_RECORD_ATTRIBUTES)


def records_from(source):
    code = syntomo.builtin_code("code5")
    configs, _ = syntomo.plan_configurations(code)
    channel = syntomo.builtin_channel("random-cp", [3, 2, 2])
    # trace decreasing, so a sampled record carries a no-detection bin
    weak = syntomo.Channel(2, tuple(0.9 * e for e in channel.kraus))
    if source == "xi_simulated":
        return code, [syntomo.xi_simulated(code, (0.6, 0.8j), channel, cfg)
                      for cfg in configs[:3]]
    records = syntomo.simulate(code, (0.6, 0.8j), channel, configs[:3])
    if source == "sample_record":
        policy = syntomo.SamplingPolicy(1000, seed=1)
        records = [syntomo.sample_record(rec, policy) for rec in records]
        records += [syntomo.sample_record(rec, policy) for rec in
                    syntomo.simulate(code, (0.6, 0.8j), weak, configs[:1])]
    return code, records


@pytest.mark.parametrize("source", ["simulate", "xi_simulated", "sample_record"])
def test_records_have_what_the_worker_reads(source):
    code, records = records_from(source)
    for rec in records:
        for attr in WORKER_RECORD_ATTRIBUTES:
            assert hasattr(rec, attr), (source, attr)
        # the worker's count digest holds repr(config_index)
        assert type(rec.config_index) is int
        sampled = source == "sample_record"
        assert rec.exact is not sampled
        assert rec.shots == (1000 if sampled else None)
        dist = rec.distribution
        assert type(dist) is dict
        assert list(dist)[:code.d2] == list(code.syndrome_table)
        assert set(map(type, dist.values())) == {int if sampled else float}
        scale = 1000.0 if sampled else 1.0
        for syn in code.syndrome_table:
            value = rec.value(syn)
            assert type(value) is float and value == dist[syn] / scale
    if source == "sample_record":
        assert syntomo.NO_DETECTION in records[-1].distribution


def test_only_pauli_reads_mask_bits():
    # the bit layout of a word's masks is pauli.py's own; every other
    # module reads them through its helpers (``_register_masks``)
    source = Path(syntomo.__file__).parent
    readers = {path.name for path in source.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr in ("x_mask", "z_mask")}
    assert readers == {"pauli.py"}, readers


def test_only_pauli_counts_mask_bits_or_ranks_words():
    # so are the bits of an error index (``pauli._word_table``) and the
    # (x|z) rows of a GF(2) rank: no other module names
    # ``bitwise_count`` or defines ``_symplectic_rank``
    source = Path(syntomo.__file__).parent
    found = set()
    for path in source.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "_symplectic_rank":
                found.add((path.name, node.name))
            elif "bitwise_count" in (getattr(node, "attr", None), getattr(node, "id", None),
                                     getattr(node, "name", None)):
                found.add((path.name, "bitwise_count"))
    assert {name for _, name in found} == {"bitwise_count", "_symplectic_rank"}
    assert {module for module, _ in found} == {"pauli.py"}, sorted(found)
