import functools
import json
import operator
import weakref

import numpy as np
import pytest
from hypothesis import strategies as hs

import oracle
import syntomo as st


@pytest.fixture(scope="session")
def code3():
    return st.builtin_code("code3")


@pytest.fixture(scope="session")
def code5():
    return st.builtin_code("code5")


@pytest.fixture(scope="session")
def ad036():
    return st.builtin_channel("amplitude-damping", [0.36])


def bell_pair_generators(p):
    """X_q X_{p+q} and Z_q Z_{p+q} for q < p, plus a spectator qubit."""
    n = 2 * p + 1
    gens = []
    for letter in "XZ":
        for q in range(p):
            word = ["I"] * n
            word[q] = word[p + q] = letter
            gens.append("".join(word))
    return gens


def rotated_surface_generators(d):
    """The d^2 - 1 checks of the distance-d rotated surface code on a
    d x d grid, qubit r d + c at row r and column c: weight-4 X and Z
    plaquettes in a checkerboard, and weight-2 X checks on the top and
    bottom edges and Z checks on the left and right ones."""
    n = d * d
    gens = []
    for r in range(-1, d):
        for c in range(-1, d):
            kind = "X" if (r + c) % 2 else "Z"
            qubits = [rr * d + cc for rr in (r, r + 1) for cc in (c, c + 1)
                      if 0 <= rr < d and 0 <= cc < d]
            edge = r in (-1, d - 1) if kind == "X" else c in (-1, d - 1)
            if len(qubits) == 4 or (len(qubits) == 2 and edge):
                gens.append("".join(kind if q in qubits else "I" for q in range(n)))
    return gens


# the code file of perfbench's cli-mix workload: bell_pair_generators(2)
# in another order, with the spectator qubit's X and Z as logical operators
BELL2_CODE = {"generators": ["XIXII", "ZIZII", "IXIXI", "IZIZI"],
              "noisy_coords": [0, 1],
              "logical_ops": {"X": "IIIIX", "Z": "IIIIZ"}}


def fresh_builtin(name):
    """A new build of the built-in code ``name``, whose plan and basis no
    caller has read yet; ``builtin_code`` returns one shared code."""
    generators, noisy_coords, logical_ops = st.codes._BUILTIN_CODES[name]
    return st.build_code(generators, noisy_coords, logical_ops=logical_ops)


# each entry builds a new code per call
FRAME_CODES = {
    "code3": lambda: fresh_builtin("code3"),
    "code5": lambda: fresh_builtin("code5"),
    # non-perfect: four error spaces of dimension 2 in a 16-dim register
    "nonperfect4": lambda: st.build_code(["XXII", "ZZII", "IIZZ"], (0,)),
    "bell3": lambda: st.build_code(bell_pair_generators(3), (0, 1, 2)),
    # noisy qubits neither leading nor in ascending order
    "bell2-tail": lambda: st.build_code(bell_pair_generators(2), (3, 2)),
}


@functools.cache
def built_frame_code(name):
    """``FRAME_CODES[name]``, built once, for tests that draw a code by name."""
    return FRAME_CODES[name]()


# each code's register oracle, freed with the code
_REGISTERS = weakref.WeakKeyDictionary()


def register(code):
    """The register oracle of a built code, from its definition alone:
    its generator and logical-operator strings and its noisy coordinates."""
    if code not in _REGISTERS:
        ops = (None if code.logical_ops is None
               else dict(zip("XZ", map(st.pauli_to_string, code.logical_ops))))
        _REGISTERS[code] = oracle.Register(list(map(st.pauli_to_string, code.generators)),
                                           code.noisy_coords, ops)
    return _REGISTERS[code]


@pytest.fixture(scope="session", params=sorted(FRAME_CODES))
def frame_code(request):
    """Codes for frame checks: perfect, non-perfect, p=3, reordered."""
    return built_frame_code(request.param)


@pytest.fixture
def basis_reads_refused(monkeypatch):
    """Every ``StabilizerCode.logical_basis`` read fails the test."""
    def refuse(code):
        raise AssertionError("logical_basis read")
    monkeypatch.setattr(st.StabilizerCode, "logical_basis", property(refuse))


@pytest.fixture
def rng():
    return np.random.default_rng(4217)


@pytest.fixture
def transforms(monkeypatch):
    """The channels whose Pauli coefficients are computed while the test
    runs, one entry per computation (``Channel._pauli_coefficients``)."""
    runs = []
    compute = st.Channel._pauli_coefficients.func

    def counting(channel):
        runs.append(channel)
        return compute(channel)

    spy = functools.cached_property(counting)
    spy.__set_name__(st.Channel, "_pauli_coefficients")
    monkeypatch.setattr(st.Channel, "_pauli_coefficients", spy)
    return runs


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """The shapes of the matrices given to ``np.linalg.eigvalsh`` while
    the test runs, one entry per call."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return shapes


# one-node corruptions of valid JSON documents, for the file and plan fuzzers
FUZZ_LEAVES = (hs.none() | hs.booleans() | hs.integers(-3, 7)
               | hs.floats(allow_nan=False) | hs.text(max_size=3))
# no None and no empty container at the top: either could stand for an
# optional field left out, and so make a valid document
FUZZ_JUNK = (hs.booleans() | hs.integers(-3, 7) | hs.floats(allow_nan=False)
             | hs.text(min_size=1, max_size=3)
             | hs.lists(FUZZ_LEAVES, min_size=1, max_size=3)
             | hs.dictionaries(hs.text(max_size=2), FUZZ_LEAVES,
                               min_size=1, max_size=2))


def json_kind(value):
    for kind in (str, list, dict):
        if isinstance(value, kind):
            return kind
    return None if value is None else float


def json_nodes(doc, path):
    """Every path into ``doc`` but to the fields that the readers ignore
    (a code's n and k) or take as they are (a channel's label)."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    yield path
    for key, value in items:
        if key not in ("n", "k", "label"):
            yield from json_nodes(value, path + (key,))


# random JSON trees, for the whole-document fuzz
FUZZ_TREES = hs.recursive(FUZZ_LEAVES, lambda inner: (
    hs.lists(inner, max_size=3) | hs.dictionaries(hs.text(max_size=2), inner, max_size=3)),
    max_leaves=8)


@hs.composite
def malformed(draw, docs, changes=0):
    """A copy of one of ``docs`` with one node made wrong for sure: put a
    value of another JSON kind there, or, for an amplitude [re, im],
    the wrong number of items or an integer out of float range. Up to
    ``changes`` other nodes, none of them on that node's path or under
    it, are changed too: a key dropped, or a random JSON tree put there."""
    root = [json.loads(json.dumps(draw(hs.sampled_from(docs))))]
    nodes = list(json_nodes(root[0], (0,)))
    path = draw(hs.sampled_from(nodes))
    apart = [p for p in nodes if path[:len(p)] != p and p[:len(path)] != path]
    if changes and apart:
        others = draw(hs.lists(hs.sampled_from(apart), max_size=changes, unique=True),
                      label="changes")
        # the deepest first, so every change finds its parent in place
        for other in sorted(others, key=len, reverse=True):
            parent = functools.reduce(operator.getitem, other[:-1], root)
            if isinstance(parent, dict) and draw(hs.booleans(), label="drop"):
                del parent[other[-1]]
            else:
                parent[other[-1]] = draw(FUZZ_TREES, label="tree")
    parent = functools.reduce(operator.getitem, path[:-1], root)
    old = parent[path[-1]]
    amplitude = (path[1:2] in (("codewords",), ("kraus",))
                 and json_kind(old) is list and len(old) == 2
                 and all(json_kind(v) is float for v in old))
    if amplitude and draw(hs.booleans()):
        new = draw(hs.sampled_from([[], old[:1], old + [0.0], [10 ** 400, old[1]]]))
    else:
        new = draw(FUZZ_JUNK.filter(lambda v: json_kind(v) != json_kind(old)))
    parent[path[-1]] = new
    return root[0]
