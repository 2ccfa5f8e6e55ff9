"""The README's examples run and print what the README shows."""

import re
import shlex
from pathlib import Path

import dataclasses

import pytest

import syntomo as st
from syntomo.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def console_examples():
    """(argv, shown output lines, whether the output is cut with "...")
    for each command block that shows its output."""
    out = []
    for lang, body in BLOCKS:
        if lang or not body.startswith("$ syntomo "):
            continue
        lines = body.splitlines()
        command = lines.pop(0)[2:]
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        if lines:
            cut = lines[-1].strip() == "..."
            out.append((shlex.split(command)[1:], lines[:-1] if cut else lines, cut))
    return out


EXAMPLES = console_examples()


def test_the_named_examples_are_found():
    commands = {" ".join(argv) for argv, _, _ in EXAMPLES}
    assert commands == {
        "validate --code code3",
        "plan --code code5",
        "characterize --code code3 --channel amplitude-damping --params 0.36",
    }


@pytest.mark.parametrize("argv, shown, cut", EXAMPLES,
                         ids=[argv[0] for argv, _, _ in EXAMPLES])
def test_console_example(capsys, argv, shown, cut):
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    if cut:
        printed = printed[:len(shown)]
    assert printed == shown


def test_python_blocks_run_in_one_namespace():
    sources = [body for lang, body in BLOCKS if lang == "python"]
    assert len(sources) == 2
    namespace = {}
    for source in sources:
        exec(compile(source, "README.md", "exec"), namespace)


# the public classes whose attributes the README names as Class.attr
NAMED_CLASSES = ("Configuration", "Channel", "ReadoutTable", "MeasurementRecord",
                 "StabilizerCode", "ErrorBasis")


def test_named_attributes_exist():
    """Every backticked ``code.<attr>`` is an attribute of a built code,
    and every ``<Class>.<attr>`` a field or attribute of that class."""
    code = st.builtin_code("code3")
    code_attrs = re.findall(r"`code\.(\w+)", README)
    assert code_attrs
    assert [a for a in code_attrs if not hasattr(code, a)] == []
    named = re.findall(r"`(%s)\.(\w+)" % "|".join(NAMED_CLASSES), README)
    assert named
    missing = []
    for name, attr in named:
        cls = getattr(st, name)
        fields = {f.name for f in dataclasses.fields(cls)}
        if attr not in fields and not hasattr(cls, attr):
            missing.append("%s.%s" % (name, attr))
    assert missing == []


def test_builtin_codes_are_listed_as_built():
    """The README's list of built-in codes names exactly the codes
    ``builtin_code`` knows, and shows each one's generators and logical
    operators (X_L, Z_L) as it builds them."""
    section = README.split("## Built-ins", 1)[1].split("\nChannels", 1)[0]
    items = dict(re.findall(r"^- `([\w-]+)`: (.*?)(?=^- |\Z)", section, re.M | re.S))
    assert sorted(items) == sorted(st.codes._BUILTIN_CODES)
    for name, text in items.items():
        code = st.builtin_code(name)
        generators = re.search(r"generators (.*?) and logical operators", text, re.S)
        ops = re.search(r"X_L = `([^`]+)`, Z_L = `([^`]+)`", text)
        assert generators and ops, name
        shown = re.findall(r"`([^`]+)`", generators.group(1))
        assert [st.pauli_from_string(g) for g in shown] == list(code.generators), name
        assert tuple(map(st.pauli_from_string, ops.groups())) == code.logical_ops, name


def test_other_entry_points_are_public():
    """Every name the "Other entry points" paragraph lists is in
    ``syntomo.__all__``, so a deleted function leaves no stale name."""
    paragraph = README.split("Other entry points:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", paragraph)
    assert "recover" in names
    assert [name for name in names if name not in st.__all__] == []
