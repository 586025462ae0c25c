"""Property test: no input makes the CLI end in a traceback.

Random argument lists over the twelve subcommands, with graph and
character files of random bytes, random JSON, graph-shaped JSON or valid
graphs, must end with a documented exit code (0 to 4) and never raise out
of `cli.main`.  Budgets stay small (--budget 5000 right after the
subcommand, which a generated --budget up to 5000 later overrides) so every
example is quick.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from sepk.cli import main
from sepk.graph_model import builtin_from_spec, serialize

COMMANDS = (
    "validate", "ktheory", "k1-tame", "k0-tame", "multires", "sequence", "companion",
    "k1-generator", "verify-generator", "phi", "delta", "character",
)
SPECS = ("E(2,2)", "E(2,3)", "E(3,3)", "lamplighter(2)", "lamplighter(3)", "E(1,1)", "E(2)", "")
NAMES = ("v", "w", "u", "a1", "a2", "b1", "b2", "x", "v|a2,b2", "")
ELEMENTS = ("X:1,Y:-1", "X:2,Y:-2", "v.1:1,v.2:-1", "X:1", "X:+1,,Y:-1", "v.3:1", "X:a", "")
VALID_GRAPHS = tuple(serialize(builtin_from_spec(s)) for s in ("E(2,2)", "lamplighter(2)"))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4)
    ),
    max_leaves=12,
)
names = st.sampled_from(NAMES) | st.text(max_size=4)
# Objects with the graph file's keys and small vertex vocabularies, so that
# parsing often succeeds and validation and the commands see odd graphs.
graph_objects = st.fixed_dictionaries(
    {
        "vertices": st.lists(names, max_size=4),
        "edges": st.lists(
            st.fixed_dictionaries({"id": names, "src": names, "dst": names}), max_size=5
        ),
        "separation": st.dictionaries(
            names, st.lists(st.lists(names, max_size=3), max_size=3), max_size=4
        ),
    },
    optional={
        "bipartite": st.fixed_dictionaries(
            {"layer0": st.lists(names, max_size=3), "layer1": st.lists(names, max_size=3)}
        )
    },
)
graph_files = st.one_of(
    st.binary(max_size=40),
    json_values.map(lambda v: json.dumps(v).encode()),
    graph_objects.map(lambda v: json.dumps(v).encode()),
    st.sampled_from(VALID_GRAPHS),
)
character_files = st.one_of(
    st.binary(max_size=20),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.dictionaries(names, json_values, max_size=3).map(lambda v: json.dumps(v).encode()),
    st.sampled_from((b'{"v": 0.5, "w": 0.25}', b'{"v|a2,b2": 0.1}', b'{"v": NaN, "w": 0}')),
)


@st.composite
def argvs(draw):
    """An argument list; bytes items stand for files with that content."""
    command = draw(st.sampled_from(COMMANDS))
    argv: list = [command]
    # Hypothesis favours the first choice and small integers, so these are
    # the common, well-formed cases: one graph source, required options given.
    source = draw(st.sampled_from(("file",) * 4 + ("builtin",) * 4 + ("both", "none")))
    if source in ("file", "both"):
        argv.append(draw(graph_files))
    if source in ("builtin", "both"):
        argv += ["--builtin", draw(st.sampled_from(SPECS) | st.text(max_size=6))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("text", "json") * 4 + ("xml",)))]
    if command in ("k0-tame", "sequence"):
        if draw(st.integers(0, 9)) < 9:
            argv += ["--depth", str(draw(st.integers(-2, 6)))]
        if draw(st.booleans()):
            argv += ["--budget", str(draw(st.integers(0, 5000)))]
    if command == "multires" or command == "character" and draw(st.booleans()):
        argv += ["--at", ",".join(draw(st.lists(names, max_size=3)))]
    generator = command in ("k1-generator", "verify-generator")
    if (generator or command in ("phi", "delta")) and draw(st.integers(0, 9)) < 9:
        argv += ["--element", draw(st.sampled_from(ELEMENTS) | st.text(max_size=8))]
        if generator and draw(st.booleans()):
            argv += ["--sigma-seed", str(draw(st.integers(-5, 5)))]
    if command == "character":
        for flag in ("--base", "--free"):
            if draw(st.integers(0, 9)) < 9:
                argv += [flag, draw(character_files)]
    if draw(st.integers(0, 19)) == 19:
        argv.append(draw(st.text(max_size=6)))
    return argv


NESTED = b"[" * 200000 + b"]" * 200000


@settings(max_examples=300, derandomize=True, deadline=None)
@example(["validate", NESTED])
@example(["character", "--builtin", "E(2,2)", "--base", NESTED, "--free", b"{}"])
@example(["character", "--builtin", "E(2,2)", "--base", b'{"v": NaN, "w": 0}',
          "--free", b'{"v|a2,b2": 0.1}'])
@example(["character", "--builtin", "E(2,2)", "--base", b'{"v": 0.5, "w": 0.25}',
          "--free", b'{"v|a2,b2": NaN}'])
@given(argvs())
def test_cli_never_raises(argv):
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        tmp = stack.enter_context(tempfile.TemporaryDirectory())
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        args = []
        for k, item in enumerate(argv):
            if isinstance(item, bytes):
                path = Path(tmp) / f"arg{k}.json"
                path.write_bytes(item)
                item = str(path)
            args.append(item)
        if args[0] in ("k0-tame", "sequence"):
            args[1:1] = ["--budget", "5000"]
        code = main(args)
    assert code in (0, 1, 2, 3, 4)
    err = err.getvalue()
    assert "Traceback" not in err
    # argparse prints its usage; every other failure is one error line, which
    # a validation failure follows with the violations
    lines = err.splitlines()
    assert not lines or lines[0].startswith(("usage: ", "error: "))
    assert sum(line.startswith("error: ") for line in lines) <= 1
