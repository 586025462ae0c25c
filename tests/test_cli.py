import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sepk import graph_model
from sepk.cli import main
from sepk.graph_model import (
    GraphFormatError,
    SeparatedGraph,
    builtin,
    group_label,
    parse,
    serialize,
)
from sepk.ktheory import phi_transport
from sepk.transform import canonical_sequence, multiresolution_at, multiresolution_data

from conftest import name_collision_graphs
from json_oracles import to_json_obj


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ktheory_builtin_text(capsys):
    code, out, _ = run(capsys, "ktheory", "--builtin", "E(3,3)")
    assert code == 0
    assert out.strip() == "K0 = Z, K1 = Z, K1 basis: X - Y"


def test_k0_tame_text(capsys):
    code, out, _ = run(capsys, "k0-tame", "--builtin", "E(2,2)", "--depth", "2")
    assert code == 0
    assert "Z ⊕ Z^1 ⊕ Z^11 (truncated at depth 2)" in out


def test_ktheory_json_round_trip(capsys):
    code, out, _ = run(capsys, "ktheory", "--builtin", "lamplighter(2)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["k0"] == {"rank": 2, "factors": []}
    assert obj["k1"] == {"rank": 1, "basis": [{"X": 1, "Y": -1}]}


def test_deterministic_output(capsys):
    a = run(capsys, "sequence", "--builtin", "E(2,2)", "--depth", "2", "--format", "json")
    b = run(capsys, "sequence", "--builtin", "E(2,2)", "--depth", "2", "--format", "json")
    assert a == b


def test_validate_ok_and_broken(tmp_path, capsys):
    good = tmp_path / "good.graph"
    good.write_bytes(serialize(builtin("E", [2, 2])))
    code, out, _ = run(capsys, "validate", str(good))
    assert code == 0 and out.strip() == "ok"

    broken = tmp_path / "broken.graph"
    broken.write_text(
        '{"vertices": ["v", "w"], "edges": [{"id": "a", "src": "w", "dst": "v"}],'
        ' "separation": {"v": [[]]}}'
    )
    code, out, _ = run(capsys, "validate", str(broken))
    assert code == 2
    assert "empty-group" in out
    assert "partition-not-covering" in out


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("{nope")
    code, _, err = run(capsys, "ktheory", str(bad))
    assert code == 2
    assert "malformed" in err
    latin1 = tmp_path / "latin1.graph"
    latin1.write_bytes(b'{"vertices": ["\xe9"]}')
    for command in ("ktheory", "validate"):
        code, out, err = run(capsys, command, str(latin1))
        assert code == 2 and out == ""
        assert err == "error: byte 15: not UTF-8 text: invalid continuation byte\n"
    # a lone surrogate, written as a JSON escape, is no name: nothing could print it
    lone = tmp_path / "lone.graph"
    lone.write_text('{"vertices": ["\\ud800"], "edges": [], "separation": {"\\ud800": []}}')
    for command in ("ktheory", "validate", "companion"):
        code, out, err = run(capsys, command, str(lone))
        assert code == 2 and out == ""
        assert err == (
            "error: graph.vertices[0]: vertex id '\\ud800' is not UTF-8 text:"
            " surrogates not allowed\n"
        )
    # nesting beyond the decoder's recursion limit
    nested = tmp_path / "nested.graph"
    nested.write_text("[" * 200000 + "]" * 200000)
    for command in ("ktheory", "validate"):
        code, out, err = run(capsys, command, str(nested))
        assert code == 2 and out == ""
        assert err == "error: malformed syntax: nesting too deep\n"


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    good = tmp_path / "g.graph"
    good.write_bytes(serialize(builtin("E", [2, 2])))
    code, _, err = run(capsys, "ktheory", str(good), "--builtin", "E(2,2)")
    assert code == 1
    code, _, err = run(capsys, "ktheory")
    assert code == 1
    # a directory as input, and a negative budget
    for argv in (
        ("ktheory", str(tmp_path)),
        ("validate", str(tmp_path)),
        ("k0-tame", "--builtin", "E(2,2)", "--depth", "1", "--budget", "-5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# These files put a character or an error 64 KiB into the file, where a
# reader that decoded fixed-size pieces would cut it.
PIECE = 1 << 16


def _parse_outcome(data: bytes) -> tuple[int, str]:
    """The exit code and stderr that parse on the whole bytes implies."""
    try:
        parse(data)
    except GraphFormatError as exc:
        return 2, f"error: {exc}\n"
    return 0, ""


@pytest.mark.parametrize("char", ["\u00e9", "\u20ac", "\U0001f600"])
def test_character_split_across_pieces_reads_as_whole(char, tmp_path, capsys):
    name = f"x{char}"
    doc = serialize(SeparatedGraph.build(["v", name], [("a", name, "v")], {"v": [["a"]]}))
    at = doc.index(name.encode("utf-8")) + 1  # the first byte of char
    path = tmp_path / "split.graph"
    for split in range(1, len(char.encode("utf-8"))):
        data = b" " * (PIECE - at - split) + doc
        path.write_bytes(data)
        assert graph_model._parse_file(path) == parse(data)
        code, out, err = run(capsys, "ktheory", str(path))
        assert (code, err) == (0, "") and out == "K0 = Z, K1 = 0\n"


@pytest.mark.parametrize("data", [
    b" " * PIECE + b"\xff" + b"{}",  # an invalid byte just past the first piece
    b" " * (PIECE - 1) + b"\xff{}",  # the last byte of the first piece
    b" " * (PIECE - 1) + b"\xe2A{}",  # a sequence broken off across the border
    b" " * (PIECE - 2) + b"\xed\xa0\x80{}",  # an encoded surrogate across it
    b" " * (PIECE - 1) + b"\xe2\x82",  # truncated at end of file, across the border
    b" " * PIECE + b"\xf0\x9f\x98",  # truncated at end of file, in the second piece
    b"\xc3",  # truncated at end of file, in the only piece
])
def test_invalid_utf8_reported_at_its_file_offset(data, tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_bytes(data)
    code, err = _parse_outcome(data)
    assert code == 2 and "not UTF-8 text" in err
    for command in ("ktheory", "validate"):
        assert run(capsys, command, str(path)) == (code, "", err)


@pytest.mark.parametrize("end", [b"\r\n", b"\r"])
def test_line_ends_are_read_as_they_are(end, tmp_path, capsys):
    lf = tmp_path / "lf.graph"
    lf.write_bytes(serialize(builtin("E", [3, 3])))
    doc = lf.read_bytes().replace(b"\n", end)
    path = tmp_path / "crlf.graph"
    for data in (doc, doc.rstrip() + end + b",}"):  # valid, then malformed past a line end
        path.write_bytes(data)
        code, err = _parse_outcome(data)
        if code == 0:
            assert graph_model._parse_file(path) == parse(data)
        for command in ("ktheory", "validate"):
            want = run(capsys, command, str(lf)) if code == 0 else (code, "", err)
            assert run(capsys, command, str(path)) == want


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_graph_read_from_a_pipe():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    bad = b" " * (PIECE + 5) + b"\xff{}"
    bad_code, bad_err = _parse_outcome(bad)
    for data, code, out, err in (
        (serialize(builtin("E", [3, 3])), 0, "K0 = Z, K1 = Z, K1 basis: v.1 - v.2\n", ""),
        (bad, bad_code, "", bad_err),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "sepk", "ktheory", "/dev/stdin"],
            env=env, input=data, capture_output=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)


def test_unreadable_paths_exit_1(tmp_path, capsys):
    regular = tmp_path / "regular.json"
    regular.write_text("{}")
    paths = [tmp_path / "missing.json", tmp_path, regular / "below"]
    if hasattr(os, "geteuid") and os.geteuid() != 0:  # root reads any mode
        locked = tmp_path / "locked.json"
        locked.write_text("{}")
        locked.chmod(0)
        paths.append(locked)
    for path in paths:
        for argv in (
            ("ktheory", str(path)),
            ("character", "--builtin", "E(2,2)", "--base", str(path), "--free", str(regular)),
            ("character", "--builtin", "E(2,2)", "--base", str(regular), "--free", str(path)),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


def test_reading_a_graph_file_holds_its_text_and_document_only(tmp_path, capsys):
    # The bytes of the file are freed once decoded, before parsing: the peak
    # is the bytes and their text, or the text and its parse.
    data = serialize(canonical_sequence(builtin("lamplighter", [2]), 6).graphs[6])
    path = tmp_path / "layer6.graph"
    path.write_bytes(data)
    size, text = len(data), data.decode("utf-8")
    del data
    tracemalloc.start()
    try:
        parse(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del text
    assert run(capsys, "ktheory", "--builtin", "E(2,2)")[0] == 0  # build the CLI parser
    tracemalloc.start()
    try:
        code = main(["ktheory", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().err == ""
    assert peak <= max(2 * size, size + parse_peak) + (1 << 16)


def test_builtin_range_error_exits_4(capsys):
    code, _, err = run(capsys, "ktheory", "--builtin", "E(1,1)")
    assert code == 4
    assert "1 < m <= n" in err


def test_budget_exceeded_exits_3(capsys):
    code, _, err = run(
        capsys, "k0-tame", "--builtin", "E(2,2)", "--depth", "3", "--budget", "10"
    )
    assert code == 3
    assert "last completed layer" in err
    for budget, want in (("10", 3), ("100000", 0)):
        code, _, _ = run(
            capsys, "sequence", "--builtin", "E(2,2)", "--depth", "3", "--budget", budget
        )
        assert code == want
    # layer 17 would hold more vertices than str() writes digits of an int
    budget = "9" * 4300
    for command in ("k0-tame", "sequence"):
        code, out, err = run(capsys, command, "--builtin", "E(2,2)", "--depth", "17", "--budget", budget)
        assert (code, out) == (3, "")
        assert err == (
            f"error: layer 17 would generate 10^5924 or more vertices (budget {budget}); "
            "last completed layer is 16\n"
        )


@pytest.mark.parametrize("command", [
    ("multires", "--at", "v"),
    ("phi", "--element", "v.1:1,v.2:-1"),
    ("character", "--base", "base.json", "--free", "free.json"),
], ids=("multires", "phi", "character"))
def test_wide_vertex_refused_before_its_tuples(command, tmp_path, capsys, monkeypatch):
    # 20 groups of two edges: 1 048 576 tuples, past the default budget
    groups = [[f"a{i}", f"b{i}"] for i in range(20)]
    edges = [(x, x[0], "v") for grp in groups for x in grp]
    g = SeparatedGraph.build(["v", "a", "b"], edges, {"v": groups}, (["v"], ["a", "b"]))
    (tmp_path / "wide.graph").write_bytes(serialize(g))
    (tmp_path / "base.json").write_text(json.dumps(dict.fromkeys(g.vertices, 0)))
    (tmp_path / "free.json").write_text("{}")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command[0], "wide.graph", *command[1:])
    assert (code, out) == (3, "")
    assert err == (
        "error: layer 1 would generate 1048576 vertices (budget 1000000); "
        "last completed layer is 0\n"
    )


class _Writes(io.StringIO):
    """A stdout that keeps each string written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return len(s)


def _strings(v):
    if isinstance(v, str):
        yield v
    elif isinstance(v, dict):
        for key, item in v.items():
            yield key
            yield from _strings(item)
    elif isinstance(v, list):
        for item in v:
            yield from _strings(item)


def test_json_output_is_written_in_pieces(monkeypatch):
    # one write of more than 2 GiB can be cut short, so none holds more than
    # one literal or one separator with its indentation
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["sequence", "--builtin", "lamplighter(2)", "--depth", "6", "--format", "json"]
    assert main(argv) == 0
    obj = to_json_obj(canonical_sequence(builtin("lamplighter", [2]), 6))
    text = json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    assert "".join(out.writes) == text
    longest = max(len(json.dumps(s, ensure_ascii=False)) for s in _strings(obj))
    indent = max(len(line) - len(line.lstrip(" ")) for line in text.splitlines())
    assert len(out.writes) > 1000
    assert max(map(len, out.writes)) <= longest + indent
    # so is a value's, in the stdlib encoder's pieces: none holds two lines
    out.writes.clear()
    argv = ["k1-generator", "--builtin", "E(3,3)", "--element", "X:1,Y:-1", "--format", "json"]
    assert main(argv) == 0
    assert json.loads("".join(out.writes))["rows"]
    assert len(out.writes) > 2
    assert max(w.count("\n") for w in out.writes) == 1


def test_output_that_fails_to_render_writes_nothing(monkeypatch):
    # every piece is made before the first is written: the pieces of "v"
    # exist when the vertex after it fails to render
    import sepk.transform

    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    unwritable = SeparatedGraph(("v", object()), (), ((), ()), None)
    monkeypatch.setattr(sepk.transform, "bipartite_companion", lambda g: unwritable)
    with pytest.raises(TypeError):
        main(["companion", "--builtin", "E(2,2)"])
    assert out.writes == []


def test_memory_exhaustion_exits_3_with_one_line(capsys, monkeypatch):
    import sepk.transform

    def exhausted(g, vertex_set):
        raise MemoryError

    monkeypatch.setattr(sepk.transform, "multiresolution_at", exhausted)
    assert run(capsys, "multires", "--builtin", "E(2,2)", "--at", "v") == (
        3, "", "error: out of memory\n"
    )


def test_multires_and_companion_emit_parseable_graphs(capsys):
    code, out, _ = run(capsys, "multires", "--builtin", "E(2,2)", "--at", "v")
    assert code == 0
    g = parse(out)
    assert len(g.vertices) == 6
    code, out, _ = run(capsys, "companion", "--builtin", "lamplighter(2)")
    assert code == 0
    assert len(parse(out).vertices) == 6


def _layer2_file(tmp_path):
    # vertices of generated layers, such as "v|a1,b1", contain commas
    g = canonical_sequence(builtin("E", [2, 2]), 2).graphs[2]
    path = tmp_path / "layer2.graph"
    path.write_bytes(serialize(g))
    return g, str(path)


def test_multires_at_vertices_that_contain_commas(tmp_path, capsys):
    g, path = _layer2_file(tmp_path)
    code, out, err = run(capsys, "multires", path, "--at", "v|a1,b1, v|a2,b2")
    assert (code, err) == (0, "")
    assert out == serialize(multiresolution_at(g, ["v|a1,b1", "v|a2,b2"])).decode("utf-8")
    # a piece that starts no vertex name is still reported on its own
    code, out, err = run(capsys, "multires", path, "--at", "v|a1,b1,zz")
    assert (code, out, err) == (4, "", "error: unknown vertices in V: ['zz']\n")


def test_character_at_a_vertex_that_contains_commas(tmp_path, capsys):
    g, path = _layer2_file(tmp_path)
    base = tmp_path / "base.json"
    base.write_text(json.dumps(dict.fromkeys(g.vertices, 0)))
    data = multiresolution_data(g, ["v|a1,b1"])
    free = tmp_path / "free.json"
    free.write_text(json.dumps(dict.fromkeys(data.w_vertices, 0.25)))
    code, out, err = run(
        capsys, "character", path, "--base", str(base), "--free", str(free),
        "--at", "v|a1,b1", "--format", "json",
    )
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert list(obj["values"]) == list(data.graph.vertices)
    assert obj["max_relation_error"] < 1e-9


def test_element_syntax_and_errors(capsys):
    code, out, _ = run(capsys, "delta", "--builtin", "E(3,3)", "--element", "v.1:+1,v.2:-1")
    assert code == 0
    assert out.strip() == "-1 v +3 w"
    # a trailing comma leaves a blank last term, which is skipped
    assert run(capsys, "delta", "--builtin", "E(3,3)", "--element", "v.1:+1,v.2:-1, ")[:2] == (0, out)
    for element, detail in (
        ("Q:1", "group name 'Q' is not of the form v.k"),
        ("Y:x", "bad coefficient 'x' in 'Y:x'"),
        ("v.7:1", "unknown group 'v.7'"),
        ("X", "element term 'X' is not of the form group:coef"),
    ):
        code, out, err = run(capsys, "delta", "--builtin", "E(3,3)", "--element", element)
        assert (code, out, err) == (4, "", f"error: {detail}\n")
    code, _, err = run(capsys, "delta", "--builtin", "E(3,3)", "--element", "X:1")
    assert code == 4  # not in the kernel


def test_phi_command(capsys):
    code, out, _ = run(capsys, "phi", "--builtin", "E(2,2)", "--element", "X:1,Y:-1")
    assert code == 0
    assert out.strip() == "-X(a1) - X(a2) + X(b1) + X(b2)"


def test_phi_on_generated_layer_with_commas_in_group_names(tmp_path, capsys):
    # groups of layer 2 are named after generated vertices such as "v|a1,b1"
    graphs = canonical_sequence(builtin("E", [2, 2]), 2).graphs
    x = {("v", 0): 1, ("v", 1): -1}
    for g in graphs[:2]:
        x = phi_transport(g, x)
    path = tmp_path / "layer2.graph"
    path.write_bytes(serialize(graphs[2]))
    element = ",".join(f"{group_label(k)}:{c}" for k, c in sorted(x.items()))
    assert "," in group_label(next(iter(x)))
    code, out, _ = run(capsys, "phi", str(path), "--element", element, "--format", "json")
    assert code == 0
    image = phi_transport(graphs[2], x)
    assert json.loads(out)["image"] == {group_label(k): c for k, c in sorted(image.items())}


def test_k0_tame_name_collision_exits_4(tmp_path, capsys):
    for label, g, _, kind in name_collision_graphs():
        path = tmp_path / f"{label}.graph"
        path.write_bytes(serialize(g))
        code, out, err = run(capsys, "k0-tame", str(path), "--depth", "2")
        assert code == 4
        assert out == ""
        assert err.startswith(f"error: generated {kind} names collide")
        assert err.count("\n") == 1


def test_verify_generator_command(capsys):
    code, out, _ = run(
        capsys, "verify-generator", "--builtin", "E(3,3)", "--element", "X:1,Y:-1"
    )
    assert code == 0
    assert "FAIL" not in out
    code, out, _ = run(
        capsys,
        "verify-generator",
        "--builtin",
        "E(3,3)",
        "--element",
        "X:1,Y:-1",
        "--format",
        "json",
    )
    obj = json.loads(out)
    assert obj["ok"] is True
    assert len(obj["checks"]) == 10


def test_k1_generator_json(capsys):
    code, out, _ = run(
        capsys, "k1-generator", "--builtin", "E(3,3)", "--element", "X:1,Y:-1",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["Z"] == [["a1", "a2", "a3"]]
    assert obj["U"] == [["a1b1* + a2b2* + a3b3*"]]


def test_coefficients_past_the_digits_an_int_is_written_with_exit_4(capsys):
    # delta's image doubles 4 300 nines, and phi's element sums two such terms,
    # past the digits str() writes of an int: refused before any output
    n = "9" * 4300
    want = (
        "error: a coefficient of 10^4300 or more in absolute value has too many digits to print\n"
    )
    for command, element in (("delta", f"X:{n},Y:-{n}"), ("phi", f"X:{n},X:{n},Y:-{n},Y:-{n}")):
        for fmt in ("text", "json"):
            argv = (command, "--builtin", "E(2,2)", "--element", element, "--format", fmt)
            assert run(capsys, *argv) == (4, "", want)
    element = f"X:{n[1:]},Y:-{n[1:]}"  # at the limit: the image has 4 300 digits
    code, out, _ = run(capsys, "delta", "--builtin", "E(2,2)", "--element", element)
    assert code == 0 and len(out) > 2 * 4300


def test_sequence_counts_past_the_digits_an_int_is_written_with_exit_4(capsys, monkeypatch):
    # layer 9011 of lamplighter(3) has 10^4300 or more edges, and layer 7141 of
    # lamplighter(4) as many vertices, though the vertices each generates fit
    # under 4 300 nines: the text is refused before any output, in one line
    budget = "9" * 4300
    want = "error: a count of 10^4300 or more has too many digits to print\n"
    for spec, depth in (("lamplighter(3)", "9011"), ("lamplighter(4)", "7141")):
        argv = ("sequence", "--builtin", spec, "--depth", depth, "--budget", budget)
        assert run(capsys, *argv) == (4, "", want)
    import sepk.transform
    n = 10**4300 - 1  # at the limit: 4 300 digits are printed
    counted = ([(n, n, n)], (n,))
    monkeypatch.setattr(sepk.transform, "_sequence_counts", lambda g, depth, budget: counted)
    code, out, _ = run(capsys, "sequence", "--builtin", "E(2,2)", "--depth", "0")
    assert (code, out) == (0, f"layer 0: {n} vertices, {n} edges, {n} groups\n|W_2| = {n}\n")


def test_generator_matrices_past_the_budget_are_refused_before_any_row(capsys, monkeypatch):
    import sepk.formal_star
    from sepk.formal_star import build_generator_matrices
    from sepk.transform import DEFAULT_BUDGET, BudgetExceededError

    def no_side(g, part):
        raise AssertionError("a side was built")

    monkeypatch.setattr(sepk.formal_star, "_side", no_side)
    for command in ("k1-generator", "verify-generator"):
        argv = (command, "--builtin", "E(2,2)", "--element", "X:100000000,Y:-100000000")
        assert run(capsys, *argv) == (3, "", (
            "error: generator matrix Z would have 100000000 rows and 200000000 columns "
            f"(budget {DEFAULT_BUDGET})\n"
        ))
    # each unit of X or Y takes two columns on E(2,2): the budget is reached, not passed
    n = DEFAULT_BUDGET // 2
    with pytest.raises(AssertionError, match="a side was built"):
        build_generator_matrices(builtin("E", [2, 2]), {("v", 0): n, ("v", 1): -n})
    with pytest.raises(BudgetExceededError):
        build_generator_matrices(builtin("E", [2, 2]), {("v", 0): n + 1, ("v", 1): -n - 1})


def test_a_depth_past_the_budget_is_refused_before_any_layer_is_counted(tmp_path, monkeypatch):
    # the layers of this graph never grow, so no vertex or class budget
    # stops its count; each run is timed out, so a count without end fails
    from sepk import transform
    from sepk.ktheory import k0_tame
    from sepk.transform import DEFAULT_BUDGET, BudgetExceededError, w_set_sizes

    graph = tmp_path / "one-edge.json"
    graph.write_text(json.dumps({
        "vertices": ["v", "w"], "edges": [{"id": "a", "src": "w", "dst": "v"}],
        "separation": {"v": [["a"]]}, "bipartite": {"layer0": ["v"], "layer1": ["w"]},
    }))
    depth = "99999999999999999999"
    want = f"error: depth {depth} would take more than {DEFAULT_BUDGET} layers to count\n"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv in (["k0-tame"], ["sequence"], ["sequence", "--format", "json"]):
        proc = subprocess.run(
            [sys.executable, "-m", "sepk", *argv, str(graph), "--depth", depth],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", want), argv
    # the bound is DEFAULT_BUDGET layers: reached, not passed, on every path to the count
    monkeypatch.setattr(transform, "DEFAULT_BUDGET", 3)
    g = parse(graph.read_bytes())
    assert w_set_sizes(g, 3) == (0, 0, 0)
    for count in (w_set_sizes, canonical_sequence, k0_tame):
        with pytest.raises(BudgetExceededError, match="^depth 4 would take more than 3 layers to count$"):
            count(g, 4)


def test_character_command(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"v": 0.5, "w": 0.25}))  # v = -1, w = i
    free = tmp_path / "free.json"
    free.write_text(json.dumps({"v|a2,b2": 1.0 / 6.0}))
    code, out, _ = run(
        capsys, "character", "--builtin", "E(2,2)", "--base", str(base),
        "--free", str(free), "--at", "v", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["max_relation_error"] < 1e-9
    assert len(obj["values"]) == 6


def test_character_file_errors_exit_2(tmp_path, capsys):
    free = tmp_path / "free.json"
    free.write_text("{}")
    strings = tmp_path / "strings.json"
    strings.write_text(json.dumps({"v": ["a", "b"], "w": 0}))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"\xe9": 0}')
    angle_bool = tmp_path / "angle_bool.json"
    angle_bool.write_text(json.dumps({"v": True, "w": 0}))
    pair_bool = tmp_path / "pair_bool.json"
    pair_bool.write_text(json.dumps({"v": 0.5, "w": [True, 0]}))
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000 + "]" * 200000)
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{nope")
    top_list = tmp_path / "top_list.json"
    top_list.write_text("[0.5, 0.25]")
    # Character files are UTF-8 without a BOM: no other encoding is guessed.
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes('{"v": 0.5, "w": 0}'.encode("utf-16"))
    utf16le = tmp_path / "utf16le.json"
    utf16le.write_bytes('{"v": 0.5, "w": 0}'.encode("utf-16-le"))
    utf32 = tmp_path / "utf32.json"
    utf32.write_bytes('{"v": 0.5, "w": 0}'.encode("utf-32"))
    bom = tmp_path / "bom.json"
    bom.write_bytes('{"v": 0.5, "w": 0}'.encode("utf-8-sig"))
    encodings = [
        (utf16, "character file is not UTF-8 text: invalid start byte"),
        (utf16le, "malformed character file: "
         "Expecting property name enclosed in double quotes"),
        (utf32, "character file is not UTF-8 text: invalid start byte"),
        (bom, "malformed character file: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ]
    angle = "value at '{}' must be an angle in turns or [re, im]"
    cases = [
        (malformed, "malformed character file: "
         "Expecting property name enclosed in double quotes"),
        (top_list, "character file must be a map"),
        (strings, angle.format("v")),
        (angle_bool, angle.format("v")),
        (pair_bool, angle.format("w")),
        (latin1, "character file is not UTF-8 text: invalid continuation byte"),
        (nested, "malformed character file: nesting too deep"),
        *encodings,
    ]
    # Python's json reads NaN and Infinity; numbers beyond float range
    # overflow, and an angle near the float limit overflows 2 pi i times it.
    for k, (text, vertex) in enumerate((
        ('{"v": NaN, "w": 0}', "v"),
        ('{"v": 0.5, "w": -Infinity}', "w"),
        ('{"v": [NaN, 0], "w": 0}', "v"),
        ('{"v": 0.5, "w": [1, Infinity]}', "w"),
        ('{"v": 1' + "0" * 400 + ', "w": 0}', "v"),
        ('{"v": [1' + "0" * 400 + ', 0], "w": 0}', "v"),
        ('{"v": 1e308, "w": 0}', "v"),
    )):
        path = tmp_path / f"non_finite_{k}.json"
        path.write_text(text)
        cases.append((path, angle.format(vertex)))
    for base, detail in cases:
        code, out, err = run(
            capsys, "character", "--builtin", "E(2,2)", "--base", str(base),
            "--free", str(free),
        )
        assert code == 2 and out == ""
        assert err == f"error: {base}: {detail}\n"
    # the same checks guard --free, read after a valid --base
    good_base = tmp_path / "good_base.json"
    good_base.write_text(json.dumps({"v": 0.5, "w": 0.25}))
    nan_free = tmp_path / "nan_free.json"
    nan_free.write_text('{"v|a2,b2": NaN}')
    for free_file, detail in (
        (nan_free, angle.format("v|a2,b2")),
        (nested, "malformed character file: nesting too deep"),
        *encodings,
    ):
        code, out, err = run(
            capsys, "character", "--builtin", "E(2,2)", "--base", str(good_base),
            "--free", str(free_file),
        )
        assert code == 2 and out == ""
        assert err == f"error: {free_file}: {detail}\n"


def test_python_m_sepk_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "sepk", "ktheory", "--builtin", "E(3,3)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "K0 = Z, K1 = Z, K1 basis: X - Y\n"


def test_stdout_is_utf8_whatever_its_encoding(tmp_path, capsys):
    # "⊕" in text and a vertex "ü" in a graph, where stdout is ASCII
    graph = tmp_path / "u.json"
    graph.write_bytes(serialize(SeparatedGraph.build(["ü"], [], {})))
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHONIO", "PYTHONUTF8"))}
    env["PYTHONPATH"] = str(src)
    encodings = ({}, {"PYTHONIOENCODING": "ascii"}, {"PYTHONUTF8": "0", "LC_ALL": "C"})
    for argv in (["k0-tame", "--builtin", "E(2,2)", "--depth", "2"], ["companion", str(graph)]):
        want = (0, run(capsys, *argv)[1].encode("utf-8"), b"")
        for extra in encodings:
            proc = subprocess.run(
                [sys.executable, "-m", "sepk", *argv],
                env={**env, **extra}, capture_output=True, timeout=60,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == want, extra


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly():
    # 5.4 MB of JSON, read for 10 bytes; a line or two, never read at all
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv, read in (
        (["sequence", "--builtin", "lamplighter(2)", "--depth", "6", "--format", "json"], 10),
        (["k0-tame", "--builtin", "E(2,2)", "--depth", "2"], 0),
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "sepk", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0, argv
        assert proc.stderr.read() == b"", argv
        proc.stderr.close()


def test_shared_parser_matches_fresh_processes(capsys, monkeypatch):
    # One process reuses its parser; each call must behave like a fresh run.
    monkeypatch.setenv("COLUMNS", "80")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    k0 = ["k0-tame", "--builtin", "E(2,2)", "--depth", "3"]
    sequence = (
        [*k0, "--budget", "10"],
        k0,
        ["--help"],
        ["k0-tame", "--builtin", "E(2,2)"],
        ["ktheory", "--builtin", "E(3,3)"],
    )
    codes = []
    for argv in sequence:
        got = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "sepk", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
        codes.append(got[0])
    assert codes == [3, 0, 0, 1, 0]


def test_sequence_text_summary(capsys):
    code, out, _ = run(capsys, "sequence", "--builtin", "E(2,2)", "--depth", "2")
    assert code == 0
    assert "|W_2| = 1" in out
    assert "|W_3| = 11" in out


# sha256 of `sepk sequence --builtin <g> --depth 3 --format json`; any change to
# generated names, orders or the JSON layout changes these digests.
SEQUENCE_DIGESTS = {
    "E(2,2)": "b4a81f780520362988eb1b59f3ff0b1d5699f7000c93505080dc4e43f28689a0",
    "E(2,3)": "2520445177f97f8cd9c28978c6e27981d67cf1f0bb65dbc8187f3308da84049e",
    "lamplighter(2)": "b3cbe95cc9f330d1f83757d82449bd89305b0824c311cf08a8e0ed8c1e8975dc",
}


@pytest.mark.parametrize("spec", sorted(SEQUENCE_DIGESTS))
def test_sequence_json_golden_digest(capsys, spec):
    code, out, _ = run(capsys, "sequence", "--builtin", spec, "--depth", "3", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SEQUENCE_DIGESTS[spec]


EXTRA_ARGS = {
    "k0-tame": ["--depth", "1"],
    "sequence": ["--depth", "1"],
    "multires": ["--at", "v"],
    "k1-generator": ["--element", "X:1,Y:-1"],
    "verify-generator": ["--element", "X:1,Y:-1"],
    "phi": ["--element", "X:1,Y:-1"],
    "delta": ["--element", "X:1,Y:-1"],
    "character": ["--base", "base.json", "--free", "free.json"],
}
COMMANDS = (
    "validate", "ktheory", "k1-tame", "k0-tame", "multires", "sequence", "companion",
    "k1-generator", "verify-generator", "phi", "delta", "character",
)


@pytest.mark.parametrize("command", COMMANDS)
def test_input_file_and_builtin_together_exit_1(command, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    argv = [command, str(missing), "--builtin", "E(2,2)", *EXTRA_ARGS.get(command, [])]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: give either an input file or --builtin, not both\n"


def test_character_runs_one_multiresolution(tmp_path, capsys, monkeypatch):
    import sepk.ktheory
    import sepk.transform

    calls = []
    original = sepk.transform.multiresolution_data

    def counted(g, vertex_set):
        calls.append(g)
        return original(g, vertex_set)

    monkeypatch.setattr(sepk.transform, "multiresolution_data", counted)
    monkeypatch.setattr(sepk.ktheory, "multiresolution_data", counted)
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"v": 0.5, "w": 0.25}))
    free = tmp_path / "free.json"
    free.write_text(json.dumps({"v|a2,b2": 1.0 / 6.0}))
    code, out, _ = run(
        capsys, "character", "--builtin", "E(2,2)", "--base", str(base), "--free", str(free),
    )
    assert code == 0 and len(calls) == 1
    assert out.splitlines()[-1].startswith("max relation error: ")
    assert len(out.splitlines()) == 7
