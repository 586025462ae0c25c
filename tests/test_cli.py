import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sepk.cli import main
from sepk.graph_model import builtin, group_label, parse, serialize
from sepk.ktheory import phi_transport
from sepk.transform import canonical_sequence, multiresolution_at, multiresolution_data

from conftest import name_collision_graphs


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


def test_usage_errors_exit_1(tmp_path, capsys, monkeypatch):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    good = tmp_path / "g.graph"
    good.write_bytes(serialize(builtin("E", [2, 2])))
    code, _, err = run(capsys, "ktheory", str(good), "--builtin", "E(2,2)")
    assert code == 1
    code, _, err = run(capsys, "ktheory")
    assert code == 1
    # a directory as input, and negative budgets from the flag or the environment
    for argv in (
        ("ktheory", str(tmp_path)),
        ("validate", str(tmp_path)),
        ("k0-tame", "--builtin", "E(2,2)", "--depth", "1", "--budget", "-5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    for env, detail in (
        ("-5", "must not be negative, got -5"),
        ("abc", "must be an integer, got 'abc'"),
    ):
        monkeypatch.setenv("SEPK_BUDGET", env)
        code, out, err = run(capsys, "sequence", "--builtin", "E(2,2)", "--depth", "1")
        assert code == 1 and out == ""
        assert err == f"error: SEPK_BUDGET {detail}\n"


def test_builtin_range_error_exits_4(capsys):
    code, _, err = run(capsys, "ktheory", "--builtin", "E(1,1)")
    assert code == 4
    assert "1 < m <= n" in err


def test_budget_exceeded_exits_3(capsys, monkeypatch):
    code, _, err = run(
        capsys, "k0-tame", "--builtin", "E(2,2)", "--depth", "3", "--budget", "10"
    )
    assert code == 3
    assert "last completed layer" in err
    monkeypatch.setenv("SEPK_BUDGET", "10")
    code, _, _ = run(capsys, "sequence", "--builtin", "E(2,2)", "--depth", "3")
    assert code == 3
    # an explicit flag overrides the environment
    code, _, _ = run(
        capsys, "sequence", "--builtin", "E(2,2)", "--depth", "3", "--budget", "100000"
    )
    assert code == 0


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
    for element, detail in (
        ("Q:1", "group name 'Q' is not of the form v.k"),
        ("Y:x", "bad coefficient 'x' in 'Y:x'"),
        ("v.7:1", "unknown group 'v.7'"),
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


def test_shared_parser_matches_fresh_processes(capsys, monkeypatch):
    # One process reuses its parser; each call must behave like a fresh run.
    monkeypatch.delenv("SEPK_BUDGET", raising=False)
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


def test_phi_runs_one_canonical_step(capsys, monkeypatch):
    import sepk.ktheory
    import sepk.transform

    calls = []
    original = sepk.transform.canonical_step_data

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(sepk.transform, "canonical_step_data", counted)
    monkeypatch.setattr(sepk.ktheory, "canonical_step_data", counted)
    code, out, _ = run(capsys, "phi", "--builtin", "E(2,2)", "--element", "X:1,Y:-1")
    assert code == 0 and len(calls) == 1
    assert out.strip() == "-X(a1) - X(a2) + X(b1) + X(b2)"
