import hashlib
import json

import pytest

from sepk.cli import main
from sepk.graph_model import builtin, group_label, parse, serialize
from sepk.ktheory import phi_transport
from sepk.transform import canonical_sequence

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


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    good = tmp_path / "g.graph"
    good.write_bytes(serialize(builtin("E", [2, 2])))
    code, _, err = run(capsys, "ktheory", str(good), "--builtin", "E(2,2)")
    assert code == 1
    code, _, err = run(capsys, "ktheory")
    assert code == 1


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


def test_element_syntax_and_errors(capsys):
    code, out, _ = run(capsys, "delta", "--builtin", "E(3,3)", "--element", "v.1:+1,v.2:-1")
    assert code == 0
    assert out.strip() == "-1 v +3 w"
    code, _, err = run(capsys, "delta", "--builtin", "E(3,3)", "--element", "Q:1")
    assert code == 4
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
