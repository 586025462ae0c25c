import random

import pytest

from sepk.graph_model import (
    GraphFormatError,
    ParameterRangeError,
    SeparatedGraph,
    builtin,
    builtin_from_spec,
    parse,
    serialize,
    validate,
)

from conftest import random_separated_graph


def test_builtin_e23_shape():
    g = builtin("E", [2, 3])
    assert g.vertices == ("v", "w")
    assert len(g.edges) == 5
    assert g.groups_at("v") == (("a1", "a2", "a3"), ("b1", "b2"))
    assert g.groups_at("w") == ()
    assert g.bipartite == (("v",), ("w",))
    assert validate(g).ok


def test_builtin_lamplighter_shape():
    g = builtin("lamplighter", [2])
    assert len(g.vertices) == 3
    assert len(g.edges) == 4
    assert [len(grp) for grp in g.groups_at("v")] == [2, 2]
    assert validate(g).ok


@pytest.mark.parametrize("spec", ["E(2,2)", "E(3,3)", "E(2,5)", "lamplighter(2)", "lamplighter(5)"])
def test_builtins_validate(spec):
    assert validate(builtin_from_spec(spec)).ok


@pytest.mark.parametrize(
    "name,params",
    [("E", [1, 1]), ("E", [3, 2]), ("E", [0, 4]), ("lamplighter", [1]), ("nonsense", [2])],
)
def test_builtin_range_errors(name, params):
    with pytest.raises(ParameterRangeError):
        builtin(name, params)


def test_validate_partition_not_covering():
    g = SeparatedGraph.build(
        ["v", "w"],
        [("a", "w", "v"), ("b", "w", "v")],
        {"v": [["a"]]},  # b is not covered
    )
    report = validate(g)
    assert not report.ok
    assert any(v.kind == "partition-not-covering" and v.subject == "b" for v in report.violations)


def test_validate_empty_group():
    g = SeparatedGraph.build(["v", "w"], [("a", "w", "v")], {"v": [["a"], []]})
    report = validate(g)
    assert any(v.kind == "empty-group" for v in report.violations)


def test_validate_wrong_range_vertex():
    g = SeparatedGraph.build(
        ["v", "w"],
        [("a", "w", "v")],
        {"v": [["a"]], "w": [["a"]]},
    )
    kinds = {v.kind for v in validate(g).violations}
    assert "wrong-range-vertex" in kinds
    assert "edge-in-multiple-groups" in kinds


def test_validate_dangling_and_duplicates():
    g = SeparatedGraph.build(
        ["v", "v"],
        [("a", "nowhere", "v"), ("a", "v", "v")],
        {"v": [["a"]]},
    )
    kinds = {v.kind for v in validate(g).violations}
    assert "duplicate-vertex" in kinds
    assert "duplicate-edge" in kinds
    assert "dangling-endpoint" in kinds


def test_validate_bipartite_violations():
    g = SeparatedGraph.build(
        ["v", "w"],
        [("a", "v", "w")],  # wrong direction
        {"w": [["a"]]},
        bipartite=(["v"], ["w"]),
    )
    kinds = {v.kind for v in validate(g).violations}
    assert "bipartite-edge-direction" in kinds
    g2 = SeparatedGraph.build(["v", "w"], [], {}, bipartite=(["v"], ["w"]))
    kinds = {v.kind for v in validate(g2).violations}
    assert "bipartite-range-empty" in kinds
    assert "bipartite-source-empty" in kinds


def test_round_trip_builtins():
    for spec in ("E(2,2)", "E(3,5)", "lamplighter(3)"):
        g = builtin_from_spec(spec)
        assert parse(serialize(g)) == g


def test_round_trip_random_graphs():
    rng = random.Random(20240817)
    for _ in range(25):
        g = random_separated_graph(rng)
        again = parse(serialize(g))
        assert again == g
        # serialize of a canonical file is stable
        assert serialize(again) == serialize(g)


def test_parse_malformed_syntax():
    with pytest.raises(GraphFormatError) as exc:
        parse(b'{"vertices": [,]}')
    assert "malformed syntax" in str(exc.value)


def test_parse_unknown_vertex_in_edge():
    text = '{"vertices": ["v"], "edges": [{"id": "a", "src": "ghost", "dst": "v"}], "separation": {}}'
    with pytest.raises(GraphFormatError) as exc:
        parse(text)
    assert "ghost" in str(exc.value)
    assert "edges[0]" in str(exc.value)


def test_parse_duplicate_ids():
    text = '{"vertices": ["v", "w", "v"], "edges": [], "separation": {}}'
    with pytest.raises(GraphFormatError, match="duplicate vertex id 'v'") as exc:
        parse(text)
    assert exc.value.location == "graph.vertices[2]"
    text = (
        '{"vertices": ["v"], "edges": [{"id": "a", "src": "v", "dst": "v"},'
        ' {"id": "a", "src": "v", "dst": "v"}], "separation": {}}'
    )
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        parse(text)


def test_parse_unknown_edge_in_separation():
    text = '{"vertices": ["v"], "edges": [], "separation": {"v": [["zz"]]}}'
    with pytest.raises(GraphFormatError, match="unknown edge"):
        parse(text)


def test_parse_separation_key_not_vertex():
    text = '{"vertices": ["v"], "edges": [], "separation": {"x": []}}'
    with pytest.raises(GraphFormatError, match="not a vertex"):
        parse(text)


def test_wrong_vertex_group_surfaces_in_validate():
    # Parses fine (ids all resolve) but violates the partition invariants.
    text = (
        '{"vertices": ["v", "u", "w"],'
        ' "edges": [{"id": "a", "src": "w", "dst": "v"}],'
        ' "separation": {"u": [["a"]]}}'
    )
    g = parse(text)
    kinds = {v.kind for v in validate(g).violations}
    assert "wrong-range-vertex" in kinds
    assert "partition-not-covering" in kinds


def test_graph_immutability_and_equality():
    g = builtin("E", [2, 2])
    h = builtin("E", [2, 2])
    assert g == h
    assert g != builtin("E", [2, 3])
    with pytest.raises(Exception):
        g.vertices = ()
