import json
import random

import pytest

from sepk.graph_model import (
    GraphFormatError,
    ParameterRangeError,
    SeparatedGraph,
    builtin,
    builtin_from_spec,
    from_obj,
    parse,
    serialize,
    validate,
)

from conftest import random_bipartite_graph, random_separated_graph
from graph_oracles import corrupt, reference_validate
from json_oracles import UNSUPPORTED, dump_json, random_value, reference


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


def test_lamplighter_takes_one_parameter():
    with pytest.raises(ParameterRangeError) as exc:
        builtin("lamplighter", [2, 3])
    assert str(exc.value) == "lamplighter takes one parameter (p)"


def test_malformed_construction_and_missing_split_raise():
    with pytest.raises(ValueError) as exc:
        SeparatedGraph(("v", "w"), (), ((),))
    assert str(exc.value) == (
        "separation must have exactly one entry per vertex (1 entries, 2 vertices)"
    )
    with pytest.raises(GraphFormatError) as exc:
        SeparatedGraph.build(["v"], [], {"x": []})
    assert str(exc.value) == "separation key 'x' is not a vertex"
    g = SeparatedGraph.build(["v"], [], {})
    for layer in ("layer0", "layer1"):
        with pytest.raises(ValueError) as exc:
            getattr(g, layer)
        assert str(exc.value) == "graph carries no bipartite split"


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


def test_parsed_graph_holds_one_string_per_name():
    # Edge ends, group members and bipartite layers are the vertex and edge
    # id strings themselves, not equal copies from the document.
    rng = random.Random(20261018)
    for k in range(40):
        g = parse(serialize(random_bipartite_graph(rng) if k % 2 else random_separated_graph(rng)))
        vertex = {v: v for v in g.vertices}
        edge_id = {e.id: e.id for e in g.edges}
        for e in g.edges:
            assert e.src is vertex[e.src] and e.dst is vertex[e.dst]
        for groups in g.separation:
            for grp in groups:
                assert all(eid is edge_id[eid] for eid in grp)
        for layer in g.bipartite or ():
            assert all(v is vertex[v] for v in layer)


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


# Error contract of parse/from_obj: one malformed document per failure branch,
# with the exact message and location.  Documents that break two rules pin
# which check runs first.
_V = ["v", "w"]
_E = [{"id": "a", "src": "w", "dst": "v"}]


def _doc(**over):
    d = {"vertices": _V, "edges": _E, "separation": {"v": [["a"]]}}
    for key, val in over.items():
        if val is None:
            del d[key]
        else:
            d[key] = val
    return json.dumps(d)


FORMAT_ERRORS = [
    ("[]", "top level must be a map", "graph"),
    ("3", "top level must be a map", "graph"),
    (_doc(zz=1, extra=2), "unknown keys ['extra', 'zz']", "graph"),
    ('{"vertices": [], "extra": 1}', "unknown keys ['extra']", "graph"),
    (_doc(separation=None), "missing key 'separation'", "graph"),
    ('{"vertices": []}', "missing key 'edges'", "graph"),
    (_doc(vertices={"v": 1}), "vertices must be a list", "graph.vertices"),
    (_doc(vertices=["v", 3]), "vertex id must be a string", "graph.vertices[1]"),
    (
        _doc(vertices=["v", "w", "q'\\\"", "q'\\\""]),
        "duplicate vertex id 'q\\'\\\\\"'",
        "graph.vertices[3]",
    ),
    # a JSON escape can write a lone surrogate, which no UTF-8 output can carry
    (
        _doc(vertices=["v", "w", "x\ud800"]),
        "vertex id 'x\\ud800' is not UTF-8 text: surrogates not allowed",
        "graph.vertices[2]",
    ),
    (
        _doc(vertices=["v", "w", "\udfff", "\udfff"]),
        "vertex id '\\udfff' is not UTF-8 text: surrogates not allowed",
        "graph.vertices[2]",
    ),
    (
        b'{"vertices": ["\\ud800"], "edges": [], "separation": {"\\ud800": []}}',
        "vertex id '\\ud800' is not UTF-8 text: surrogates not allowed",
        "graph.vertices[0]",
    ),
    (_doc(edges="a"), "edges must be a list", "graph.edges"),
    (_doc(edges=[_E[0], ["a", "w", "v"]]), "edge must be a map", "graph.edges[1]"),
    (_doc(edges=[{"id": "a", "src": "w"}]), "edge must have exactly id, src, dst", "graph.edges[0]"),
    (
        _doc(edges=[{"id": ["a"], "src": "w", "dst": "v"}]),
        "edge fields must be strings",
        "graph.edges[0]",
    ),
    (
        _doc(edges=[_E[0], {"id": "a", "src": "ghost", "dst": "v"}]),
        "duplicate edge id 'a'",
        "graph.edges[1]",
    ),
    (
        _doc(edges=[_E[0], {"id": "\u00e9\udc80", "src": "ghost", "dst": "v"}]),
        "edge id '\u00e9\\udc80' is not UTF-8 text: surrogates not allowed",
        "graph.edges[1].id",
    ),
    (
        _doc(edges=[{"id": "a", "src": "ghost\n", "dst": "ghost"}]),
        "unknown source vertex 'ghost\\n'",
        "graph.edges[0].src",
    ),
    (
        _doc(edges=[{"id": "a", "src": "w", "dst": "ghost"}]),
        "unknown range vertex 'ghost'",
        "graph.edges[0].dst",
    ),
    (_doc(separation=[["a"]]), "separation must be a map", "graph.separation"),
    (
        _doc(separation={"v": [["a"]], "x y": []}),
        "separation key 'x y' is not a vertex",
        "graph.separation.x y",
    ),
    (_doc(separation={"v": {"0": ["a"]}}), "groups must be a list of lists", "graph.separation.v"),
    (
        _doc(separation={"v": [["a"], "a"]}),
        "group must be a list of edge ids",
        "graph.separation.v[1]",
    ),
    (_doc(separation={"v": [["a", 7]]}), "edge id must be a string", "graph.separation.v[0][1]"),
    (  # an unhashable member
        _doc(separation={"v": [["a", ["a"]]]}),
        "edge id must be a string",
        "graph.separation.v[0][1]",
    ),
    (_doc(separation={"v": [["a"], ["zz"]]}), "unknown edge id 'zz'", "graph.separation.v[1][0]"),
    (_doc(bipartite=[["v"], ["w"]]), "bipartite must be a map", "graph.bipartite"),
    (_doc(bipartite={"layer0": ["v"]}), "bipartite needs layer0 and layer1", "graph.bipartite"),
    (
        _doc(bipartite={"layer0": ["v"], "layer1": "w"}),
        "layer1 must be a list",
        "graph.bipartite.layer1",
    ),
    (
        _doc(bipartite={"layer0": [None], "layer1": ["w"]}),
        "vertex id must be a string",
        "graph.bipartite.layer0[0]",
    ),
    (
        _doc(bipartite={"layer0": ["v"], "layer1": ["w", ["u"]]}),
        "vertex id must be a string",
        "graph.bipartite.layer1[1]",
    ),
    (
        _doc(bipartite={"layer0": ["v"], "layer1": ["w", "u"]}),
        "unknown vertex 'u'",
        "graph.bipartite.layer1[1]",
    ),
    (b'{"vertices": ["v", "\xff"]}', "not UTF-8 text: invalid start byte", "byte 20"),
    ('{"vertices": [,]}', "malformed syntax: Expecting value", "line 1 column 15"),
    ('{"vertices": ["v"],\n "edges": [', "malformed syntax: Expecting value", "line 2 column 12"),
    ("", "malformed syntax: Expecting value", "line 1 column 1"),
]


@pytest.mark.parametrize("data,message,location", FORMAT_ERRORS)
def test_parse_error_contract(data, message, location):
    with pytest.raises(GraphFormatError) as exc:
        parse(data)
    assert exc.value.location == location
    assert str(exc.value) == f"{location}: {message}"


def test_escaped_surrogate_pairs_are_names():
    # "\\ud83d\\ude00" is one code point; only a lone surrogate is refused
    g = parse(_doc(vertices=["v", "w", "\U0001f600"], separation={"v": [["a"]], "\U0001f600": []}))
    assert g.vertices[2] == "\U0001f600"
    assert parse(serialize(g)).vertices == g.vertices


def test_from_obj_error_location_prefix():
    with pytest.raises(GraphFormatError) as exc:
        from_obj({"vertices": ["v", "v"], "edges": [], "separation": {}}, "sequence.layers[3]")
    assert exc.value.location == "sequence.layers[3].vertices[1]"
    assert str(exc.value) == "sequence.layers[3].vertices[1]: duplicate vertex id 'v'"


def test_validate_matches_reference_on_corrupted_graphs():
    rng = random.Random(5150)
    kinds = set()
    for i in range(300):
        base = random_bipartite_graph(rng) if i % 2 else random_separated_graph(rng)
        g = corrupt(base, rng)
        report = validate(g)
        assert report.violations == reference_validate(g).violations
        kinds.update(v.kind for v in report.violations)
    assert kinds == {
        "duplicate-vertex", "duplicate-edge", "dangling-endpoint", "empty-group",
        "unknown-edge", "wrong-range-vertex", "edge-in-multiple-groups",
        "partition-not-covering", "bipartite-layers-overlap",
        "bipartite-layers-not-partition", "bipartite-edge-direction",
        "bipartite-range-empty", "bipartite-source-empty",
    }


def test_dump_json_matches_stdlib_on_seeded_values():
    rng = random.Random(11)
    for _ in range(500):
        value = random_value(rng)
        assert dump_json(value) == reference(value)


@pytest.mark.parametrize("value", UNSUPPORTED.values(), ids=UNSUPPORTED)
def test_dump_json_rejects_what_stdlib_rejects(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        dump_json(value)
