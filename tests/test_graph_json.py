"""Graph JSON against the stdlib encoder run on each graph's dict form.

serialize(g) and the graph outputs of the CLI (companion, multires) must
read exactly as json.dumps(to_obj(g), indent=2, ensure_ascii=False) plus a
newline, sequence JSON as the same call on CanonicalSequence.to_json_obj(),
and json_chunks of a value that holds graphs as the call on the value with
each graph replaced by its to_obj dict.  The graphs include seeded ones renamed
with characters that need escaping, corrupted ones, graphs without edges
or a bipartite split, and graphs whose names are not all strings.
"""

import random

import pytest

from sepk import graph_model
from sepk.cli import main
from sepk.graph_model import (
    Edge,
    SeparatedGraph,
    builtin_from_spec,
    json_chunks,
    serialize,
    to_obj,
)
from sepk.transform import bipartite_companion, canonical_sequence, multiresolution_at

from conftest import admissible_vertex_set, random_bipartite_graph, random_separated_graph
from graph_oracles import corrupt
from json_oracles import random_value, reference

BUILTINS = (("E(2,2)", 3), ("E(2,3)", 2), ("E(3,3)", 2), ("lamplighter(2)", 5), ("lamplighter(3)", 3))
# JSON escapes, the separators of generated names and non-ASCII text;
# none is whitespace, which --at would strip
FRAGMENTS = ("\\", "|", ",", '"', "\x01", "\b", "ü", "✓", "𝔸", "")
# graphs whose dict form reads differently from their fields
ODD_GRAPHS = {
    # to_obj's separation map keeps the first "v" with the last one's groups
    "repeated-vertex": SeparatedGraph(("v", "v", "w"), (), ((), (("e",),), ()), None),
    "int-names": SeparatedGraph(("v", 1), (Edge(2, "v", 1),), ((), ((2,),)), (("v",), (1,))),
    "scalar-names": SeparatedGraph(
        ("v", None, 1.5, True), (Edge("e", None, "v"),), ((("e",),), (), (), ()), None
    ),
    "tuple-in-layer": SeparatedGraph(("v",), (), ((),), (("v",), (("x", "y"),))),
}
EDGELESS = {
    "empty": SeparatedGraph((), (), (), None),
    "empty-bipartite": SeparatedGraph((), (), (), ((), ())),
    "one-vertex": SeparatedGraph(("v",), (), ((),), None),
    "bipartite": SeparatedGraph(("v", "w"), (), ((), ()), (("v",), ("w",))),
    "empty-groups": SeparatedGraph(("v", "w"), (), (((), ()), ()), None),
}


def dict_form(g) -> str:
    return reference(to_obj(g)) + "\n"


def renamed(g: SeparatedGraph, rng: random.Random) -> SeparatedGraph:
    """g with each vertex and edge name wrapped in two seeded fragments."""

    def wrap(name):
        return rng.choice(FRAGMENTS) + name + rng.choice(FRAGMENTS)

    vs = {v: wrap(v) for v in g.vertices}
    es = {e.id: wrap(e.id) for e in g.edges}
    return SeparatedGraph(
        tuple(vs[v] for v in g.vertices),
        tuple(Edge(es[e.id], vs[e.src], vs[e.dst]) for e in g.edges),
        tuple(tuple(tuple(es[x] for x in grp) for grp in groups) for groups in g.separation),
        None if g.bipartite is None else tuple(tuple(vs[v] for v in layer) for layer in g.bipartite),
    )


def seeded_graphs(count: int, seed: int):
    """count seeded renamed graphs, alternating random_separated_graph and random_bipartite_graph."""
    rng = random.Random(seed)
    for i in range(count):
        g = random_bipartite_graph(rng) if i % 2 else random_separated_graph(rng)
        yield renamed(g, rng)


def plain(value):
    """value with each graph in it replaced by its to_obj dict."""
    if isinstance(value, SeparatedGraph):
        return to_obj(value)
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def nested(rng: random.Random, graphs, depth: int):
    """A seeded list, tuple or map holding graphs and other values, depth levels deep."""
    if depth == 0:
        return rng.choice(graphs)
    items = [
        nested(rng, graphs, depth - 1) if rng.random() < 0.7 else random_value(rng, 1)
        for _ in range(rng.randint(1, 3))
    ]
    kind = rng.randrange(3)
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    return {rng.choice(("k", "layers", 'a "key"', "ü")) + str(i): item for i, item in enumerate(items)}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    return out.out


def test_serialize_writes_each_builtin_layer_as_its_dict_form():
    for spec, depth in BUILTINS:
        for g in canonical_sequence(builtin_from_spec(spec), depth).graphs:
            assert serialize(g) == dict_form(g).encode("utf-8")


def test_serialize_writes_seeded_and_corrupted_graphs_as_their_dict_form():
    rng, repeat_rng = random.Random(7), random.Random(8)
    for g in seeded_graphs(200, 24):
        assert serialize(g) == dict_form(g).encode("utf-8")
        bad = corrupt(g, rng)
        assert serialize(bad) == dict_form(bad).encode("utf-8")
        # vertex names repeated in place, each copy with its own groups;
        # to_obj's separation map keeps the first place and the last groups
        vs = list(g.vertices)
        for _ in range(repeat_rng.randint(1, 3) if vs else 0):
            vs[repeat_rng.randrange(len(vs))] = repeat_rng.choice(vs)
        bad = SeparatedGraph(tuple(vs), g.edges, g.separation, g.bipartite)
        assert serialize(bad) == dict_form(bad).encode("utf-8")


@pytest.mark.parametrize("g", [*ODD_GRAPHS.values(), *EDGELESS.values()],
                         ids=[*ODD_GRAPHS, *EDGELESS])
def test_serialize_writes_odd_and_edgeless_graphs_as_their_dict_form(g):
    assert serialize(g) == dict_form(g).encode("utf-8")


def test_graphs_nested_in_lists_and_maps_read_as_their_dict_form():
    graphs = [
        builtin_from_spec("lamplighter(2)"), *ODD_GRAPHS.values(), *EDGELESS.values(),
        *seeded_graphs(6, 26),
    ]
    rng = random.Random(9)
    for i in range(120):
        value = nested(rng, graphs, i % 5)
        assert "".join(json_chunks(value)) == reference(plain(value))


def test_only_graphs_whose_dict_form_reads_differently_go_through_to_obj(monkeypatch):
    through = []
    monkeypatch.setattr(graph_model, "to_obj", lambda g: through.append(g) or to_obj(g))
    for g in (*EDGELESS.values(), *seeded_graphs(20, 27), builtin_from_spec("E(2,3)")):
        serialize(g)
    assert through == []
    for g in ODD_GRAPHS.values():
        serialize(g)
    # a repeated vertex name is written from the graph's own tuples
    assert through == [g for name, g in ODD_GRAPHS.items() if name != "repeated-vertex"]


def test_a_name_the_encoder_rejects_raises_type_error():
    g = SeparatedGraph(("v", object()), (), ((), ()), None)
    with pytest.raises(TypeError):
        dict_form(g)
    with pytest.raises(TypeError):
        serialize(g)


def test_cli_graph_outputs_read_as_their_dict_form(capsys, tmp_path):
    for spec, depth in BUILTINS:
        want = reference(canonical_sequence(builtin_from_spec(spec), depth).to_json_obj()) + "\n"
        assert run(capsys, "sequence", "--builtin", spec, "--depth", str(depth), "--format", "json") == want
        companion = bipartite_companion(builtin_from_spec(spec))
        assert run(capsys, "companion", "--builtin", spec) == dict_form(companion)
    assert run(capsys, "multires", "--builtin", "E(2,2)", "--at", "v") == dict_form(
        multiresolution_at(builtin_from_spec("E(2,2)"), ["v"])
    )
    rng = random.Random(3)
    for i, g in enumerate(seeded_graphs(60, 25)):
        path = tmp_path / f"g{i}.json"
        path.write_bytes(serialize(g))
        assert run(capsys, "companion", str(path), "--format", "json") == dict_form(
            bipartite_companion(g)
        )
        at = admissible_vertex_set(g, rng)
        if at is not None and "," not in "".join(at):  # --at splits at commas
            assert run(capsys, "multires", str(path), "--at", ",".join(at)) == dict_form(
                multiresolution_at(g, at)
            )
        if g.bipartite is not None:  # deeper layers of these graphs run to 10^5 vertices
            want = reference(canonical_sequence(g, 1).to_json_obj()) + "\n"
            assert run(capsys, "sequence", str(path), "--depth", "1", "--format", "json") == want
