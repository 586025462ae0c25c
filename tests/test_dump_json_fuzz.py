"""Property test: serialize(g) writes what the stdlib encoder writes for to_obj(g).

sepk lays out graph JSON from a graph's tuples; every other value goes
through json.JSONEncoder itself.  Drawn graphs take their vertex names and
edge ids from json_oracles.STRINGS and from drawn text with quotes,
backslashes, control characters, lone surrogates and non-ASCII text, so
vertex names repeat; they may have no edges, no bipartite split, or ends,
group members and layer entries that name no vertex or edge.  serialize(g)
must equal json.dumps(to_obj(g), indent=2, ensure_ascii=False) plus a
newline in UTF-8, or raise the same error class (a lone surrogate has no
UTF-8 form), and json_chunks(g) must join to that text.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from sepk.graph_model import Edge, SeparatedGraph

from json_oracles import STRINGS, serializes_as_reference

names = st.sampled_from(STRINGS) | st.text(
    alphabet=st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\n\ud800\udfff'),
    max_size=8,
)


@st.composite
def graphs(draw):
    loose = draw(st.integers(0, 4)) == 0  # in one graph in five, names may dangle

    def some_of(pool: list[str]):
        if not pool:
            return names
        return st.sampled_from(pool) | names if loose else st.sampled_from(pool)

    vertices = draw(st.lists(names, max_size=5))
    ends = some_of(vertices)
    edges = draw(st.lists(st.builds(Edge, names, ends, ends), max_size=6))
    group = st.lists(some_of([e.id for e in edges]), max_size=3).map(tuple)
    separation = [draw(st.lists(group, max_size=3).map(tuple)) for _ in vertices]
    layer = st.lists(ends, max_size=3).map(tuple)
    bipartite = draw(st.none() | st.tuples(layer, layer))
    return SeparatedGraph(tuple(vertices), tuple(edges), tuple(separation), bipartite)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(graphs())
def test_serialize_matches_stdlib_on_drawn_graphs(g):
    assert serializes_as_reference(g)
