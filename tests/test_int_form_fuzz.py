"""Property tests: the integer form of a graph answers as its names do.

`validate` and `incidence` read a graph's integer form.  Random graphs, some
with faults injected (each violation kind `validate` reports), are checked
against oracles that look every name up instead: `reference_validate` must
give the same violations in the same order with the same text, and on valid
graphs `reference_incidence` the same columns of 1_C - A.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings, strategies as st

from sepk.graph_model import Edge, SeparatedGraph, validate
from sepk.ktheory import incidence

from dense_oracles import reference_incidence
from graph_oracles import reference_validate

FAULTS = (
    "duplicate-vertex", "duplicate-edge", "dangling-endpoint", "unknown-edge",
    "wrong-range-vertex", "edge-in-multiple-groups", "partition-not-covering",
    "empty-group", "bipartite-layers-overlap", "bipartite-layers-not-partition",
    "bipartite-edge-direction", "bipartite-range-empty", "bipartite-source-empty",
)


@st.composite
def graph_parts(draw):
    """Names of a valid graph: vertices, [id, src, dst] edges, groups by vertex, layers.

    A bipartite graph sends every edge from layer1 to layer0; any other graph
    draws sources from all vertices, so loops and parallel edges occur.
    """
    if draw(st.booleans()):
        layer0 = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
        layer1 = [f"w{i}" for i in range(draw(st.integers(1, 3)))]
        vertices, ranges, sources, layers = layer0 + layer1, layer0, layer1, [layer0, layer1]
        min_groups = 1
    else:
        vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
        ranges = sources = vertices
        layers, min_groups = None, 0
    edges, groups = [], {v: [] for v in vertices}
    for v in ranges:
        for _ in range(draw(st.integers(min_groups, 3))):
            grp = []
            for _ in range(draw(st.integers(1, 3))):
                grp.append(f"e{len(edges)}")
                edges.append([grp[-1], draw(st.sampled_from(sources)), v])
            groups[v].append(grp)
    if layers is not None:  # every source emits an edge
        for w in sorted(set(sources) - {src for _, src, _ in edges}):
            v = draw(st.sampled_from(ranges))
            draw(st.sampled_from(groups[v])).append(f"e{len(edges)}")
            edges.append([f"e{len(edges)}", w, v])
    return vertices, edges, groups, layers


def _inject(draw, fault, vertices, edges, groups, layers):
    """Make the parts break the invariant that fault names, in place."""
    member_lists = [grp for v in vertices for grp in groups.get(v, ())]
    if fault == "duplicate-vertex":
        vertices.insert(draw(st.integers(0, len(vertices))), draw(st.sampled_from(vertices)))
    elif fault == "duplicate-edge" and edges:
        e = draw(st.sampled_from(edges))
        twin = [e[0], draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))]
        edges.insert(draw(st.integers(0, len(edges))), twin)
    elif fault == "dangling-endpoint" and edges:
        e = draw(st.sampled_from(edges))
        e[draw(st.sampled_from((1, 2)))] = "ghost"
        if layers is not None and draw(st.booleans()):  # a layer may name the ghost too
            draw(st.sampled_from(layers)).append("ghost")
    elif fault == "unknown-edge" and member_lists:
        draw(st.sampled_from(member_lists)).append("zz")
    elif fault == "wrong-range-vertex" and edges:
        draw(st.sampled_from(edges))[2] = draw(st.sampled_from(vertices))
    elif fault == "edge-in-multiple-groups" and edges and member_lists:
        draw(st.sampled_from(member_lists)).append(draw(st.sampled_from(edges))[0])
    elif fault == "partition-not-covering" and member_lists:
        grp = draw(st.sampled_from(member_lists))
        if grp:
            grp.pop(draw(st.integers(0, len(grp) - 1)))
    elif fault == "empty-group":
        groups.setdefault(draw(st.sampled_from(vertices)), []).append([])
    elif layers is None:
        return
    elif fault == "bipartite-layers-overlap" and layers[1]:
        layers[0].append(draw(st.sampled_from(layers[1])))
    elif fault == "bipartite-layers-not-partition":
        layer = draw(st.sampled_from(layers))
        if layer and draw(st.booleans()):
            layer.pop(draw(st.integers(0, len(layer) - 1)))
        else:
            layer.append("nowhere")
    elif fault == "bipartite-edge-direction" and layers[0]:
        v = draw(st.sampled_from(layers[0]))
        edges.append([f"rev{len(edges)}", draw(st.sampled_from(vertices)), v])
        groups.setdefault(v, []).append([edges[-1][0]])
    elif fault in ("bipartite-range-empty", "bipartite-source-empty"):
        vertices.append(f"silent{len(vertices)}")
        layers[fault == "bipartite-source-empty"].append(vertices[-1])


def _graph(vertices, edges, groups, layers) -> SeparatedGraph:
    return SeparatedGraph(
        tuple(vertices),
        tuple(Edge(*e) for e in edges),
        tuple(tuple(map(tuple, groups.get(v, ()))) for v in vertices),
        None if layers is None else (tuple(layers[0]), tuple(layers[1])),
    )


@st.composite
def faulty_graphs(draw):
    vertices, edges, groups, layers = draw(graph_parts())
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        event(fault)
        _inject(draw, fault, vertices, edges, groups, layers)
    return _graph(vertices, edges, groups, layers)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(faulty_graphs())
def test_validate_matches_name_keyed_reference(g):
    assert validate(g).violations == reference_validate(g).violations


# A group with two edges from one source: the entry is -2.
TWO_FROM_ONE_SOURCE = SeparatedGraph.build(
    ["v", "w"], [("a", "w", "v"), ("b", "w", "v")], {"v": [["a", "b"]]}
)
# An edge from its own range vertex: +1 and -1 at v cancel and the entry is dropped.
LOOP_CANCELS = SeparatedGraph.build(
    ["v", "w"],
    [("l", "v", "v"), ("a", "w", "v"), ("b", "w", "v")],
    {"v": [["l", "a"], ["b"]]},
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(graph_parts().map(lambda parts: _graph(*parts)))
@example(TWO_FROM_ONE_SOURCE)
@example(LOOP_CANCELS)
def test_incidence_matches_name_keyed_reference(g):
    assert validate(g).ok
    assert incidence(g).columns == reference_incidence(g)


def test_incidence_edge_cases():
    assert incidence(TWO_FROM_ONE_SOURCE).columns == ({0: 1, 1: -2},)
    assert incidence(LOOP_CANCELS).columns == ({1: -1}, {0: 1, 1: -1})
