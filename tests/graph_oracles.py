"""Reference copy of the separated-graph validator, edge lookups by name, step sizes.

`reference_validate` is the straightforward validator that reads the
graph's names only, through its fields and its name-keyed accessors, kept
as the oracle that `graph_model.validate` (which reads the graph's integer
form) is compared with.  `r_inv` and `s_inv` list the edges into and out
of a vertex, in edge-list order, by scanning every edge.
`projected_step_size` counts the vertices a canonical step would generate
from a built layer.  `reference_step` spells out the fresh part of a
multiresolution name by name, and `reference_character_values` extends a
character across a multiresolution by spelling every generated vertex's name.
`corrupt` gives a graph seeded defects of the kinds validate reports,
`renamed` wraps each of its names in seeded `FRAGMENTS`, and `shuffled`
puts each of its orders in a seeded order.
"""

import itertools
import math
import random
from typing import Mapping

from sepk.graph_model import Edge, SeparatedGraph, ValidationReport, Violation, group_label


def r_inv(g: SeparatedGraph, v: str) -> tuple[Edge, ...]:
    """The edges with range v."""
    return tuple(e for e in g.edges if e.dst == v)


def s_inv(g: SeparatedGraph, v: str) -> tuple[Edge, ...]:
    """The edges with source v."""
    return tuple(e for e in g.edges if e.src == v)


def projected_step_size(g: SeparatedGraph) -> int:
    """Number of vertices the next canonical step generates: one per tuple over layer0."""
    return sum(math.prod(len(grp) for grp in g.groups_at(u)) for u in g.layer0)


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace("|", "\\|").replace(",", "\\,")


def reference_step(g: SeparatedGraph, bases, sources):
    """The fresh part of the multiresolution of g at bases, as a graph onto sources.

    Straight from the definition, on names only: per base u in order, one
    vertex "u|x1,...,xk" per tuple of itertools.product over C_u, and per
    slot i an arrow "a^xi|companions" from it to s(xi), every piece escaped.
    X(x), the arrows with distinguished edge x in tuple order, is a group at
    s(x); a source's groups follow its edges into bases in edge-list order.
    W lists the tuples with at least two coordinates not first in their
    group.  Returns (graph, W, root, group_of_edge): the graph has layers
    (sources, tuples), root maps a tuple to its base, and group_of_edge maps
    x to the key of X(x), sources in order and then edges in order.
    """
    tuples, arrows, w, root = [], [], [], {}
    group: dict[str, list[str]] = {}
    for u in bases:
        groups = g.groups_at(u)
        firsts = {grp[0] for grp in groups}
        for tup in itertools.product(*groups):
            coords = [_esc(x) for x in tup]
            v = _esc(u) + "|" + ",".join(coords)
            tuples.append(v)
            root[v] = u
            if sum(x not in firsts for x in tup) >= 2:
                w.append(v)
            for i, x in enumerate(tup):
                a = "a^" + coords[i] + "|" + ",".join(coords[:i] + coords[i + 1 :])
                arrows.append((a, v, g.edge(x).src))
                group.setdefault(x, []).append(a)
    into = set(bases)
    out: dict[str, list[str]] = {s: [] for s in sources}
    for e in g.edges:
        if e.dst in into:
            out[e.src].append(e.id)
    separation, group_of_edge = {}, {}
    for s, xs in out.items():
        separation[s] = [group[x] for x in xs]
        group_of_edge.update((x, (s, i)) for i, x in enumerate(xs))
    graph = SeparatedGraph.build([*sources, *tuples], arrows, separation, (sources, tuples))
    return graph, tuple(w), root, group_of_edge


def reference_character_values(
    g: SeparatedGraph, vertex_set, base: Mapping[str, complex], free: Mapping[str, complex]
) -> dict[str, complex]:
    """The extension of base and free across the multiresolution of g at vertex_set.

    Each tuple vertex is found by its name, "u|x1,...,xk" with every piece
    escaped, and each forced value divides the relation's left side by the
    product of the other vertices' values, taken in itertools.product order:
    X(x) for a tuple whose one non-first coordinate is x, and the splitting
    of u into all its tuples for u's all-first tuple.  Nothing is checked.
    """

    def name(u: str, tup: tuple[str, ...]) -> str:
        return _esc(u) + "|" + ",".join(_esc(x) for x in tup)

    values, chosen = {**base, **free}, set(vertex_set)
    for u in (v for v in g.vertices if v in chosen):
        groups = g.groups_at(u)
        firsts = tuple(grp[0] for grp in groups)
        for i, grp in enumerate(groups):
            others = groups[:i] + groups[i + 1 :]
            other_firsts = firsts[:i] + firsts[i + 1 :]
            for x in grp[1:]:
                prod = 1.0 + 0j
                for comps in itertools.product(*others):
                    if comps != other_firsts:
                        prod *= values[name(u, comps[:i] + (x,) + comps[i:])]
                z = values[g.edge(x).src] / prod
                values[name(u, firsts[:i] + (x,) + firsts[i + 1 :])] = z / abs(z)
        prod = 1.0 + 0j
        for tup in itertools.product(*groups):
            if tup != firsts:
                prod *= values[name(u, tup)]
        z = values[u] / prod
        values[name(u, firsts)] = z / abs(z)
    return values


def reference_validate(g: SeparatedGraph) -> ValidationReport:
    """Check every separated-graph invariant; violations are data, not errors.

    Reported kinds: duplicate-vertex, duplicate-edge, dangling-endpoint,
    empty-group, unknown-edge, wrong-range-vertex, edge-in-multiple-groups,
    partition-not-covering, and the bipartite-* family.
    """
    out: list[Violation] = []
    seen_v: set[str] = set()
    for v in g.vertices:
        if v in seen_v:
            out.append(Violation("duplicate-vertex", v, "vertex id appears twice"))
        seen_v.add(v)
    seen_e: set[str] = set()
    for e in g.edges:
        if e.id in seen_e:
            out.append(Violation("duplicate-edge", e.id, "edge id appears twice"))
        seen_e.add(e.id)
        for which, endpoint in (("source", e.src), ("range", e.dst)):
            if endpoint not in seen_v:
                out.append(
                    Violation(
                        "dangling-endpoint",
                        e.id,
                        f"{which} vertex {endpoint!r} does not exist",
                    )
                )

    # Group membership: each edge in at most one group, under its own range
    # vertex, groups nonempty.
    owner: dict[str, tuple[str, int]] = {}
    for v, groups in zip(g.vertices, g.separation):
        for gi, grp in enumerate(groups):
            if not grp:
                out.append(
                    Violation("empty-group", group_label((v, gi)), "group has no edges")
                )
            for eid in grp:
                if not g.has_edge(eid):
                    out.append(
                        Violation(
                            "unknown-edge",
                            eid,
                            f"listed in group {group_label((v, gi))} but not an edge",
                        )
                    )
                    continue
                if g.edge(eid).dst != v:
                    out.append(
                        Violation(
                            "wrong-range-vertex",
                            eid,
                            f"listed under {v!r} but its range is {g.edge(eid).dst!r}",
                        )
                    )
                if eid in owner:
                    out.append(
                        Violation(
                            "edge-in-multiple-groups",
                            eid,
                            f"appears in {group_label(owner[eid])} and {group_label((v, gi))}",
                        )
                    )
                else:
                    owner[eid] = (v, gi)

    # Covering: every edge into a known vertex must be owned by a group there.
    for e in g.edges:
        if e.dst not in seen_v:
            continue
        own = owner.get(e.id)
        if own is None or own[0] != e.dst:
            out.append(
                Violation(
                    "partition-not-covering",
                    e.id,
                    f"edge into {e.dst!r} is missing from C_{e.dst}",
                )
            )

    if g.bipartite is not None:
        layer0, layer1 = g.bipartite
        l0, l1 = set(layer0), set(layer1)
        if l0 & l1:
            out.append(
                Violation(
                    "bipartite-layers-overlap",
                    ",".join(sorted(l0 & l1)),
                    "vertex in both layers",
                )
            )
        if l0 | l1 != set(g.vertices) or len(layer0) + len(layer1) != len(g.vertices):
            out.append(
                Violation(
                    "bipartite-layers-not-partition",
                    "",
                    "layers do not partition the vertex set",
                )
            )
        for e in g.edges:
            if e.dst not in l0 or e.src not in l1:
                out.append(
                    Violation(
                        "bipartite-edge-direction",
                        e.id,
                        "edge must run from layer1 to layer0",
                    )
                )
        receivers = {e.dst for e in g.edges}
        senders = {e.src for e in g.edges}
        for v in layer0:
            if v in seen_v and v not in receivers:
                out.append(
                    Violation("bipartite-range-empty", v, "layer0 vertex receives no edge")
                )
        for v in layer1:
            if v in seen_v and v not in senders:
                out.append(
                    Violation("bipartite-source-empty", v, "layer1 vertex emits no edge")
                )

    return ValidationReport(tuple(out))


def corrupt(g: SeparatedGraph, rng: random.Random) -> SeparatedGraph:
    """g with one to three seeded defects of the kinds validate reports."""
    vertices = list(g.vertices)
    edges = list(g.edges)
    groups = {v: [list(grp) for grp in g.groups_at(v)] for v in g.vertices}
    layers = [list(g.bipartite[0]), list(g.bipartite[1])] if g.bipartite else None

    def some_group():
        keys = [(v, i) for v, gs in groups.items() for i in range(len(gs))]
        if not keys:
            groups[vertices[0]].append([])
            keys = [(vertices[0], len(groups[vertices[0]]) - 1)]
        v, i = rng.choice(keys)
        return groups[v][i]

    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(10)
        if kind == 0:  # duplicate vertex id
            vertices.insert(rng.randrange(len(vertices) + 1), rng.choice(vertices))
        elif kind == 1 and edges:  # duplicate edge id
            i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
            edges.insert(j, Edge(edges[i].id, rng.choice(vertices), rng.choice(vertices)))
        elif kind == 2 and edges:  # dangling source or range
            i = rng.randrange(len(edges))
            e = edges[i]
            edges[i] = e._replace(**{rng.choice(("src", "dst")): f"ghost{i}"})
        elif kind == 3:  # empty group
            groups[rng.choice(vertices)].append([])
        elif kind == 4:  # unknown member
            some_group().append("zz")
        elif kind == 5 and edges:  # member under the wrong range vertex, or listed twice
            some_group().append(rng.choice(edges).id)
        elif kind == 6:  # not covering: drop a member
            grp = some_group()
            if grp:
                grp.pop(rng.randrange(len(grp)))
        elif kind == 7 and edges:  # an edge with a new id that no group lists
            e = rng.choice(edges)
            edges.append(Edge(f"new{len(edges)}", e.src, e.dst))
        elif layers is not None:  # broken bipartite layers
            move = rng.randrange(5)
            if move == 0:
                layers[0].append(rng.choice(layers[1]))
            elif move == 1:
                layers[rng.randrange(2)].pop()
            elif move == 2:
                layers[1].append("ghost")
            elif move == 3:  # a silent vertex, in either layer
                vertices.append(f"silent{len(vertices)}")
                groups[vertices[-1]] = []
                layers[rng.randrange(2)].append(vertices[-1])
            elif edges and edges[0].src in groups:  # an edge from layer0 to layer1
                e = edges[0]
                edges.append(Edge(f"rev{len(edges)}", e.dst, e.src))
                groups[e.src].append([edges[-1].id])
    separation = tuple(tuple(tuple(grp) for grp in groups[v]) for v in vertices)
    bipartite = (tuple(layers[0]), tuple(layers[1])) if layers is not None else None
    return SeparatedGraph(tuple(vertices), tuple(edges), separation, bipartite)


# JSON escapes, the separators of generated names and non-ASCII text;
# none is whitespace, which --at would strip
FRAGMENTS = ("\\", "|", ",", '"', "\x01", "\b", "ü", "✓", "𝔸", "")


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


def shuffled(g: SeparatedGraph, rng: random.Random) -> SeparatedGraph:
    """g with its vertex list, edge list, each vertex's groups, each group's
    members and each bipartite layer in seeded orders."""

    def mixed(items):
        items = list(items)
        rng.shuffle(items)
        return tuple(items)

    at = mixed(range(len(g.vertices)))
    separation = (mixed(mixed(group) for group in g.separation[i]) for i in at)
    return SeparatedGraph(
        tuple(g.vertices[i] for i in at),
        mixed(g.edges),
        tuple(separation),
        None if g.bipartite is None else tuple(map(mixed, g.bipartite)),
    )
