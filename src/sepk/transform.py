"""Graph transformations: multiresolution, canonical sequence, companion.

The multiresolution at a vertex u with groups C_u = [X_1, ..., X_k] adds one
new vertex v(x_1, ..., x_k) per tuple in X_1 x ... x X_k and, for each edge
x_i, one new arrow per tuple of companions, running from the tuple vertex to
s(x_i).  The new arrows with the same distinguished edge x form a new group
X(x) attached at s(x).

Iterating this on the range layer of a bipartite graph and keeping only the
fresh part yields the canonical sequence of bipartite graphs; the generated
vertices with at least two coordinates that are not first in their group make
up the W sets whose counts are the free ranks added to the K-theory of the
tame algebra.

Steps run on integer ids; names are rendered only to build a graph, once
per layer, so w_set_sizes names nothing.  A canonical step hands its integer
arrays to the new layer as its integer form, with a passing report: the layer
is valid by construction.  Generated names are deterministic ("u|x1,...,xk"
for vertices and "a^x|companions" for arrows, separator characters escaped)
so repeated runs serialize byte-identically.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .graph_model import Edge, GroupKey, SeparatedGraph, ValidationReport, to_obj, validate

DEFAULT_BUDGET = 10**6


class ValidationError(Exception):
    """An operation received a graph that fails validate()."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("graph fails validation:\n" + str(report))


class PreconditionError(Exception):
    """An operation's precondition is violated by otherwise valid input."""


class BudgetExceededError(Exception):
    """The generated-vertex budget would be exceeded by the next layer."""

    def __init__(self, message: str, last_layer: int):
        self.last_layer = last_layer
        super().__init__(message)


def ensure_valid(g: SeparatedGraph) -> SeparatedGraph:
    """Return g when it validates, else raise ValidationError with its report.

    The report is computed once per graph and kept on it: a SeparatedGraph
    is immutable, so its report cannot change, and an invalid graph raises
    the same error on every call.
    """
    report = g.__dict__.get("_validation")
    if report is None:
        report = validate(g)
        object.__setattr__(g, "_validation", report)
    if not report.ok:
        raise ValidationError(report)
    return g


def ensure_bipartite(g: SeparatedGraph, message: str) -> SeparatedGraph:
    """ensure_valid(g), then PreconditionError(message) unless g is bipartite."""
    if ensure_valid(g).bipartite is None:
        raise PreconditionError(message)
    return g


# deterministic generated names ---------------------------------------------


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace("|", "\\|").replace(",", "\\,")


_PIECE = re.compile(r"(?:[^\\|,]|\\[\\|,])*")  # one escaped name
_UNESCAPE = re.compile(r"\\(.)")


def _split_generated(name: str) -> tuple[str, list[str]] | None:
    """(head, coords) when name == _esc(head) + "|" + ",".join(map(_esc, coords))."""
    pieces, seps, pos = [], "", -1
    while pos < len(name):
        m = _PIECE.match(name, pos + 1)
        pieces.append(_UNESCAPE.sub(r"\1", m[0]))
        pos = m.end()
        seps += name[pos : pos + 1]
    return (pieces[0], pieces[1:]) if seps == "|" + "," * (len(seps) - 1) else None


def generated_vertex_name(base: str, coords: tuple[str, ...]) -> str:
    return _esc(base) + "|" + ",".join(_esc(x) for x in coords)


# the integer generator -------------------------------------------------------


class _Layer(NamedTuple):
    groups: list[Sequence[Sequence[int]]]  # per range vertex, its groups of edge ints
    out: list[Sequence[int]]  # per source vertex, its edge ints in edge-list order


def _int_layer(g: SeparatedGraph, bases, sources) -> tuple[_Layer, list[int], list]:
    """The edges of g into bases as a layer, their indexes in g, and their sources' slots."""
    vindex, src = g._vindex, g._src
    into = {vindex[b] for b in bases}
    picked = [j for j, d in enumerate(g._dst) if d in into]
    if len(picked) == len(src):  # every edge: the numbering is g's own
        groups = [g._groups[vindex[b]] for b in bases]
    else:
        number = dict(zip(picked, range(len(picked))))
        groups = [[[number[j] for j in grp] for grp in g._groups[vindex[b]]] for b in bases]
    slot = {vindex[w]: k for k, w in enumerate(sources)}  # every edge leaves a source
    at = [slot[src[j]] for j in picked]
    out: list[list[int]] = [[] for _ in sources]
    for x, k in enumerate(at):
        out[k].append(x)
    return _Layer(groups, out), picked, at


def _step(layer: _Layer) -> tuple[list[int], _Layer]:
    """One canonical step on integers: the W tuples and the next layer.

    Tuples are numbered base by base in left-lexicographic order, and the arrow
    in slot i of tuple t is edge first_edge(t) + i.  W holds the tuples with at
    least two coordinates not first in their group.  In the next layer each old
    source carries X(x) for its edges x: the arrows with distinguished edge x.
    """
    w: list[int] = []
    new_groups: list[list[int]] = [[] for xs in layer.out for _ in xs]
    out: list[Sequence[int]] = []
    e0 = 0
    for groups in layer.groups:
        k, count = len(groups), math.prod(map(len, groups))
        non_first = itertools.product(*((0,) + (1,) * (len(grp) - 1) for grp in groups))
        w.extend(len(out) + j for j, c in enumerate(map(sum, non_first)) if c >= 2)
        stride = count
        for i, grp in enumerate(groups):
            # the tuples with digit d in slot i: runs of stride, one per block
            block, stride = stride, stride // len(grp)
            for d, x in enumerate(grp):
                for start in range(e0 + k * d * stride + i, e0 + k * count, k * block):
                    new_groups[x].extend(range(start, start + k * stride, k))
        out.extend(range(e, e + k) for e in range(e0, e0 + k * count, k))
        e0 += k * count
    return w, _Layer([[new_groups[x] for x in xs] for xs in layer.out], out)


def _tuple_count(groups_per_base) -> int:
    return sum(math.prod(map(len, groups)) for groups in groups_per_base)


def _raise_on_clash(kind: str, names) -> None:
    if names:
        raise PreconditionError(f"generated {kind} names collide: {sorted(names)[:3]}")


def _fresh_layer(g: SeparatedGraph, bases, sources) -> StepData:
    """The vertices and arrows generated over bases, named, as a graph onto sources.

    Its vertices are sources, then the tuple vertices; X(x), the arrows with
    distinguished edge x, is a group at s(x).  Its integer form is _step's."""
    layer, picked, at = _int_layer(g, bases, sources)
    w, new = _step(layer)
    old = [g.edges[j] for j in picked]
    esc = [_esc(e.id) for e in old]
    names: list[str] = []
    root: dict[str, str] = {}
    edges: list[Edge] = []
    src, dst = [], []  # per arrow, the indexes of its tuple vertex and of its range vertex
    new_edge = tuple.__new__  # Edge._make without a Python frame per arrow
    for base, groups in zip(bases, layer.groups):
        head = _esc(base) + "|"
        for tup in itertools.product(*groups):
            coords = [esc[x] for x in tup]
            v = head + ",".join(coords)
            src += [len(sources) + len(names)] * len(tup)
            names.append(v)
            root[v] = base
            for i, x in enumerate(tup):
                companions = ",".join(coords[:i] + coords[i + 1 :])
                edges.append(new_edge(Edge, (f"a^{coords[i]}|{companions}", v, old[x].src)))
                dst.append(at[x])
    ids = [e.id for e in edges]
    _raise_on_clash("vertex", root.keys() & g._vindex.keys())
    _raise_on_clash("edge", [x for x in ids if x in g._eindex])

    separation, groups, group_of_edge = [], [], {}
    for source, xs, grps in zip(sources, layer.out, new.groups):
        separation.append(tuple([tuple(map(ids.__getitem__, members)) for members in grps]))
        groups.append(tuple(map(tuple, grps)))
        group_of_edge.update((old[x].id, (source, gi)) for gi, x in enumerate(xs))
    vertices, empty = tuple(sources) + tuple(names), ((),) * len(names)
    # Arrow j is numbers[j]: the edge index shares the int objects the groups hold.
    numbers = sorted(itertools.chain.from_iterable(itertools.chain.from_iterable(new.groups)))
    graph = SeparatedGraph._of_form(
        vertices, tuple(edges), tuple(separation) + empty, (tuple(sources), tuple(names)),
        dict(zip(vertices, range(len(vertices)))), dict(zip(ids, numbers)),
        src, dst, tuple(groups) + empty,
    )
    return StepData(graph, tuple(names[t] for t in w), root, group_of_edge)


def _check_input_names(g: SeparatedGraph, step: int) -> None:
    """The name check of canonical step 0 or 1 from g, made by parsing g's names.

    Escaping is injective, so a generated name equals an older one only if their
    heads are equal.  From step 2 on both heads were generated and checked by
    earlier steps, so no collision can happen; at step 1 only a new vertex can
    equal an input (layer1) vertex.
    """
    slots = {u: [(u, i) for i in range(len(g.groups_at(u)))] for u in g.layer0}
    where = {x: key for u in g.layer0 for key, grp in zip(slots[u], g.groups_at(u)) for x in grp}
    others = {x: [key for key in slots[u] if key != (u, i)] for x, (u, i) in where.items()}

    def head(name, expected, coord=where.get):  # head when coords map onto expected[head]
        p = _split_generated(name)
        if p is None or p[0] not in expected:
            return None
        want = expected[p[0]]
        # an arrow of a one-group vertex, "a^x|", has no companions
        if [coord(c) for c in p[1]] == want or (not want and p[1] == [""]):
            return p[0]
        return None

    def arrow(name):  # x when name is a step-0 arrow name a^x|..., else None
        return head(name[2:], others) if name.startswith("a^") else None

    if step == 0:
        _raise_on_clash("vertex", {v for v in g.vertices if head(v, slots) is not None})
        _raise_on_clash("edge", {e.id for e in g.edges if arrow(e.id) is not None})
    else:
        layer, picked, _ = _int_layer(g, g.layer0, g.layer1)
        sent = {w: [g.edges[picked[x]].id for x in xs] for w, xs in zip(g.layer1, layer.out)}
        _raise_on_clash("vertex", {w for w in g.layer1 if head(w, sent, arrow) is not None})


# multiresolution --------------------------------------------------------------


@dataclass(frozen=True)
class MultiresolutionData:
    """A multiresolution with its resolved set and its W vertices, the
    generated vertices with two or more non-first coordinates."""

    graph: SeparatedGraph
    resolved: tuple[str, ...]
    w_vertices: tuple[str, ...]


def _check_resolved_set(g: SeparatedGraph, vertex_set) -> tuple[str, ...]:
    vs = set(vertex_set)
    unknown = vs - set(g.vertices)
    if unknown:
        raise PreconditionError(f"unknown vertices in V: {sorted(unknown)}")
    ordered = tuple(v for v in g.vertices if v in vs)
    for u in ordered:
        if not g.groups_at(u):
            raise PreconditionError(
                f"vertex {u!r} has empty C_u; multiresolution needs at least one group"
            )
    for e in g.edges:
        if e.dst in vs and e.src in vs:
            raise PreconditionError(
                f"edge {e.id!r} runs between resolved vertices "
                f"({e.src!r} -> {e.dst!r}); V must span no edges"
            )
    return ordered


def multiresolution_data(g: SeparatedGraph, vertex_set) -> MultiresolutionData:
    """Multiresolution of g at a vertex set V, with its W vertices.

    Preconditions: g validates, every u in V has a nonempty C_u, and no edge
    runs between two elements of V.
    """
    ensure_valid(g)
    resolved = _check_resolved_set(g, vertex_set)
    fresh = _fresh_layer(g, resolved, g.vertices)
    h = fresh.graph  # its vertices are g's, then the new ones
    separation = {v: old + new for v, old, new in zip(g.vertices, g.separation, h.separation)}
    graph = SeparatedGraph.build(h.vertices, g.edges + h.edges, separation)
    return MultiresolutionData(graph, resolved, fresh.w_vertices)


def multiresolution_at(g: SeparatedGraph, vertex_set) -> SeparatedGraph:
    return multiresolution_data(g, vertex_set).graph


def w_count_formula(g: SeparatedGraph, vertex_set) -> int:
    """Closed-form size of the W set: sum over u of (prod - sum + k - 1)."""
    total = 0
    for u in vertex_set:
        sizes = [len(grp) for grp in g.groups_at(u)]
        total += math.prod(sizes) - sum(sizes) + len(sizes) - 1
    return total


# canonical sequence ---------------------------------------------------------


@dataclass(frozen=True)
class StepData:
    """One step of the canonical sequence: the fresh bipartite layer only."""

    graph: SeparatedGraph
    w_vertices: tuple[str, ...]
    root: dict[str, str] = field(repr=False)  # generated vertex -> base vertex
    group_of_edge: dict[str, GroupKey] = field(repr=False)  # old edge -> new group


def canonical_step_data(g: SeparatedGraph) -> StepData:
    """Resolve the range layer of a bipartite graph and keep the new layer.

    The output graph has layer0 equal to g.layer1 (same ordered vertex set),
    layer1 the generated tuple vertices, and one group X(x) per old edge x,
    attached at s(x) in source-fiber order.
    """
    ensure_bipartite(g, "canonical step requires a bipartite graph")
    step = _fresh_layer(g, g.layer0, g.layer1)
    # A valid bipartite graph resolves to a valid layer, so it carries its report.
    object.__setattr__(step.graph, "_validation", ValidationReport(()))
    return step


def canonical_step(g: SeparatedGraph) -> SeparatedGraph:
    return canonical_step_data(g).graph


def projected_step_size(g: SeparatedGraph) -> int:
    """Number of vertices the next canonical step generates."""
    return _tuple_count(g.groups_at(u) for u in g.layer0)


def _check_sequence_input(g: SeparatedGraph, depth: int) -> None:
    ensure_bipartite(g, "canonical sequence requires a bipartite graph")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")


def _check_budget(size: int, n: int, budget: int) -> None:
    if size > budget:
        raise BudgetExceededError(
            f"layer {n + 1} would generate {size} vertices "
            f"(budget {budget}); last completed layer is {n}",
            last_layer=n,
        )


@dataclass(frozen=True)
class CanonicalSequence:
    """Layers 0..depth of the canonical sequence plus W sets and root tables.

    The layer vertex sets are D_0 = layer0 of graph 0 and D_n = layer1 of
    graph n-1 for n >= 1; consecutive graphs share D_n as an ordered set.
    w_sets[k] lists the W vertices inside D_k, and root_tables[k] maps D_k
    onto D_{k-2} (a generated vertex to its base), for k = 2..depth+1.
    """

    graphs: tuple[SeparatedGraph, ...]
    w_sets: dict[int, tuple[str, ...]]
    root_tables: dict[int, dict[str, str]]

    @property
    def depth(self) -> int:
        return len(self.graphs) - 1

    def layer_vertices(self, n: int) -> tuple[str, ...]:
        if n == 0:
            return self.graphs[0].layer0
        if 1 <= n <= self.depth + 1:
            return self.graphs[n - 1].layer1
        raise PreconditionError(f"layer {n} not computed (depth {self.depth})")

    def layer_of(self, v: str) -> int:
        for n in range(self.depth + 2):
            if v in set(self.layer_vertices(n)):
                return n
        raise PreconditionError(f"vertex {v!r} not found in any layer")

    def root_of(self, v: str, target_layer: int) -> str:
        n = self.layer_of(v)
        if target_layer > n:
            raise PreconditionError(f"target layer {target_layer} above layer {n} of {v!r}")
        if target_layer < 0:
            self.layer_vertices(target_layer)  # raises: there is no such layer
        if (n - target_layer) % 2:
            raise PreconditionError(
                f"parity mismatch: {v!r} lives in layer {n}, target {target_layer}"
            )
        while n > target_layer:
            v = self.root_tables[n][v]
            n -= 2
        return v

    def to_json_obj(self) -> dict:
        return {
            "depth": self.depth,
            "layers": [to_obj(g) for g in self.graphs],
            "w_sets": {str(k): list(ws) for k, ws in sorted(self.w_sets.items())},
            "root_tables": {
                str(k): dict(sorted(t.items())) for k, t in sorted(self.root_tables.items())
            },
        }


def canonical_sequence(
    g: SeparatedGraph, depth: int, budget: int = DEFAULT_BUDGET
) -> CanonicalSequence:
    """Layers 0..depth of the canonical sequence of a bipartite graph.

    The sequence grows doubly exponentially; when the next layer would
    generate more than budget vertices, a BudgetExceededError reports the
    last completed layer.
    """
    _check_sequence_input(g, depth)
    graphs = [g]
    w_sets: dict[int, tuple[str, ...]] = {}
    root_tables: dict[int, dict[str, str]] = {}
    for n in range(depth):
        _check_budget(projected_step_size(graphs[n]), n, budget)
        step = canonical_step_data(graphs[n])
        graphs.append(step.graph)
        w_sets[n + 2] = step.w_vertices
        root_tables[n + 2] = step.root
    return CanonicalSequence(tuple(graphs), w_sets, root_tables)


def w_set_sizes(g: SeparatedGraph, depth: int, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """|W_2|, ..., |W_{depth+1}|, with the checks of canonical_sequence, unnamed."""
    _check_sequence_input(g, depth)
    layer = _int_layer(g, g.layer0, g.layer1)[0]
    sizes = []
    for n in range(depth):
        _check_budget(_tuple_count(layer.groups), n, budget)
        if n < 2:
            _check_input_names(g, n)
        w, layer = _step(layer)
        sizes.append(len(w))
    return tuple(sizes)


# Iterated root of v down to the given layer: root_of(seq, v, target_layer).
root_of = CanonicalSequence.root_of


# bipartite companion --------------------------------------------------------


def bipartite_companion(g: SeparatedGraph) -> SeparatedGraph:
    """The bipartite double of a separated graph.

    Two copies v|0, v|1 of every vertex; a connecting edge h|v from v|1 to
    v|0; a copy e|0 of every edge e running from s(e)|1 to r(e)|0.  The
    groups at v|0 are the copies of the groups of C_v followed by the
    singleton {h|v}.  The result is always a valid bipartite graph, and its
    K-theory agrees with that of g.
    """
    ensure_valid(g)
    v0 = {v: f"{_esc(v)}|0" for v in g.vertices}
    v1 = {v: f"{_esc(v)}|1" for v in g.vertices}
    h = {v: f"h|{_esc(v)}" for v in g.vertices}
    e0 = {e.id: f"{_esc(e.id)}|0" for e in g.edges}

    vertices = [v0[v] for v in g.vertices] + [v1[v] for v in g.vertices]
    edges = [Edge(e0[e.id], v1[e.src], v0[e.dst]) for e in g.edges] + [
        Edge(h[v], v1[v], v0[v]) for v in g.vertices
    ]
    separation = {
        v0[v]: [[e0[x] for x in grp] for grp in g.groups_at(v)] + [[h[v]]]
        for v in g.vertices
    }
    return SeparatedGraph.build(
        vertices,
        edges,
        separation,
        bipartite=([v0[v] for v in g.vertices], [v1[v] for v in g.vertices]),
    )
