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

One generator, _fresh_layer, makes the new part of both once its size fits
the vertex budget.  One walk over each base's tuples writes the names, the
integer ends and the W membership of every tuple and its arrows; the groups
X(x) are then bucketed by distinguished edge.  Callers read its provenance
(root, group_of_edge), never a name.  A canonical step's layer takes the
integer arrays as its form, with a passing report: it is valid by
construction.  Generated names are deterministic ("u|x1,...,xk" for vertices
and "a^x|companions" for arrows, separator characters escaped) so repeated
runs serialize byte-identically.  The CLI writes the sequence JSON from the
same walk, with no layer: _sequence_json joins each generated name's JSON
literal from the literals of its parts, and escapes only input names.

Every layer's counts depend only on group sizes, so w_set_sizes builds no
layer: it steps the coarsest equitable quotient of each layer (classes of
range vertices, groups, edges and sources with their multiplicities, merged
by colour refinement).  canonical_sequence runs it first, so a depth past the
budget is refused before any layer is built.  A fixed class budget bounds
the count itself, for vertex budgets raised far past any buildable layer.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring
from operator import itemgetter
from typing import NamedTuple, Sequence

from .graph_model import (
    Edge,
    GroupKey,
    SeparatedGraph,
    ValidationReport,
    _sequence_chunks,
    to_obj,
    validate,
)

DEFAULT_BUDGET = 10**6


class ValidationError(Exception):
    """An operation received a graph that fails validate()."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("graph fails validation:\n" + str(report))


class PreconditionError(Exception):
    """An operation's precondition is violated by otherwise valid input."""


class BudgetExceededError(Exception):
    """The next layer would exceed the generated-vertex budget, or its count the class budget."""

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


# the generator ---------------------------------------------------------------


def _int_layer(g: SeparatedGraph, bases, sources) -> tuple[list, list[list[int]], list[int], list]:
    """The edges of g into bases, numbered 0, 1, ... in edge-list order.

    Returns (groups, out, picked, at): per base its groups of edge numbers, per
    source its numbers in order, and per number its index in g and source slot.
    """
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
    return groups, out, picked, at


def _raise_on_clash(kind: str, names) -> None:
    if names:
        raise PreconditionError(f"generated {kind} names collide: {sorted(names)[:3]}")


_FIRST, _SECOND, _TWO_OR_MORE = itemgetter(0), itemgetter(1), (2).__le__


class _Walk(NamedTuple):
    """The tuples of one step and their arrows, as integers, in walk order.

    Tuples run base by base, each base's in left-lexicographic order: base b
    spans count[b] tuples of arity[b] coordinates, its number of groups.
    Arrows run tuple by tuple and slot by slot, so the arrows of a tuple also
    list its coordinates: arrow j, the int arrows[j], leaves tuple
    tuple_of[j] with distinguished edge through[j].  w lists the tuples with
    at least two coordinates that are not first in their group, and
    members[x] the arrows of X(x), in tuple order, as the same int objects.
    """

    arity: list[int]
    count: list[int]
    arrows: tuple[int, ...]
    tuple_of: tuple[int, ...]
    through: tuple[int, ...]
    w: list[int]
    members: list[list[int]]


def _walk(base_groups, edges: int) -> _Walk:
    """The walk over the tuples of each base's groups of edge numbers 0..edges-1.

    No tuple is kept as an object of its own, and the per-arrow sequences are
    tuples of ints, which the cyclic garbage collector stops scanning after
    one pass; a list of a layer's arrows is scanned again at every older
    collection while the step runs.
    """
    chain, repeat = itertools.chain.from_iterable, itertools.repeat
    arity = list(map(len, base_groups))
    count = [math.prod(map(len, groups)) for groups in base_groups]
    through = tuple(chain(chain(itertools.starmap(itertools.product, base_groups))))
    later = [1] * edges  # 0 for an edge first in its group
    for grp in chain(base_groups):
        later[grp[0]] = 0
    flags = map(later.__getitem__, through)
    tuple_of: list[int] = []
    w: list[int] = []
    t = 0
    for m, run in itertools.groupby(zip(arity, count), _FIRST):  # bases of one arity
        tuples = range(t, t + sum(map(_SECOND, run)))
        # m references to one range or iterator deal out each tuple's m items
        tuple_of += chain(zip(*[tuples] * m))
        non_first = itertools.islice(map(sum, zip(*[flags] * m)), len(tuples))
        w += itertools.compress(tuples, map(_TWO_OR_MORE, non_first))
        t = tuples.stop
    arrows = tuple(range(len(through)))
    members: list[list[int]] = [[] for _ in range(edges)]
    for j, x in zip(arrows, through):
        members[x].append(j)
    return _Walk(arity, count, arrows, tuple(tuple_of), through, w, members)


def _join(walk: _Walk, bases, edges, bar: str, comma: str, quote: str = "") -> tuple[list, list]:
    """The names of walk's tuples and arrows, joined from their parts' pieces.

    With bases and edges the pieces of the base names and edge ids, a tuple
    is quote + base + bar + comma.join(coordinates) + quote, and the arrow in
    slot i is quote + "a^" + coordinate i + bar + comma.join(the others) +
    quote.  The plain names take _esc of each old name with "|" and ","; the
    JSON literals of one escaping level take those of the level above (see
    _levels).
    """
    through, piece, join = walk.through, edges.__getitem__, comma.join
    arrow_heads = [quote + "a^" + x + bar for x in edges]
    names, arrows, start = [], [], 0
    name, arrow = names.append, arrows.append
    for base, m, n in zip(bases, walk.arity, walk.count):
        head = quote + base + bar
        for j in range(start, start + m * n, m):
            xs = through[j : j + m]
            tup = list(map(piece, xs))
            name(head + join(tup) + quote)
            for i, x in enumerate(xs):
                companions = tup.copy()
                del companions[i]
                arrow(arrow_heads[x] + join(companions) + quote)
        start += m * n
    return names, arrows


def _fresh_layer(g: SeparatedGraph, bases, sources, budget: int = DEFAULT_BUDGET) -> StepData:
    """The vertices and arrows generated over bases, named, as a graph onto sources.

    One walk over each base's tuples, in left-lexicographic order, gives each
    tuple vertex and its arrows (the arrow in slot i runs from the tuple to
    s(x_i)) and puts the tuple in W when at least two of its coordinates are
    not first in their group; _join names them.  Its vertices are sources,
    then the tuples; X(x), the arrows with distinguished edge x, is a group
    at s(x), in tuple order.  More than budget tuples are refused before any
    is made."""
    base_groups, out, picked, at = _int_layer(g, bases, sources)
    size = sum(math.prod(map(len, groups)) for groups in base_groups)
    if size > budget:
        raise _over_budget(0, f"generate {_decimal(size)} vertices (budget {_decimal(budget)})")
    old, repeat = [g.edges[j] for j in picked], itertools.repeat
    walk = _walk(base_groups, len(old))
    names, ids = _join(walk, list(map(_esc, bases)), [_esc(e.id) for e in old], "|", ",")
    _raise_on_clash("vertex", g._vindex.keys() & names)
    if not g._eindex.keys().isdisjoint(ids):
        _raise_on_clash("edge", [x for x in ids if x in g._eindex])

    members, through = walk.members, walk.through
    separation, groups, group_of_edge = [], [], {}
    for source, xs in zip(sources, out):
        separation.append(tuple([tuple(map(ids.__getitem__, members[x])) for x in xs]))
        groups.append(tuple([tuple(members[x]) for x in xs]))
        group_of_edge.update((old[x].id, (source, gi)) for gi, x in enumerate(xs))
    srcs = map([e.src for e in old].__getitem__, through)
    ends = zip(ids, map(names.__getitem__, walk.tuple_of), srcs)
    edges = tuple(map(tuple.__new__, repeat(Edge), ends))  # Edge._make, no frame per arrow
    layer1 = tuple(names)
    vertices, empty = tuple(sources) + layer1, ((),) * len(names)
    numbers = list(range(len(vertices)))  # each arrow's source shares its tuple's index
    graph = SeparatedGraph._of_form(
        vertices, edges, tuple(separation) + empty, (tuple(sources), layer1),
        dict(zip(vertices, numbers)), dict(zip(ids, walk.arrows)),
        list(map(numbers[len(sources) :].__getitem__, walk.tuple_of)),
        list(map(at.__getitem__, through)), tuple(groups) + empty,
    )
    root = dict(zip(names, itertools.chain.from_iterable(map(repeat, bases, walk.count))))
    return StepData(graph, tuple(map(names.__getitem__, walk.w)), root, group_of_edge)


def _check_input_names(g: SeparatedGraph, step: int) -> None:
    """The name check of canonical step 0 or 1 from g, made by parsing g's names.

    Escaping is injective, so a generated name equals an older one only if their
    heads are equal.  From step 2 on both heads were generated and checked by
    earlier steps, so no collision can happen; at step 1 only a new vertex can
    equal an input (layer1) vertex.  A name with head h starts with
    _esc(h) + "|", so both are cut at the same first "|": only a name cut as
    the prefix of a possible head is parsed, and one without a "|" never is.
    """
    names = g.layer1 if step else [*g.vertices, *(e.id for e in g.edges)]
    if not any("|" in name for name in names):
        return
    heads = [_esc(u) for u in (g.layer1 if step else g.layer0)]
    if not step:
        heads += [f"a^{_esc(e.id)}" for e in g.edges]
    cuts = {h[: h.find("|") + 1] or h + "|" for h in heads}  # each h + "|", cut
    names = {name for name in names if name[: name.find("|") + 1] in cuts}
    if not names:
        return
    slots = {u: [(u, i) for i in range(len(g.groups_at(u)))] for u in g.layer0}
    where = {x: key for u in g.layer0 for key, grp in zip(slots[u], g.groups_at(u)) for x in grp}
    others = {x: [key for key in slots[u] if key != (u, i)] for x, (u, i) in where.items()}

    def head(name, expected, coord=where.get):  # head when coords map onto expected[head]
        p = _split_generated(name) if "|" in name else None
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
        vertices, edges = names & g._vindex.keys(), names & g._eindex.keys()
        _raise_on_clash("vertex", {v for v in vertices if head(v, slots) is not None})
        _raise_on_clash("edge", {x for x in edges if arrow(x) is not None})
    else:
        _, out, picked, _ = _int_layer(g, g.layer0, g.layer1)
        sent = {w: [g.edges[picked[x]].id for x in xs] for w, xs in zip(g.layer1, out)}
        _raise_on_clash("vertex", {w for w in names if head(w, sent, arrow) is not None})


def _step_groups(g: SeparatedGraph) -> dict[str, GroupKey]:
    """Per edge x, the key of X(x) after the canonical step's checks: (s(x), x's place there)."""
    w_set_sizes(g, 1)
    _, out, picked, _ = _int_layer(g, g.layer0, g.layer1)
    return {g.edges[picked[x]].id: (w, i) for w, xs in zip(g.layer1, out) for i, x in enumerate(xs)}


# multiresolution --------------------------------------------------------------


@dataclass(frozen=True)
class MultiresolutionData:
    """A multiresolution with the step that made its new part (see StepData)."""

    graph: SeparatedGraph
    step: StepData

    @property
    def w_vertices(self) -> tuple[str, ...]:  # those with two or more non-first coordinates
        return self.step.w_vertices


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
    step = _fresh_layer(g, resolved, g.vertices)
    h = step.graph  # its vertices are g's, then the new ones
    separation = {v: old + new for v, old, new in zip(g.vertices, g.separation, h.separation)}
    graph = SeparatedGraph.build(h.vertices, g.edges + h.edges, separation)
    return MultiresolutionData(graph, step)


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


def canonical_step_data(g: SeparatedGraph, budget: int = DEFAULT_BUDGET) -> StepData:
    """Resolve the range layer of a bipartite graph and keep the new layer.

    The output graph has layer0 equal to g.layer1 (same ordered vertex set),
    layer1 the generated tuple vertices, and one group X(x) per old edge x,
    attached at s(x) in source-fiber order.  A step that would generate more
    than budget vertices is refused before any is made.
    """
    ensure_bipartite(g, "canonical step requires a bipartite graph")
    step = _fresh_layer(g, g.layer0, g.layer1, budget)
    # A valid bipartite graph resolves to a valid layer, so it carries its report.
    object.__setattr__(step.graph, "_validation", ValidationReport(()))
    return step


def canonical_step(g: SeparatedGraph) -> SeparatedGraph:
    return canonical_step_data(g).graph


def _over_budget(n: int, what: str) -> BudgetExceededError:
    """The refusal of layer n + 1, which would take what; layers 0..n fit."""
    return BudgetExceededError(f"layer {n + 1} would {what}; last completed layer is {n}", n)


def _decimal(n: int) -> str:
    """n in digits, or "10^k or more" past the digits str() writes of an int."""
    try:
        return str(n)
    except ValueError:
        k = int(math.log10(n))  # floor(log10 n), or one off next to a power of ten
        k += (10 ** (k + 1) <= n) - (10**k > n)
        return f"10^{k} or more"


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

    @cached_property
    def _layer_index(self) -> dict[str, int]:
        # from the last layer to the first, so the first layer holding a name wins
        return {v: n for n in reversed(range(self.depth + 2)) for v in self.layer_vertices(n)}

    def layer_of(self, v: str) -> int:
        n = self._layer_index.get(v)
        if n is None:
            raise PreconditionError(f"vertex {v!r} not found in any layer")
        return n

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

    The sequence grows doubly exponentially; when a layer would generate more
    than budget vertices, a BudgetExceededError reports the last layer that
    fits.  The layer sizes are counted first, so a refused depth builds no layer.
    """
    w_set_sizes(g, depth, budget)
    graphs = [g]
    w_sets: dict[int, tuple[str, ...]] = {}
    root_tables: dict[int, dict[str, str]] = {}
    for n in range(depth):
        step = canonical_step_data(graphs[n], budget)
        graphs.append(step.graph)
        w_sets[n + 2] = step.w_vertices
        root_tables[n + 2] = step.root
    return CanonicalSequence(tuple(graphs), w_sets, root_tables)


# the sequence's JSON text, from the walk ---------------------------------------

_BELOW_QUOTE = re.compile('[\x00-"]')


def _levels(names, top: int) -> list[list[str]]:
    """Per level k = 0..top, the literal L_k of each name.

    L_k(x) is the JSON string literal of x escaped k times with _esc, with
    its quotes at level 0 and without them above.  A generated name's
    literals are joined from its parts': L_k(t) = L_{k+1}(b) + B_k +
    C_k.join(L_{k+1}(x_i)) for a tuple t with base b and coordinates x_i, and
    an arrow likewise (see _join), where B_k and C_k are 2(2^k - 1)
    backslashes and "|" or ",".  Escaping and JSON escaping each work
    character by character, and the separator escaped k times and then for
    JSON is B_k or C_k.  So only input names are escaped.
    """
    out = [list(map(encode_basestring, names))]
    for _ in range(top):
        names = list(map(_esc, names))
        out.append([encode_basestring(x)[1:-1] for x in names])
    return out


def _sequence_json(g: SeparatedGraph, depth: int, budget: int = DEFAULT_BUDGET) -> list[str]:
    """The pieces json_chunks writes for canonical_sequence(g, depth,
    budget).to_json_obj(), made from the walk of each step with no layer,
    plain generated name or escaper call.  The checks of canonical_sequence
    run first, with its refusals; they leave no name clash to check."""
    w_set_sizes(g, depth, budget)
    return _sequence_chunks(g, depth, _literal_steps(g, depth))


def _literal_steps(g: SeparatedGraph, depth: int):
    """Per step of g's sequence to depth, the literals of what it makes.

    Yields, for layers 1..depth, the layer's _layout arguments, its W set and
    its root table as (keys, values), sorted by key.  Layer n + 1's names are
    needed at levels 0..depth - n - 1: level 0 is written, and each higher
    level is a piece of the next steps' literals.  A root table is sorted by
    plain name, which is the order of the quoted literals when every
    character of g's names lies above '"' (JSON then only doubles
    backslashes, and a shorter name's closing quote sorts below the
    character a longer one goes on with); otherwise by the decoded names.
    """
    chain, repeat = itertools.chain.from_iterable, itertools.repeat
    base_groups, out, picked, at = _int_layer(g, g.layer0, g.layer1)
    bases, sources = _levels(g.layer0, depth), _levels(g.layer1, depth)
    edges = _levels([g.edges[j].id for j in picked], depth)
    by_literal = not any(map(_BELOW_QUOTE.search, [*g.vertices, *(e.id for e in g.edges)]))
    for n in range(depth):
        walk = _walk(base_groups, len(edges[0]))
        literals = []
        for k in range(depth - n):
            slashes = "\\" * (2 ** (k + 1) - 2)  # of B_k and C_k
            bar, comma, quote = slashes + "|", slashes + ",", "" if k else '"'
            literals.append(_join(walk, bases[k + 1], edges[k + 1], bar, comma, quote))
        names, arrows = zip(*literals)
        tuples, ids, ends = names[0], arrows[0], sources[0]
        groups = [[walk.members[x] for x in xs] for xs in out]  # per source, its X(x)
        layout = (
            ends + tuples,
            list(chain(zip(ids, map(tuples.__getitem__, walk.tuple_of),
                           map(ends.__getitem__, map(at.__getitem__, walk.through))))),
            itertools.chain(
                zip(ends, ([list(map(ids.__getitem__, grp)) for grp in gs] for gs in groups)),
                zip(tuples, repeat(())),
            ),
            (ends, tuples),
        )
        values = list(chain(map(repeat, bases[0], walk.count)))
        key = tuples.__getitem__ if by_literal else lambda t: json.loads(tuples[t])
        order = sorted(range(len(tuples)), key=key)
        yield (
            layout, list(map(tuples.__getitem__, walk.w)),
            (list(map(tuples.__getitem__, order)), list(map(values.__getitem__, order))),
        )
        # the next step resolves these sources by these tuples' arrows
        sizes = list(chain(map(repeat, walk.arity, walk.count)))
        starts, stops = itertools.accumulate(sizes, initial=0), itertools.accumulate(sizes)
        out = list(map(range, starts, stops))
        base_groups, at = groups, walk.tuple_of
        bases, sources, edges = sources, names, arrows


# counting on an equitable quotient ------------------------------------------

_RANGE, _GROUP, _EDGE, _SOURCE = range(4)


class _Classes(NamedTuple):
    """A layer cut into classes of range vertices, groups, edges and sources.

    Class c holds mult[c] objects of sort kind[c], and each of them lies in one
    object of every class in up[c]: a group in its range vertex, an edge in its
    group and at its source.  In an equitable partition every object of a
    class p holds mult[c] // mult[p] objects of each class c inside p.  A
    merged partition also lists, in class order, the classes of each sort and
    the classes inside each class p (those with p in up[c]).
    """

    kind: list[int]
    mult: list[int]
    up: list[tuple[int, ...]]
    sort: Sequence[list[int]] = ()
    inside: Sequence[list[int]] = ()

    def add(self, kind: int, mult: int, up: tuple[int, ...] = ()) -> int:
        self.kind.append(kind)
        self.mult.append(mult)
        self.up.append(up)
        return len(self.kind) - 1


def _coarsest(q: _Classes) -> _Classes:
    """q's classes merged into the coarsest equitable partition, by colour refinement.

    A class is recoloured by its colour, the colours of the classes it lies in,
    and how many objects of each colour one of its objects holds, until no
    colour splits; then each colour is one class.  A group's colour holds its
    range vertex's, so the groups merged into one class lie in one range class.
    q itself is equitable, so those counts are sums of q's own ratios.
    """
    kind, mult, up = q.kind, q.mult, q.up
    colours = len(set(kind))
    if colours < len(kind):  # else every class has its own colour, and none merge
        # per class p: (c inside p, objects of c in one object of p)
        held: list[list[tuple[int, int]]] = [[] for _ in kind]
        for c, over in enumerate(up):
            for p in over:
                held[p].append((c, mult[c] // mult[p]))
        colour = kind
        while True:
            ids: dict[tuple, int] = {}
            new = []
            for c, over in enumerate(up):
                count: tuple = ()
                if held[c]:
                    tally: dict[int, int] = {}
                    for x, n in held[c]:
                        tally[colour[x]] = tally.get(colour[x], 0) + n
                    count = tuple(sorted(tally.items()))
                sign = (colour[c], tuple([colour[p] for p in over]), count)
                new.append(ids.setdefault(sign, len(ids)))
            if len(ids) in (colours, len(kind)):  # nothing split, or nothing left to split
                break
            colour, colours = new, len(ids)
        colours = len(ids)
        del held, ids, colour  # freed before the merged classes are made
        kind, mult, up = [0] * colours, [0] * colours, [()] * colours
        for c, x in enumerate(new):
            kind[x] = q.kind[c]
            mult[x] += q.mult[c]
            up[x] = tuple([new[p] for p in q.up[c]])
    sort: list[list[int]] = [[], [], [], []]
    inside: list[list[int]] = [[] for _ in kind]
    for x, over in enumerate(up):
        sort[kind[x]].append(x)
        for p in over:
            inside[p].append(x)
    return _Classes(kind, mult, up, sort, inside)


def _tuple_classes(q: _Classes, layer: int) -> _Classes:
    """The unmerged classes of the layer after q, the quotient of layer `layer`.

    q's sources become its range vertices and q's edges its groups.  Its
    sources are the tuples over q's range vertices, one class per range class
    and multiset of edge classes taken, and the arrows of a tuple class t with
    distinguished edge of class e make one edge class, in the group class e.
    Among c groups of one class that each hold k_e edges of class e, the
    multiset n is taken by multinomial(c; n) * prod(k_e ** n_e) tuples.  More
    than DEFAULT_BUDGET source classes are refused before any is made; they
    never outnumber the tuples, so only a raised vertex budget meets this.
    """
    mult, inside = q.mult, q.inside
    picks = [  # per range class, per group class in it: {e: k_e} and c
        (r, [({e: mult[e] // mult[grp] for e in inside[grp]}, mult[grp] // mult[r])
             for grp in inside[r]])
        for r in q.sort[_RANGE]
    ]
    count = sum(math.prod(math.comb(len(k) + c - 1, c) for k, c in groups) for _, groups in picks)
    if count > DEFAULT_BUDGET:
        raise _over_budget(layer + 2, f"take more than {DEFAULT_BUDGET} vertex classes to count")
    nxt = _Classes([], [], [])
    new = {s: nxt.add(_RANGE, mult[s]) for s in q.sort[_SOURCE]}
    for e in q.sort[_EDGE]:
        new[e] = nxt.add(_GROUP, mult[e], (new[q.up[e][1]],))
    top = max((c for _, groups in picks for _, c in groups), default=0)
    fact = [math.factorial(c) for c in range(top + 1)]
    for r, groups in picks:
        takes = [[  # a multiset is a sorted tuple of classes, in which e comes n_e times
            (n := {e: tup.count(e) for e in tup},
             fact[c] // math.prod([fact[j] for j in n.values()]) * math.prod([k[e] for e in tup]))
            for tup in itertools.combinations_with_replacement(k, c)
        ] for k, c in groups]
        for pick in itertools.product(*takes):
            t = nxt.add(_SOURCE, mult[r] * math.prod(ways for _, ways in pick))
            for n, _ in pick:
                for e, j in n.items():
                    nxt.add(_EDGE, nxt.mult[t] * j, (new[e], t))
    return nxt


def _quotients(g: SeparatedGraph):
    """The coarsest equitable quotients of layers 0, 1, ... of g's sequence."""
    base_groups, out, _, at = _int_layer(g, g.layer0, g.layer1)
    q = _Classes([], [], [])
    sources = [q.add(_SOURCE, 1) for _ in out]
    for groups in base_groups:
        r = q.add(_RANGE, 1)
        for grp in groups:
            gc = q.add(_GROUP, 1, (r,))
            for x in grp:
                q.add(_EDGE, 1, (gc, sources[at[x]]))
    for layer in itertools.count():
        q = _coarsest(q)
        yield q
        q = _tuple_classes(q, layer)


def _layer_sizes(g: SeparatedGraph):
    """Per layer 0, 1, ... of g's sequence, (multiplicity, group sizes) per range class.

    Layer n + 1's range vertices are layer n's sources, and its groups are the
    X(x) of layer n's edges x, one arrow per tuple through x.  So its sizes are
    read off layer n's quotient, and layer n's tuples are enumerated only when
    layer n + 2 is asked for.
    """
    yield [(1, [len(grp) for grp in g.groups_at(u)]) for u in g.layer0]
    for q in _quotients(g):
        mult, inside = q.mult, q.inside
        size = {grp: sum(mult[e] // mult[grp] for e in inside[grp]) for grp in q.sort[_GROUP]}
        tuples = {
            r: math.prod(size[grp] ** (mult[grp] // mult[r]) for grp in inside[r])
            for r in q.sort[_RANGE]
        }
        sizes: dict[int, list[int]] = {s: [] for s in q.sort[_SOURCE]}
        for e in q.sort[_EDGE]:
            grp, s = q.up[e]
            sizes[s] += [tuples[q.up[grp][0]] // size[grp]] * (mult[e] // mult[s])
        yield [(mult[s], ns) for s, ns in sizes.items()]


def w_set_sizes(g: SeparatedGraph, depth: int, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """|W_2|, ..., |W_{depth+1}|, with the checks of canonical_sequence, counted on classes."""
    return _sequence_counts(g, depth, budget)[1]


def _sequence_counts(g: SeparatedGraph, depth: int, budget: int = DEFAULT_BUDGET):
    """Per layer 0..depth its (vertices, edges, groups), and w_set_sizes(g, depth, budget).

    Layer n + 1's counts and |W_{n+2}| depend only on the group sizes of layer n:
    a range vertex with group sizes ns spans prod(ns) tuples of len(ns) arrows,
    prod(ns) - sum(ns) + len(ns) - 1 of them in W, and each edge makes a group.
    The sizes come off the quotients of _layer_sizes, so no vertex is made.
    """
    ensure_bipartite(g, "canonical sequence requires a bipartite graph")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    counts = [(len(g.vertices), len(g.edges), len(g.group_keys()))]
    sources, sizes = len(g.layer1), []
    for n, layer in zip(range(depth), _layer_sizes(g)):
        size = sum(m * math.prod(ns) for m, ns in layer)
        if size > budget:
            raise _over_budget(n, f"generate {_decimal(size)} vertices (budget {_decimal(budget)})")
        if n < 2:
            _check_input_names(g, n)
        arrows = sum(m * math.prod(ns) * len(ns) for m, ns in layer)
        counts.append((sources + size, arrows, counts[-1][1]))
        sources = size
        sizes.append(sum(m * (math.prod(ns) - sum(ns) + len(ns) - 1) for m, ns in layer))
    return counts, tuple(sizes)


# Iterated root of v down to the given layer: root_of(seq, v, target_layer).
root_of = CanonicalSequence.root_of


# bipartite companion --------------------------------------------------------


def bipartite_companion(g: SeparatedGraph) -> SeparatedGraph:
    """The bipartite double of a separated graph.

    Two copies v|0, v|1 of every vertex; a connecting edge h|v from v|1 to
    v|0; a copy e|0 of every edge e running from s(e)|1 to r(e)|0.  The
    groups at v|0 are the copies of the groups of C_v followed by the
    singleton {h|v}.  The result is a valid bipartite graph, and its K-theory
    agrees with that of g.  Escaping writes no bare "|", so a connecting edge
    h|v and an edge copy e|0 share a name only when e is h and v is 0; such
    a g is refused.
    """
    ensure_valid(g)
    v0 = {v: f"{_esc(v)}|0" for v in g.vertices}
    v1 = {v: f"{_esc(v)}|1" for v in g.vertices}
    h = {v: f"h|{_esc(v)}" for v in g.vertices}
    e0 = {e.id: f"{_esc(e.id)}|0" for e in g.edges}
    _raise_on_clash("edge", set(h.values()).intersection(e0.values()))

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
