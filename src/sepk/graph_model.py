"""Finitely separated graphs: data model, validation, built-ins, file format.

A separated graph is a finite directed graph together with, for each vertex
v, an ordered family C_v of pairwise disjoint nonempty groups of edges whose
union is the incoming-edge set r^-1(v).  Vertices that receive no edges carry
the empty family.

Every list order in this module is meaningful.  The order of the vertex list,
of the edge list, of the group list C_v and of the members inside each group
together form the order structure consumed by the transformation and K-theory
modules (group order, source-fiber order, in-group order).  Serialization
preserves these orders exactly, and parse(serialize(g)) == g.  Beside its
names, a graph holds them as one integer form (see SeparatedGraph), which
validation and the K-theory read.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

# A group is addressed by (range vertex, position of the group in C_v).
GroupKey = tuple[str, int]


def group_label(key: GroupKey) -> str:
    """Render a group key in the 1-based "v.k" notation used by the CLI."""
    vertex, idx = key
    return f"{vertex}.{idx + 1}"


class GraphFormatError(ValueError):
    """Malformed graph file: syntax, dangling references, duplicate ids."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")


class ParameterRangeError(ValueError):
    """A built-in graph parameter is outside its legal range."""


class Edge(NamedTuple):
    id: str
    src: str  # source vertex s(e)
    dst: str  # range vertex r(e)


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class SeparatedGraph:
    """A finite directed graph with an ordered partition family on each r^-1(v).

    separation[i] lists the edge groups of vertices[i], each group an ordered
    tuple of edge ids.  bipartite, when present, is the ordered pair of vertex
    layers (ranges, sources); every edge must then run from the second layer
    to the first.

    Each instance also holds one integer form, which validate, incidence and
    the canonical step read: _vindex and _eindex map vertex and edge names to
    indexes (the last, where a name repeats), _src[j] and _dst[j] are the
    vertex indexes of the ends of edge j, and _groups[i] holds the groups of
    vertices[i] as tuples of edge indexes; a name that is no vertex or edge
    is -1.  Construction derives the form from the names; parse and the
    canonical step fill it in as they check or generate the names.

    Instances are immutable after construction and safe to share across
    threads.  Construction is lenient: semantic invariants (partitioning,
    bipartite shape) are checked by validate(), not here, so that broken
    candidate data can be represented and reported on.  transform's
    ensure_valid keeps the report of its first run on the instance, and a
    layer made by the canonical step carries its passing report from birth.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    separation: tuple[tuple[tuple[str, ...], ...], ...]
    bipartite: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None

    def __post_init__(self):
        if len(self.separation) != len(self.vertices):
            raise ValueError(
                "separation must have exactly one entry per vertex "
                f"({len(self.separation)} entries, {len(self.vertices)} vertices)"
            )
        vindex = dict(zip(self.vertices, range(len(self.vertices))))
        ids, srcs, dsts = zip(*self.edges) if self.edges else ((), (), ())
        eindex = dict(zip(ids, range(len(ids))))
        vget, eget, missing = vindex.get, eindex.get, repeat(-1)
        self.__dict__.update(
            _vindex=vindex, _eindex=eindex,
            _src=list(map(vget, srcs, missing)), _dst=list(map(vget, dsts, missing)),
            _groups=tuple([
                tuple([tuple(map(eget, grp, missing)) for grp in groups]) if groups else ()
                for groups in self.separation
            ]),
        )

    @classmethod
    def _of_form(cls, vertices, edges, separation, bipartite, vindex, eindex, src, dst, groups):
        """An instance whose integer form its producer has already built."""
        g = object.__new__(cls)
        g.__dict__.update(
            vertices=vertices, edges=edges, separation=separation, bipartite=bipartite,
            _vindex=vindex, _eindex=eindex, _src=src, _dst=dst, _groups=groups,
        )
        return g

    @classmethod
    def build(
        cls,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str, str] | Edge],
        separation: Mapping[str, Sequence[Sequence[str]]],
        bipartite: tuple[Sequence[str], Sequence[str]] | None = None,
    ) -> "SeparatedGraph":
        """Assemble a graph from a vertex list, edge triples and a separation map.

        The separation map may omit vertices (they get the empty family); keys
        that are not vertices are rejected.
        """
        vs = tuple(vertices)
        vset = set(vs)
        for key in separation:
            if key not in vset:
                raise GraphFormatError(f"separation key {key!r} is not a vertex")
        es = tuple([e if isinstance(e, Edge) else Edge(*e) for e in edges])
        sep = tuple([tuple(map(tuple, separation.get(v, ()))) for v in vs])
        bp = None if bipartite is None else (tuple(bipartite[0]), tuple(bipartite[1]))
        return cls(vs, es, sep, bp)

    # order-aware accessors ------------------------------------------------

    def vertex_index(self, v: str) -> int:
        return self._vindex[v]

    def edge(self, eid: str) -> Edge:
        return self.edges[self._eindex[eid]]

    def has_vertex(self, v: str) -> bool:
        return v in self._vindex

    def has_edge(self, eid: str) -> bool:
        return eid in self._eindex

    def groups_at(self, v: str) -> tuple[tuple[str, ...], ...]:
        return self.separation[self._vindex[v]]

    def group(self, key: GroupKey) -> tuple[str, ...]:
        v, idx = key
        return self.groups_at(v)[idx]

    def group_keys(self) -> tuple[GroupKey, ...]:
        """All group keys, vertices in list order, groups in C_v order."""
        return tuple((v, i) for v in self.vertices for i in range(len(self.groups_at(v))))

    @property
    def layer0(self) -> tuple[str, ...]:
        if self.bipartite is None:
            raise ValueError("graph carries no bipartite split")
        return self.bipartite[0]

    @property
    def layer1(self) -> tuple[str, ...]:
        if self.bipartite is None:
            raise ValueError("graph carries no bipartite split")
        return self.bipartite[1]


def validate(g: SeparatedGraph) -> ValidationReport:
    """Check every separated-graph invariant; violations are data, not errors.

    Reported kinds: duplicate-vertex, duplicate-edge, dangling-endpoint,
    empty-group, unknown-edge, wrong-range-vertex, edge-in-multiple-groups,
    partition-not-covering, and the bipartite-* family.  The checks read the
    integer form; names are read only to report a violation.
    """
    out: list[Violation] = []

    def report(kind: str, subject: str, detail: str) -> None:
        out.append(Violation(kind, subject, detail))

    vertices, edges, src, dst, vindex = g.vertices, g.edges, g._src, g._dst, g._vindex
    n, m = len(vertices), len(edges)
    # The index each name resolves to differs from the position only where a name repeats.
    vpos = range(n) if len(vindex) == n else [vindex[v] for v in vertices]
    epos = range(m) if len(g._eindex) == m else [g._eindex[e.id] for e in edges]
    if len(vindex) != n:
        seen_v: set[str] = set()
        for v in vertices:
            if v in seen_v:
                report("duplicate-vertex", v, "vertex id appears twice")
            seen_v.add(v)
    if -1 in src or -1 in dst or len(g._eindex) != m:
        seen_e: set[str] = set()
        for e, s, d in zip(edges, src, dst):
            if e.id in seen_e:
                report("duplicate-edge", e.id, "edge id appears twice")
            seen_e.add(e.id)
            if s < 0:
                report("dangling-endpoint", e.id, f"source vertex {e.src!r} does not exist")
            if d < 0:
                report("dangling-endpoint", e.id, f"range vertex {e.dst!r} does not exist")

    # Group membership: each edge in at most one group, under its own range
    # vertex, groups nonempty.  owner[j] is (vertex position, group position).
    owner: list[tuple[int, int] | None] = [None] * m
    for i, groups in enumerate(g._groups):
        v = vpos[i]
        for gi, grp in enumerate(groups):
            if not grp:
                report("empty-group", group_label((vertices[i], gi)), "group has no edges")
            for k, j in enumerate(grp):
                if j >= 0 and dst[j] == v and owner[j] is None:
                    owner[j] = (i, gi)
                    continue
                eid, here = g.separation[i][gi][k], group_label((vertices[i], gi))
                if j < 0:
                    report("unknown-edge", eid, f"listed in group {here} but not an edge")
                    continue
                if dst[j] != v:
                    report("wrong-range-vertex", eid,
                           f"listed under {vertices[i]!r} but its range is {edges[j].dst!r}")
                if owner[j] is None:
                    owner[j] = (i, gi)
                else:
                    first = group_label((vertices[owner[j][0]], owner[j][1]))
                    report("edge-in-multiple-groups", eid, f"appears in {first} and {here}")

    # Covering: every edge into a known vertex must be owned by a group there.
    for e, c, d in zip(edges, epos, dst):
        own = owner[c]
        if d >= 0 and (own is None or vpos[own[0]] != d):
            report("partition-not-covering", e.id, f"edge into {e.dst!r} is missing from C_{e.dst}")

    if g.bipartite is not None:
        layer0, layer1 = g.bipartite
        l0, l1 = set(layer0), set(layer1)
        if l0 & l1:
            report("bipartite-layers-overlap", ",".join(sorted(l0 & l1)), "vertex in both layers")
        if l0 | l1 != vindex.keys() or len(layer0) + len(layer1) != n:
            report("bipartite-layers-not-partition", "", "layers do not partition the vertex set")
        i0, i1 = ({vindex[v] for v in layer if v in vindex} for layer in (l0, l1))
        if not (all(map(i0.__contains__, dst)) and all(map(i1.__contains__, src))):
            for e, s, d in zip(edges, src, dst):
                # an end that names no vertex is looked up in the layers by its name
                ok = d in i0 and s in i1 if s >= 0 and d >= 0 else e.dst in l0 and e.src in l1
                if not ok:
                    report("bipartite-edge-direction", e.id, "edge must run from layer1 to layer0")
        received, sent = set(dst), set(src)
        for v in layer0:
            if v in vindex and vindex[v] not in received:
                report("bipartite-range-empty", v, "layer0 vertex receives no edge")
        for v in layer1:
            if v in vindex and vindex[v] not in sent:
                report("bipartite-source-empty", v, "layer1 vertex emits no edge")

    return ValidationReport(tuple(out))


# built-in graph families --------------------------------------------------


def builtin(name: str, params: Sequence[int]) -> SeparatedGraph:
    """Construct a built-in separated graph.

    E(m, n), 1 < m <= n: two vertices v, w; group X of n edges a1..an and
    group Y of m edges b1..bm, all from w to v, C_v = [X, Y].

    lamplighter(p), p >= 2: vertices v, w1..wp; edges ai, bi from wi to v,
    C_v = [X = {a1..ap}, Y = {b1..bp}].
    """
    if name == "E":
        if len(params) != 2:
            raise ParameterRangeError("E takes two parameters (m, n)")
        m, n = params
        if not 1 < m <= n:
            raise ParameterRangeError(f"E(m, n) requires 1 < m <= n, got ({m}, {n})")
        alphas = [f"a{i}" for i in range(1, n + 1)]
        betas = [f"b{j}" for j in range(1, m + 1)]
        return SeparatedGraph.build(
            vertices=["v", "w"],
            edges=[(e, "w", "v") for e in alphas + betas],
            separation={"v": [alphas, betas], "w": []},
            bipartite=(["v"], ["w"]),
        )
    if name == "lamplighter":
        if len(params) != 1:
            raise ParameterRangeError("lamplighter takes one parameter (p)")
        (p,) = params
        if p < 2:
            raise ParameterRangeError(f"lamplighter(p) requires p >= 2, got {p}")
        ws = [f"w{i}" for i in range(1, p + 1)]
        alphas = [(f"a{i}", f"w{i}", "v") for i in range(1, p + 1)]
        betas = [(f"b{i}", f"w{i}", "v") for i in range(1, p + 1)]
        return SeparatedGraph.build(
            vertices=["v"] + ws,
            edges=alphas + betas,
            separation={"v": [[e[0] for e in alphas], [e[0] for e in betas]]},
            bipartite=(["v"], ws),
        )
    raise ParameterRangeError(f"unknown built-in graph {name!r}")


_BUILTIN_SPEC = re.compile(r"^\s*([A-Za-z_]\w*)\s*\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)\s*$")


def builtin_from_spec(text: str) -> SeparatedGraph:
    """Parse a textual spec like "E(2,3)" or "lamplighter(2)"."""
    m = _BUILTIN_SPEC.match(text)
    if not m:
        raise ParameterRangeError(f"cannot parse built-in spec {text!r}")
    name = m.group(1)
    params = [int(p) for p in m.group(2).split(",")]
    return builtin(name, params)


def builtin_group_aliases(text_or_name: str) -> dict[str, GroupKey]:
    """Human names for the groups of a built-in graph (X, Y at vertex v)."""
    m = _BUILTIN_SPEC.match(text_or_name)
    name = m.group(1) if m else text_or_name
    if name in ("E", "lamplighter"):
        return {"X": ("v", 0), "Y": ("v", 1)}
    return {}


# JSON text -----------------------------------------------------------------

_INF = float("inf")


def _scalar_text(v) -> str:
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == _INF:
            return "Infinity"
        if v == -_INF:
            return "-Infinity"
        return float.__repr__(v)
    raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _key_text(k) -> str:
    """A non-str dict key as the string the stdlib encoder writes for it."""
    if k is None or isinstance(k, (int, float)):
        return _scalar_text(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


class _Quoted(dict):
    """Each string's JSON literal, escaped on first use."""

    __slots__ = ()

    def __missing__(self, s: str) -> str:
        q = self[s] = encode_basestring(s)
        return q


_EDGE_ID = itemgetter(0)


def _items(chunks: list[str], head: str, literals, inner: str, outer: str) -> str:
    """Append head, a list's bracket and its literals at inner; return its closing at outer."""
    if not literals:
        return head + "[]"
    block = ["," + inner] * (2 * len(literals))
    block[0] = head + "[" + inner
    block[1::2] = literals
    chunks.extend(block)
    return outer + "]"


def _layout(vertices, edges, separation, bipartite, indent: str, chunks: list[str]) -> None:
    """Append the pieces of a graph's JSON text, laid out from the literals of its names.

    vertices holds the vertex literals, edges each edge's id, src and dst
    literals one after another, separation the (vertex literal, groups) pairs
    of to_obj's separation map, groups an iterable of edge literal sequences, and
    bipartite the two layers' literals or None.  indent is the newline and
    the graph's own indentation.  Each literal is a piece of its own, and the
    structure between two literals (separators, brackets, indentation and
    fixed keys) is one piece.
    """
    append, extend = chunks.append, chunks.extend
    i1 = indent + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    i4 = i3 + "  "
    head = _items(chunks, "{" + i1 + '"vertices": ', vertices, i2, i1) + "," + i1 + '"edges": '
    if edges:
        block = [
            i2 + "}," + i2 + "{" + i3 + '"id": ', None,
            "," + i3 + '"src": ', None,
            "," + i3 + '"dst": ', None,
        ] * (len(edges) // 3)
        block[0] = head + "[" + i2 + "{" + i3 + '"id": '
        block[1::2] = edges
        extend(block)
        head = i2 + "}" + i1 + "]"
    else:
        head += "[]"
    # Each head after a vertex's groups ends in the comma and newline before
    # the next key; the last vertex's are cut off
    head += "," + i1 + '"separation": {' + i2
    no_groups, start = ": []," + i2, len(chunks)
    for v, groups in separation:
        append(head)
        append(v)
        head = ": ["
        for grp in groups:
            head = _items(chunks, head + i3, grp, i4, i3) + ","
        head = no_groups if head == ": [" else head[:-1] + i2 + "]," + i2
    head = head[: -1 - len(i2)] + i1 + "}" if len(chunks) > start else head[: -len(i2)] + "}"
    if bipartite is not None:
        head += "," + i1 + '"bipartite": {' + i2 + '"layer0": '
        head = _items(chunks, head, bipartite[0], i3, i2)
        head = _items(chunks, head + "," + i2 + '"layer1": ', bipartite[1], i3, i2) + i1 + "}"
    append(head + indent + "}")


def _graph_chunks(g: SeparatedGraph, indent: str, quoted: _Quoted, chunks: list[str]) -> None:
    """Append the pieces json_chunks writes for to_obj(g), read off g's tuples.

    Each name is laid out as its literal in quoted.  to_obj's separation map
    holds a repeated name at its first place, with the groups of its last.  A
    name that is not a str raises TypeError, possibly after some pieces have
    been appended.
    """
    for names in (g.vertices, map(_EDGE_ID, g.edges)):  # escaped in C, once per call
        fresh = list(filterfalse(quoted.__contains__, names))
        quoted.update(zip(fresh, map(encode_basestring, fresh)))
    q = quoted.__getitem__

    def literals(names) -> list[str]:
        return list(map(q, names))

    groups = map(g.separation.__getitem__, g._vindex.values())
    _layout(
        literals(g.vertices),
        literals(chain.from_iterable(g.edges)),
        zip(map(q, g._vindex), map(map, repeat(literals), groups)),
        None if g.bipartite is None else tuple(map(literals, g.bipartite)),
        indent, chunks,
    )


def _sequence_chunks(g: SeparatedGraph, depth: int, steps) -> list[str]:
    """The pieces json_chunks writes for the to_json_obj() of a canonical
    sequence, from its first graph g and the literals of each step.

    steps yields, for layers 1..depth in order, the layer's _layout
    arguments, the literals of its W set and its root table as the (keys,
    values) literals in key order.
    """
    chunks = ['{\n  "depth": ' + str(depth) + ',\n  "layers": [\n    ']
    _graph_chunks(g, "\n    ", _Quoted(), chunks)
    w_sets, roots = [], []
    for layout, w_set, root in steps:
        chunks.append(",\n    ")
        _layout(*layout, "\n    ", chunks)
        w_sets.append(w_set)
        roots.append(root)
    head = '\n  ],\n  "w_sets": {'
    for k, w_set in enumerate(w_sets, 2):
        head = _items(chunks, f'{head}\n    "{k}": ', w_set, "\n      ", "\n    ") + ","
    head = (head[:-1] + "\n  }" if w_sets else head + "}") + ',\n  "root_tables": {'
    for k, (keys, values) in enumerate(roots, 2):
        head += f'\n    "{k}": '
        if keys:
            block = [",\n      ", None, ": ", None] * len(keys)
            block[0] = head + "{\n      "
            block[1::4], block[3::4] = keys, values
            chunks.extend(block)
            head = "\n    }"
        else:
            head += "{}"
        head += ","
    chunks.append((head[:-1] + "\n  }" if roots else head + "}") + "\n}")
    return chunks


def json_chunks(obj) -> list[str]:
    """The pieces of the text the stdlib's json `dumps(obj, indent=2,
    ensure_ascii=False)` returns, byte for byte once joined, where a
    SeparatedGraph anywhere in obj stands for its to_obj dict.

    With indent set, the stdlib (before Python 3.13) leaves its C encoder
    for a pure-Python one built from nested generators, and escapes every
    occurrence of a string again.  The layers of a canonical sequence name
    their vertices and edges by nesting the escaped names of the layer
    before, so the same long names recur many times.  This writer walks the
    value once, escapes each distinct string once per call and appends
    every piece to one list.  A graph is written from its tuples, not
    through per-edge dicts: its vertex names and edge ids are escaped in
    bulk, and each of its lists is laid out by slicing the escaped names
    into a list of the constant pieces between them.  A name is always a
    piece of its own; only a run of constant structure (a separator, the
    indentation, brackets and a fixed key with its colon, such as
    `"id": `) is merged into one piece.  A repeated vertex name is written
    as to_obj's separation map collapses it; only a graph with a name that
    is not a str is written from to_obj(g).  The writer accepts what the
    stdlib call accepts by default, prints int and float subclasses as the
    built-in type, and raises TypeError for anything else.
    """
    quoted = _Quoted()
    chunks: list[str] = []
    emit = chunks.append

    def write(v, indent: str) -> None:  # indent: newline and v's own indentation
        if isinstance(v, str):
            emit(quoted[v])
        elif isinstance(v, (list, tuple)):
            if not v:
                emit("[]")
                return
            inner = indent + "  "
            sep, comma = "[" + inner, "," + inner
            for item in v:
                emit(sep)
                sep = comma
                if isinstance(item, str):
                    emit(quoted[item])
                else:
                    write(item, inner)
            emit(indent + "]")
        elif isinstance(v, dict):
            if not v:
                emit("{}")
                return
            inner = indent + "  "
            sep, comma = "{" + inner, "," + inner
            for key, item in v.items():
                emit(sep)
                sep = comma
                emit(quoted[key if isinstance(key, str) else _key_text(key)])
                emit(": ")
                if isinstance(item, str):
                    emit(quoted[item])
                else:
                    write(item, inner)
            emit(indent + "}")
        elif isinstance(v, SeparatedGraph):
            start = len(chunks)
            try:
                _graph_chunks(v, indent, quoted, chunks)
            except TypeError:  # a name that is not a str
                del chunks[start:]
                write(to_obj(v), indent)
        else:
            emit(_scalar_text(v))

    write(obj, "\n")
    return chunks


# file format ---------------------------------------------------------------
#
# Canonical form: a JSON map with keys, in order: "vertices" (list of
# strings), "edges" (list of {id, src, dst}), "separation" (map from vertex
# to list of lists of edge ids, one entry per vertex in vertex order),
# optional "bipartite" ({layer0, layer1}).  UTF-8, list orders significant.


def to_obj(g: SeparatedGraph) -> dict:
    obj: dict = {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in g.edges],
        "separation": {
            v: [list(grp) for grp in groups]
            for v, groups in zip(g.vertices, g.separation)
        },
    }
    if g.bipartite is not None:
        obj["bipartite"] = {
            "layer0": list(g.bipartite[0]),
            "layer1": list(g.bipartite[1]),
        }
    return obj


def serialize(g: SeparatedGraph) -> bytes:
    chunks = json_chunks(g)
    chunks.append("\n")
    return "".join(chunks).encode("utf-8")


_TOP_KEYS = frozenset(("vertices", "edges", "separation", "bipartite"))
_EDGE_KEYS = frozenset(("id", "src", "dst"))


def _encodable(name: str) -> bool:
    """False for a name holding a lone surrogate: no UTF-8 output can carry it.

    JSON's \\uXXXX escapes can write one, and every other string of a graph
    is checked against the vertex and edge ids.
    """
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def from_obj(obj: object, location: str = "graph") -> SeparatedGraph:
    """Build a graph from parsed JSON, checking shape and referential integrity.

    The checks run in document order and stop at the first failure; its
    message and location are formatted only then.
    """
    if not isinstance(obj, dict):
        raise GraphFormatError("top level must be a map", location)
    unknown = obj.keys() - _TOP_KEYS
    if unknown:
        raise GraphFormatError(f"unknown keys {sorted(unknown)}", location)
    for key in ("vertices", "edges", "separation"):
        if key not in obj:
            raise GraphFormatError(f"missing key {key!r}", location)

    raw_vs = obj["vertices"]
    if not isinstance(raw_vs, list):
        raise GraphFormatError("vertices must be a list", f"{location}.vertices")
    vindex: dict[str, int] = {}
    for i, v in enumerate(raw_vs):
        if not isinstance(v, str):
            raise GraphFormatError("vertex id must be a string", f"{location}.vertices[{i}]")
        if not (v.isascii() or _encodable(v)):
            raise GraphFormatError(
                f"vertex id {v!r} is not UTF-8 text: surrogates not allowed",
                f"{location}.vertices[{i}]",
            )
        if v in vindex:
            raise GraphFormatError(f"duplicate vertex id {v!r}", f"{location}.vertices[{i}]")
        vindex[v] = i

    raw_es = obj["edges"]
    if not isinstance(raw_es, list):
        raise GraphFormatError("edges must be a list", f"{location}.edges")
    eindex, srcs, dsts, vget = {}, [], [], vindex.get  # the integer form, filled in as checked
    for i, e in enumerate(raw_es):
        if not isinstance(e, dict):
            raise GraphFormatError("edge must be a map", f"{location}.edges[{i}]")
        if e.keys() != _EDGE_KEYS:
            raise GraphFormatError("edge must have exactly id, src, dst", f"{location}.edges[{i}]")
        eid, src, dst = e["id"], e["src"], e["dst"]
        if not (isinstance(eid, str) and isinstance(src, str) and isinstance(dst, str)):
            raise GraphFormatError("edge fields must be strings", f"{location}.edges[{i}]")
        if not (eid.isascii() or _encodable(eid)):
            raise GraphFormatError(
                f"edge id {eid!r} is not UTF-8 text: surrogates not allowed",
                f"{location}.edges[{i}].id",
            )
        if eid in eindex:
            raise GraphFormatError(f"duplicate edge id {eid!r}", f"{location}.edges[{i}]")
        s, d = vget(src), vget(dst)
        if s is None:
            raise GraphFormatError(f"unknown source vertex {src!r}", f"{location}.edges[{i}].src")
        if d is None:
            raise GraphFormatError(f"unknown range vertex {dst!r}", f"{location}.edges[{i}].dst")
        eindex[eid] = i
        srcs.append(s)
        dsts.append(d)
    # A graph holds one string per name: each edge end, group member and layer
    # entry is the vertex or edge id string, not the document's copy of it.
    # The lookups are list methods, which map calls without a wrapper.
    eids = list(eindex)
    vname, ename = raw_vs.__getitem__, eids.__getitem__
    # tuple.__new__ is Edge._make without a Python frame per edge
    edges = tuple(map(tuple.__new__, repeat(Edge), zip(eids, map(vname, srcs), map(vname, dsts))))

    raw_sep = obj["separation"]
    if not isinstance(raw_sep, dict):
        raise GraphFormatError("separation must be a map", f"{location}.separation")
    separation, groups, eget = [()] * len(raw_vs), [()] * len(raw_vs), eindex.get
    for v, raw_groups in raw_sep.items():
        i = vget(v)
        if i is None:
            raise GraphFormatError(
                f"separation key {v!r} is not a vertex", f"{location}.separation.{v}"
            )
        if not isinstance(raw_groups, list):
            raise GraphFormatError("groups must be a list of lists", f"{location}.separation.{v}")
        names, ints = [], []
        for gi, grp in enumerate(raw_groups):
            if not isinstance(grp, list):
                raise GraphFormatError(
                    "group must be a list of edge ids", f"{location}.separation.{v}[{gi}]"
                )
            try:
                members = tuple(map(eget, grp))
            except TypeError:  # an unhashable member, reported below
                members = (None,)
            if None in members:  # report the first bad member
                for mi, eid in enumerate(grp):
                    at = f"{location}.separation.{v}[{gi}][{mi}]"
                    if not isinstance(eid, str):
                        raise GraphFormatError("edge id must be a string", at)
                    if eid not in eindex:
                        raise GraphFormatError(f"unknown edge id {eid!r}", at)
            ints.append(members)
            names.append(tuple(map(ename, members)))
        separation[i], groups[i] = tuple(names), tuple(ints)

    bipartite = None
    if "bipartite" in obj:
        raw_bp = obj["bipartite"]
        loc = f"{location}.bipartite"
        if not isinstance(raw_bp, dict):
            raise GraphFormatError("bipartite must be a map", loc)
        if raw_bp.keys() != {"layer0", "layer1"}:
            raise GraphFormatError("bipartite needs layer0 and layer1", loc)
        layers = []
        for key in ("layer0", "layer1"):
            layer = raw_bp[key]
            if not isinstance(layer, list):
                raise GraphFormatError(f"{key} must be a list", f"{loc}.{key}")
            try:
                at = tuple(map(vget, layer))
            except TypeError:  # an unhashable vertex, reported below
                at = (None,)
            if None in at:  # report the first bad vertex
                for i, v in enumerate(layer):
                    if not isinstance(v, str):
                        raise GraphFormatError("vertex id must be a string", f"{loc}.{key}[{i}]")
                    if v not in vindex:
                        raise GraphFormatError(f"unknown vertex {v!r}", f"{loc}.{key}[{i}]")
            layers.append(tuple(map(vname, at)))
        bipartite = (layers[0], layers[1])

    return SeparatedGraph._of_form(
        tuple(raw_vs), edges, tuple(separation), bipartite,
        vindex, eindex, srcs, dsts, tuple(groups),
    )


def _not_utf8(exc: UnicodeDecodeError) -> GraphFormatError:
    return GraphFormatError(f"not UTF-8 text: {exc.reason}", f"byte {exc.start}")


def parse(data: bytes | str) -> SeparatedGraph:
    """Parse a graph file.  Raises GraphFormatError with a location on failure."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc) from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"malformed syntax: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise GraphFormatError("malformed syntax: nesting too deep") from exc
    return from_obj(obj)


def _read_utf8(path) -> str:
    """The text of the UTF-8 file at path, its line ends as they are.

    The file is read once, so a pipe works, and its bytes are freed once
    decoded, before any parsing.  A byte sequence that is not UTF-8 raises
    UnicodeDecodeError with the reason bytes.decode gives and its start
    counted from the start of the file.  A missing or unreadable path raises
    OSError.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _parse_file(path) -> SeparatedGraph:
    """parse() on the text of the file at path, as _read_utf8 reads it."""
    try:
        text = _read_utf8(path)
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc) from exc
    return parse(text)
