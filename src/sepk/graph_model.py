"""Finitely separated graphs: data model, validation, built-ins, file format.

A separated graph is a finite directed graph together with, for each vertex
v, an ordered family C_v of pairwise disjoint nonempty groups of edges whose
union is the incoming-edge set r^-1(v).  Vertices that receive no edges carry
the empty family.

Every list order in this module is meaningful.  The order of the vertex list,
of the edge list, of the group list C_v and of the members inside each group
together form the order structure consumed by the transformation and K-theory
modules (group order, source-fiber order, in-group order).  Serialization
preserves these orders exactly, and parse(serialize(g)) == g.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
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

    Instances are immutable after construction and safe to share across
    threads.  Construction is lenient: semantic invariants (partitioning,
    bipartite shape) are checked by validate(), not here, so that broken
    candidate data can be represented and reported on.
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
        vindex = {v: i for i, v in enumerate(self.vertices)}
        edge_map = {e.id: e for e in self.edges}
        r_inv: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        s_inv: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.dst in r_inv:
                r_inv[e.dst].append(e)
            if e.src in s_inv:
                s_inv[e.src].append(e)
        object.__setattr__(self, "_vindex", vindex)
        object.__setattr__(self, "_edge_map", edge_map)
        object.__setattr__(self, "_r_inv", {v: tuple(es) for v, es in r_inv.items()})
        object.__setattr__(self, "_s_inv", {v: tuple(es) for v, es in s_inv.items()})

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
        es = tuple(Edge(*e) for e in edges)
        sep = tuple(
            tuple(tuple(group) for group in separation.get(v, ())) for v in vs
        )
        bp = None
        if bipartite is not None:
            bp = (tuple(bipartite[0]), tuple(bipartite[1]))
        return cls(vs, es, sep, bp)

    # order-aware accessors ------------------------------------------------

    def vertex_index(self, v: str) -> int:
        return self._vindex[v]

    def edge(self, eid: str) -> Edge:
        return self._edge_map[eid]

    def has_edge(self, eid: str) -> bool:
        return eid in self._edge_map

    def r_inv(self, v: str) -> tuple[Edge, ...]:
        return self._r_inv[v]

    def s_inv(self, v: str) -> tuple[Edge, ...]:
        return self._s_inv[v]

    def groups_at(self, v: str) -> tuple[tuple[str, ...], ...]:
        return self.separation[self._vindex[v]]

    def group(self, key: GroupKey) -> tuple[str, ...]:
        v, idx = key
        return self.groups_at(v)[idx]

    def group_keys(self) -> tuple[GroupKey, ...]:
        """All group keys, vertices in list order, groups in C_v order."""
        return tuple(
            (v, i)
            for v in self.vertices
            for i in range(len(self.groups_at(v)))
        )

    @property
    def is_bipartite(self) -> bool:
        return self.bipartite is not None

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
        for v in layer0:
            if v in seen_v and not g.r_inv(v):
                out.append(
                    Violation("bipartite-range-empty", v, "layer0 vertex receives no edge")
                )
        for v in layer1:
            if v in seen_v and not g.s_inv(v):
                out.append(
                    Violation("bipartite-source-empty", v, "layer1 vertex emits no edge")
                )

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
    return (json.dumps(to_obj(g), indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _expect(cond: bool, message: str, location: str):
    if not cond:
        raise GraphFormatError(message, location)


def from_obj(obj: object, location: str = "graph") -> SeparatedGraph:
    """Build a graph from parsed JSON, checking shape and referential integrity."""
    _expect(isinstance(obj, dict), "top level must be a map", location)
    assert isinstance(obj, dict)
    unknown = set(obj) - {"vertices", "edges", "separation", "bipartite"}
    _expect(not unknown, f"unknown keys {sorted(unknown)}", location)
    for key in ("vertices", "edges", "separation"):
        _expect(key in obj, f"missing key {key!r}", location)

    raw_vs = obj["vertices"]
    _expect(isinstance(raw_vs, list), "vertices must be a list", f"{location}.vertices")
    vertices: list[str] = []
    vset: set[str] = set()
    for i, v in enumerate(raw_vs):
        _expect(isinstance(v, str), "vertex id must be a string", f"{location}.vertices[{i}]")
        _expect(v not in vset, f"duplicate vertex id {v!r}", f"{location}.vertices[{i}]")
        vertices.append(v)
        vset.add(v)

    raw_es = obj["edges"]
    _expect(isinstance(raw_es, list), "edges must be a list", f"{location}.edges")
    edges: list[Edge] = []
    eids: set[str] = set()
    for i, e in enumerate(raw_es):
        loc = f"{location}.edges[{i}]"
        _expect(isinstance(e, dict), "edge must be a map", loc)
        _expect(set(e) == {"id", "src", "dst"}, "edge must have exactly id, src, dst", loc)
        _expect(
            all(isinstance(e[k], str) for k in ("id", "src", "dst")),
            "edge fields must be strings",
            loc,
        )
        _expect(e["id"] not in eids, f"duplicate edge id {e['id']!r}", loc)
        _expect(e["src"] in vset, f"unknown source vertex {e['src']!r}", f"{loc}.src")
        _expect(e["dst"] in vset, f"unknown range vertex {e['dst']!r}", f"{loc}.dst")
        eids.add(e["id"])
        edges.append(Edge(e["id"], e["src"], e["dst"]))

    raw_sep = obj["separation"]
    _expect(isinstance(raw_sep, dict), "separation must be a map", f"{location}.separation")
    separation: dict[str, list[list[str]]] = {}
    for v, groups in raw_sep.items():
        loc = f"{location}.separation.{v}"
        _expect(v in vset, f"separation key {v!r} is not a vertex", loc)
        _expect(isinstance(groups, list), "groups must be a list of lists", loc)
        checked: list[list[str]] = []
        for gi, grp in enumerate(groups):
            gloc = f"{loc}[{gi}]"
            _expect(isinstance(grp, list), "group must be a list of edge ids", gloc)
            for mi, eid in enumerate(grp):
                _expect(isinstance(eid, str), "edge id must be a string", f"{gloc}[{mi}]")
                _expect(eid in eids, f"unknown edge id {eid!r}", f"{gloc}[{mi}]")
            checked.append(list(grp))
        separation[v] = checked

    bipartite = None
    if "bipartite" in obj:
        raw_bp = obj["bipartite"]
        loc = f"{location}.bipartite"
        _expect(isinstance(raw_bp, dict), "bipartite must be a map", loc)
        _expect(set(raw_bp) == {"layer0", "layer1"}, "bipartite needs layer0 and layer1", loc)
        layers = []
        for key in ("layer0", "layer1"):
            layer = raw_bp[key]
            _expect(isinstance(layer, list), f"{key} must be a list", f"{loc}.{key}")
            for i, v in enumerate(layer):
                _expect(isinstance(v, str), "vertex id must be a string", f"{loc}.{key}[{i}]")
                _expect(v in vset, f"unknown vertex {v!r}", f"{loc}.{key}[{i}]")
            layers.append(list(layer))
        bipartite = (layers[0], layers[1])

    return SeparatedGraph.build(vertices, edges, separation, bipartite)


def parse(data: bytes | str) -> SeparatedGraph:
    """Parse a graph file.  Raises GraphFormatError with a location on failure."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"malformed syntax: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
    return from_obj(obj)
