"""Reference copy of the separated-graph validator, and edge lookups by name.

`reference_validate` is the straightforward validator that reads the
graph's names only, through its fields and its name-keyed accessors, kept
as the oracle that `graph_model.validate` (which reads the graph's integer
form) is compared with.  `r_inv` and `s_inv` list the edges into and out
of a vertex, in edge-list order, by scanning every edge.
"""

from sepk.graph_model import Edge, SeparatedGraph, ValidationReport, Violation, group_label


def r_inv(g: SeparatedGraph, v: str) -> tuple[Edge, ...]:
    """The edges with range v."""
    return tuple(e for e in g.edges if e.dst == v)


def s_inv(g: SeparatedGraph, v: str) -> tuple[Edge, ...]:
    """The edges with source v."""
    return tuple(e for e in g.edges if e.src == v)


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
