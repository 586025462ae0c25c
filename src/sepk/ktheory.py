"""K-theory of separated graph algebras and their tame quotients.

The K-groups of the algebra of a finitely separated graph are the cokernel
and kernel of the integer map sending the basis vector of a group X in C_v
to delta_v minus the sum, with multiplicity, of the source vertices of the
edges of X.  The tame quotient keeps the same K_1, and its K_0 gains one
free summand per W vertex of the canonical sequence; this module reports
those ranks layer by layer (an exact truncation of the full answer).

Also here: the kernel transport Phi along a canonical step, the explicit
connecting-map image certifying that nonzero kernel classes stay nonzero,
the graph monoid's universal group (an independent presentation of K_0),
and the character extension across a multiresolution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .exact_linalg import (
    AbelianGroupInvariants,
    IntMatrix,
    cokernel_invariants,
    kernel_basis,
)
from .graph_model import GroupKey, SeparatedGraph, group_label
from .transform import (
    DEFAULT_BUDGET,
    PreconditionError,
    bipartite_companion,
    canonical_step_data,
    ensure_valid,
    generated_vertex_name,
    multiresolution_data,
    w_set_sizes,
)


class NotInKernelError(PreconditionError):
    """A purported kernel element has a nonzero residual."""

    def __init__(self, residual: dict[str, int]):
        self.residual = residual
        shown = ", ".join(f"{v}: {r}" for v, r in sorted(residual.items()) if r)
        super().__init__(f"element is not in the kernel; residual ({shown})")


class CharacterError(PreconditionError):
    """A character assignment violates a relation or misses required values."""


@dataclass(frozen=True)
class IncidencePair:
    """The two labeled integer matrices from the group basis to the vertex basis.

    Rows are vertices in list order; columns are group keys in vertex-then-
    group order.  one marks the range vertex of each group; counts tallies
    the arrows of each group by source vertex.
    """

    one: IntMatrix
    counts: IntMatrix

    @property
    def cols(self) -> tuple[GroupKey, ...]:
        return self.one.cols  # type: ignore[return-value]

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.one.rows  # type: ignore[return-value]

    def difference(self) -> IntMatrix:
        return self.one.sub(self.counts)


def incidence(g: SeparatedGraph) -> IncidencePair:
    ensure_valid(g)
    keys = g.group_keys()
    vidx = {v: i for i, v in enumerate(g.vertices)}
    one = [[0] * len(keys) for _ in g.vertices]
    counts = [[0] * len(keys) for _ in g.vertices]
    for j, key in enumerate(keys):
        v, _ = key
        one[vidx[v]][j] = 1
        for eid in g.group(key):
            counts[vidx[g.edge(eid).src]][j] += 1
    return IncidencePair(
        IntMatrix.from_rows(g.vertices, keys, one),
        IntMatrix.from_rows(g.vertices, keys, counts),
    )


# kernel elements ------------------------------------------------------------

KernelElement = dict[GroupKey, int]


def element_residual(pair: IncidencePair, x: Mapping[GroupKey, int]) -> dict[str, int]:
    """The image of x under the incidence difference, as a vertex vector."""
    col_index = {key: j for j, key in enumerate(pair.cols)}
    residual = {v: 0 for v in pair.vertices}
    diff = pair.difference()
    for key, coef in x.items():
        if key not in col_index:
            raise PreconditionError(f"unknown group {group_label(key)}")
        if coef:
            j = col_index[key]
            for i, v in enumerate(pair.vertices):
                residual[v] += coef * diff.data[i][j]
    return residual


def require_kernel_element(pair: IncidencePair, x: Mapping[GroupKey, int]) -> None:
    residual = element_residual(pair, x)
    if any(residual.values()):
        raise NotInKernelError(residual)


def positive_part(x: Mapping[GroupKey, int]) -> dict[GroupKey, int]:
    return {k: c for k, c in x.items() if c > 0}


def negative_part(x: Mapping[GroupKey, int]) -> dict[GroupKey, int]:
    """Coefficients of the negated negative support (all positive)."""
    return {k: -c for k, c in x.items() if c < 0}


def format_element(x: Mapping[GroupKey, int], names: Mapping[GroupKey, str] | None = None) -> str:
    def label(key):
        return names.get(key, group_label(key)) if names else group_label(key)

    items = [(label(k), c) for k, c in x.items() if c]
    items.sort()
    if not items:
        return "0"
    parts = []
    for i, (lbl, c) in enumerate(items):
        sign = "-" if c < 0 else ("+" if i else "")
        mag = abs(c)
        term = lbl if mag == 1 else f"{mag} {lbl}"
        parts.append(f"{sign} {term}".strip() if i else (f"{sign}{term}" if sign else term))
    return " ".join(parts)


# K-groups -------------------------------------------------------------------


@dataclass(frozen=True)
class KGroups:
    """K_0 invariants and a canonical basis of the free group K_1."""

    k0: AbelianGroupInvariants
    k1_rank: int
    k1_basis: tuple[KernelElement, ...]
    cols: tuple[GroupKey, ...]


def k_groups_full(g: SeparatedGraph) -> KGroups:
    """K-groups of the (untamed) graph algebra: cokernel and kernel."""
    pair = incidence(g)
    diff = pair.difference()
    k0 = cokernel_invariants(diff)
    basis = kernel_basis(diff)
    vecs = tuple(
        {key: c for key, c in zip(pair.cols, vec) if c} for vec in basis
    )
    return KGroups(k0, len(vecs), vecs, pair.cols)


def k1_tame(g: SeparatedGraph) -> KGroups:
    """K_1 of the tame algebra: the projection is a K_1-isomorphism, so this
    coincides with the untamed answer for every finitely separated graph."""
    return k_groups_full(g)


@dataclass(frozen=True)
class TameK0Result:
    """Truncated K_0 of the tame algebra: base cokernel plus layer ranks.

    layer_ranks[i] is the free rank contributed by W_{i+2}; the reported
    group is base + Z^(sum of ranks) and is an exact subgroup of the full
    ascending-union answer, hence the truncation flag.
    """

    base: AbelianGroupInvariants
    layer_ranks: tuple[int, ...]
    depth: int
    via_companion: bool
    truncated: bool = True

    def total(self) -> AbelianGroupInvariants:
        return self.base.with_free_summand(sum(self.layer_ranks))

    def describe(self) -> str:
        parts = [str(self.base)] + [f"Z^{r}" for r in self.layer_ranks]
        return " ⊕ ".join(parts) + f" (truncated at depth {self.depth})"


def k0_tame(
    g: SeparatedGraph, depth: int, budget: int = DEFAULT_BUDGET
) -> TameK0Result:
    """K_0 of the tame algebra, truncated at the given sequence depth.

    A graph without a bipartite split is routed through its bipartite
    companion, which leaves both K-groups unchanged; the result records the
    routing.
    """
    ensure_valid(g)
    base = cokernel_invariants(incidence(g).difference())
    if g.bipartite is None:
        h = bipartite_companion(g)
        via_companion = True
    else:
        h = g
        via_companion = False
    return TameK0Result(base, w_set_sizes(h, depth, budget), depth, via_companion)


# kernel transport across a canonical step -----------------------------------


def phi_transport(g: SeparatedGraph, x: Mapping[GroupKey, int]) -> KernelElement:
    """Transport a kernel element to the next canonical layer.

    With the coefficient n_i at the i-th group of C_u read off x, the image
    puts the sum of the n_i (i >= 2) on the group of every edge of the first
    group of C_u and minus n_i on the groups of the edges of the i-th group.
    The image is a kernel element of the next layer, and the transport of a
    basis is again a basis.
    """
    ensure_valid(g)
    if g.bipartite is None:
        raise PreconditionError("kernel transport requires a bipartite graph")
    pair = incidence(g)
    require_kernel_element(pair, x)
    step = canonical_step_data(g)
    out: dict[GroupKey, int] = {}
    for u in g.layer0:
        groups = g.groups_at(u)
        for i in range(1, len(groups)):
            n_i = x.get((u, i), 0)
            if not n_i:
                continue
            for e in groups[0]:
                key = step.group_of_edge[e]
                out[key] = out.get(key, 0) + n_i
            for e in groups[i]:
                key = step.group_of_edge[e]
                out[key] = out.get(key, 0) - n_i
    out = {k: c for k, c in out.items() if c}
    require_kernel_element(incidence(step.graph), out)
    return out


def connecting_map_image(g: SeparatedGraph, x: Mapping[GroupKey, int]) -> dict[str, int]:
    """Image of the K_1 class of x under the connecting map, over vertices.

    Sum over the positive support of n_X times (source-sum of X minus the
    range vertex of X).  On a bipartite graph the two parts live on
    different layers, so the image is nonzero whenever x is.
    """
    ensure_valid(g)
    if g.bipartite is None:
        raise PreconditionError("connecting map image requires a bipartite graph")
    require_kernel_element(incidence(g), x)
    out: dict[str, int] = {}
    for key, n in positive_part(x).items():
        v, _ = key
        for eid in g.group(key):
            w = g.edge(eid).src
            out[w] = out.get(w, 0) + n
        out[v] = out.get(v, 0) - n
    return {v: c for v, c in out.items() if c}


# the graph monoid's universal group ------------------------------------------


def monoid_universal_group(g: SeparatedGraph) -> AbelianGroupInvariants:
    """Universal group of the graph monoid, presented directly.

    Generators are the vertices; one relation per group X in C_v identifies
    the vertex with the sum of the sources of the edges of X.  This is an
    independent code path that must agree with the K_0 cokernel.
    """
    ensure_valid(g)
    vidx = {v: i for i, v in enumerate(g.vertices)}
    columns = []
    keys = []
    for v in g.vertices:
        for gi, grp in enumerate(g.groups_at(v)):
            col = [0] * len(g.vertices)
            col[vidx[v]] += 1
            for eid in grp:
                col[vidx[g.edge(eid).src]] -= 1
            columns.append(col)
            keys.append((v, gi))
    rows = [[col[i] for col in columns] for i in range(len(g.vertices))]
    return cokernel_invariants(IntMatrix.from_rows(g.vertices, keys, rows))


# characters -------------------------------------------------------------------

UNIT_MODULUS_TOL = 1e-12
RELATION_TOL = 1e-9


@dataclass(frozen=True)
class CharacterAssignment:
    """Unit-modulus complex values on vertices."""

    values: dict[str, complex]

    def __post_init__(self):
        for v, z in self.values.items():
            if abs(abs(z) - 1.0) > UNIT_MODULUS_TOL:
                raise CharacterError(f"value at {v!r} has modulus {abs(z)!r}, not 1")

    def __call__(self, v: str) -> complex:
        return self.values[v]


def character_relation_errors(
    g: SeparatedGraph, values: Mapping[str, complex]
) -> list[tuple[GroupKey, float]]:
    """Deviation of each product relation: |lambda(v) - prod lambda(s(x))|."""
    out = []
    for v in g.vertices:
        for gi, grp in enumerate(g.groups_at(v)):
            prod = 1.0 + 0j
            for eid in grp:
                prod *= values[g.edge(eid).src]
            out.append(((v, gi), abs(values[v] - prod)))
    return out


def extend_character(
    g: SeparatedGraph,
    vertex_set,
    base: CharacterAssignment,
    free: Mapping[str, complex],
) -> CharacterAssignment:
    """Extend a character of the graph across the multiresolution at V.

    The free values, one per W vertex, may be arbitrary unit complexes.
    Vertices with exactly one non-first coordinate are then forced by the
    relation of their distinguished edge's new group, and the all-first
    vertex by the splitting of the base vertex into the generated vertices.
    """
    data = multiresolution_data(g, vertex_set)
    missing = [v for v in g.vertices if v not in base.values]
    if missing:
        raise CharacterError(f"base character misses vertices {missing[:3]}")
    for (v, gi), err in character_relation_errors(g, base.values):
        if err > RELATION_TOL:
            raise CharacterError(
                f"base violates the relation of group {group_label((v, gi))} "
                f"(error {err:.3g})"
            )
    w_set = set(data.w_vertices)
    extra = sorted(set(free) - w_set)
    missing_free = sorted(w_set - set(free))
    if extra:
        raise CharacterError(f"free values given for non-W vertices {extra[:3]}")
    if missing_free:
        raise CharacterError(f"missing free values for W vertices {missing_free[:3]}")
    for name, z in free.items():
        if abs(abs(z) - 1.0) > UNIT_MODULUS_TOL:
            raise CharacterError(f"free value at {name!r} has modulus {abs(z)!r}, not 1")

    values: dict[str, complex] = dict(base.values)
    values.update(free)

    def unit(z: complex) -> complex:
        return z / abs(z)

    for u in data.resolved:
        groups = g.groups_at(u)
        k = len(groups)
        firsts = tuple(grp[0] for grp in groups)
        # One non-first coordinate: forced by the new group of that edge.
        for i in range(k):
            others = groups[:i] + groups[i + 1 :]
            other_firsts = firsts[:i] + firsts[i + 1 :]
            for x in groups[i][1:]:
                prod = 1.0 + 0j
                for comps in itertools.product(*others):
                    if comps == other_firsts:
                        continue
                    tup = comps[:i] + (x,) + comps[i:]
                    prod *= values[generated_vertex_name(u, tup)]
                target = firsts[:i] + (x,) + firsts[i + 1 :]
                values[generated_vertex_name(u, target)] = unit(
                    values[g.edge(x).src] / prod
                )
        # The all-first vertex: the base vertex splits into all tuples.
        prod = 1.0 + 0j
        for tup in itertools.product(*groups):
            if tup == firsts:
                continue
            prod *= values[generated_vertex_name(u, tup)]
        values[generated_vertex_name(u, firsts)] = unit(values[u] / prod)

    return CharacterAssignment(values)
