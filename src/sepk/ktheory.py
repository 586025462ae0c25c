"""K-theory of separated graph algebras and their tame quotients.

The K-groups of the algebra of a finitely separated graph are the cokernel
and kernel of the integer map sending the basis vector of a group X in C_v
to delta_v minus the sum, with multiplicity, of the source vertices of the
edges of X.  The tame quotient keeps the same K_1, and its K_0 gains one
free summand per W vertex of the canonical sequence; this module reports
those ranks layer by layer (an exact truncation of the full answer).

Also here: the kernel transport Phi along a canonical step, which makes no
layer, the connecting-map image certifying that nonzero kernel classes stay
nonzero, the graph monoid's universal group (an independent presentation of
K_0), and the character extension across a multiresolution, which reads the
generated vertices off the groups and roots of the step that made them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .exact_linalg import AbelianGroupInvariants, ColumnReduction, IntMatrix, _smith_cokernel
from .graph_model import GroupKey, SeparatedGraph, group_label
from .transform import (
    DEFAULT_BUDGET,
    MultiresolutionData,
    PreconditionError,
    _step_groups,
    bipartite_companion,
    ensure_bipartite,
    ensure_valid,
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


@dataclass(frozen=True, eq=False)
class IncidencePair:
    """The incidence of a graph, from the group basis to the vertex basis.

    Rows are vertices in list order; columns are group keys in vertex-then-
    group order.  columns[j] maps row indices to the nonzero entries of
    column j of the difference, which is all the K-group computations read;
    difference() wraps them, and one marks the range vertex of each group.
    """

    vertices: tuple[str, ...]
    cols: tuple[GroupKey, ...]
    columns: tuple[dict[int, int], ...]

    @cached_property
    def one(self) -> IntMatrix:
        row = {v: i for i, v in enumerate(self.vertices)}
        return IntMatrix._of_columns(self.vertices, self.cols, [{row[v]: 1} for v, _ in self.cols])

    def difference(self) -> IntMatrix:
        return IntMatrix._of_columns(self.vertices, self.cols, self.columns)

    def reduction(self) -> ColumnReduction:
        """The unit-pivot elimination of the difference, shared by K_0 and K_1."""
        return ColumnReduction(len(self.vertices), self.columns)


def incidence(g: SeparatedGraph) -> IncidencePair:
    ensure_valid(g)
    src = g._src
    columns = []
    for i, groups in enumerate(g._groups):
        for grp in groups:
            col = {i: 1}
            for s in map(src.__getitem__, grp):
                col[s] = col.get(s, 0) - 1
            if not col[i]:  # as many edges of the group leave v as it has: no entry
                del col[i]
            columns.append(col)
    return IncidencePair(g.vertices, g.group_keys(), tuple(columns))


# kernel elements ------------------------------------------------------------

KernelElement = dict[GroupKey, int]


def element_residual(g: SeparatedGraph, x: Mapping[GroupKey, int]) -> dict[str, int]:
    """(1_C - A)x over g.vertices: +c at v and -c at s(e) for each edge e of the group."""
    residual = [0] * len(g.vertices)
    src, vget = g._src, g._vindex.get
    for key, coef in x.items():
        v, i = key
        at = vget(v)
        groups = () if at is None else g._groups[at]
        if i not in range(len(groups)):
            raise PreconditionError(f"unknown group {group_label(key)}")
        if coef:
            residual[at] += coef
            for s in map(src.__getitem__, groups[i]):
                residual[s] -= coef
    return dict(zip(g.vertices, residual))


def require_kernel_element(g: SeparatedGraph, x: Mapping[GroupKey, int]) -> None:
    ensure_valid(g)
    residual = element_residual(g, x)
    if any(residual.values()):
        raise NotInKernelError(residual)


def positive_part(x: Mapping[GroupKey, int]) -> dict[GroupKey, int]:
    return {k: c for k, c in x.items() if c > 0}


def negative_part(x: Mapping[GroupKey, int]) -> dict[GroupKey, int]:
    """Coefficients of the negated negative support (all positive)."""
    return {k: -c for k, c in x.items() if c < 0}


def format_signed_sum(items) -> str:
    """Render (label, nonzero coefficient) pairs, in order, as "a - 2 b + c"."""
    parts = []
    for i, (lbl, c) in enumerate(items):
        term = lbl if abs(c) == 1 else f"{abs(c)} {lbl}"
        sign = "-" if c < 0 else ("+" if i else "")
        parts.append(f"{sign} {term}".strip() if i else f"{sign}{term}")
    return " ".join(parts) if parts else "0"


def format_element(x: Mapping[GroupKey, int], names: Mapping[GroupKey, str] | None = None) -> str:
    names = names or {}
    return format_signed_sum(sorted((names.get(k, group_label(k)), c) for k, c in x.items() if c))


# K-groups -------------------------------------------------------------------


@dataclass(frozen=True)
class KGroups:
    """K_0 invariants and a canonical basis of the free group K_1."""

    k0: AbelianGroupInvariants
    k1_basis: tuple[KernelElement, ...]

    @property
    def k1_rank(self) -> int:
        return len(self.k1_basis)


def k_groups_full(g: SeparatedGraph) -> KGroups:
    """K-groups of the (untamed) graph algebra: cokernel and kernel."""
    pair = incidence(g)
    k0, basis = pair.reduction().cokernel_and_kernel()
    return KGroups(k0, tuple({key: c for key, c in zip(pair.cols, vec) if c} for vec in basis))


# K_1 of the tame algebra: the projection is a K_1-isomorphism, so the
# untamed answer is the tame one for every finitely separated graph.
k1_tame = k_groups_full


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
    truncated = True  # a class constant, not a field

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
    routing.  The ranks are counted first, so a depth past the budget is
    refused before the base cokernel is eliminated.
    """
    via_companion = g.bipartite is None
    h = bipartite_companion(g) if via_companion else g
    ranks = w_set_sizes(h, depth, budget)
    return TameK0Result(incidence(g).reduction().cokernel(), ranks, depth, via_companion)


# kernel transport across a canonical step -----------------------------------


def phi_transport(g: SeparatedGraph, x: Mapping[GroupKey, int]) -> KernelElement:
    """Transport a kernel element to the next canonical layer.

    With the coefficient n_i at the i-th group of C_u read off x, the image
    puts -n_i on the group X(e) of each edge e of that group (for the first,
    the sum of the other n_i).  It is a kernel element of the next layer: its
    residual is zero at each tuple, and at each source, where it is checked,
    so no layer is made.  The transport of a basis is again a basis.
    """
    ensure_bipartite(g, "kernel transport requires a bipartite graph")
    require_kernel_element(g, x)
    key = _step_groups(g)
    out = {key[e]: -c for (u, i), c in x.items() if c for e in g.groups_at(u)[i]}
    residual = dict.fromkeys(g.layer1, 0)
    for (s, _), c in out.items():
        residual[s] += c
    if any(residual.values()):
        raise NotInKernelError(residual)
    return out


def connecting_map_image(g: SeparatedGraph, x: Mapping[GroupKey, int]) -> dict[str, int]:
    """-(1_C - A)(x+) over the vertices, for a kernel element x: what `delta` prints.

    Minus the residual of x's positive part: n_X times (source-sum of X
    minus the range vertex of X), summed over the groups with n_X > 0.  It
    equals the vertex classes of Z*Z minus those of ZZ* for x's K_1
    generator (VerificationReport's source_class minus its range_class).
    It is not the image of x's K_1 class under a group homomorphism: x+ and
    x- have the same residual, since (1_C - A)x = 0, so x and -x give the
    same value, and it is not additive.  On a bipartite graph the two parts
    live on different layers, so the value is nonzero whenever x is.
    """
    ensure_bipartite(g, "connecting map image requires a bipartite graph")
    require_kernel_element(g, x)
    return {v: -c for v, c in element_residual(g, positive_part(x)).items() if c}


# the graph monoid's universal group ------------------------------------------


def monoid_universal_group(g: SeparatedGraph) -> AbelianGroupInvariants:
    """Universal group of the graph monoid, presented directly.

    Generators are the vertices; one relation per group X in C_v identifies
    the vertex with the sum of the sources of the edges of X.  One dense
    Smith elimination, with no sparse unit pivoting, makes this a check of
    the K_0 cokernel independent of ColumnReduction.
    """
    ensure_valid(g)
    vidx = g.vertex_index
    relations = [(v, grp) for v, groups in zip(g.vertices, g.separation) for grp in groups]
    a = [[0] * len(relations) for _ in g.vertices]
    for j, (v, grp) in enumerate(relations):
        a[vidx(v)][j] += 1
        for eid in grp:
            a[vidx(g.edge(eid).src)][j] -= 1
    return _smith_cokernel(a, len(a), len(relations))


# characters -------------------------------------------------------------------

UNIT_MODULUS_TOL = 1e-12
RELATION_TOL = 1e-9


def _require_unit(what: str, z: complex) -> None:
    if not abs(abs(z) - 1.0) <= UNIT_MODULUS_TOL:  # NaN fails too
        raise CharacterError(f"{what} has modulus {abs(z)!r}, not 1")


@dataclass(frozen=True)
class CharacterAssignment:
    """Unit-modulus complex values on vertices."""

    values: dict[str, complex]

    def __post_init__(self):
        for v, z in self.values.items():
            _require_unit(f"value at {v!r}", z)

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
    A vertex with exactly one non-first coordinate x is then forced by the
    relation of X(x), whose first arrow leaves it, and the all-first vertex,
    the first of its base's tuples, by the splitting of the base vertex.
    Each product runs over the other vertices in tuple order.
    """
    return _extend_character_with_data(g, vertex_set, base, free)[0]


def _extend_character_with_data(
    g: SeparatedGraph,
    vertex_set,
    base: CharacterAssignment,
    free: Mapping[str, complex],
) -> tuple[CharacterAssignment, MultiresolutionData]:
    """extend_character's assignment together with the multiresolution it built."""
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
        _require_unit(f"free value at {name!r}", z)

    values: dict[str, complex] = dict(base.values)
    values.update(free)

    def force(at: str, first: str, *rest: str) -> None:
        """Set first's value so that values[at] is the product over first and rest."""
        z = values[at] / math.prod(map(values.__getitem__, rest), start=1.0 + 0j)
        values[first] = z / abs(z)

    step = data.step
    tuples: dict[str, list[str]] = {}  # per resolved vertex, its tuples in tuple order
    for v, u in step.root.items():
        tuples.setdefault(u, []).append(v)
    # One non-first coordinate x: the first arrow of X(x), a group at s(x), leaves it.
    for u in tuples:
        for grp in g.groups_at(u):
            for x in grp[1:]:
                key = step.group_of_edge[x]
                force(key[0], *(step.graph.edge(a).src for a in step.graph.group(key)))
    # The all-first tuple, u's first: the base vertex splits into all its tuples.
    for u, vs in tuples.items():
        force(u, *vs)

    return CharacterAssignment(values), data
