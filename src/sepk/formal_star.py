"""Symbolic calculus for short words in edges and edge-adjoints.

Expressions are integer combinations of normal words: a vertex v, an edge e,
an adjoint e*, or the length-2 words e f* (same source) and e* f (same
range).  Reduction applies exactly the defining relations of the graph
algebra: vertex words act as mutually orthogonal units, e* f collapses to
delta_{e,f} s(e) when e and f share a group, and a complete sum of e e* over
a group rewrites to the group's range vertex.  Nothing else is ever applied;
in particular e* f across two groups of the same vertex is kept as an
irreducible atom.

Words are capped at length 2: a product whose reduced form would be longer
raises UnsupportedWordError instead of guessing a reduction.

A StarContext memoizes, for its graph, the normal form of each word.
Normalization is linear and idempotent, so an expression normalizes to the
sum of its words' memoized normal forms; the memo only spares repeated work
and adds no reduction rule.  Each word is still checked, once per context,
and a word that fails its check gets no normal form, so it fails again on
every later use.

One table spells each word tag as its letters, edges and adjoints.
Printing, the adjoint, shapes and products all read it or its inverse, so an
unknown tag or a wrong number of ids raises MalformedExpressionError from
every operation.  Beside the normal forms the context keeps the shape of each
well-formed word's value: its end vertices and its letters, none for an e* e
of one group, which is a vertex, and no ends for an e* f of one group, which
is zero.  One kernel, StarContext._multiply_into, multiplies words for both
mul and matmul: it reads both words of each pair it forms by their shapes,
so a malformed factor raises wherever it meets a word, reduces the two only
at their junction, and adds the product's memoized normal form at once.
Products are not memoized: within one context a pair of words seldom
recurs, and a pair memo held memory without saving time.

The module also builds the labeled generator matrices realizing the K_1
class of a kernel element (a row per unit of positive coefficient, a column
per arrow occurrence) and verifies, by formal matrix arithmetic, that they
multiply to the expected vertex diagonals.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from .exact_linalg import _format_grid
from .graph_model import GroupKey, SeparatedGraph, group_label
from .ktheory import (
    format_signed_sum,
    negative_part,
    positive_part,
    require_kernel_element,
)
from .transform import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PreconditionError,
    _decimal,
    ensure_bipartite,
    ensure_valid,
)


class MalformedExpressionError(ValueError):
    """A word refers to unknown ids or composes edges at mismatched vertices."""


class UnsupportedWordError(ValueError):
    """A product left an irreducible word longer than the supported length."""


# Words are tagged tuples:
#   ("v", v)       vertex unit
#   ("e", e)       edge
#   ("a", e)       edge adjoint e*
#   ("ea", e, f)   e f*   (s(e) == s(f))
#   ("ae", e, f)   e* f   (r(e) == r(f), groups differ after normalization)
# _KINDS spells each tag's letters, an edge "E" or an adjoint "A" per id in
# order; a vertex word has none and names its vertex instead.  _TAG is its
# inverse; the other tables are read off the two, so that the hot paths look
# words up instead of building strings:
#   _SIZE      a word's length: the tag, then its ids
#   _STAR_TAG  the adjoint's tag: the letters reversed, edges and adjoints swapped
#   _JOIN      the tag of two letter sequences joined, or None past two letters
#   _PATTERN   the %-format that prints a word's ids, an adjoint with a "*"
Word = tuple
_KINDS = {"v": "", "e": "E", "a": "A", "ea": "EA", "ae": "AE"}
_TAG = {k: t for t, k in _KINDS.items()}
_SIZE = {t: 1 + (len(k) or 1) for t, k in _KINDS.items()}
_STAR_TAG = {t: _TAG[k[::-1].translate(str.maketrans("EA", "AE"))] for t, k in _KINDS.items()}
_JOIN = {k: {m: _TAG.get(k + m) for m in _TAG} for k in _TAG}
_PATTERN = {t: "".join("%s*" if x == "A" else "%s" for x in k) or "%s" for t, k in _KINDS.items()}


def _malformed(word: Word) -> MalformedExpressionError:
    return MalformedExpressionError(f"malformed word {word!r}: unknown tag or wrong arity")


def _too_long(kinds: str, ids: tuple) -> UnsupportedWordError:
    """The refusal of the word of the letters kinds[i] ids[i], over two letters."""
    letters = (_PATTERN[_TAG[k]] % e for k, e in zip(kinds, ids))  # each as its own word
    return UnsupportedWordError("irreducible word of length > 2: " + " ".join(letters))


def word_str(word: Word) -> str:
    try:
        return _PATTERN[word[0]] % word[1:]
    except (KeyError, TypeError):  # an unknown tag, or ids that do not fit it
        raise _malformed(word) from None


@dataclass(frozen=True)
class FormalExpr:
    """An integer combination of words; zero coefficients are dropped."""

    terms: dict[Word, int]

    @classmethod
    def of(cls, items: Mapping[Word, int]) -> "FormalExpr":
        return cls({w: c for w, c in items.items() if c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FormalExpr") -> "FormalExpr":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return FormalExpr.of(out)

    def __sub__(self, other: "FormalExpr") -> "FormalExpr":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return FormalExpr.of(out)

    def __rmul__(self, scalar: int) -> "FormalExpr":
        return FormalExpr.of({w: scalar * c for w, c in self.terms.items()})

    def star(self) -> "FormalExpr":
        flipped = {}
        for w, c in self.terms.items():
            n = len(w)
            if n != _SIZE.get(w[0]):
                raise _malformed(w)
            tag = _STAR_TAG[w[0]]  # the ids reversed: one, or two
            flipped[(tag, w[1]) if n == 2 else (tag, w[2], w[1])] = c
        return FormalExpr(flipped)

    def __str__(self) -> str:
        items = sorted(self.terms.items())  # by word: distinct keys, so never by coefficient
        return format_signed_sum((word_str(w), c) for w, c in items)


ZERO = FormalExpr({})


class StarContext:
    """Reduction rules of a fixed separated graph.

    Per group, the diagonal word of the last member is the eliminated
    representative of the complete-sum relation, so normal forms are unique
    and normalization is a linear projection.
    """

    def __init__(self, g: SeparatedGraph):
        ensure_valid(g)
        self.graph = g
        self.group_of: dict[str, GroupKey] = {}
        for key in g.group_keys():
            for eid in g.group(key):
                self.group_of[eid] = key
        self._normal: dict[Word, tuple[tuple[Word, int], ...]] = {}
        self._shape_of: dict[Word, tuple] = {}

    # constructors ----------------------------------------------------------

    def vertex(self, v: str) -> FormalExpr:
        if not self.graph.has_vertex(v):
            raise MalformedExpressionError(f"unknown vertex {v!r}")
        return FormalExpr({("v", v): 1})

    def edge(self, e: str) -> FormalExpr:
        self._known_edge(e)
        return FormalExpr({("e", e): 1})

    def adjoint(self, e: str) -> FormalExpr:
        self._known_edge(e)
        return FormalExpr({("a", e): 1})

    def _known_edge(self, e: str):
        if not self.graph.has_edge(e):
            raise MalformedExpressionError(f"unknown edge {e!r}")

    # word plumbing ----------------------------------------------------------

    def _shape(self, word: Word) -> tuple:
        """(dom, cod, kinds, ids) of a word's value, memoized on first use.

        The value spells the letters kinds[i] ids[i].  An edge runs from s(e)
        to r(e) and an adjoint back: dom, the source, is the last letter's
        and cod, the range, the first letter's.  An e* e of one group is the
        vertex s(e) and spells no letters; an e* f of one group, e != f, is
        zero, and its ends are None, so it meets no word of nonzero value.
        A malformed word raises MalformedExpressionError and is not
        memoized, so it raises on every use.
        """
        if len(word) != _SIZE.get(word[0]):
            raise _malformed(word)
        kinds, g = _KINDS[word[0]], self.graph
        if not kinds:
            v = word[1]
            if not g.has_vertex(v):
                raise MalformedExpressionError(f"unknown vertex {v!r}")
            shape: tuple = (v, v, kinds, ())
        else:
            ids = word[1:]
            index, edges = g._eindex, g.edges
            for e in ids:
                if e not in index:
                    raise MalformedExpressionError(f"unknown edge {e!r}")
            first, last = edges[index[ids[0]]], edges[index[ids[-1]]]
            cod = first.dst if kinds[0] == "E" else first.src
            dom = last.src if kinds[-1] == "E" else last.dst
            if len(ids) == 2 and (first.src if kinds[0] == "E" else first.dst) != (
                last.dst if kinds[1] == "E" else last.src
            ):
                side = "sources" if kinds[0] == "E" else "ranges"
                what = f"{side} differ, word is not composable"
                raise MalformedExpressionError(f"{word_str(word)}: {what}")
            if kinds == "AE" and self.group_of[ids[0]] == self.group_of[ids[1]]:
                shape = (dom, cod, "", ()) if ids[0] == ids[1] else (None, None, "", ())
            else:
                shape = (dom, cod, kinds, ids)
        self._shape_of[word] = shape
        return shape

    def _word_normal(self, word: Word) -> tuple[tuple[Word, int], ...]:
        """Normal form of one word, checked; memoized once the check passes."""
        dom, _, kinds, _ = self._shape_of.get(word) or self._shape(word)
        if word[0] == "ae" and not kinds:  # e* f of one group: s(e) when e == f, else zero
            out: tuple = () if dom is None else ((("v", dom), 1),)
        elif word[0] == "ea" and word[1] == word[2]:
            # Complete-sum elimination: the diagonal word of the last member
            # of each group rewrites to the range vertex minus the others.
            key = self.group_of[word[1]]
            members = self.graph.group(key)
            if word[1] == members[-1]:
                out = ((("v", key[0]), 1),) + tuple(
                    (("ea", other, other), -1) for other in members[:-1]
                )
            else:
                out = ((word, 1),)
        else:
            out = ((word, 1),)
        self._normal[word] = out
        return out

    # public operations -------------------------------------------------------

    def normalize(self, expr: FormalExpr) -> FormalExpr:
        """Canonical form: SCK1 on each word, then complete-sum elimination.

        Idempotent and linear; raises MalformedExpressionError on words that
        do not compose.
        """
        return FormalExpr.of(self._normal_terms(expr.terms))

    def _normal_terms(
        self, terms: Mapping[Word, int], acc: dict[Word, int] | None = None
    ) -> dict[Word, int]:
        """Add the normal form of terms into acc (a new dict by default)."""
        normal = self._normal
        if acc is None:
            acc = {}
        for word, coef in terms.items():
            nf = normal.get(word)
            if nf is None:
                nf = self._word_normal(word)
            if coef:
                for w, c in nf:
                    acc[w] = acc.get(w, 0) + coef * c
        return acc

    def mul(self, a: FormalExpr, b: FormalExpr) -> FormalExpr:
        """Product in the algebra, normalized."""
        cells: dict[int, dict[Word, int]] = {}
        self._multiply_into(a.terms, ((0, b.terms),), cells)
        return FormalExpr.of(cells.get(0, {}))

    def _multiply_into(
        self,
        left: Mapping[Word, int],
        row: Iterable[tuple[Hashable, Mapping[Word, int]]],
        cells: dict,
    ) -> None:
        """Add the normal form of left * right into cells[j], for each (j, right) of row.

        This is the one place where words are multiplied.  Each pair of
        words is read by its values' shapes, w1's first, so a malformed word
        raises in any pair it is in.  Two values meet where the first one's
        source is the second one's range, and are reduced only at their
        junction; their product, well formed, adds its memoized normal form
        at once.  A zero word, whose ends are None, meets only another zero
        word, and their product is that zero word.  A cell is created once a
        product leaves a word in it.
        """
        shape_of, group_of, normal = self._shape_of, self.group_of, self._normal
        spare: dict[Word, int] = {}
        for j, right in row:
            if not right:
                continue
            acc = cells.get(j, spare)
            for w1, c1 in left.items():
                dom1, _, kinds1, ids1 = shape_of.get(w1) or self._shape(w1)
                for w2, c2 in right.items():
                    dom2, cod2, kinds2, ids2 = shape_of.get(w2) or self._shape(w2)
                    if dom1 != cod2:
                        continue
                    if not kinds1:
                        word = w2
                    elif not kinds2:
                        word = w1
                    elif (
                        kinds1[-1] == "A"
                        and kinds2[0] == "E"
                        and group_of[ids1[-1]] == group_of[ids2[0]]
                    ):
                        if ids1[-1] != ids2[0]:
                            continue  # distinct edges of one group annihilate
                        ids = ids1[:-1] + ids2[1:]
                        word = (_JOIN[kinds1[:-1]][kinds2[1:]],) + ids if ids else ("v", dom2)
                    else:
                        tag, ids = _JOIN[kinds1][kinds2], ids1 + ids2
                        if tag is None:
                            raise _too_long(kinds1 + kinds2, ids)
                        word = (tag,) + ids
                    coef = c1 * c2
                    if coef:
                        nf = normal.get(word)
                        if nf is None:
                            nf = self._word_normal(word)
                        for w, c in nf:
                            acc[w] = acc.get(w, 0) + coef * c
            if acc is spare and spare:
                cells[j] = spare
                spare = {}


# formal matrices -------------------------------------------------------------


@dataclass(frozen=True)
class FormalMatrix:
    """A labeled matrix of formal expressions; absent entries are zero."""

    rows: tuple
    cols: tuple
    entries: dict[tuple[int, int], FormalExpr] = field(repr=False)

    def entry(self, i: int, j: int) -> FormalExpr:
        return self.entries.get((i, j), ZERO)

    def star(self) -> "FormalMatrix":
        return FormalMatrix(
            self.cols,
            self.rows,
            {(j, i): expr.star() for (i, j), expr in self.entries.items()},
        )

    def cells(self) -> list[list[str]]:
        """The rendered entries, row by row."""
        return [[str(self.entry(i, j)) for j in range(len(self.cols))] for i in range(len(self.rows))]

    def format_grid(self) -> str:
        return _format_grid(
            [_label_str(r) for r in self.rows], [_label_str(c) for c in self.cols], self.cells()
        )


def _label_str(label) -> str:
    if isinstance(label, tuple) and label and isinstance(label[0], tuple):  # (group key, ...)
        return "(" + ",".join([group_label(label[0]), *map(str, label[1:])]) + ")"
    return str(label)


def matmul(ctx: StarContext, a: FormalMatrix, b: FormalMatrix) -> FormalMatrix:
    """a b, its entries normalized.

    Pairs of entries are multiplied by row of a, then inner index, then
    column of b, so the first bad pair raises whatever order the entries
    were given in.
    """
    if len(a.cols) != len(b.rows):
        raise ValueError("inner dimensions do not match")
    by_row: dict[int, list[tuple[int, dict[Word, int]]]] = {}
    for (k, j), expr in sorted(b.entries.items()):
        by_row.setdefault(k, []).append((j, expr.terms))
    cells_by_row: dict[int, dict[int, dict[Word, int]]] = {}
    for (i, k), expr in sorted(a.entries.items()):
        row = by_row.get(k)
        if row:
            cells = cells_by_row.get(i)
            if cells is None:
                cells = cells_by_row[i] = {}
            ctx._multiply_into(expr.terms, row, cells)
    # A sum of normal forms is a normal form: normalization is a linear
    # projection, and each word here came out of one, checked.
    entries = {}
    for i, cells in cells_by_row.items():
        for j, terms in cells.items():
            norm = FormalExpr.of(terms)
            if norm.terms:
                entries[(i, j)] = norm
    return FormalMatrix(a.rows, b.cols, entries)


def matrices_equal(ctx: StarContext, a: FormalMatrix, b: FormalMatrix):
    """None when equal, else (position, difference) of the first mismatch."""
    if len(a.rows) != len(b.rows) or len(a.cols) != len(b.cols):
        return ((-1, -1), ZERO)
    ae, be = a.entries, b.entries
    for pos in sorted(ae.keys() | be.keys()):
        left, right = ae.get(pos, ZERO), be.get(pos, ZERO)
        if left.terms == right.terms:
            continue  # the difference is zero before normalizing
        diff = ctx.normalize(left - right)
        if not diff.is_zero:
            return (pos, diff)
    return None


# generator matrices -----------------------------------------------------------

RowLabel = tuple  # (group key, t)
ColLabel = tuple  # (group key, t, source vertex, s)


def _range_of(row: RowLabel) -> str:
    """The range vertex of a row: its group's vertex."""
    return row[0][0]


def _source_of(col: ColLabel) -> str:
    return col[2]


@dataclass(frozen=True)
class GeneratorMatrices:
    """The labeled matrices realizing the K_1 class of a kernel element.

    z collects the positive part (one row per unit of coefficient, one
    column per arrow occurrence; each column holds a single edge), t the
    negative part.  sigma1 and sigma2 are the row and column bijections,
    restricting per range vertex and per source vertex respectively;
    sigma_t is t pulled back along them, and u = z sigma(t)* is the partial
    unitary whose class generates the image of the element.
    """

    graph: SeparatedGraph
    element: dict[GroupKey, int]
    z: FormalMatrix
    t: FormalMatrix
    sigma1: dict[RowLabel, RowLabel]
    sigma2: dict[ColLabel, ColLabel]
    sigma_t: FormalMatrix
    u: FormalMatrix


def _side(g: SeparatedGraph, part: Mapping[GroupKey, int]) -> FormalMatrix:
    """The matrix of one side: a row per unit, a column holding each arrow occurrence.

    Rows run over the used groups in group order; columns over the source
    vertices in layer1 order, then the used groups with an arrow from that
    source, in group order, then t, then the arrows in their group order.
    The column (key, t, w, s) holds its arrow on the row (key, t).
    """
    rows: list[RowLabel] = []
    first_row: dict[GroupKey, int] = {}
    by_source: dict[str, dict[GroupKey, list[str]]] = {}
    for u in g.layer0:
        for i, group in enumerate(g.groups_at(u)):
            n = part.get((u, i), 0)
            if n:
                first_row[(u, i)] = len(rows)
                rows.extend(((u, i), t) for t in range(1, n + 1))
                for eid in group:
                    by_source.setdefault(g.edge(eid).src, {}).setdefault((u, i), []).append(eid)
    cols: list[ColLabel] = []
    entries = {}
    for w in g.layer1:
        for key, arrows in by_source.get(w, {}).items():
            for t in range(1, part[key] + 1):
                row = first_row[key] + t - 1
                for s, eid in enumerate(arrows, start=1):
                    entries[(row, len(cols))] = FormalExpr({("e", eid): 1})
                    cols.append((key, t, w, s))
    return FormalMatrix(tuple(rows), tuple(cols), entries)


def _blocks(labels, block_of):
    out: dict = {}
    for lbl in labels:
        out.setdefault(block_of(lbl), []).append(lbl)
    return out


def _pair_blocks(left, right, block_of, what, rng=None):
    """Blockwise bijection from left to right labels, order-preserving or seeded."""
    lb = _blocks(left, block_of)
    rb = _blocks(right, block_of)
    if set(lb) != set(rb) or any(len(lb[k]) != len(rb[k]) for k in lb):
        raise PreconditionError(f"{what} blocks do not match; element is not balanced")
    out = {}
    for k, ls in lb.items():
        rs = list(rb[k])
        if rng is not None:
            rng.shuffle(rs)
        out.update(zip(ls, rs))
    return out


def _assemble(
    g: SeparatedGraph,
    x: Mapping[GroupKey, int],
    z: FormalMatrix,
    t: FormalMatrix,
    sigma1: dict[RowLabel, RowLabel],
    sigma2: dict[ColLabel, ColLabel],
) -> GeneratorMatrices:
    """The matrices for the given bijections between the sides z and t.

    sigma_t[i1, j1] = t[sigma1(row i1), sigma2(col j1)]: each entry of t goes
    to the row and column that the inverse bijections send its own to.
    """
    ctx = StarContext(g)
    row_of = {sigma1[r]: i1 for i1, r in enumerate(z.rows)}
    col_of = {sigma2[c]: j1 for j1, c in enumerate(z.cols)}
    entries = {
        (row_of[t.rows[i]], col_of[t.cols[j]]): expr for (i, j), expr in t.entries.items()
    }
    sigma_t = FormalMatrix(z.rows, z.cols, dict(sorted(entries.items())))
    u = matmul(ctx, z, sigma_t.star())
    return GeneratorMatrices(g, dict(x), z, t, dict(sigma1), dict(sigma2), sigma_t, u)


def build_generator_matrices(
    g: SeparatedGraph, x: Mapping[GroupKey, int], seed: int | None = None
) -> GeneratorMatrices:
    """Generator matrices of a nonzero kernel element on a bipartite graph.

    The row bijection pairs the positive and negative units over each range
    vertex, the column bijection pairs arrow occurrences over each source
    vertex; by default both are order-preserving on the canonically sorted
    labels, and a seed requests a random (but still blockwise) choice, which
    must leave all verification identities intact.
    """
    ensure_bipartite(g, "generator matrices require a bipartite graph")
    require_kernel_element(g, x)
    if not any(x.values()):
        raise PreconditionError("the zero element has no generator")
    parts = positive_part(x), negative_part(x)
    for name, part in zip("ZT", parts):  # a row per unit, a column per arrow occurrence
        cols = sum(n * len(g.group(key)) for key, n in part.items())
        if cols > DEFAULT_BUDGET:  # every group holds an edge, so rows <= cols
            raise BudgetExceededError(
                f"generator matrix {name} would have {_decimal(sum(part.values()))} rows and "
                f"{_decimal(cols)} columns (budget {DEFAULT_BUDGET})", 0,
            )
    z, t = (_side(g, part) for part in parts)
    rng = random.Random(seed) if seed is not None else None
    sigma1 = _pair_blocks(z.rows, t.rows, _range_of, "row", rng)
    sigma2 = _pair_blocks(z.cols, t.cols, _source_of, "column", rng)
    return _assemble(g, x, z, t, sigma1, sigma2)


# verification -----------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        return ("ok   " if self.ok else "FAIL ") + self.name + (
            f": {self.detail}" if self.detail else ""
        )


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]
    range_class: dict[str, int]
    source_class: dict[str, int]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def _vertex_diag(ctx: StarContext, labels, vertex_of) -> FormalMatrix:
    entries = {
        (i, i): ctx.vertex(vertex_of(lbl)) for i, lbl in enumerate(labels)
    }
    return FormalMatrix(tuple(labels), tuple(labels), entries)


def _class_counts(labels, vertex_of) -> dict[str, int]:
    return dict(Counter(map(vertex_of, labels)))


def verify_partial_unitary(gm: GeneratorMatrices) -> VerificationReport:
    """Check the defining identities of the generator matrices symbolically.

    All products are reduced with the graph relations only; each check
    reports the first offending position and its irreducible residue.
    """
    ctx = StarContext(gm.graph)
    z, t, st, u = gm.z, gm.t, gm.sigma_t, gm.u

    def grams(m):
        """M M* and M* M, with the adjoint formed once."""
        adj = m.star()
        return matmul(ctx, m, adj), matmul(ctx, adj, m)

    zz, zsz = grams(z)
    tt, tst = grams(t)
    ss, sst = grams(st)
    uu, usu = grams(u)

    checks = []

    def add_equality(name, a, b):
        mismatch = matrices_equal(ctx, a, b)
        if mismatch is None:
            checks.append(Check(name, True))
        else:
            (i, j), diff = mismatch
            pos = "shape" if i < 0 else f"({_label_str(a.rows[i])}, {_label_str(a.cols[j])})"
            checks.append(Check(name, False, f"at {pos}: residue {diff}"))

    add_equality("ZZ* is the range-vertex diagonal", zz, _vertex_diag(ctx, zz.rows, _range_of))
    add_equality("Z*Z is the source-vertex diagonal", zsz, _vertex_diag(ctx, zsz.rows, _source_of))
    add_equality("TT* is the range-vertex diagonal", tt, _vertex_diag(ctx, tt.rows, _range_of))
    add_equality("T*T is the source-vertex diagonal", tst, _vertex_diag(ctx, tst.rows, _source_of))
    add_equality("ZZ* = sig(T)sig(T)*", zz, ss)
    add_equality("Z*Z = sig(T)*sig(T)", zsz, sst)
    # u is square over the rows of z; both uu* and u*u must collapse to the
    # same range-vertex diagonal, witnessing a formal partial unitary.
    add_equality("UU* = ZZ*", uu, zz)
    add_equality("U*U = UU*", usu, uu)

    # Classwise agreement of the two sides (same multiset of diagonal
    # vertices per block), which is what the row/column balance asserts.
    range_class = _class_counts(z.rows, _range_of)
    source_class = _class_counts(z.cols, _source_of)
    for name, t_class, z_class in (
        ("TT* class matches ZZ* class", _class_counts(t.rows, _range_of), range_class),
        ("T*T class matches Z*Z class", _class_counts(t.cols, _source_of), source_class),
    ):
        same = t_class == z_class
        checks.append(Check(name, same, "" if same else f"{t_class} != {z_class}"))

    return VerificationReport(tuple(checks), range_class, source_class)
