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

Normalization is linear and idempotent, and a checked word's normal form is
read off its tag and ids: an e* f of one group is s(e) when e = f and zero
otherwise, the diagonal e e* of a group's last member is the group's range
vertex minus the other members' diagonals, and every other word is its own
normal form.  A word's shape, its value's end vertices and the kinds of its
letters, is read off the word and the graph each time the word is read.  A
StarContext keeps on its graph only each edge's group key and the rewrite of
each group's last member, tables that refer to no context and no graph; no
word is remembered, so a malformed word raises on every use.  One table
spells each word tag as its letters, and printing, the adjoint, shapes and
products all read it, so an unknown tag, no tag or a wrong number of ids
raises MalformedExpressionError from every operation.

Words are multiplied on two paths that apply the same relations and leave
the same cells in the same order, and one rule picks the path.  A side, Z, T
or sigma(T), is a row and an edge per column (_monomial), and keeps the
graph its rows are clean on, as the build makes them: each row holds one
group's edges, each once, so that e* f = 0 for two distinct columns of a
row.  On that graph a side is multiplied from its lists (_side_grams), and
so is U where Z and sigma(T) both kept it (_unitary_grams); U = Z sigma(T)*
is formed from the lists (_assemble).  Every other matrix goes through the
kernel StarContext._multiply_into, as mul does: m m* and m* m from m and
m*, each read once (_read) into a list per row of cells (position, words),
each word with its coefficient and shape.  The kernel forms pairs by row,
inner index, right position, left word and right word, and reduces each
only at its junction.  So it raises at the first pair that holds a
malformed word, the left one checked first, or leaves a word of over two
letters.  Zero terms, and the cells they empty, are dropped as each row
closes.  Products are not memoized: within one product a pair of words
seldom recurs.

The module also builds the labeled generator matrices realizing the K_1
class of a kernel element (a row per unit of positive coefficient, a column
per arrow occurrence) and verifies symbolically that they multiply to the
expected vertex diagonals.  A check compares each product's cells
{i: {j: terms}}, row by row as they are formed, with the expected side's:
both are normal forms with no zero term, so they are equal exactly when
their values are.  A failing check names the first cell, in position order,
where they differ, with their difference there as its residue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, Mapping

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


def _eliminate(acc: dict, rewrite: tuple, coef: int) -> None:
    """Add coef times a group's last diagonal word, as its rewrite (vertex word, other members)."""
    vertex, others = rewrite
    acc[vertex] = acc.get(vertex, 0) + coef
    for e in others:
        w = ("ea", e, e)
        acc[w] = acc.get(w, 0) - coef


def _add(acc: dict, rewrite: Mapping, word: Word, coef: int) -> None:
    """Add coef times a word's normal form: itself, or a group's last diagonal word's rewrite."""
    nf = rewrite.get(word[1]) if word[0] == "ea" and word[1] == word[2] else None
    if nf is None:
        acc[word] = acc.get(word, 0) + coef
    else:
        _eliminate(acc, nf, coef)


def _close(out: dict, i: int, cells: dict) -> None:
    """Put row i's cells into out, their zero terms dropped and so the cells they leave empty."""
    for j in [j for j, acc in cells.items() if 0 in acc.values()]:
        cells[j] = {w: c for w, c in cells[j].items() if c}
        if not cells[j]:
            del cells[j]
    if cells:
        out[i] = cells


def word_str(word: Word) -> str:
    try:
        return _PATTERN[word[0]] % word[1:]
    except (KeyError, TypeError, IndexError):  # an unknown tag or none, or ids that do not fit it
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
            if n != _SIZE.get(w and w[0]):
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
    and normalization is a linear projection.  The two tables, group_of and
    the last members' rewrites, are made once per graph, by the first
    context on it, and kept on it as _formal; they refer to no context and
    no graph, so keeping them makes no reference cycle.
    """

    def __init__(self, g: SeparatedGraph):
        ensure_valid(g)
        self.graph = g
        # each edge's group key; by each group's last member, the range
        # vertex's word and the other members of its group
        tables = g.__dict__.get("_formal")
        if tables is None:
            keys = [((v, i), group) for v, groups in zip(g.vertices, g.separation)
                    for i, group in enumerate(groups)]
            group_of = {eid: key for key, group in keys for eid in group}
            # Complete-sum elimination: the diagonal word of a group's last
            # member is the range vertex minus the other members' diagonals.
            rewrite = {group[-1]: (("v", key[0]), group[:-1]) for key, group in keys}
            tables = (group_of, rewrite)
            object.__setattr__(g, "_formal", tables)
        self.group_of, self._rewrite = tables

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
        """(dom, cod, kinds) of a word's value, read off the word and the graph.

        The value spells the letters kinds[i] word[1 + i], so a shape holds
        no tuple of ids.  An edge runs from s(e) to r(e) and an adjoint
        back: dom, the source, is the last letter's and cod, the range, the
        first letter's.  An e* e of one group is the vertex s(e) and spells
        no letters; an e* f of one group, e != f, is zero, and its ends are
        None, so it meets no word of nonzero value.  A malformed word raises
        MalformedExpressionError.
        """
        if len(word) != _SIZE.get(word and word[0]):  # an empty word has no tag
            raise _malformed(word)
        kinds, g = _KINDS[word[0]], self.graph
        if not kinds:
            v = word[1]
            if v not in g._vindex:
                raise MalformedExpressionError(f"unknown vertex {v!r}")
            return (v, v, kinds)
        index, edges = g._eindex, g.edges
        try:  # the first id, then the last
            first, last = edges[index[word[1]]], edges[index[word[-1]]]
        except KeyError as exc:
            raise MalformedExpressionError(f"unknown edge {exc.args[0]!r}") from None
        cod = first.dst if kinds[0] == "E" else first.src
        dom = last.src if kinds[-1] == "E" else last.dst
        if len(kinds) == 2:
            if (first.src if kinds[0] == "E" else first.dst) != (
                last.dst if kinds[1] == "E" else last.src
            ):
                side = "sources" if kinds[0] == "E" else "ranges"
                what = f"{side} differ, word is not composable"
                raise MalformedExpressionError(f"{word_str(word)}: {what}")
            if kinds == "AE" and self.group_of[word[1]] == self.group_of[word[2]]:
                return (dom, cod, "") if word[1] == word[2] else (None, None, "")
        return (dom, cod, kinds)

    # public operations -------------------------------------------------------

    def normalize(self, expr: FormalExpr) -> FormalExpr:
        """Canonical form: SCK1 on each word, then complete-sum elimination.

        Idempotent and linear; raises MalformedExpressionError on words that
        do not compose.
        """
        rewrite, acc = self._rewrite, {}
        for word, coef in expr.terms.items():
            dom, _, kinds = self._shape(word)
            if not coef or dom is None:  # dom is None for an e* f of one group, e != f: zero
                continue
            if word[0] == "ae" and not kinds:  # e* e of one group: the vertex s(e)
                word = ("v", dom)
            _add(acc, rewrite, word, coef)
        return FormalExpr.of(acc)

    def mul(self, a: FormalExpr, b: FormalExpr) -> FormalExpr:
        """Product in the algebra, normalized: the kernel's product of a and b as 1 x 1 matrices."""
        out = self._multiply_into(self._read((((0, 0), a),)), self._read((((0, 0), b),)), {})
        return FormalExpr(out.get(0, {}).get(0, {}))

    def _read(self, entries: Iterable[tuple[tuple[int, int], FormalExpr]]) -> dict[int, list]:
        """The rows of a matrix from its ((i, k), expression) pairs in sorted order.

        Row i lists a cell (k, [(word, coefficient, shape), ...]) per entry
        that holds a word.  Each word's shape is read once; a malformed
        word's is None, and it raises only where a product pairs it.
        """
        shape = self._shape
        rows: dict[int, list] = {}
        for (i, k), expr in entries:
            words = []
            for w, c in expr.terms.items():
                try:
                    words.append((w, c, shape(w)))
                except MalformedExpressionError:
                    words.append((w, c, None))
            if words:
                (rows.get(i) or rows.setdefault(i, [])).append((k, words))
        return rows

    def _multiply_into(
        self, left: Mapping[int, list], right: Mapping[int, list], out: dict
    ) -> dict[int, dict[int, dict[Word, int]]]:
        """Add the normal form of row i of left times right into out[i][j], and return out.

        left and right hold the rows of the two factors, read by _read.
        Pairs are formed by row, then inner index k, then right position j,
        then left word, then right word, so each cell receives its terms in
        (k, left word, right word) order.  A word meets the right words whose
        value's range is its value's source; the pair is reduced only at its
        junction and adds its normal form at once, which is the product
        itself unless it is a group's last diagonal word, or a vertex-like
        word times an e* e of one group, which is s(e).  A zero word (ends
        None) meets no other word, and e* f = 0 for distinct edges of one
        group.  The first pair in that order that holds a malformed word,
        the left one checked first, or leaves a word of over two letters
        raises.  As a row closes, zero terms and the cells they empty are
        dropped.
        """
        group_of, rewrite = self.group_of, self._rewrite
        for i in sorted(left):
            cells: dict[int, dict[Word, int]] = {}
            for k, words1 in left[i]:
                for j, words2 in right.get(k, ()):
                    for w1, c1, shape1 in words1:
                        if shape1 is None:
                            self._shape(w1)  # raises: the word is malformed
                        dom1, _, kinds1 = shape1
                        for w2, c2, shape2 in words2:
                            if shape2 is None:
                                self._shape(w2)  # raises likewise
                            dom2, cod2, kinds2 = shape2
                            if dom1 != cod2 or dom1 is None:
                                continue
                            if not kinds1:  # w2, or s(e) where w2 is an e* e of one group
                                word = w2 if kinds2 or w2[0] != "ae" else ("v", dom2)
                            elif not kinds2:
                                word = w1
                            elif (
                                kinds1[-1] == "A"
                                and kinds2[0] == "E"
                                and group_of[w1[-1]] == group_of[w2[1]]
                            ):
                                if w1[-1] != w2[1]:
                                    continue  # distinct edges of one group annihilate
                                ids = w1[1:-1] + w2[2:]
                                word = (_JOIN[kinds1[:-1]][kinds2[1:]],) + ids if ids else ("v", dom2)
                            else:
                                tag = _JOIN[kinds1][kinds2]
                                if tag is None:
                                    raise _too_long(kinds1 + kinds2, w1[1:] + w2[1:])
                                word = (tag, w1[1], w2[1])  # two words of one letter each
                            coef = c1 * c2
                            if coef:
                                _add(cells.get(j) or cells.setdefault(j, {}), rewrite, word, coef)
            _close(out, i, cells)
        return out


# formal matrices -------------------------------------------------------------


@dataclass(frozen=True)
class FormalMatrix:
    """A labeled matrix of formal expressions; absent entries are zero.

    A side (_monomial) keeps the word ("e", edge[j]) of column j on row
    at[j] as two lists until its entries are first read, and the graph its
    rows are clean on, or None; a U that _assemble formed from two sides that
    kept its graph keeps their lists and its kept columns (_unitary_grams).
    """

    rows: tuple
    cols: tuple
    entries: dict[tuple[int, int], FormalExpr] = field(repr=False)

    def __getattr__(self, name: str):  # called for names not found: a side's unmade entries
        arrays = self.__dict__.pop("_arrays", None) if name == "entries" else None
        if arrays is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        at, edge, by_row, _ = arrays
        order = sorted(range(len(at)), key=at.__getitem__) if by_row else range(len(at))
        entries = {(at[j], j): FormalExpr({("e", edge[j]): 1}) for j in order}
        object.__setattr__(self, "entries", entries)
        return entries

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


def _matrix(rows: tuple, cols: tuple, cells: Mapping[int, dict]) -> FormalMatrix:
    """The matrix of the kernel's cells {i: {j: terms}}, each a normal form with no zero term."""
    return FormalMatrix(rows, cols, {
        (i, j): FormalExpr(terms) for i, row in cells.items() for j, terms in row.items()
    })


def _grams(ctx: StarContext, m: FormalMatrix) -> tuple[tuple[int, Iterable], ...]:
    """(size, rows) of m m* and m* m, each yielding its cells (i, {j: terms}) by ascending i.

    A clean side on ctx's graph, one that kept it (_monomial), is multiplied
    from its lists (_side_grams), and so is a U whose lists are on ctx's
    graph (_unitary_grams).  Any other matrix goes through the kernel from
    m's entries and m*'s; a word with no adjoint raises as forming m* does.
    """
    arrays, lists = m.__dict__.get("_arrays"), m.__dict__.get("_lists")
    if arrays and arrays[3] is ctx.graph:
        grams = _side_grams(ctx, *arrays[:2])
    elif lists and lists[5] is ctx.graph:
        grams = _unitary_grams(ctx, *lists[:5])
    else:
        rows = ctx._read(sorted(m.entries.items()))
        cols = ctx._read(sorted(m.star().entries.items()))
        mm, msm = ctx._multiply_into(rows, cols, {}), ctx._multiply_into(cols, rows, {})
        grams = mm.items(), msm.items()
    return (len(m.rows), grams[0]), (len(m.cols), grams[1])


def _sums(
    rewrite: Mapping, order: Iterable[int], at: list, to: list, left: list, right: list
) -> dict:
    """The kernel's cells of the sum of left[j] right[j]* at (at[j], to[j]) over j in order.

    Rows run ascending, cells and terms in the order first given; e e* of a
    group's last member is rewritten by complete sum, and zero terms dropped.
    """
    rows, out = {}, {}
    for j in order:
        row = rows.get(i := at[j]) or rows.setdefault(i, {})
        acc = row.get(k := to[j]) or row.setdefault(k, {})
        e, f = left[j], right[j]
        nf = rewrite.get(e) if e == f else None
        if nf is None:
            w = ("ea", e, f)
            acc[w] = acc.get(w, 0) + 1
        else:
            _eliminate(acc, nf, 1)
    for i in sorted(rows):
        _close(out, i, rows[i])
    return out


def _side_grams(ctx: StarContext, at: list, edge: list) -> tuple[Iterable, Iterable]:
    """The rows of m m* and m* m for the clean side m with edge[j] on row at[j], as the kernel's.

    Row i of m m* is the sum of e e* over the row's edges at (i, i).  Each row
    holds one group's edges, each once, so e* f = 0 for two distinct columns
    of a row, and row j of m* m, formed as it is read, is s(e) at (j, j).
    """
    g = ctx.graph
    index, edges = g._eindex, g.edges

    def columns():
        unit = {}  # one terms dict per vertex word
        for j, e in enumerate(edge):
            v = edges[index[e]].src
            yield j, {j: unit.get(v) or unit.setdefault(v, {("v", v): 1})}

    return _sums(ctx._rewrite, range(len(at)), at, at, edge, edge).items(), columns()


def _unitary_grams(ctx: StarContext, z_at: list, z_edge: list, at: list, edge: list, kept):
    """The rows of U U* and U* U for U = Z sigma(T)*, from the clean sides Z's and sigma(T)'s lists.

    U holds e f* at (Z's row, sigma(T)'s row) of each kept column (_kept).
    A row of sigma(T) holds one group's edges, each once, so f* f' of two of
    its columns is s(f) = s(e) if they are one and zero otherwise: U U* is
    the diagonal of e e* on Z's rows, summed in the kernel's order (by
    sigma(T)'s row, then column); symmetrically U* U is that of f f* on
    sigma(T)'s.
    """
    rewrite = ctx._rewrite
    return (_sums(rewrite, sorted(kept, key=at.__getitem__), z_at, z_at, z_edge, z_edge).items(),
            _sums(rewrite, sorted(kept, key=z_at.__getitem__), at, at, edge, edge).items())


def _kept(g: SeparatedGraph, left: list, right: list) -> list | range:
    """The columns j where the edges left[j] and right[j] share their source, a range if all do.

    U keeps them for its Gram products, and a range holds no int per column.
    """
    index, src = g._eindex, g._src
    kept = [j for j, (e, f) in enumerate(zip(left, right)) if src[index[e]] == src[index[f]]]
    return range(len(left)) if len(kept) == len(left) else kept


def _first_mismatch(formed: Iterable[tuple[int, dict]], want, wanted: range | Mapping):
    """The first position where a product's rows and the wanted ones differ, and the difference.

    formed yields the product's cells (i, {j: terms}) by ascending i, each
    compared as it comes; want(i) is the wanted row i or None, and wanted
    lists the rows where it is not None, ascending.  None if they are equal.
    """
    rest = iter(wanted)
    due = next(rest, None)  # the next wanted row
    for i, row in formed:
        if due is not None and due < i:  # never formed
            break
        if due == i:
            due = next(rest, None)
        other = want(i) or {}
        if row != other:
            j = min(j for j in row.keys() | other.keys() if row.get(j) != other.get(j))
            return (i, j), FormalExpr(row.get(j, {})) - FormalExpr(other.get(j, {}))
    if due is not None:
        other = want(due)
        j = min(other)
        return (due, j), ZERO - FormalExpr(other[j])


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

    z collects the positive part (a row per unit of coefficient, a column
    per arrow occurrence, each column a single edge: a side, _monomial), t
    the negative part.  sigma1 and sigma2 are the row and column bijections,
    restricting per range vertex and per source vertex respectively; the
    side sigma_t is t pulled back along them, and u = z sigma(t)*, given by
    its entries, is the partial unitary generating the element's image.
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
    The column (key, t, w, s) holds its arrow on the row (key, t) (_monomial):
    a valid g lists each edge in one group, so each row holds one group's
    edges, each once, and the side keeps g.
    """
    rows: list[RowLabel] = []
    first_row: dict[GroupKey, int] = {}
    by_source: dict[int, dict[GroupKey, list[str]]] = {}  # by source vertex index
    src, eindex, vindex = g._src, g._eindex, g._vindex
    for u in g.layer0:
        for i, group in enumerate(g.groups_at(u)):
            n = part.get((u, i), 0)
            if n:
                first_row[(u, i)] = len(rows)
                rows.extend(((u, i), t) for t in range(1, n + 1))
                for eid in group:
                    by_source.setdefault(src[eindex[eid]], {}).setdefault((u, i), []).append(eid)
    cols: list[ColLabel] = []
    at, edge = [], []  # by column: its row, its edge
    for w in g.layer1:
        for key, arrows in by_source.get(vindex[w], {}).items():
            for t in range(1, part[key] + 1):
                row = first_row[key] + t - 1
                for s, eid in enumerate(arrows, start=1):
                    at.append(row)
                    edge.append(eid)
                    cols.append((key, t, w, s))
    return _monomial(g, tuple(rows), tuple(cols), at, edge)


def _monomial(
    g: SeparatedGraph, rows: tuple, cols: tuple, at: list, edge: list, by_row=False
) -> FormalMatrix:
    """The side with edge[j] on row at[j]; its entries run by column, or sorted by_row.

    g is the graph the side's rows are clean on, each holding one group's
    edges, each once, or None; the caller vouches for it, and only on that
    graph are the side's products formed from its lists.
    """
    m = object.__new__(FormalMatrix)
    m.__dict__.update(rows=rows, cols=cols, _arrays=(at, edge, by_row, g))
    return m


def _pair(left: tuple, right: tuple, block_of, rng: random.Random | None) -> dict:
    """The blockwise bijection zipping left's labels with right's; rng shuffles right's runs.

    _side lists rows by layer0 vertex and columns by layer1 vertex, so each
    side's blocks are runs of its labels; a kernel element balances every
    block (require_kernel_element), so the runs of both sides come in one
    order and of equal sizes.
    """
    if rng is not None:
        runs = [list(run) for _, run in groupby(right, block_of)]
        for run in runs:
            rng.shuffle(run)
        right = [label for run in runs for label in run]
    return dict(zip(left, right))


def _assemble(
    g: SeparatedGraph, x: Mapping[GroupKey, int], z: FormalMatrix, t: FormalMatrix,
    sigma1: dict[RowLabel, RowLabel], sigma2: dict[ColLabel, ColLabel],
) -> GeneratorMatrices:
    """The matrices for the given bijections between the sides z and t.

    sigma_t[i1, j1] = t[sigma1(row i1), sigma2(col j1)]: each column of t,
    its row and edge, goes to where the inverse bijections send its own.  A
    row of sigma_t receives at most one row of t, so sigma_t keeps t's graph.
    U = z sigma_t* is formed from the two lists, as the kernel would: column
    j adds e f*, its two edges, at (z's row of j, sigma_t's row of j) when
    s(e) = s(f) (_kept, _sums).  Where z and sigma_t both kept g, U keeps
    the four lists, those columns and g, from which its Gram products are
    formed.
    """
    ctx = StarContext(g)
    row_of = {sigma1[r]: i1 for i1, r in enumerate(z.rows)}
    col_of = {sigma2[c]: j1 for j1, c in enumerate(z.cols)}
    at, edge = [0] * len(z.cols), [None] * len(z.cols)  # an unreached column raises in _kept
    for i, e, c in zip(*t._arrays[:2], t.cols):  # each column of t, its row and edge
        i1, j1 = row_of[t.rows[i]], col_of[c]
        at[j1], edge[j1] = i1, e
    sigma_t = _monomial(t._arrays[3], z.rows, z.cols, at, edge, by_row=True)
    z_at, z_edge = z._arrays[:2]
    kept = _kept(g, z_edge, edge)
    u = _matrix(z.rows, z.rows, _sums(ctx._rewrite, kept, z_at, at, z_edge, edge))
    if z._arrays[3] is g and sigma_t._arrays[3] is g:
        u.__dict__["_lists"] = (z_at, z_edge, at, edge, kept, g)
    return GeneratorMatrices(g, dict(x), z, t, dict(sigma1), dict(sigma2), sigma_t, u)


def build_generator_matrices(
    g: SeparatedGraph, x: Mapping[GroupKey, int], seed: int | None = None
) -> GeneratorMatrices:
    """Generator matrices of a nonzero kernel element on a bipartite graph.

    The row bijection pairs the positive and negative units over each range
    vertex, the column bijection pairs arrow occurrences over each source
    vertex.  By default both zip the two sides' labels in order (_pair); a
    seed shuffles the negative side's labels within each block, which must
    leave all verification identities intact.  The group keys and rewrites
    are kept on g (StarContext) for the check and later builds to share.
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
    sigma1 = _pair(z.rows, t.rows, _range_of, rng)
    sigma2 = _pair(z.cols, t.cols, _source_of, rng)
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


def verify_partial_unitary(gm: GeneratorMatrices) -> VerificationReport:
    """Check the defining identities of the generator matrices symbolically.

    All products are reduced with the graph relations only; each check
    reports the first offending position and its irreducible residue.  The
    Gram products of Z, T, sigma(T) and U are formed in that order and each
    is compared as it is formed (_first_mismatch), so only ZZ*, Z*Z and UU*
    are held; a vertex diagonal is read off its labels, and an unknown
    vertex there raises only once every product is formed.
    """
    ctx = StarContext(gm.graph)
    z, t, st, u = gm.z, gm.t, gm.sigma_t, gm.u
    checks, unknown, classes = [], [], []

    def diagonal(labels, vertex_of):  # (size, row i, rows); counts to classes
        vertices, counts = list(map(vertex_of, labels)), {}
        for v in vertices:
            counts[v] = counts.get(v, 0) + 1
        classes.append(counts)
        unknown.extend([v for v in counts if v not in ctx.graph._vindex])
        return len(labels), lambda i: {i: {("v", vertices[i]): 1}}, range(len(labels))

    def kept(product):  # (size, rows) and (size, row i, rows) of a product held
        size, cells = product[0], dict(product[1])
        return (size, cells.items()), (size, cells.get, cells)

    def add(name, labels, a, b, sign=1):  # a = b, at labels[i], labels[j]: residue sign (a - b)
        found = _first_mismatch(a[1], *b[1:]) if a[0] == b[0] else ("shape", ZERO)
        if found is None:
            checks.append(Check(name, True))
            return
        pos, diff = found
        if pos != "shape":
            pos = f"({_label_str(labels[pos[0]])}, {_label_str(labels[pos[1]])})"
        checks.append(Check(name, False, f"at {pos}: residue {sign * diff}"))

    zz, zsz = map(kept, _grams(ctx, z))
    add("ZZ* is the range-vertex diagonal", z.rows, zz[0], diagonal(z.rows, _range_of))
    add("Z*Z is the source-vertex diagonal", z.cols, zsz[0], diagonal(z.cols, _source_of))
    tt, tst = _grams(ctx, t)
    add("TT* is the range-vertex diagonal", t.rows, tt, diagonal(t.rows, _range_of))
    add("T*T is the source-vertex diagonal", t.cols, tst, diagonal(t.cols, _source_of))
    ss, sst = _grams(ctx, st)
    add("ZZ* = sig(T)sig(T)*", z.rows, ss, zz[1], -1)
    add("Z*Z = sig(T)*sig(T)", z.cols, sst, zsz[1], -1)
    uu, usu = _grams(ctx, u)
    uu = kept(uu)
    add("UU* = ZZ*", u.rows, uu[0], zz[1])
    add("U*U = UU*", u.cols, usu, uu[1])
    if unknown:
        ctx.vertex(unknown[0])  # raises, as reading that diagonal would

    # the two sides' vertices agree per block, as the row/column balance asserts
    range_class, source_class, t_range, t_source = classes
    for name, t_class, z_class in (
        ("TT* class matches ZZ* class", t_range, range_class),
        ("T*T class matches Z*Z class", t_source, source_class),
    ):
        same = t_class == z_class
        checks.append(Check(name, same, "" if same else f"{t_class} != {z_class}"))

    return VerificationReport(tuple(checks), range_class, source_class)
