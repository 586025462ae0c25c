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

Normalization is linear and idempotent, so an expression normalizes to the
sum of its words' normal forms, and a checked word's normal form is read off
its tag and ids: an e* f of one group is s(e) when e = f and zero otherwise,
the diagonal e e* of a group's last member is the group's range vertex minus
the other members' diagonals, and every other word is its own normal form.
A word's shape, its value's end vertices and the kinds of its letters (edge
or adjoint, whose ids the word spells), is read off its tag, its ids and the
graph's edge list each time the word is read: none for an e* e of one group,
which is a vertex, and no ends for an e* f of one group, which is zero.  A
StarContext keeps only what one run's build and check share, on its graph:
each edge's group key and the rewrite of each group's last member, fixed
tables of one entry per edge and one per group, which refer to no context
and no graph.  No word is remembered, so a malformed word raises on every
use.

One table spells each word tag as its letters, edges and adjoints.
Printing, the adjoint, shapes and products all read it or its inverse, so an
unknown tag, no tag or a wrong number of ids raises MalformedExpressionError
from every operation.

Words are multiplied on two paths that apply the same relations and leave
the same cells in the same order.  The sides Z, T and sigma(T), a row and an
edge per column (_monomial), are multiplied from those lists: _side_grams
forms their Gram products M M* and M* M, and _assemble forms U = Z sigma(T)*,
each in a pass over the columns, where a column meets only the columns on
its row.  Every matrix given by its entries goes through the kernel,
StarContext._multiply_into: mul, U's Gram products, a hand-made matrix, a
side whose entries were read, and a side naming an edge the graph does not
know.  Each of its operands is read once (StarContext._read) into a list per
row of (position, word, coefficient, shape), so no pair looks a shape up; the
Gram products make each adjoint word, and its shape, from the word they
read, and build no adjoint matrix.  Pairs are formed by row, then inner
index, then right position, then left word, then right word, and the first
in that order that holds a malformed word (whose shape was read, and failed,
as its list was made) or leaves a word of over two letters raises.  Each
list is also indexed by the group and edge of its words' first letters
(_Line).  Where those letters are edges of one group, a word ending in e* is
not paired with the words that begin with another edge f of e's group: e* f
= 0 kills just those pairs.  Every other pair is formed, reduced only at its
junction, and adds its product's normal form at once; as a row closes, its
zero terms and the cells they empty are dropped.  Products are not memoized:
within one product a pair of words seldom recurs, and a pair memo held
memory without saving time.

The module also builds the labeled generator matrices realizing the K_1
class of a kernel element (a row per unit of positive coefficient, a column
per arrow occurrence), keeping Z, T and sigma(T) as a row and an edge per
column (_monomial), and verifies, by formal matrix arithmetic, that they
multiply to the expected vertex diagonals.  A check compares the kernel's
cells {i: {j: terms}} of a product with those of the expected side: both are
normal forms with no zero term, so they are equal exactly when their values
are, and a failing check names the first cell, in position order, where
they differ, with their difference there as its residue.
"""

from __future__ import annotations

import random
from collections import Counter
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
#   _STAR_KINDS  the same on letter sequences
#   _JOIN      the tag of two letter sequences joined, or None past two letters
#   _PATTERN   the %-format that prints a word's ids, an adjoint with a "*"
Word = tuple
_KINDS = {"v": "", "e": "E", "a": "A", "ea": "EA", "ae": "AE"}
_TAG = {k: t for t, k in _KINDS.items()}
_SIZE = {t: 1 + (len(k) or 1) for t, k in _KINDS.items()}
_STAR_KINDS = {k: k[::-1].translate(str.maketrans("EA", "AE")) for k in _TAG}
_STAR_TAG = {t: _TAG[_STAR_KINDS[k]] for t, k in _KINDS.items()}
_JOIN = {k: {m: _TAG.get(k + m) for m in _TAG} for k in _TAG}
_PATTERN = {t: "".join("%s*" if x == "A" else "%s" for x in k) or "%s" for t, k in _KINDS.items()}
# The shape a product reads for a malformed word: its ends are no vertex, so
# it meets no word, and the word raises its error where a pair first holds it.
_NOWHERE = object()
_MALFORMED = (_NOWHERE, _NOWHERE, "")


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


_MIXED = object()  # _Line.group of a line whose words begin with edges of two groups


class _Line:
    """One row of a product's factor, read once, with an index by first letter.

    words lists (position, word, coefficient, shape) in the order in which
    a product pairs them: by the position on the other axis, then in the
    entry's term order.  A malformed word keeps its place with the shape
    _MALFORMED, and bad is the (position, index in words) of the first one.
    The same entries are indexed as they are added: first[f] lists, in
    order, those whose value begins with the edge f, and rest the others;
    group is the group of every such f, None when there is none, and _MIXED
    when they lie in two groups.  Each row of a generator matrix or of its
    adjoint holds the edges of one group at most.
    """

    __slots__ = ("words", "bad", "first", "rest", "group")

    def __init__(self):
        self.words: list[tuple] = []
        self.bad: tuple[int, int] | None = None
        self.first: dict[str, list[tuple]] = {}
        self.rest: list[tuple] = []
        self.group = None

    def add(self, entry: tuple, group_of: Mapping[str, GroupKey]) -> None:
        """Append (position, word, coefficient, shape) to words and to its part of the index."""
        self.words.append(entry)
        shape = entry[3]
        if shape[2][:1] == "E":
            f = entry[1][1]
            key = group_of[f]
            if self.group != key:
                self.group = key if self.group is None else _MIXED
            (self.first.get(f) or self.first.setdefault(f, [])).append(entry)
        else:
            self.rest.append(entry)
            if shape is _MALFORMED and self.bad is None:
                self.bad = (entry[0], len(self.words) - 1)

    def meeting(self, e: str, group_of: Mapping[str, GroupKey]) -> tuple[list[tuple], ...]:
        """The parts of words that a word ending in e* is paired with.

        In a line whose words begin with edges of e's group alone, left out
        are those that begin with an edge f != e, where e* f = 0 kills the
        pair.  A word of any other shape is kept, so every pair that can
        leave a word is still formed; a line of two groups is kept whole.
        """
        if self.group != group_of[e]:
            return (self.words,)
        own = self.first.get(e)
        return (own, self.rest) if own else (self.rest,)


class StarContext:
    """Reduction rules of a fixed separated graph.

    Per group, the diagonal word of the last member is the eliminated
    representative of the complete-sum relation, so normal forms are unique
    and normalization is a linear projection.

    Its two tables, group_of and the last members' rewrites, are made by
    the first context on a graph and kept on the graph as _formal, so every
    later context on it shares them.  They are fixed, one entry per edge and
    one per group, and refer to no context and no graph, so keeping them
    makes no reference cycle.  A word's shape is read off the graph on each
    use (_shape), and nothing grows with the words checked.
    """

    def __init__(self, g: SeparatedGraph):
        ensure_valid(g)
        self.graph = g
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
        # each edge's group key; by each group's last member, the range
        # vertex's word and the other members of its group
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

    def _error(self, word: Word) -> MalformedExpressionError:
        """The error that reading a malformed word's shape raises."""
        try:
            self._shape(word)
        except MalformedExpressionError as exc:
            return exc
        raise AssertionError(f"{word!r} is well formed")

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
            nf = rewrite.get(word[1]) if word[0] == "ea" and word[1] == word[2] else None
            if nf is None:
                acc[word] = acc.get(word, 0) + coef
            else:
                _eliminate(acc, nf, coef)
        return FormalExpr.of(acc)

    def mul(self, a: FormalExpr, b: FormalExpr) -> FormalExpr:
        """Product in the algebra, normalized."""
        out = self._multiply_into(self._read((((0, 0), a),))[0], self._read((((0, 0), b),))[0], {})
        return FormalExpr(out.get(0, {}).get(0, {}))

    def _read(
        self, entries: Iterable[tuple[tuple[int, int], FormalExpr]], adjoint: bool = False
    ) -> tuple[dict[int, _Line], dict[int, _Line]]:
        """The rows of a matrix and of its adjoint, as _Lines, from one read of its words.

        entries are the matrix's ((i, k), expression) pairs in sorted order.
        Each word's shape is read once; the adjoint's row k holds, at i, the
        adjoint of each word of entry (i, k), its shape made from the word's
        shape.  A word with no adjoint (an unknown tag or a wrong number of
        ids) raises MalformedExpressionError when the adjoint is asked for;
        any other malformed word raises only where a product pairs it.
        """
        shape, group_of = self._shape, self.group_of
        rows: dict[int, _Line] = {}
        adj: dict[int, _Line] = {}
        for (i, k), expr in entries:
            for w, c in expr.terms.items():
                try:
                    s = shape(w)
                except MalformedExpressionError:
                    s = _MALFORMED
                (rows.get(i) or rows.setdefault(i, _Line())).add((k, w, c, s), group_of)
                if adjoint:
                    if s is not _MALFORMED:
                        s = (s[1], s[0], _STAR_KINDS[s[2]])
                    elif len(w) != _SIZE.get(w and w[0]):
                        raise _malformed(w)
                    tag = _STAR_TAG[w[0]]
                    w = (tag, w[1]) if len(w) == 2 else (tag, w[2], w[1])
                    (adj.get(k) or adj.setdefault(k, _Line())).add((i, w, c, s), group_of)
        return rows, adj

    def _multiply_into(
        self, left: Mapping[int, _Line], right: Mapping[int, _Line], out: dict
    ) -> dict[int, dict[int, dict[Word, int]]]:
        """Add the normal form of row i of left times right into out[i][j], and return out.

        This multiplies every matrix given by its entries; the sides are
        multiplied from their lists (_side_grams, _assemble) by the same
        relations.  left and right hold the rows of the two factors, read
        by _read.  A word meets the
        right words whose value's range is its value's source, and the two
        are reduced only at their junction; their product, well formed,
        adds its normal form at once.  A product is its own normal form
        unless it is a group's last diagonal word, or a vertex-like word
        times an e* e of one group, which is s(e).  A zero word, whose ends
        are None, forms no pair: only another zero word meets it.  A word
        ending in e* is not paired with the words that begin with another
        edge f of e's group, whose product e* f = 0 kills, in a row whose
        words begin with edges of that group alone (_Line.meeting).  A cell
        is created once a product leaves a word in it; as its row closes,
        zero terms are dropped and so are the cells they leave empty, so
        every cell in out is a normal form with no zero term.

        A malformed word, or a product of more than two letters, raises.  Of
        several, the one in the first pair in this order raises, once its
        row is done: by row, then inner index, then right position, then
        left word, then right word, each word's shape read before its
        partner's.
        """
        group_of, rewrite = self.group_of, self._rewrite
        for i in sorted(left):
            cells: dict[int, dict[Word, int]] = {}
            first = None  # ((k, j, p, q), error) of the row's first pair to raise
            cell = None
            for p, (k, w1, c1, shape1) in enumerate(left[i].words):
                line = right.get(k)
                if line is None:
                    continue
                if first is not None and k > first[0][0]:
                    break
                words = line.words
                if k != cell:  # the cell's first word is read before each right word
                    cell = k
                    if line.bad is not None:
                        j, q = line.bad
                        if first is None or (k, j, p, q) < first[0]:
                            first = ((k, j, p, q), self._error(words[q][1]))
                dom1, _, kinds1 = shape1
                if dom1 is _NOWHERE:
                    place = (k, words[0][0], p, -1)
                    if first is None or place < first[0]:
                        first = (place, self._error(w1))
                    continue
                if dom1 is None:  # an e* f of one group, e != f: every product is zero
                    continue
                if line.group is not None and kinds1[-1:] == "A":
                    parts = line.meeting(w1[-1], group_of)
                else:
                    parts = (words,)
                for part in parts:
                    for j, w2, c2, shape2 in part:
                        dom2, cod2, kinds2 = shape2
                        if dom1 != cod2:
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
                                q = next(q for q, x in enumerate(words) if x[0] == j and x[1] == w2)
                                if first is None or (k, j, p, q) < first[0]:
                                    error = _too_long(kinds1 + kinds2, w1[1:] + w2[1:])
                                    first = ((k, j, p, q), error)
                                continue
                            word = (tag, w1[1], w2[1])  # two words of one letter each
                        coef = c1 * c2
                        if coef:
                            acc = cells.get(j)
                            if acc is None:
                                acc = cells[j] = {}
                            nf = rewrite.get(word[1]) if word[0] == "ea" and word[1] == word[2] else None
                            if nf is None:
                                acc[word] = acc.get(word, 0) + coef
                            else:
                                _eliminate(acc, nf, coef)
            if first is not None:
                raise first[1]
            _close(out, i, cells)
        return out


# formal matrices -------------------------------------------------------------


@dataclass(frozen=True)
class FormalMatrix:
    """A labeled matrix of formal expressions; absent entries are zero.

    A side (_monomial) keeps two lists, the word ("e", edge[j]) of column j
    on row at[j], until its entries are first read and made from them.
    """

    rows: tuple
    cols: tuple
    entries: dict[tuple[int, int], FormalExpr] = field(repr=False)

    def __getattr__(self, name: str):  # called for names not found: a side's unmade entries
        arrays = self.__dict__.pop("_arrays", None) if name == "entries" else None
        if arrays is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        at, edge, by_row = arrays
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


def _grams(ctx: StarContext, m: FormalMatrix) -> tuple[tuple[int, dict], ...]:
    """(size, kernel cells) of m m* and m* m.

    A side whose edges the graph knows is multiplied from its lists
    (_side_grams).  Any other matrix, a side whose entries were read among
    them, goes through the kernel from one read of its entries that makes
    m*'s words; a word with no adjoint raises first, as forming m* would.
    """
    arrays = m.__dict__.get("_arrays")
    if arrays and ctx.graph._eindex.keys() >= set(arrays[1]):
        mm, msm = _side_grams(ctx, *arrays[:2])
    else:
        try:
            rows, cols = ctx._read(sorted(m.entries.items()), adjoint=True)
        except MalformedExpressionError:
            m.star()  # raises for the first such word in m's own order
            raise
        mm, msm = ctx._multiply_into(rows, cols, {}), ctx._multiply_into(cols, rows, {})
    return (len(m.rows), mm), (len(m.cols), msm)


def _side_grams(ctx: StarContext, at: list, edge: list) -> tuple[dict, dict]:
    """The kernel's cells of m m* and m* m for the side m with edge[j] on row at[j].

    Both are formed by the kernel's relations, in its order.  Row i of m m*
    has the one cell (i, i): the sum of e e* over the row's edges, a
    group's last member rewritten by complete sum.  In m* m, column j meets
    the columns on its row: one of its own edge e in s(e), and one of an
    edge f of another group at e's range in the atom e* f; the rest give
    zero.  A row that holds one group's edges leaves j its own edge's.
    """
    g, group_of, rewrite = ctx.graph, ctx.group_of, ctx._rewrite
    index, edges, on_row = g._eindex, g.edges, {}
    for j, i in enumerate(at):
        (on_row.get(i) or on_row.setdefault(i, [])).append(j)
    mm, cells, unit = {}, [None] * len(at), {}  # unit: one terms dict per vertex word
    for i in sorted(on_row):
        acc, same = {}, {}  # the row's terms; its columns by edge
        for j in on_row[i]:
            e = edge[j]
            same[e] = same[e] + [j] if e in same else [j]
            nf = rewrite.get(e)
            if nf is None:
                acc[("ea", e, e)] = acc.get(("ea", e, e), 0) + 1
            else:
                _eliminate(acc, nf, 1)
        _close(mm, i, {i: acc})
        mixed = len({group_of[e] for e in same}) > 1
        for j in on_row[i]:
            x = edges[index[e := edge[j]]]
            row = cells[j] = {}
            for k in on_row[i] if mixed else same[e]:
                if (f := edge[k]) == e:
                    row[k] = unit.get(x.src) or unit.setdefault(x.src, {("v", x.src): 1})
                elif group_of[f] != group_of[e] and edges[index[f]].dst == x.dst:
                    row[k] = {("ae", e, f): 1}
    return mm, dict(enumerate(cells))


def _first_mismatch(a: Mapping[int, dict], b: Mapping[int, dict]) -> tuple[tuple, FormalExpr]:
    """The first position, in order, where the kernel's cells a and b differ, and a's minus b's."""
    for i in sorted(a.keys() | b.keys()):
        left, right = a.get(i, {}), b.get(i, {})
        for j in sorted(left.keys() | right.keys()):
            if left.get(j) != right.get(j):
                return (i, j), FormalExpr(left.get(j, {})) - FormalExpr(right.get(j, {}))


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
    The column (key, t, w, s) holds its arrow on the row (key, t) (_monomial).
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
    return _monomial(tuple(rows), tuple(cols), at, edge)


def _monomial(rows: tuple, cols: tuple, at: list, edge: list, by_row=False) -> FormalMatrix:
    """The side with edge[j] on row at[j]; its entries run by column, or sorted by_row."""
    m = object.__new__(FormalMatrix)
    m.__dict__.update(rows=rows, cols=cols, _arrays=(at, edge, by_row))
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
    its row and edge, goes to where the inverse bijections send its own.
    U = z sigma_t* is formed from the two lists, as the kernel would: column
    j adds e f*, its two edges, at (z's row of j, sigma_t's row of j) when
    s(e) = s(f), rewritten where e = f is its group's last member; rows come
    ascending, cells in the order first formed, and zero terms are dropped.
    """
    ctx = StarContext(g)
    row_of = {sigma1[r]: i1 for i1, r in enumerate(z.rows)}
    col_of = {sigma2[c]: j1 for j1, c in enumerate(z.cols)}
    at, edge = [0] * len(z.cols), [""] * len(z.cols)
    for i, e, c in zip(*t._arrays[:2], t.cols):  # each column of t, its row and edge
        i1, j1 = row_of[t.rows[i]], col_of[c]
        at[j1], edge[j1] = i1, e
    sigma_t = _monomial(z.rows, z.cols, at, edge, by_row=True)
    index, src, rewrite, rows = g._eindex, g._src, ctx._rewrite, {}
    for i, e, k, f in zip(*z._arrays[:2], at, edge):
        if src[index[e]] == src[index[f]]:
            row = rows.get(i) or rows.setdefault(i, {})
            acc = row.get(k) or row.setdefault(k, {})
            if e == f and e in rewrite:
                _eliminate(acc, rewrite[e], 1)
            else:
                acc[("ea", e, f)] = acc.get(("ea", e, f), 0) + 1
    cells = {}
    for i in sorted(rows):
        _close(cells, i, rows[i])
    u = _matrix(z.rows, z.rows, cells)
    return GeneratorMatrices(g, dict(x), z, t, dict(sigma1), dict(sigma2), sigma_t, u)


def build_generator_matrices(
    g: SeparatedGraph, x: Mapping[GroupKey, int], seed: int | None = None
) -> GeneratorMatrices:
    """Generator matrices of a nonzero kernel element on a bipartite graph.

    The row bijection pairs the positive and negative units over each range
    vertex, the column bijection pairs arrow occurrences over each source
    vertex.  By default both zip the two sides' labels in order (_pair); a
    seed shuffles the negative side's labels within each block, which must
    leave all verification identities intact.

    The group keys and rewrites are kept on g (StarContext), so
    verify_partial_unitary and later builds on g share them.
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


def _vertex_diag(ctx: StarContext, labels, vertex_of) -> tuple[int, dict]:
    """(size, cells) of the diagonal of each label's vertex; the first unknown vertex raises."""
    cells, unit = {}, {}
    for i, v in enumerate(map(vertex_of, labels)):
        cells[i] = {i: unit[v] if v in unit else unit.setdefault(v, ctx.vertex(v).terms)}
    return len(labels), cells


def _class_counts(labels, vertex_of) -> dict[str, int]:
    return dict(Counter(map(vertex_of, labels)))


def verify_partial_unitary(gm: GeneratorMatrices) -> VerificationReport:
    """Check the defining identities of the generator matrices symbolically.

    All products are reduced with the graph relations only; each check
    reports the first offending position and its irreducible residue.  It
    shares the group keys and rewrites kept on the graph (StarContext), and
    keeps nothing of the words it reads.  A Gram product of T or sigma(T)
    equal to Z's is dropped for Z's as it is made, saving memory.
    """
    ctx = StarContext(gm.graph)
    z, t, st, u = gm.z, gm.t, gm.sigma_t, gm.u
    zz, zsz = _grams(ctx, z)
    tt, tst = (q if p == q else p for p, q in zip(_grams(ctx, t), (zz, zsz)))
    ss, sst = (q if p == q else p for p, q in zip(_grams(ctx, st), (zz, zsz)))
    uu, usu = _grams(ctx, u)

    checks = []

    def add_equality(name, labels, a, b):
        """Check a = b, each (size, cells); labels name a's rows and columns."""
        if a == b:  # normal forms with no zero term: only a real mismatch differs
            checks.append(Check(name, True))
            return
        if a[0] != b[0]:
            pos, diff = "shape", ZERO
        else:
            (i, j), diff = _first_mismatch(a[1], b[1])
            pos = f"({_label_str(labels[i])}, {_label_str(labels[j])})"
        checks.append(Check(name, False, f"at {pos}: residue {diff}"))

    for name, product, labels, vertex_of in (
        ("ZZ* is the range-vertex diagonal", zz, z.rows, _range_of),
        ("Z*Z is the source-vertex diagonal", zsz, z.cols, _source_of),
        ("TT* is the range-vertex diagonal", tt, t.rows, _range_of),
        ("T*T is the source-vertex diagonal", tst, t.cols, _source_of),
    ):
        add_equality(name, labels, product, _vertex_diag(ctx, labels, vertex_of))
    add_equality("ZZ* = sig(T)sig(T)*", z.rows, zz, ss)
    add_equality("Z*Z = sig(T)*sig(T)", z.cols, zsz, sst)
    # u is square over the rows of z; both uu* and u*u must collapse to the
    # same range-vertex diagonal, witnessing a formal partial unitary.
    add_equality("UU* = ZZ*", u.rows, uu, zz)
    add_equality("U*U = UU*", u.cols, usu, uu)

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
