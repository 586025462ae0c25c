"""Unmemoized word calculus: a second path for StarContext's reductions.

ReferenceCalculus re-derives every normal form and product from the graph on
each call, checking each word as it goes and reducing lists of letters, apart
from StarContext's shapes and read-once rows.  Tests compare the two on seeded
random words, malformed ones included.  spell and adjoint_word print and star a
word tag by tag, apart from the one table that formal_star reads.
assemble_generator_matrices builds the generator matrices for bijections a
test chooses, so tests can corrupt them.  reference_generator_matrices
builds the same matrices from sorted labels and cell-by-cell lookups.
reference_bijections pairs the two sides' labels block by block through a
dict of blocks per side, as a second path to build_generator_matrices'
zipped runs.
matmul multiplies two whole matrices through StarContext's one product
kernel, so tests can compare that kernel with the reference on any factors.
reference_matmul, reference_grams and reference_matrices_equal form
products and compare matrices entry by entry with ReferenceCalculus, and
reference_verify builds a whole verification report from them.
"""

import random

from sepk.formal_star import (
    ZERO,
    Check,
    FormalExpr,
    FormalMatrix,
    GeneratorMatrices,
    MalformedExpressionError,
    StarContext,
    UnsupportedWordError,
    VerificationReport,
    _assemble,
    _label_str,
    _matrix,
    _side,
)
from sepk.graph_model import SeparatedGraph
from sepk.ktheory import negative_part, positive_part


ARITY = {"v": 1, "e": 1, "a": 1, "ea": 2, "ae": 2}  # ids after each word tag


def spell(word) -> str:
    tag = word[0]
    if tag == "v":
        return word[1]
    if tag == "e":
        return word[1]
    if tag == "a":
        return f"{word[1]}*"
    if tag == "ea":
        return f"{word[1]}{word[2]}*"
    return f"{word[1]}*{word[2]}"


def adjoint_word(word):
    tag = word[0]
    if tag == "v":
        return word
    if tag == "e":
        return ("a", word[1])
    if tag == "a":
        return ("e", word[1])
    return (tag, word[2], word[1])


def matmul(ctx: StarContext, a: FormalMatrix, b: FormalMatrix) -> FormalMatrix:
    """a b, its entries normalized, by StarContext's product kernel.

    Each factor is read once: its words, each with its shape, go into a list
    per row (StarContext._read).  Pairs of entries are then multiplied by
    row of a, then inner index, then column of b, and the first pair in that
    order that holds a malformed word or leaves a word of over two letters
    raises, whatever order the entries were given in.  A word of a ending in
    e* is not paired with the words of a row of b that begin with another
    edge of e's group, when the row's words begin with edges of that group
    alone: e* f = 0 kills those pairs.  Every other pair is formed.
    """
    if len(a.cols) != len(b.rows):
        raise ValueError("inner dimensions do not match")
    left, _ = ctx._read(sorted(a.entries.items()))
    right, _ = ctx._read(sorted(b.entries.items()))
    return _matrix(a.rows, b.cols, ctx._multiply_into(left, right, {}))


def assemble_generator_matrices(g: SeparatedGraph, x, sigma1, sigma2) -> GeneratorMatrices:
    """The generator matrices of x for explicitly chosen bijections."""
    z, t = _side(g, positive_part(x)), _side(g, negative_part(x))
    return _assemble(g, x, z, t, sigma1, sigma2)


def reference_bijections(g: SeparatedGraph, x, seed=None):
    """(sigma1, sigma2) of x, each block of T's labels paired with Z's through dicts of blocks.

    Each side's labels are grouped by block (range vertex of a row, source
    of a column) in order of first appearance; the blocks must balance.  A
    seed shuffles a copy of each of T's blocks, rows first, then columns, in
    the order of Z's blocks.
    """
    z, t = _side(g, positive_part(x)), _side(g, negative_part(x))
    rng = None if seed is None else random.Random(seed)
    out = []
    for left, right, block_of in (
        (z.rows, t.rows, lambda r: r[0][0]),
        (z.cols, t.cols, lambda c: c[2]),
    ):
        blocks = [{}, {}]
        for side, labels in zip(blocks, (left, right)):
            for label in labels:
                side.setdefault(block_of(label), []).append(label)
        lb, rb = blocks
        assert set(lb) == set(rb) and all(len(lb[k]) == len(rb[k]) for k in lb), "unbalanced"
        sigma = {}
        for k, ls in lb.items():
            rs = list(rb[k])
            if rng is not None:
                rng.shuffle(rs)
            sigma.update(zip(ls, rs))
        out.append(sigma)
    return tuple(out)


def reference_generator_matrices(g: SeparatedGraph, x, sigma1, sigma2):
    """(z, t, sigma_t, u) of x for the given bijections, from sorted labels.

    Each side lists its rows (group, t) sorted by group order, the layer0
    position of the group's vertex and then its index there, and its arrow
    occurrences sorted by the layer1 position of the source, group order, t
    and the arrow's position in its group; s counts an occurrence among
    those of its source, group and t.  Each cell of sigma(T) is read as
    T[sigma1(r), sigma2(c)], pair by pair, and each cell of U is summed from
    ReferenceCalculus products.
    """
    keys = [(v, i) for v in g.layer0 for i in range(len(g.groups_at(v)))]
    order = {key: n for n, key in enumerate(keys)}
    at = {w: n for n, w in enumerate(g.layer1)}

    def side(part):
        rows = sorted(
            ((key, t) for key, n in part.items() for t in range(1, n + 1)),
            key=lambda r: (order[r[0]], r[1]),
        )
        arrows = sorted(
            (at[g.edge(eid).src], order[key], t, p, key, eid)
            for key, n in part.items()
            for t in range(1, n + 1)
            for p, eid in enumerate(g.group(key))
        )
        cols, entries, seen = [], {}, {}
        for _, _, t, _, key, eid in arrows:
            w = g.edge(eid).src
            s = seen[(w, key, t)] = seen.get((w, key, t), 0) + 1
            entries[(rows.index((key, t)), len(cols))] = FormalExpr({("e", eid): 1})
            cols.append((key, t, w, s))
        return FormalMatrix(tuple(rows), tuple(cols), entries)

    z = side({k: c for k, c in x.items() if c > 0})
    t = side({k: -c for k, c in x.items() if c < 0})
    entries = {}
    for i, r in enumerate(z.rows):
        for j, c in enumerate(z.cols):
            expr = t.entry(t.rows.index(sigma1[r]), t.cols.index(sigma2[c]))
            if not expr.is_zero:
                entries[(i, j)] = expr
    sigma_t = FormalMatrix(z.rows, z.cols, entries)
    ref, cells = ReferenceCalculus(g), {}
    for i in range(len(z.rows)):
        row = [(k, z.entry(i, k)) for k in range(len(z.cols)) if not z.entry(i, k).is_zero]
        for j in range(len(z.rows)):
            total = ZERO
            for k, expr in row:
                total = total + ref.mul(expr, sigma_t.entry(j, k).star())
            total = ref.normalize(total)
            if not total.is_zero:
                cells[(i, j)] = total
    return z, t, sigma_t, FormalMatrix(z.rows, z.rows, cells)


class ReferenceCalculus:
    def __init__(self, g: SeparatedGraph):
        self.graph = g
        self.group_of = {eid: key for key in g.group_keys() for eid in g.group(key)}

    def _known_edge(self, e):
        if not self.graph.has_edge(e):
            raise MalformedExpressionError(f"unknown edge {e!r}")

    def _dom(self, word):
        tag, g = word[0], self.graph
        if tag == "v":
            return word[1]
        self._known_edge(word[-1])
        if tag == "e":
            return g.edge(word[1]).src
        if tag == "a":
            return g.edge(word[1]).dst
        if tag == "ea":
            return g.edge(word[2]).dst
        return g.edge(word[2]).src

    def _cod(self, word):
        tag, g = word[0], self.graph
        if tag == "v":
            return word[1]
        self._known_edge(word[1])
        if tag == "e":
            return g.edge(word[1]).dst
        if tag == "a":
            return g.edge(word[1]).src
        if tag == "ea":
            return g.edge(word[1]).dst
        return g.edge(word[1]).src

    def _check_word(self, word):
        if not word or len(word) != 1 + ARITY.get(word[0], -1):
            raise MalformedExpressionError(f"malformed word {word!r}: unknown tag or wrong arity")
        tag, g = word[0], self.graph
        if tag == "v":
            if word[1] not in set(g.vertices):
                raise MalformedExpressionError(f"unknown vertex {word[1]!r}")
            return
        for e in word[1:]:
            self._known_edge(e)
        if tag == "ea" and g.edge(word[1]).src != g.edge(word[2]).src:
            raise MalformedExpressionError(
                f"{spell(word)}: sources differ, word is not composable"
            )
        if tag == "ae" and g.edge(word[1]).dst != g.edge(word[2]).dst:
            raise MalformedExpressionError(
                f"{spell(word)}: ranges differ, word is not composable"
            )

    @staticmethod
    def _letters(word):
        tag = word[0]
        if tag == "v":
            return []
        if tag == "e":
            return [("E", word[1])]
        if tag == "a":
            return [("A", word[1])]
        if tag == "ea":
            return [("E", word[1]), ("A", word[2])]
        return [("A", word[1]), ("E", word[2])]

    def _reduce_letters(self, letters):
        i = 0
        while i + 1 < len(letters):
            (t1, e1), (t2, e2) = letters[i], letters[i + 1]
            if t1 == "A" and t2 == "E" and self.group_of[e1] == self.group_of[e2]:
                if e1 != e2:
                    return None
                del letters[i : i + 2]
                i = max(i - 1, 0)
            else:
                i += 1
        return letters

    @staticmethod
    def _word_of_letters(letters, anchor):
        if not letters:
            return ("v", anchor)
        if len(letters) == 1:
            tag, e = letters[0]
            return ("e", e) if tag == "E" else ("a", e)
        if len(letters) == 2:
            (t1, e1), (t2, e2) = letters
            if (t1, t2) == ("E", "A"):
                return ("ea", e1, e2)
            if (t1, t2) == ("A", "E"):
                return ("ae", e1, e2)
        raise UnsupportedWordError(
            "irreducible word of length > 2: "
            + " ".join(e + ("" if t == "E" else "*") for t, e in letters)
        )

    def normalize(self, expr: FormalExpr) -> FormalExpr:
        acc = {}

        def put(word, coef):
            if coef:
                acc[word] = acc.get(word, 0) + coef

        for word, coef in expr.terms.items():
            self._check_word(word)
            if word[0] == "ae":
                e, f = word[1], word[2]
                if self.group_of[e] == self.group_of[f]:
                    if e == f:
                        put(("v", self.graph.edge(e).src), coef)
                    continue
            put(word, coef)
        for word in list(acc):
            if word[0] != "ea" or word[1] != word[2]:
                continue
            e = word[1]
            key = self.group_of[e]
            members = self.graph.group(key)
            if e != members[-1]:
                continue
            coef = acc.pop(word)
            if not coef:
                continue
            put(("v", key[0]), coef)
            for other in members[:-1]:
                put(("ea", other, other), -coef)
        return FormalExpr.of(acc)

    def mul(self, a: FormalExpr, b: FormalExpr) -> FormalExpr:
        acc = {}
        for w1, c1 in a.terms.items():
            for w2, c2 in b.terms.items():
                self._check_word(w1)
                self._check_word(w2)
                if self._dom(w1) != self._cod(w2):
                    continue
                reduced = self._reduce_letters(self._letters(w1) + self._letters(w2))
                if reduced is None:
                    continue
                word = self._word_of_letters(reduced, self._dom(w2))
                acc[word] = acc.get(word, 0) + c1 * c2
        return self.normalize(FormalExpr.of(acc))


def reference_matmul(ref: ReferenceCalculus, a: FormalMatrix, b: FormalMatrix) -> dict:
    """The entries of a b by the unmemoized calculus, every entry pair in turn.

    Entry pairs are taken by row of a, then by inner index, then by column
    of b, so a product with several bad entries raises where matmul does.
    """
    totals = {}
    for i in range(len(a.rows)):
        for k in range(len(a.cols)):
            for j in range(len(b.cols)):
                prod = ref.mul(a.entry(i, k), b.entry(k, j))
                totals[(i, j)] = totals.get((i, j), FormalExpr({})) + prod
    entries = {}
    for pos, total in totals.items():
        total = ref.normalize(total)
        if not total.is_zero:
            entries[pos] = total
    return entries


def reference_grams(ref: ReferenceCalculus, m: FormalMatrix) -> tuple[dict, dict]:
    """The entries of m m* and m* m by the unmemoized calculus, m* formed as its own matrix."""
    adj = m.star()
    return reference_matmul(ref, m, adj), reference_matmul(ref, adj, m)


def reference_matrices_equal(ref: ReferenceCalculus, a: FormalMatrix, b: FormalMatrix):
    """None when equal, else the first position, in sorted order, with a nonzero difference."""
    if len(a.rows) != len(b.rows) or len(a.cols) != len(b.cols):
        return ((-1, -1), ZERO)
    for pos in sorted(set(a.entries) | set(b.entries)):
        diff = ref.normalize(a.entry(*pos) - b.entry(*pos))
        if not diff.is_zero:
            return (pos, diff)
    return None


def reference_verify(gm: GeneratorMatrices) -> VerificationReport:
    """gm's verification report, each product formed by ReferenceCalculus.

    The Gram products of Z, T, sigma(T) and U are formed first, in that
    order, each m m* and then m* m with m* built as its own matrix.  Then
    the checks run in verify_partial_unitary's order.  A diagonal check
    builds the vertex diagonal of its product's labels just before it is
    compared, so an unknown vertex raises there.  A failing check names the
    first position, in sorted order, whose normalized difference is not
    zero, and that residue.
    """
    ref = ReferenceCalculus(gm.graph)
    products = []
    for m in (gm.z, gm.t, gm.sigma_t, gm.u):
        for entries, labels in zip(reference_grams(ref, m), (m.rows, m.cols)):
            products.append(FormalMatrix(labels, labels, entries))
    zz, zsz, tt, tst, ss, sst, uu, usu = products

    def range_of(row):
        return row[0][0]

    def source_of(col):
        return col[2]

    def diagonal(labels, vertex_of):
        entries = {
            (i, i): ref.normalize(FormalExpr({("v", vertex_of(label)): 1}))
            for i, label in enumerate(labels)
        }
        return FormalMatrix(labels, labels, entries)

    def check(name, a, b):
        found = reference_matrices_equal(ref, a, b)
        if found is None:
            return Check(name, True)
        (i, j), diff = found
        at = "shape" if i < 0 else f"({_label_str(a.rows[i])}, {_label_str(a.cols[j])})"
        return Check(name, False, f"at {at}: residue {diff}")

    def classes(labels, vertex_of):
        out = {}
        for label in labels:
            out[vertex_of(label)] = out.get(vertex_of(label), 0) + 1
        return out

    checks = [
        check(name, a, diagonal(a.rows, vertex_of))
        for name, a, vertex_of in (
            ("ZZ* is the range-vertex diagonal", zz, range_of),
            ("Z*Z is the source-vertex diagonal", zsz, source_of),
            ("TT* is the range-vertex diagonal", tt, range_of),
            ("T*T is the source-vertex diagonal", tst, source_of),
        )
    ]
    checks += [
        check("ZZ* = sig(T)sig(T)*", zz, ss),
        check("Z*Z = sig(T)*sig(T)", zsz, sst),
        check("UU* = ZZ*", uu, zz),
        check("U*U = UU*", usu, uu),
    ]
    range_class, source_class = classes(gm.z.rows, range_of), classes(gm.z.cols, source_of)
    for name, t_class, z_class in (
        ("TT* class matches ZZ* class", classes(gm.t.rows, range_of), range_class),
        ("T*T class matches Z*Z class", classes(gm.t.cols, source_of), source_class),
    ):
        same = t_class == z_class
        checks.append(Check(name, same, "" if same else f"{t_class} != {z_class}"))
    return VerificationReport(tuple(checks), range_class, source_class)
