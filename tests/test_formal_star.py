import random

import pytest

from sepk.formal_star import (
    ZERO,
    FormalExpr,
    FormalMatrix,
    MalformedExpressionError,
    StarContext,
    UnsupportedWordError,
    build_generator_matrices,
    matmul,
    matrices_equal,
    verify_partial_unitary,
    word_str,
)
from sepk.graph_model import builtin, builtin_from_spec
from sepk.ktheory import NotInKernelError, connecting_map_image, phi_transport
from sepk.transform import PreconditionError, canonical_sequence

from conftest import bipartite_graph_with_kernel, random_kernel_element
from formal_oracles import (
    ReferenceCalculus,
    adjoint_word,
    assemble_generator_matrices,
    reference_generator_matrices,
    spell,
)
from graph_oracles import r_inv, s_inv


def ctx_e(m, n):
    return StarContext(builtin("E", [m, n]))


def test_unknown_ids_and_mismatched_shapes_raise():
    ctx = ctx_e(2, 2)
    with pytest.raises(MalformedExpressionError, match=r"^unknown vertex 'zz'$"):
        ctx.vertex("zz")
    for make in (ctx.edge, ctx.adjoint):
        with pytest.raises(MalformedExpressionError, match=r"^unknown edge 'zz'$"):
            make("zz")
    a = FormalMatrix(("r",), ("c1", "c2"), {})
    with pytest.raises(ValueError, match="^inner dimensions do not match$"):
        matmul(ctx, a, a)


def test_sck1_same_group():
    ctx = ctx_e(2, 2)
    prod = ctx.mul(ctx.adjoint("a1"), ctx.edge("a1"))
    assert prod == ctx.vertex("w")
    assert ctx.mul(ctx.adjoint("a1"), ctx.edge("a2")).is_zero


def test_cross_group_word_is_irreducible():
    ctx = ctx_e(2, 2)
    word = ctx.mul(ctx.adjoint("a1"), ctx.edge("b1"))
    assert word.terms == {("ae", "a1", "b1"): 1}
    assert ctx.normalize(word) == word


def test_sck2_complete_sum():
    ctx = ctx_e(3, 3)
    total = FormalExpr({})
    for e in ("a1", "a2", "a3"):
        total = total + ctx.mul(ctx.edge(e), ctx.adjoint(e))
    assert ctx.normalize(total) == ctx.vertex("v")


def test_partial_sum_stays_reduced():
    ctx = ctx_e(3, 3)
    partial = ctx.mul(ctx.edge("a1"), ctx.adjoint("a1"))
    norm = ctx.normalize(partial)
    assert norm.terms == {("ea", "a1", "a1"): 1}


def test_normalize_idempotent_and_linear():
    ctx = ctx_e(2, 3)
    rng = random.Random(2)
    words = [("v", "v"), ("v", "w"), ("e", "a1"), ("a", "b2"), ("ea", "a1", "a1"),
             ("ea", "a1", "b1"), ("ea", "a3", "a3"), ("ae", "a1", "b2"), ("ea", "b2", "b2")]
    for _ in range(30):
        x = FormalExpr.of({w: rng.randint(-3, 3) for w in rng.sample(words, 4)})
        y = FormalExpr.of({w: rng.randint(-3, 3) for w in rng.sample(words, 4)})
        nx = ctx.normalize(x)
        assert ctx.normalize(nx) == nx
        assert ctx.normalize(x + y) == ctx.normalize(nx + ctx.normalize(y))
        assert ctx.normalize(2 * x) == ctx.normalize(2 * nx)


def test_malformed_word_rejected():
    ctx = StarContext(builtin("lamplighter", [2]))
    # a1 and b2 have different sources, so a1 b2* does not compose
    bad = FormalExpr({("ea", "a1", "b2"): 1})
    with pytest.raises(MalformedExpressionError, match="compos"):
        ctx.normalize(bad)
    with pytest.raises(MalformedExpressionError, match="unknown"):
        ctx.normalize(FormalExpr({("e", "zz"): 1}))
    # nor has it a value in a product, even where the other factor would
    # meet its letters or annihilate them
    m, b2 = (FormalMatrix((0,), (0,), {(0, 0): x}) for x in (bad, ctx.edge("b2")))
    for product in (
        lambda: ctx.mul(bad, ctx.edge("b2")),
        lambda: ctx.mul(bad, ctx.vertex("w1")),
        lambda: matmul(ctx, m, b2),
    ):
        with pytest.raises(MalformedExpressionError) as exc:
            product()
        assert str(exc.value) == "a1b2*: sources differ, word is not composable"
    # a1* a1 of one group is the vertex s(a1), well formed
    assert ctx.mul(FormalExpr({("ae", "a1", "a1"): 1}), ctx.vertex("w1")) == ctx.vertex("w1")


def test_products_reject_unknown_edges_as_normalize_does():
    ctx = ctx_e(2, 2)
    unknown = FormalExpr({("e", "zz"): 1})
    a = FormalMatrix((0,), (0,), {(0, 0): unknown})
    for product in (
        lambda: ctx.mul(unknown, ctx.vertex("v")),
        lambda: ctx.mul(ctx.vertex("v"), unknown),
        lambda: ctx.mul(ctx.adjoint("a1"), FormalExpr({("ea", "a1", "zz"): 1})),
        lambda: matmul(ctx, a, a.star()),
    ):
        with pytest.raises(MalformedExpressionError) as exc:
            product()
        assert str(exc.value) == "unknown edge 'zz'"


MALFORMED_WORDS = [("x", "a1"), ("e", "a1", "b1"), ("ea", "a1"), ("v",), ("v", "v", "w")]


@pytest.mark.parametrize("word", MALFORMED_WORDS, ids=repr)
def test_unknown_tag_or_wrong_arity_raises_from_every_operation(word):
    g = builtin("E", [2, 2])
    ctx, ref = StarContext(g), ReferenceCalculus(g)
    bad = FormalExpr({word: 1})
    m = FormalMatrix((0,), (0,), {(0, 0): bad})
    edge = FormalMatrix((0,), (0,), {(0, 0): ctx.edge("a1")})
    with pytest.raises(MalformedExpressionError) as exc:
        ref.normalize(bad)
    for op in (
        lambda: ctx.normalize(bad),
        lambda: ctx.normalize(FormalExpr({word: 0})),
        lambda: ctx.mul(ctx.edge("a1"), bad),
        lambda: ctx.mul(bad, ctx.vertex("w")),
        lambda: ctx.mul(bad, bad),
        lambda: matmul(ctx, edge, m),
        lambda: matmul(ctx, m, edge),
        lambda: matmul(ctx, m, m),
        lambda: bad.star(),
        lambda: m.star(),
        lambda: str(bad),
    ):
        with pytest.raises(MalformedExpressionError) as got:
            op()
        assert str(got.value) == str(exc.value)


def test_unsupported_long_word():
    ctx = ctx_e(2, 2)
    left = FormalExpr({("ea", "a1", "a2"): 1})  # a1 a2*
    right = FormalExpr({("ea", "b1", "b2"): 1})  # b1 b2*
    # inner a2* b1 crosses groups, leaving an irreducible length-4 word
    with pytest.raises(UnsupportedWordError):
        ctx.mul(left, right)


def test_star_involution():
    ctx = ctx_e(2, 2)
    x = FormalExpr({("ea", "a1", "b1"): 2, ("e", "a2"): -1})
    assert x.star().star() == x
    assert x.star().terms == {("ea", "b1", "a1"): 2, ("a", "a2"): -1}


def test_expr_printing():
    ctx = ctx_e(3, 3)
    assert str(ctx.mul(ctx.adjoint("a1"), ctx.edge("b2"))) == "a1*b2"
    assert str(ctx.vertex("v")) == "v"
    assert str(FormalExpr({})) == "0"
    assert str(FormalExpr({("ea", "a1", "b1"): -2})) == "-2 a1b1*"


def test_generator_matrices_e33_structure():
    g = builtin("E", [3, 3])
    x = {("v", 0): 1, ("v", 1): -1}
    gm = build_generator_matrices(g, x)
    assert gm.z.rows == ((("v", 0), 1),)
    assert len(gm.z.cols) == 3
    entries = [str(gm.z.entry(0, j)) for j in range(3)]
    assert entries == ["a1", "a2", "a3"]
    assert str(gm.u.entry(0, 0)) == "a1b1* + a2b2* + a3b3*"


def test_generator_matrices_lamplighter():
    g = builtin("lamplighter", [2])
    gm = build_generator_matrices(g, {("v", 0): 1, ("v", 1): -1})
    assert len(gm.z.rows) == 1
    assert len(gm.z.cols) == 2  # one arrow from each w_i
    sources = {c[2] for c in gm.z.cols}
    assert sources == {"w1", "w2"}
    assert verify_partial_unitary(gm).ok


def test_generator_matrices_doubled_element():
    g = builtin("E", [2, 2])
    gm = build_generator_matrices(g, {("v", 0): 2, ("v", 1): -2})
    assert len(gm.z.rows) == 2
    ctx = StarContext(g)
    zz = matmul(ctx, gm.z, gm.z.star())
    # a 2x2 vertex block: diag(v, v)
    assert zz.entry(0, 0) == ctx.vertex("v")
    assert zz.entry(1, 1) == ctx.vertex("v")
    assert zz.entry(0, 1).is_zero and zz.entry(1, 0).is_zero


def test_zsz_is_full_source_diagonal():
    g = builtin("E", [2, 2])
    gm = build_generator_matrices(g, {("v", 0): 1, ("v", 1): -1})
    ctx = StarContext(g)
    zsz = matmul(ctx, gm.z.star(), gm.z)
    assert len(zsz.rows) == 2
    assert zsz.entry(0, 0) == ctx.vertex("w")
    assert zsz.entry(1, 1) == ctx.vertex("w")


def test_verify_rejects_zero_and_non_kernel():
    g = builtin("E", [3, 3])
    with pytest.raises(PreconditionError, match="zero"):
        build_generator_matrices(g, {})
    with pytest.raises(NotInKernelError):
        build_generator_matrices(g, {("v", 0): 1})


def test_corrupt_sigma2_detected():
    g = builtin("lamplighter", [2])
    x = {("v", 0): 1, ("v", 1): -1}
    gm = build_generator_matrices(g, x)
    s2 = dict(gm.sigma2)
    c1 = next(c for c in s2 if c[2] == "w1")
    c2 = next(c for c in s2 if c[2] == "w2")
    s2[c1], s2[c2] = s2[c2], s2[c1]
    bad = assemble_generator_matrices(g, x, gm.sigma1, s2)
    report = verify_partial_unitary(bad)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.ok}
    assert "Z*Z = sig(T)*sig(T)" in failed
    # the report names a position and residue
    detail = next(c.detail for c in report.checks if not c.ok)
    assert "residue" in detail


def test_seeded_bijections_still_verify():
    rng = random.Random(6)
    for seed in (0, 1, 2):
        g, x0 = bipartite_graph_with_kernel(rng)
        x = random_kernel_element(g, rng) or x0
        gm = build_generator_matrices(g, x, seed=seed)
        assert verify_partial_unitary(gm).ok


def test_diagonal_classes_match_connecting_map():
    rng = random.Random(8)
    for _ in range(10):
        g, x0 = bipartite_graph_with_kernel(rng)
        x = random_kernel_element(g, rng) or x0
        gm = build_generator_matrices(g, x)
        report = verify_partial_unitary(gm)
        assert report.ok
        delta = connecting_map_image(g, x)
        diff = dict(report.source_class)
        for v, c in report.range_class.items():
            diff[v] = diff.get(v, 0) - c
        diff = {v: c for v, c in diff.items() if c}
        assert diff == delta


# memoized calculus against the unmemoized reference ---------------------------


def _random_word(g, rng):
    """A random word of g, well formed or (about one time in six) not."""
    edges = g.edges
    e = rng.choice(edges)
    kind = rng.randrange(12)
    if kind == 0:
        return rng.choice((("e", "zz"), ("a", "zz"), ("v", "nowhere"), ("ea", e.id, "zz")))
    if kind == 1:
        apart = [f for f in edges if f.src != e.src]
        if apart:
            return ("ea", e.id, rng.choice(apart).id)  # sources differ
        across = [f for f in edges if f.dst != e.dst]
        if across:
            return ("ae", e.id, rng.choice(across).id)  # ranges differ
        return ("v", "nowhere")
    if kind in (2, 3):
        return ("v", rng.choice(g.vertices))
    if kind in (4, 5):
        return ("e", e.id)
    if kind in (6, 7):
        return ("a", e.id)
    if kind in (8, 9):
        return ("ea", e.id, rng.choice(s_inv(g, e.src)).id)
    return ("ae", e.id, rng.choice(r_inv(g, e.dst)).id)


@pytest.mark.parametrize("tag", ["v", "e", "a", "ea", "ae"])
def test_each_tag_is_read_as_the_reference_spells_it(tag):
    # printing, the adjoint and a word's shape all read one table of tags;
    # a malformed word has no shape and raises the reference's message
    seen = 0
    for name in sorted(ORACLE_GRAPHS):
        g = ORACLE_GRAPHS[name]()
        ctx, ref = StarContext(g), ReferenceCalculus(g)
        rng = random.Random(sum(map(ord, name + tag)))
        for _ in range(200):
            word = _random_word(g, rng)
            if word[0] != tag or "zz" in word:
                continue
            seen += 1
            assert word_str(word) == spell(word)
            assert FormalExpr({word: -2}).star().terms == {adjoint_word(word): -2}
            try:
                ref._check_word(word)
            except MalformedExpressionError as exc:
                with pytest.raises(MalformedExpressionError) as got:
                    ctx._shape(word)
                assert str(got.value) == str(exc)
                continue
            dom, cod, kinds, ids = ctx._shape(word)
            if tag == "ae" and ref.group_of[word[1]] == ref.group_of[word[2]]:
                # the value's shape: e* e is the vertex s(e), and e* f is zero, meeting nothing
                ends = (ref._dom(word), ref._cod(word)) if word[1] == word[2] else (None, None)
                assert (dom, cod, kinds, ids) == (*ends, "", ())
                continue
            assert list(zip(kinds, ids)) == ref._letters(word)
            assert (dom, cod) == (ref._dom(word), ref._cod(word))
    assert seen >= 30


def _random_expr(g, rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[_random_word(g, rng)] = rng.choice((-3, -2, -1, 0, 1, 2, 3))
    return FormalExpr(terms)  # zero coefficients kept: their words are checked too


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (MalformedExpressionError, UnsupportedWordError) as exc:
        return (type(exc).__name__, str(exc))


ORACLE_GRAPHS = {
    "E(2,2)": lambda: builtin("E", [2, 2]),
    "E(3,3)": lambda: builtin("E", [3, 3]),
    "lamplighter(2) L2": lambda: canonical_sequence(builtin("lamplighter", [2]), 2).graphs[2],
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_memoized_calculus_matches_unmemoized_reference(name):
    g = ORACLE_GRAPHS[name]()
    rng = random.Random(sum(map(ord, name)))
    ctx, ref = StarContext(g), ReferenceCalculus(g)
    seen = set()
    for _ in range(400):
        a, b = _random_expr(g, rng), _random_expr(g, rng)
        # twice each: the second call reads the memos the first one filled
        for _ in range(2):
            got = _outcome(ctx.normalize, a)
            assert got == _outcome(ref.normalize, a)
            seen.add(got[0])
            got = _outcome(ctx.mul, a, b)
            assert got == _outcome(ref.mul, a, b)
            seen.add(got[0])
    assert {"ok", "MalformedExpressionError", "UnsupportedWordError"} <= seen


def _reference_matmul(ref, a, b):
    """a b by the unmemoized calculus, every entry pair in turn.

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


def test_matmul_matches_unmemoized_reference_on_generator_matrices():
    rng = random.Random(14)
    cases = [(builtin("E", [3, 3]), {("v", 0): 2, ("v", 1): -2}, None)]
    for seed in range(6):
        g, x0 = bipartite_graph_with_kernel(rng)
        cases.append((g, random_kernel_element(g, rng) or x0, seed))
    for g, x, seed in cases:
        gm = build_generator_matrices(g, x, seed=seed)
        ctx, ref = StarContext(g), ReferenceCalculus(g)
        for m in (gm.z, gm.t, gm.sigma_t, gm.u):
            for a, b in ((m, m.star()), (m.star(), m)):
                assert matmul(ctx, a, b).entries == _reference_matmul(ref, a, b)


def _random_matrix(g, rng, rows, cols):
    """A seeded sparse FormalMatrix of random expressions, entries in random order."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    rng.shuffle(cells)
    entries = {pos: _random_expr(g, rng) for pos in cells if rng.random() < 0.6}
    return FormalMatrix(tuple(range(rows)), tuple(range(cols)), entries)


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_matmul_matches_unmemoized_reference_on_random_matrices(name):
    g = ORACLE_GRAPHS[name]()
    rng = random.Random(3 + sum(map(ord, name)))
    ctx, ref = StarContext(g), ReferenceCalculus(g)
    seen = set()
    for _ in range(150):
        n, m, p = (rng.randint(1, 3) for _ in range(3))
        a, b = _random_matrix(g, rng, n, m), _random_matrix(g, rng, m, p)
        got = _outcome(lambda: matmul(ctx, a, b).entries)
        assert got == _outcome(_reference_matmul, ref, a, b)
        seen.add(got[0])
    assert {"ok", "MalformedExpressionError", "UnsupportedWordError"} <= seen


def _reference_matrices_equal(ref, a, b):
    """None when equal, else the first position, in sorted order, with a nonzero difference."""
    if len(a.rows) != len(b.rows) or len(a.cols) != len(b.cols):
        return ((-1, -1), ZERO)
    for pos in sorted(set(a.entries) | set(b.entries)):
        diff = ref.normalize(a.entry(*pos) - b.entry(*pos))
        if not diff.is_zero:
            return (pos, diff)
    return None


def _unnormalized_twin(g, expr, rng):
    """expr plus words of normal form zero: e* e - s(e), and e* f for e != f of one group."""
    terms = dict(expr.terms)
    e = rng.choice(g.edges)
    for word, coef in ((("ae", e.id, e.id), 1), (("v", e.src), -1)):
        terms[word] = terms.get(word, 0) + coef
    members = g.group(rng.choice(g.group_keys()))
    if len(members) > 1:
        terms[("ae", members[0], members[1])] = rng.choice((-2, 1, 3))
    return FormalExpr(terms)


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_matrices_equal_matches_reference_on_random_matrices(name):
    g = ORACLE_GRAPHS[name]()
    rng = random.Random(5 + sum(map(ord, name)))
    ctx, ref = StarContext(g), ReferenceCalculus(g)
    seen = set()
    for _ in range(200):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = _random_matrix(g, rng, n, m)
        entries = {}
        for pos, expr in a.entries.items():
            kind = rng.randrange(5)
            if kind == 0:
                entries[pos] = FormalExpr(dict(expr.terms))  # equal terms
            elif kind == 1:
                entries[pos] = _unnormalized_twin(g, expr, rng)
            elif kind == 2:
                entries[pos] = _random_expr(g, rng)  # most likely a mismatch
            elif kind == 3:
                # the same words, one coefficient moved
                terms = dict(expr.terms)
                w = rng.choice(list(terms))
                terms[w] += rng.choice((-1, 1))
                entries[pos] = FormalExpr(terms)
        b = FormalMatrix(a.rows, a.cols, entries)
        if rng.random() < 0.1:
            b = FormalMatrix(a.rows + ("extra",), a.cols, entries)
        got = _outcome(matrices_equal, ctx, a, b)
        assert got == _outcome(_reference_matrices_equal, ref, a, b)
        seen.add("equal" if got == ("ok", None) else got[0])
    assert {"equal", "ok", "MalformedExpressionError"} <= seen


def test_matrices_equal_matches_reference_on_corrupted_sigma2():
    g = builtin("lamplighter", [2])
    x = {("v", 0): 1, ("v", 1): -1}
    gm = build_generator_matrices(g, x)
    s2 = dict(gm.sigma2)
    c1 = next(c for c in s2 if c[2] == "w1")
    c2 = next(c for c in s2 if c[2] == "w2")
    s2[c1], s2[c2] = s2[c2], s2[c1]
    bad = assemble_generator_matrices(g, x, gm.sigma1, s2)
    ctx, ref = StarContext(g), ReferenceCalculus(g)
    mismatches = 0
    for m in (bad.z, bad.t, bad.sigma_t, bad.u):
        for other in (bad.z, bad.sigma_t):
            for a, b in (
                (matmul(ctx, m, m.star()), matmul(ctx, other, other.star())),
                (matmul(ctx, m.star(), m), matmul(ctx, other.star(), other)),
            ):
                got = matrices_equal(ctx, a, b)
                assert got == _reference_matrices_equal(ref, a, b)
                mismatches += got is not None
    assert mismatches


def _assert_matches_reference(g, x, seed):
    gm = build_generator_matrices(g, x, seed=seed)
    for sigma, src, dst, block_of in (
        (gm.sigma1, gm.z.rows, gm.t.rows, lambda r: r[0][0]),
        (gm.sigma2, gm.z.cols, gm.t.cols, lambda c: c[2]),
    ):
        assert list(sigma) == list(src) and sorted(sigma.values()) == sorted(dst)
        assert all(block_of(a) == block_of(b) for a, b in sigma.items())
        if seed is None:  # order-preserving within each block
            for block in {block_of(a) for a in src}:
                assert [sigma[a] for a in src if block_of(a) == block] == [
                    b for b in dst if block_of(b) == block
                ]
    z, t, sigma_t, u = reference_generator_matrices(g, x, gm.sigma1, gm.sigma2)
    assert (gm.z, gm.t, gm.sigma_t) == (z, t, sigma_t)
    assert list(gm.sigma_t.entries) == sorted(gm.sigma_t.entries)
    assert (gm.u.rows, gm.u.cols, gm.u.format_grid()) == (u.rows, u.cols, u.format_grid())


@pytest.mark.parametrize("spec,layer", [
    ("E(2,2)", 0), ("E(3,3)", 0), ("lamplighter(2)", 0), ("lamplighter(3)", 0), ("E(2,2)", 1),
])
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_generator_matrices_match_sorted_label_reference_on_builtins(spec, layer, seed):
    graphs = canonical_sequence(builtin_from_spec(spec), layer).graphs
    x = {("v", 0): 1, ("v", 1): -1}
    for g in graphs[:-1]:
        x = phi_transport(g, x)
    _assert_matches_reference(graphs[-1], x, seed)


def test_generator_matrices_match_sorted_label_reference_on_random_graphs():
    rng = random.Random(27)
    for _ in range(150):
        g, x0 = bipartite_graph_with_kernel(rng)
        x = random_kernel_element(g, rng) or x0
        for seed in (None, 0, 1):
            _assert_matches_reference(g, x, seed)
