import copy
import gc
import pickle
import random
import weakref
from dataclasses import replace
from itertools import groupby

import pytest

from sepk.formal_star import (
    ZERO,
    FormalExpr,
    FormalMatrix,
    GeneratorMatrices,
    MalformedExpressionError,
    StarContext,
    UnsupportedWordError,
    build_generator_matrices,
    _first_mismatch,
    _grams,
    verify_partial_unitary,
    word_str,
)
from sepk.graph_model import Edge, SeparatedGraph, builtin, builtin_from_spec
from sepk.ktheory import NotInKernelError, connecting_map_image, k_groups_full, phi_transport
from sepk.transform import PreconditionError, canonical_sequence

from conftest import bipartite_graph_with_kernel, random_kernel_element
from formal_oracles import (
    ReferenceCalculus,
    adjoint_word,
    assemble_generator_matrices,
    matmul,
    reference_bijections,
    reference_generator_matrices,
    reference_grams,
    reference_matmul,
    reference_matrices_equal,
    reference_verify,
    spell,
)
from graph_oracles import r_inv, renamed, s_inv, shuffled


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


MALFORMED_WORDS = [("x", "a1"), ("e", "a1", "b1"), ("ea", "a1"), ("v",), ("v", "v", "w"), ()]


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


# the calculus against the reference -------------------------------------------


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
            dom, cod, kinds = ctx._shape(word)
            if tag == "ae" and ref.group_of[word[1]] == ref.group_of[word[2]]:
                # the value's shape: e* e is the vertex s(e), and e* f is zero, meeting nothing
                ends = (ref._dom(word), ref._cod(word)) if word[1] == word[2] else (None, None)
                assert (dom, cod, kinds) == (*ends, "")
                continue
            # the word spells its letters' ids; its shape, their kinds
            assert list(zip(kinds, word[1:])) == ref._letters(word)
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


def _lamplighter_l2():
    return canonical_sequence(builtin("lamplighter", [2]), 2).graphs[2]


SHUFFLE_SEED = 11


def _shuffled_renamed_lamplighter_l2():
    rng = random.Random(SHUFFLE_SEED)
    return renamed(shuffled(_lamplighter_l2(), rng), rng)


ORACLE_GRAPHS = {
    "E(2,2)": lambda: builtin("E", [2, 2]),
    "E(3,3)": lambda: builtin("E", [3, 3]),
    "lamplighter(2) L2": _lamplighter_l2,
    "lamplighter(2) L2 shuffled and renamed": _shuffled_renamed_lamplighter_l2,
}


def test_shuffled_oracle_graph_moves_eliminated_members_and_escapes_names():
    # the shuffled copy eliminates another member of some group in the
    # complete-sum rewrite, and its names hold characters that need escaping
    g = _lamplighter_l2()
    h = shuffled(g, random.Random(SHUFFLE_SEED))
    last = {frozenset(group): group[-1] for groups in g.separation for group in groups}
    assert any(last[frozenset(group)] != group[-1] for groups in h.separation for group in groups)
    assert h.vertices != g.vertices and h.edges != g.edges
    r = _shuffled_renamed_lamplighter_l2()
    chars = set("".join(r.vertices + tuple(e.id for e in r.edges)))
    assert set('\\|,"\x01') <= chars and any(ord(c) > 127 for c in chars)


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_calculus_matches_reference(name):
    g = ORACLE_GRAPHS[name]()
    rng = random.Random(sum(map(ord, name)))
    ctx, ref = StarContext(g), ReferenceCalculus(g)
    seen = set()
    for _ in range(400):
        a, b = _random_expr(g, rng), _random_expr(g, rng)
        # twice each: nothing the first call leaves on the graph changes the second
        for _ in range(2):
            got = _outcome(ctx.normalize, a)
            assert got == _outcome(ref.normalize, a)
            seen.add(got[0])
            got = _outcome(ctx.mul, a, b)
            assert got == _outcome(ref.mul, a, b)
            seen.add(got[0])
    assert {"ok", "MalformedExpressionError", "UnsupportedWordError"} <= seen


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
                assert matmul(ctx, a, b).entries == reference_matmul(ref, a, b)


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
        assert got == _outcome(reference_matmul, ref, a, b)
        seen.add(got[0])
    assert {"ok", "MalformedExpressionError", "UnsupportedWordError"} <= seen


def _gram_entries(ctx, m):
    """The entries of m m* and m* m, read off the kernel's cells; each size is m's own.

    A zero term or an empty cell left in the cells shows as an entry that
    the reference, which drops them, does not have.
    """
    out = []
    for (size, cells), labels in zip(_grams(ctx, m), (m.rows, m.cols)):
        assert size == len(labels)
        out.append({
            (i, j): FormalExpr(terms) for i, row in cells.items() for j, terms in row.items()
        })
    return tuple(out)


def test_gram_products_match_reference():
    # verification forms m m* and m* m from m alone, each adjoint word made
    # as m is read; where m* has no value (a word with no adjoint), forming
    # it raises first
    rng = random.Random(31)
    cases = [(builtin("E", [3, 3]), {("v", 0): 2, ("v", 1): -2}, None)]
    for seed in range(6):
        g, x0 = bipartite_graph_with_kernel(rng)
        cases.append((g, random_kernel_element(g, rng) or x0, seed))
    for g, x, seed in cases:
        gm = build_generator_matrices(g, x, seed=seed)
        ref = ReferenceCalculus(g)
        # the tables are kept on the graph: the second context reads those
        # that the build made
        for ctx in (StarContext(g), StarContext(g)):
            for m in (gm.z, gm.t, gm.sigma_t, gm.u):
                assert _gram_entries(ctx, m) == reference_grams(ref, m)
    seen = set()
    for name in sorted(ORACLE_GRAPHS):
        g = ORACLE_GRAPHS[name]()
        ref = ReferenceCalculus(g)
        ctx, other = StarContext(g), StarContext(g)
        assert ctx.group_of is other.group_of and ctx._rewrite is other._rewrite
        build_generator_matrices(g, k_groups_full(g).k1_basis[0])  # on the tables of both
        for _ in range(150):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            a = _random_matrix(g, rng, n, m)
            entries = dict(a.entries)  # in random order, which m.star() reads
            for pos in rng.sample(sorted(entries), min(len(entries), 2)):
                if rng.random() < 0.1:  # a word with no adjoint
                    terms = dict(entries[pos].terms)
                    terms[rng.choice(MALFORMED_WORDS)] = rng.choice((-1, 0, 2))
                    entries[pos] = FormalExpr(terms)
            a = FormalMatrix(a.rows, a.cols, entries)
            got = _outcome(_gram_entries, ctx, a)
            assert got == _outcome(reference_grams, ref, a)
            assert _outcome(_gram_entries, other, a) == _outcome(_gram_entries, ctx, a) == got
            seen.add(got[0] + (":arity" if "arity" in got[1] else "") if got[0] != "ok" else "ok")
    assert {
        "ok", "MalformedExpressionError", "MalformedExpressionError:arity", "UnsupportedWordError"
    } <= seen
    # of two words with no adjoint, the one m* meets first, in m's own entry order, is named
    g = builtin("E", [2, 2])
    m = FormalMatrix((0, 1), (0,), {
        (1, 0): FormalExpr({("x", "a1"): 1}), (0, 0): FormalExpr({("e", "a1"): 1, ("v",): 1}),
    })
    got = _outcome(_gram_entries, StarContext(g), m)
    assert got == _outcome(reference_grams, ReferenceCalculus(g), m)
    named = f"malformed word {('x', 'a1')!r}: unknown tag or wrong arity"
    assert got == ("MalformedExpressionError", named)


def test_what_a_graph_keeps_on_itself_does_not_refer_back_to_it():
    # the validation report, the step map and the formal tables live on the
    # graph; were one of them to refer back to it, the graph would outlive its
    # last reference until the collector found the cycle
    gc.disable()
    try:
        g = builtin("E", [2, 2])
        x = {("v", 0): 1, ("v", 1): -1}
        k_groups_full(g)
        phi_transport(g, x)
        assert verify_partial_unitary(build_generator_matrices(g, x)).ok
        assert {"_validation", "_step_map", "_formal"} <= g.__dict__.keys()
        alive = weakref.ref(g)
        del g
        assert alive() is None
    finally:
        gc.enable()


def test_a_graph_keeps_one_group_key_per_edge_and_one_rewrite_per_group():
    # a checked word's shape and normal form are read off the word and the
    # graph, so two seeded generators built and checked on one graph leave it
    # the two fixed tables that the first context made, and nothing more
    g = canonical_sequence(builtin("E", [2, 2]), 2).graphs[2]
    x = k_groups_full(g).k1_basis[0]
    kept = []
    for seed in (0, 1):
        assert verify_partial_unitary(build_generator_matrices(g, x, seed=seed)).ok
        kept.append(tuple(map(dict, g._formal)))
    group_of, rewrite = g._formal
    keys = g.group_keys()
    assert group_of == {e: key for key in keys for e in g.group(key)}
    assert len(rewrite) == len(keys)
    for v, i in keys:
        *others, last = g.group((v, i))
        assert rewrite[last] == (("v", v), tuple(others))
    assert kept[0] == kept[1] == (group_of, rewrite)


def test_index_skip_keeps_the_malformed_factor_rule():
    # a2 b1* begins with a2, of a1's group, so the index never pairs it with
    # a word ending in a1*; its shape is read first, and it still raises
    g = builtin("lamplighter", [2])
    ctx = StarContext(g)
    left = FormalMatrix((0,), (0,), {(0, 0): ctx.adjoint("a1")})
    for bad, message in (
        (("ea", "a2", "b1"), "a2b1*: sources differ, word is not composable"),
        (("ea", "a2", "zz"), "unknown edge 'zz'"),
    ):
        word = FormalExpr({bad: 1})
        row = FormalMatrix((0,), (0, 1), {(0, 0): ctx.edge("a1"), (0, 1): word})
        gm = GeneratorMatrices(g, {}, row, row, {}, {}, row, row)
        for product in (
            lambda: ctx.mul(ctx.adjoint("a1"), word),
            lambda: ctx.mul(ctx.adjoint("a1"), ctx.edge("a1") + word),
            lambda: matmul(ctx, left, FormalMatrix((0,), (0,), {(0, 0): word})),
            lambda: matmul(ctx, left, row),
            lambda: matmul(ctx, row.star(), row),
            lambda: verify_partial_unitary(gm),
        ):
            with pytest.raises(MalformedExpressionError) as exc:
                product()
            assert str(exc.value) == message


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


def _gram_matrices(ref, m):
    """m m* and m* m as matrices, by the unmemoized calculus."""
    return tuple(
        FormalMatrix(labels, labels, entries)
        for entries, labels in zip(reference_grams(ref, m), (m.rows, m.cols))
    )


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_matrices_equal_matches_reference_on_random_matrices(name):
    # a failing check compares two products' kernel cells (_first_mismatch);
    # the reference compares the two matrices entry by entry, normalizing
    # each difference
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
        got = _outcome(lambda: [_grams(ctx, a), _grams(ctx, b)])
        want = _outcome(lambda: [_gram_matrices(ref, a), _gram_matrices(ref, b)])
        if got[0] != "ok":
            assert got == want
            seen.add(got[0])
            continue
        (ga, gb), (wa, wb) = got[1], want[1]
        for (size, cells), (other_size, other_cells), left, right in zip(ga, gb, wa, wb):
            assert size == other_size == len(left.rows)
            found = _first_mismatch(cells, other_cells)
            assert found == reference_matrices_equal(ref, left, right)
            seen.add("equal" if found is None else "differ")
    assert {"equal", "differ", "MalformedExpressionError"} <= seen


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
            pairs = zip(_grams(ctx, m), _grams(ctx, other),
                        _gram_matrices(ref, m), _gram_matrices(ref, other))
            for (size, cells), (other_size, other_cells), left, right in pairs:
                want = reference_matrices_equal(ref, left, right)
                if size != other_size:  # verify reports these "at shape"
                    assert want == ((-1, -1), ZERO)
                    continue
                found = _first_mismatch(cells, other_cells)
                assert found == want
                mismatches += found is not None
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


def _pairing_cases():
    """X - Y carried along built-in chains, then 150 seeded graphs with kernel elements."""
    for spec, depth in (("E(2,2)", 3), ("E(3,3)", 2), ("lamplighter(3)", 3), ("lamplighter(2)", 5)):
        graphs = canonical_sequence(builtin_from_spec(spec), depth).graphs
        x = {("v", 0): 1, ("v", 1): -1}
        for g, h in zip(graphs, graphs[1:] + (None,)):
            yield g, x
            if h is not None:
                x = phi_transport(g, x)
    rng = random.Random(38)
    for _ in range(150):
        g, x0 = bipartite_graph_with_kernel(rng)
        yield g, random_kernel_element(g, rng) or x0


def _runs(labels, block_of):
    return [(block, len(list(run))) for block, run in groupby(labels, block_of)]


def test_bijections_equal_the_dict_of_blocks_pairing():
    for g, x in _pairing_cases():
        for seed in (None, 0, 1, 7):
            gm = build_generator_matrices(g, x, seed=seed)
            want = reference_bijections(g, x, seed)  # asserts that the blocks balance
            got = (gm.sigma1, gm.sigma2)
            assert [list(s.items()) for s in got] == [list(s.items()) for s in want]
        # each side's blocks are runs of its labels, in one order and of equal sizes
        for left, right, block_of in (
            (gm.z.rows, gm.t.rows, lambda r: r[0][0]), (gm.z.cols, gm.t.cols, lambda c: c[2]),
        ):
            runs = _runs(left, block_of)
            assert runs == _runs(right, block_of)
            assert len({block for block, _ in runs}) == len(runs)


def _cross_swapped(sigma, block_of, swaps):
    """sigma composed with up to `swaps` swaps of two labels of different blocks."""
    out, labels, done = dict(sigma), list(sigma), 0
    for i, a in enumerate(labels):
        b = next((b for b in labels[i + 1 :] if block_of(b) != block_of(a)), None)
        if b is not None and done < swaps:
            out[a], out[b] = out[b], out[a]
            done += 1
    return out


def _same_report(gm):
    report, want = verify_partial_unitary(gm), reference_verify(gm)
    assert str(report) == str(want)
    assert report.checks == want.checks
    assert (report.range_class, report.source_class) == (want.range_class, want.source_class)
    return report


def _side_cases():
    """E(2,2) layer 2 with X - Y carried there, and three seeded graphs with kernel elements."""
    graphs = canonical_sequence(builtin("E", [2, 2]), 2).graphs
    x = {("v", 0): 1, ("v", 1): -1}
    for g in graphs[:-1]:
        x = phi_transport(g, x)
    cases, rng = [(graphs[-1], x, None)], random.Random(41)
    for seed in range(3):
        g, x0 = bipartite_graph_with_kernel(rng)
        cases.append((g, random_kernel_element(g, rng) or x0, seed or None))
    return cases


def _line_state(lines):
    return {i: (x.words, x.bad, x.first, x.rest, x.group) for i, x in lines.items()}


def test_sides_are_built_and_checked_without_making_their_entries():
    for g, x, seed in _side_cases():
        gm = build_generator_matrices(g, x, seed=seed)
        assert verify_partial_unitary(gm).ok
        sides = (gm.z, gm.t, gm.sigma_t)
        assert not any("entries" in m.__dict__ for m in sides)
        kept = [copy.deepcopy(m) for m in sides]
        # made on first read, equal to the reference's, in the reference's key order
        z, t, sigma_t, _ = reference_generator_matrices(g, x, gm.sigma1, gm.sigma2)
        for m, want in zip(sides, (z, t, sigma_t)):
            assert list(m.entries.items()) == list(want.entries.items())
            assert "entries" in m.__dict__ and m == want
        assert list(gm.sigma_t.entries) == sorted(gm.sigma_t.entries)
        # a side's lines are the lines _read makes of its entries
        ctx = StarContext(g)
        for m, want in zip(kept, sides):
            for adjoint in (False, True):
                got = ctx._read_matrix(m, adjoint)
                assert "entries" not in m.__dict__
                wanted = ctx._read(sorted(want.entries.items()), adjoint)
                assert list(map(_line_state, got)) == list(map(_line_state, wanted))
            assert ctx._read_matrix(m, True, own=False)[0] == {}


def test_sides_survive_pickle_copy_and_replace():
    g, x, _ = _side_cases()[0]
    gm = build_generator_matrices(g, x)
    copies = map(copy.deepcopy, (gm.z, gm.t, gm.sigma_t))
    want = [FormalMatrix(m.rows, m.cols, dict(m.entries)) for m in copies]
    for m, entries in zip((gm.z, gm.t, gm.sigma_t), want):
        for other in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
            assert "entries" not in other.__dict__ and other == entries
        assert "entries" not in m.__dict__
        moved = replace(m, rows=m.rows)
        assert moved == m == entries and "entries" in moved.__dict__
    blank = object.__new__(FormalMatrix)  # as unpickling meets it: an empty __dict__
    assert not hasattr(blank, "entries") and not hasattr(blank, "rows")
    with pytest.raises(AttributeError, match="'FormalMatrix' object has no attribute 'entries'"):
        blank.entries


def _with_edge_renamed(g, eid, new):
    name = {e.id: e.id for e in g.edges} | {eid: new}
    return SeparatedGraph(
        g.vertices,
        tuple(Edge(name[e.id], e.src, e.dst) for e in g.edges),
        tuple(tuple(tuple(name[e] for e in grp) for grp in groups) for groups in g.separation),
        g.bipartite,
    )


def test_a_side_on_a_graph_without_its_edge_raises_as_its_entries_do():
    for g, x, seed in _side_cases():
        gm = build_generator_matrices(g, x, seed=seed)
        last = gm.z.__dict__["_arrays"][1][-1]
        for other in (renamed(g, random.Random(5)), _with_edge_renamed(g, last, "unknown")):
            sides = replace(copy.deepcopy(gm), graph=other)
            z = copy.deepcopy(gm.z)
            given = replace(gm, graph=other, z=FormalMatrix(z.rows, z.cols, dict(z.entries)))
            got = _outcome(verify_partial_unitary, sides)
            assert got[0] == "MalformedExpressionError"
            assert got == _outcome(verify_partial_unitary, given)


def test_verify_matches_the_reference_report():
    # the kernel's cells decide each check; the reference forms every product
    # cell by cell and compares the matrices in the same order
    rng = random.Random(36)
    cases = [(builtin_from_spec(s), {("v", 0): 1, ("v", 1): -1}, None)
             for s in ("E(2,2)", "E(3,3)", "lamplighter(2)", "lamplighter(3)")]
    graphs = canonical_sequence(builtin("E", [2, 2]), 2).graphs
    x = {("v", 0): 1, ("v", 1): -1}
    for g, h in zip(graphs, graphs[1:]):  # X - Y carried to layers 1 and 2
        x = phi_transport(g, x)
        cases.append((h, x, 1))
    for seed in range(12):
        g, x0 = bipartite_graph_with_kernel(rng)
        cases.append((g, random_kernel_element(g, rng) or x0, seed % 3 or None))
    failed = 0
    for g, x, seed in cases:
        gm = build_generator_matrices(g, x, seed=seed)
        assert _same_report(gm).ok
        for swaps in (1, 2, 3):  # sigma2 across sources
            s2 = _cross_swapped(gm.sigma2, lambda c: c[2], swaps)
            failed += not _same_report(assemble_generator_matrices(g, x, gm.sigma1, s2)).ok
        s1 = _cross_swapped(gm.sigma1, lambda r: r[0][0], 1)  # sigma1 across ranges
        failed += not _same_report(assemble_generator_matrices(g, x, s1, gm.sigma2)).ok
    assert failed > len(cases)
    # U's own labels name the positions of its checks
    made = (build_generator_matrices(g, x, seed=seed) for g, x, seed in cases)
    gm = next(gm for gm in made if len(gm.u.rows) > 2)
    rows, cols = (tuple((name, i) for i in range(len(gm.u.rows))) for name in "uc")
    u = FormalMatrix(rows, cols, dict(list(gm.u.entries.items())[1:]))
    text = str(_same_report(replace(gm, u=u)))
    assert "FAIL UU* = ZZ*: at (('u', 0)" in text and "FAIL U*U = UU*: at (('c', 0)" in text


def test_verify_names_a_shape_mismatch_and_a_residue_of_several_terms():
    g = builtin("E", [2, 2])
    gm = build_generator_matrices(g, {("v", 0): 1, ("v", 1): -1})
    # U with one more row and column than Z: UU* and ZZ* differ in shape
    u = FormalMatrix(gm.u.rows + ("extra",), gm.u.cols + ("extra",), gm.u.entries)
    report = _same_report(replace(gm, u=u))
    assert [str(c) for c in report.checks if not c.ok] == ["FAIL UU* = ZZ*: at shape: residue 0"]
    # U = a1b1* + 2 a2b2*: UU* = 4 v - 3 a1a1*, against ZZ* = v
    entry = FormalExpr({("ea", "a1", "b1"): 1, ("ea", "a2", "b2"): 2})
    u = FormalMatrix(gm.u.rows, gm.u.cols, {(0, 0): entry})
    report = _same_report(replace(gm, u=u))
    assert [str(c) for c in report.checks if not c.ok] == [
        "FAIL UU* = ZZ*: at ((v.1,1), (v.1,1)): residue -3 a1a1* + 3 v",
        "FAIL U*U = UU*: at ((v.1,1), (v.1,1)): residue 3 a1a1* - 3 b1b1*",
    ]


def test_verify_raises_as_the_reference_does():
    # U's Gram products are formed before any vertex diagonal, so a malformed
    # word in U raises before an unknown vertex in a label
    g = builtin("E", [2, 2])
    gm = build_generator_matrices(g, {("v", 0): 1, ("v", 1): -1})
    key, t = gm.z.rows[0]
    z = FormalMatrix(((("nowhere", key[1]), t),) + gm.z.rows[1:], gm.z.cols, gm.z.entries)
    for word in [*MALFORMED_WORDS, ("e", "zz"), ("ae", "a1", "b1"), None]:  # all but None raise
        u = gm.u
        if word is not None:
            terms = dict(u.entry(0, 0).terms)
            terms[word] = 1
            u = FormalMatrix(u.rows, u.cols, {**u.entries, (0, 0): FormalExpr(terms)})
        for zm in (gm.z, z):
            bad = GeneratorMatrices(g, gm.element, zm, gm.t, gm.sigma1, gm.sigma2, gm.sigma_t, u)
            got = _outcome(verify_partial_unitary, bad)
            assert got == _outcome(reference_verify, bad)
            assert (got[1] == "unknown vertex 'nowhere'") == (word is None and zm is z)
