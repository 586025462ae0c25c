"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines; each
test prints its line before asserting, so failures still report their
criterion.  Stated time bounds are asserted where the criterion gives one.
"""

import cmath
import itertools
import random
import time

from sepk.exact_linalg import (
    AbelianGroupInvariants,
    IntMatrix,
    in_lattice_span,
    kernel_basis,
    matrix_rank,
    smith_normal_form,
)
from sepk.graph_model import builtin, validate
from sepk.ktheory import (
    CharacterAssignment,
    character_relation_errors,
    connecting_map_image,
    extend_character,
    incidence,
    k_groups_full,
    phi_transport,
)
from sepk.formal_star import build_generator_matrices, verify_partial_unitary
from sepk.transform import (
    bipartite_companion,
    canonical_sequence,
    canonical_step_data,
    multiresolution_at,
    multiresolution_data,
    w_count_formula,
)

from conftest import (
    admissible_vertex_set,
    bipartite_graph_with_kernel,
    random_kernel_element,
    random_separated_graph,
)
from dense_oracles import diagonal, smith_diagonal, transpose


def report(number: int, ok: bool, detail: str):
    print(f"CRITERION {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


X_MINUS_Y = {("v", 0): 1, ("v", 1): -1}


def test_criterion_01_two_group_family_k1():
    t0 = time.perf_counter()
    ok = True
    for m, n in ((2, 2), (3, 3), (4, 4), (2, 3), (3, 5)):
        kg = k_groups_full(builtin("E", [m, n]))
        if m == n:
            ok &= kg.k1_rank == 1 and kg.k1_basis == (X_MINUS_Y,)
        else:
            ok &= kg.k1_rank == 0 and kg.k1_basis == ()
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"K1 = Z iff m = n with basis X - Y for five (m, n); {elapsed:.3f}s < 1s")


def test_criterion_02_lamplighter_k1():
    t0 = time.perf_counter()
    ok = True
    for p in range(2, 6):
        kg = k_groups_full(builtin("lamplighter", [p]))
        ok &= kg.k1_rank == 1 and kg.k1_basis == (X_MINUS_Y,)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(2, ok, f"K1 = Z with basis X - Y for p = 2..5; {elapsed:.3f}s < 1s")


def test_criterion_03_multiresolution_k0_splitting():
    rng = random.Random(2003)
    t0 = time.perf_counter()
    ok = True
    done = 0
    while done < 200:
        g = random_separated_graph(rng, max_range=5, max_groups=3, max_size=3)
        vs = admissible_vertex_set(g, rng)
        if vs is None:
            continue
        data = multiresolution_data(g, vs)
        before = k_groups_full(g).k0
        after = k_groups_full(data.graph).k0
        ok &= after == before.with_free_summand(len(data.w_vertices))
        ok &= len(data.w_vertices) == w_count_formula(g, vs)
        done += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(3, ok, f"200 random multiresolutions: coker gains Z^|W|, |W| matches formula; {elapsed:.2f}s < 30s")


def test_criterion_04_kernel_transport_along_sequence():
    t0 = time.perf_counter()
    ok = True
    for spec in (("E", [2, 2]), ("E", [2, 3]), ("lamplighter", [2])):
        g = builtin(*spec)
        seq = canonical_sequence(g, 3)
        pairs = [incidence(layer) for layer in seq.graphs]
        ranks = [len(p.cols) - matrix_rank(p.difference()) for p in pairs]
        ok &= len(set(ranks)) == 1
        for n in range(3):
            pair = pairs[n]
            basis = kernel_basis(pair.difference())
            vecs = [
                {key: c for key, c in zip(pair.cols, vec) if c} for vec in basis
            ]
            # phi raises if an image misses the next kernel
            images = [phi_transport(seq.graphs[n], x) for x in vecs]
            if images:
                cols = seq.graphs[n + 1].group_keys()
                stacked = IntMatrix(
                    cols,
                    range(len(images)),
                    [[img.get(key, 0) for img in images] for key in cols],
                )
                diag = smith_diagonal(stacked)
                ok &= all(d == 1 for d in diag) and len(diag) >= len(images)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(4, ok, f"kernel rank constant to depth 3, transported bases stay bases; {elapsed:.2f}s < 10s")


def _random_verified_elements(seed: int, count: int):
    """Random nonzero kernel elements on random bipartite graphs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g, x0 = bipartite_graph_with_kernel(rng)
        x = random_kernel_element(g, rng) or x0
        weight = sum(abs(c) * len(g.group(k)) for k, c in x.items())
        if weight > 40:
            continue
        out.append((g, x))
    return out


def test_criterion_05_generator_identities():
    t0 = time.perf_counter()
    ok = True
    for g, x in _random_verified_elements(2005, 50):
        ok &= verify_partial_unitary(build_generator_matrices(g, x)).ok
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(5, ok, f"50 random kernel elements: all generator identities hold; {elapsed:.2f}s < 10s")


def test_criterion_06_companion_invariance():
    rng = random.Random(2006)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        g = random_separated_graph(rng)
        c = bipartite_companion(g)
        ok &= validate(c).ok
        kg, kc = k_groups_full(g), k_groups_full(c)
        ok &= kg.k0 == kc.k0 and kg.k1_rank == kc.k1_rank
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(6, ok, f"100 random graphs: companion preserves K0 and K1 invariants; {elapsed:.2f}s < 10s")


def test_criterion_07_truncated_tame_ranks():
    seq = canonical_sequence(builtin("E", [2, 2]), 2)
    enum2, enum3 = len(seq.w_sets[2]), len(seq.w_sets[3])
    form2 = w_count_formula(seq.graphs[0], seq.graphs[0].layer0)
    form3 = w_count_formula(seq.graphs[1], seq.graphs[1].layer0)
    ok = (enum2, form2) == (1, 1) and (enum3, form3) == (11, 11)
    report(7, ok, f"|W_2| = {enum2} (formula {form2}), |W_3| = {enum3} (formula {form3}); expected 1 and 11")


def _random_base_character(g, rng):
    """A random character satisfying every relation of g.

    Solutions of the relation system are the unit exponentials of real
    vertex vectors whose pairing with every relation column is an integer;
    the Smith form of the transposed incidence difference parametrizes
    them (free coordinates arbitrary, torsion coordinates rationals with
    the invariant factor as denominator).
    """
    mt = transpose(incidence(g).difference())
    _, d, v = smith_normal_form(mt)
    diag = diagonal(d)
    n = len(v.cols)
    y = []
    for j in range(n):
        dj = diag[j] if j < len(diag) else 0
        y.append(rng.random() if dj == 0 else rng.randrange(dj) / dj)
    values = {}
    for i, vertex in enumerate(g.vertices):
        theta = sum(v.data[i][j] * y[j] for j in range(n))
        theta -= round(theta)  # keep the phase small for precision
        values[vertex] = cmath.exp(2j * cmath.pi * theta)
    return values


def test_criterion_08_character_extension():
    rng = random.Random(2008)
    ok = True
    worst = 0.0
    done = 0
    while done < 50:
        g = random_separated_graph(rng, max_range=3, max_groups=3, max_size=3)
        vs = admissible_vertex_set(g, rng)
        if vs is None:
            continue
        base_values = _random_base_character(g, rng)
        data = multiresolution_data(g, vs)
        free = {
            name: cmath.exp(2j * cmath.pi * rng.random()) for name in data.w_vertices
        }
        ext = extend_character(g, vs, CharacterAssignment(base_values), free)
        errors = character_relation_errors(data.graph, ext.values)
        err = max((e for _, e in errors), default=0.0)
        worst = max(worst, err)
        ok &= err < 1e-9
        done += 1
    report(8, ok, f"50 random extensions satisfy every relation; worst error {worst:.2e} < 1e-9")


def test_criterion_09_brute_force_kernel_oracle():
    rng = random.Random(2009)
    ok = True
    checked = 0
    for _ in range(500):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = IntMatrix(
            range(r), range(c),
            [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)],
        )
        basis = kernel_basis(m)
        for vec in itertools.product(range(-3, 4), repeat=c):
            if all(
                sum(m.data[i][j] * vec[j] for j in range(c)) == 0 for i in range(r)
            ):
                ok &= in_lattice_span(basis, vec)
                checked += 1
    report(9, ok, f"500 matrices, {checked} exhaustive annihilators all in the kernel lattice")


def test_criterion_10_connecting_map_agreement():
    ok = True
    elements = [
        (builtin("E", [m, m]), dict(X_MINUS_Y)) for m in (2, 3, 4)
    ] + [
        (builtin("lamplighter", [p]), dict(X_MINUS_Y)) for p in range(2, 6)
    ] + _random_verified_elements(2005, 50)
    for g, x in elements:
        delta = connecting_map_image(g, x)
        ok &= delta != {}
        rep = verify_partial_unitary(build_generator_matrices(g, x))
        diff = dict(rep.source_class)
        for v, cnt in rep.range_class.items():
            diff[v] = diff.get(v, 0) - cnt
        diff = {v: cnt for v, cnt in diff.items() if cnt}
        ok &= diff == delta
    report(10, ok, f"connecting map nonzero and equal to the diagonal class difference for {len(elements)} elements")
