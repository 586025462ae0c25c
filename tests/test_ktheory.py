import cmath
import random

import pytest

from sepk.exact_linalg import AbelianGroupInvariants, IntMatrix, smith_diagonal, smith_normal_form
from sepk.graph_model import SeparatedGraph, builtin, builtin_from_spec
from sepk.ktheory import (
    CharacterAssignment,
    CharacterError,
    NotInKernelError,
    character_relation_errors,
    connecting_map_image,
    extend_character,
    incidence,
    k0_tame,
    k1_tame,
    k_groups_full,
    monoid_universal_group,
    phi_transport,
)
from sepk.transform import (
    BudgetExceededError,
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
    random_bipartite_graph,
    random_separated_graph,
)


def test_incidence_emn():
    for m, n in ((2, 3), (3, 3), (4, 7)):
        pair = incidence(builtin("E", [m, n]))
        diff = pair.difference()
        assert diff.rows == ("v", "w")
        assert diff.to_lists() == [[1, 1], [-n, -m]]
        # column sums of the count matrix are the group sizes
        assert [sum(col) for col in zip(*pair.counts.data)] == [n, m]


def test_incidence_lamplighter():
    pair = incidence(builtin("lamplighter", [3]))
    diff = pair.difference()
    assert diff.to_lists() == [[1, 1], [-1, -1], [-1, -1], [-1, -1]]


def test_incidence_edgeless():
    g = SeparatedGraph.build(["a", "b"], [], {})
    pair = incidence(g)
    assert pair.one.shape == (2, 0)


def test_incidence_invariants_random():
    rng = random.Random(51)
    for _ in range(20):
        g = random_separated_graph(rng)
        pair = incidence(g)
        nv = len(pair.vertices)
        for j, key in enumerate(pair.cols):
            col_one = [pair.one.data[i][j] for i in range(nv)]
            assert sum(col_one) == 1
            assert col_one[g.vertex_index(key[0])] == 1
            col_counts = [pair.counts.data[i][j] for i in range(nv)]
            assert all(c >= 0 for c in col_counts)
            assert sum(col_counts) == len(g.group(key))


def test_k_groups_examples():
    kg = k_groups_full(builtin("E", [3, 3]))
    assert kg.k0 == AbelianGroupInvariants(1)
    assert kg.k1_rank == 1
    assert kg.k1_basis == ({("v", 0): 1, ("v", 1): -1},)

    kg = k_groups_full(builtin("E", [2, 3]))
    assert kg.k0 == AbelianGroupInvariants(0)
    assert kg.k1_rank == 0

    kg = k_groups_full(builtin("lamplighter", [2]))
    assert kg.k0 == AbelianGroupInvariants(2)
    assert kg.k1_basis == ({("v", 0): 1, ("v", 1): -1},)


def test_k1_tame_equals_k1():
    for spec in (("E", [4, 4]), ("E", [2, 5]), ("lamplighter", [3])):
        g = builtin(*spec)
        assert k1_tame(g).k1_basis == k_groups_full(g).k1_basis


def test_k0_tame_e22():
    g = builtin("E", [2, 2])
    r1 = k0_tame(g, 1)
    assert r1.base == AbelianGroupInvariants(1)
    assert r1.layer_ranks == (1,)
    assert not r1.via_companion
    r2 = k0_tame(g, 2)
    assert r2.layer_ranks == (1, 11)
    assert r2.total() == AbelianGroupInvariants(1 + 12)
    assert r2.truncated


def test_k0_tame_non_separated_graph():
    # every C_v a single group: no W contributions at any depth
    g = SeparatedGraph.build(
        ["u", "w1", "w2"],
        [("x1", "w1", "u"), ("x2", "w2", "u")],
        {"u": [["x1", "x2"]]},
        bipartite=(["u"], ["w1", "w2"]),
    )
    r = k0_tame(g, 3)
    assert r.layer_ranks == (0, 0, 0)
    assert r.total() == r.base


def test_k0_tame_routes_through_companion():
    g = SeparatedGraph.build(
        ["u", "w"],
        [("x1", "w", "u"), ("x2", "w", "u"), ("y1", "w", "w")],
        {"u": [["x1"], ["x2"]], "w": [["y1"]]},
    )
    r = k0_tame(g, 1)
    assert r.via_companion
    assert r.base == k_groups_full(g).k0


def _ranks_by_oracles(g, depth, materialized, budget=10**6):
    """|W_k| counted on the named layers of canonical_sequence(g, materialized)
    and by w_count_formula on each source layer, up to the given depth."""
    seq = canonical_sequence(g, materialized, budget)
    named = tuple(len(seq.w_sets[k]) for k in range(2, materialized + 2))
    formula = tuple(w_count_formula(h, h.layer0) for h in seq.graphs[:depth])
    return named, formula


@pytest.mark.parametrize(
    "spec, depth, materialized",
    [
        ("E(2,2)", 3, 3),
        ("E(2,3)", 3, 3),
        ("E(3,3)", 3, 2),  # its layer 4 has 532 170 vertices: counted, not named
        ("lamplighter(2)", 3, 3),
        ("lamplighter(3)", 3, 3),
    ],
)
def test_k0_tame_ranks_match_materialized_layers(spec, depth, materialized):
    g = builtin_from_spec(spec)
    named, formula = _ranks_by_oracles(g, depth, materialized)
    ranks = k0_tame(g, depth).layer_ranks
    assert ranks == formula
    assert ranks[:materialized] == named
    assert k0_tame(g, 1).layer_ranks == ranks[:1]


def test_k0_tame_ranks_match_materialized_layers_random():
    rng = random.Random(41)
    budget = 5000
    for _ in range(50):
        g = random_bipartite_graph(rng)
        try:
            named, formula = _ranks_by_oracles(g, 2, 2, budget)
        except BudgetExceededError as exc:
            with pytest.raises(BudgetExceededError) as tame:
                k0_tame(g, 2, budget)
            assert (str(tame.value), tame.value.last_layer) == (str(exc), exc.last_layer)
            continue
        assert k0_tame(g, 2, budget).layer_ranks == named == formula


def test_k0_tame_budget_error_matches_sequence():
    cases = [builtin_from_spec(s) for s in ("E(2,2)", "E(2,3)", "lamplighter(3)")]
    cases.append(SeparatedGraph.build(  # no bipartite split: through the companion
        ["u", "w"],
        [("x1", "w", "u"), ("x2", "w", "u"), ("y1", "w", "u"), ("y2", "w", "u"), ("z", "u", "w")],
        {"u": [["x1", "x2"], ["y1", "y2"]], "w": [["z"]]},
    ))
    for g in cases:
        h = g if g.bipartite else bipartite_companion(g)
        with pytest.raises(BudgetExceededError) as seq:
            canonical_sequence(h, 3, budget=10)
        with pytest.raises(BudgetExceededError) as tame:
            k0_tame(g, 3, budget=10)
        assert str(tame.value) == str(seq.value)
        assert tame.value.last_layer == seq.value.last_layer


def test_monoid_agrees_with_k0():
    rng = random.Random(23)
    for _ in range(30):
        g = random_separated_graph(rng)
        assert monoid_universal_group(g) == k_groups_full(g).k0


def test_monoid_edgeless():
    g = SeparatedGraph.build([f"v{i}" for i in range(4)], [], {})
    assert monoid_universal_group(g) == AbelianGroupInvariants(4)


def test_multires_k0_identity_random():
    rng = random.Random(31)
    done = 0
    while done < 40:
        g = random_separated_graph(rng)
        vs = admissible_vertex_set(g, rng)
        if vs is None:
            continue
        before = k_groups_full(g).k0
        data = multiresolution_data(g, vs)
        after = k_groups_full(data.graph).k0
        assert after == before.with_free_summand(len(data.w_vertices))
        assert len(data.w_vertices) == w_count_formula(g, vs)
        done += 1


def test_phi_e22_example():
    g = builtin("E", [2, 2])
    image = phi_transport(g, {("v", 0): 1, ("v", 1): -1})
    # minus the groups of the edges of X, plus the groups of the edges of Y
    step = canonical_step_data(g)
    expect = {}
    for e in ("a1", "a2"):
        expect[step.group_of_edge[e]] = -1
    for e in ("b1", "b2"):
        expect[step.group_of_edge[e]] = 1
    assert image == expect


def test_phi_zero():
    assert phi_transport(builtin("E", [2, 2]), {}) == {}


def test_phi_rejects_non_kernel():
    g = builtin("E", [2, 2])
    with pytest.raises(NotInKernelError) as exc:
        phi_transport(g, {("v", 0): 1})
    assert exc.value.residual["v"] == 1


def test_phi_keeps_bases_independent():
    rng = random.Random(37)
    for _ in range(10):
        g, _ = bipartite_graph_with_kernel(rng)
        pair = incidence(g)
        from sepk.exact_linalg import kernel_basis

        basis = kernel_basis(pair.difference())
        vecs = [
            {key: c for key, c in zip(pair.cols, vec) if c} for vec in basis
        ]
        images = [phi_transport(g, x) for x in vecs]
        step = canonical_step_data(g)
        cols = step.graph.group_keys()
        stacked = IntMatrix.from_rows(
            cols,
            range(len(images)),
            [[img.get(key, 0) for img in images] for key in cols],
        )
        diag = smith_diagonal(stacked)
        assert all(d == 1 for d in diag)
        assert len([d for d in diag if d]) == len(images)


def test_connecting_map_examples():
    g = builtin("E", [3, 3])
    x = {("v", 0): 1, ("v", 1): -1}
    assert connecting_map_image(g, x) == {"w": 3, "v": -1}
    lamp = builtin("lamplighter", [2])
    assert connecting_map_image(lamp, x) == {"w1": 1, "w2": 1, "v": -1}
    assert connecting_map_image(g, {}) == {}


def test_connecting_map_nonzero_on_nonzero_elements():
    rng = random.Random(41)
    from conftest import random_kernel_element

    found = 0
    while found < 15:
        g, x0 = bipartite_graph_with_kernel(rng)
        x = random_kernel_element(g, rng) or x0
        assert connecting_map_image(g, x) != {}
        found += 1


def test_character_all_ones():
    g = builtin("E", [2, 2])
    data = multiresolution_data(g, ["v"])
    base = CharacterAssignment({v: 1 + 0j for v in g.vertices})
    free = {name: 1 + 0j for name in data.w_vertices}
    ext = extend_character(g, ["v"], base, free)
    assert all(abs(z - 1) < 1e-12 for z in ext.values.values())


def test_character_e22_worked_case():
    # base with lambda(v) = lambda(w)^2, one free value on the single W vertex
    g = builtin("E", [2, 2])
    base = CharacterAssignment({"v": -1 + 0j, "w": 1j})
    free = {"v|a2,b2": cmath.exp(1j * cmath.pi / 3)}
    ext = extend_character(g, ["v"], base, free)
    out = multiresolution_at(g, ["v"])
    for _, err in character_relation_errors(out, ext.values):
        assert err < 1e-12
    # the free value is kept verbatim
    assert abs(ext.values["v|a2,b2"] - cmath.exp(1j * cmath.pi / 3)) < 1e-12


def test_character_rejects_bad_base():
    g = builtin("E", [2, 2])
    base = CharacterAssignment({"v": 1j, "w": 1 + 0j})  # v != w^2
    with pytest.raises(CharacterError, match="violates"):
        extend_character(g, ["v"], base, {})


def test_character_rejects_wrong_free_set():
    g = builtin("E", [2, 2])
    base = CharacterAssignment({"v": 1 + 0j, "w": 1 + 0j})
    with pytest.raises(CharacterError, match="missing"):
        extend_character(g, ["v"], base, {})
    with pytest.raises(CharacterError, match="non-W"):
        extend_character(
            g, ["v"], base, {"v|a2,b2": 1 + 0j, "v|a1,b1": 1 + 0j}
        )


def test_character_rejects_non_unit_modulus():
    with pytest.raises(CharacterError, match="modulus"):
        CharacterAssignment({"v": 2 + 0j})


def test_k0_grows_by_w_rank_along_sequence():
    # each canonical step adds exactly Z^|W| to the cokernel, and the fresh
    # bipartite layer has the same K0 as the full multiresolution
    from sepk.transform import canonical_sequence

    for spec in (("E", [2, 2]), ("E", [2, 3]), ("lamplighter", [2])):
        g = builtin(*spec)
        seq = canonical_sequence(g, 2)
        invs = [k_groups_full(layer).k0 for layer in seq.graphs]
        for n in range(2):
            assert invs[n + 1] == invs[n].with_free_summand(len(seq.w_sets[n + 2]))
        full = multiresolution_at(g, g.layer0)
        assert k_groups_full(full).k0 == invs[1]


def test_companion_preserves_k_groups_small():
    rng = random.Random(43)
    for _ in range(20):
        g = random_separated_graph(rng)
        kg = k_groups_full(g)
        kc = k_groups_full(bipartite_companion(g))
        assert kg.k0 == kc.k0
        assert kg.k1_rank == kc.k1_rank
