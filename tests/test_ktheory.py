import cmath
import random

import pytest

from sepk import exact_linalg, formal_star, ktheory
from sepk.exact_linalg import (
    AbelianGroupInvariants,
    IntMatrix,
    cokernel_invariants,
    kernel_basis,
    matrix_rank,
)
from sepk.graph_model import SeparatedGraph, builtin, builtin_from_spec, group_label
from sepk.ktheory import (
    CharacterAssignment,
    CharacterError,
    NotInKernelError,
    character_relation_errors,
    connecting_map_image,
    element_residual,
    extend_character,
    incidence,
    k0_tame,
    k1_tame,
    k_groups_full,
    monoid_universal_group,
    phi_transport,
    require_kernel_element,
)
from sepk.transform import (
    BudgetExceededError,
    PreconditionError,
    _step_groups,
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
    random_kernel_element,
    random_separated_graph,
)
from dense_oracles import dense_difference, dense_one, smith_diagonal, to_lists
from graph_oracles import projected_step_size, reference_character_values, reference_step


def arrow_counts(pair):
    """one minus difference(): the arrows of each group tallied by source vertex."""
    one, diff = pair.one.data, pair.difference().data
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(one, diff)]


def test_incidence_emn():
    for m, n in ((2, 3), (3, 3), (4, 7)):
        pair = incidence(builtin("E", [m, n]))
        diff = pair.difference()
        assert diff.rows == ("v", "w")
        assert to_lists(diff) == [[1, 1], [-n, -m]]
        # column sums of the count matrix are the group sizes
        assert [sum(col) for col in zip(*arrow_counts(pair))] == [n, m]


def test_incidence_lamplighter():
    pair = incidence(builtin("lamplighter", [3]))
    diff = pair.difference()
    assert to_lists(diff) == [[1, 1], [-1, -1], [-1, -1], [-1, -1]]


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
        counts = arrow_counts(pair)
        for j, key in enumerate(pair.cols):
            col_one = [pair.one.data[i][j] for i in range(nv)]
            assert sum(col_one) == 1
            assert col_one[g.vertex_index(key[0])] == 1
            col_counts = [counts[i][j] for i in range(nv)]
            assert all(c >= 0 for c in col_counts)
            assert sum(col_counts) == len(g.group(key))


def test_linear_algebra_on_the_incidence_builds_no_dense_view(monkeypatch):
    # Built-in layers 0..2, then seeded bipartite graphs.
    graphs = [
        g
        for spec in ("E(2,2)", "E(2,3)", "E(3,3)", "lamplighter(2)", "lamplighter(3)")
        for g in canonical_sequence(builtin_from_spec(spec), 2).graphs
    ]
    rng = random.Random(3041)
    graphs += [random_bipartite_graph(rng) for _ in range(60)]
    pairs = [incidence(g) for g in graphs]

    def refuse(matrix):
        raise AssertionError("the dense view of the incidence was built")

    with monkeypatch.context() as patch:
        patch.setattr(IntMatrix, "data", property(refuse))
        got = [
            (cokernel_invariants(p.difference()), kernel_basis(p.difference()),
             matrix_rank(p.difference()))
            for p in pairs
        ]
    for g, pair, (k0, basis, rank) in zip(graphs, pairs, got):
        kg = k_groups_full(g)
        assert k0 == kg.k0 and rank == len(pair.cols) - len(basis)
        assert [{key: c for key, c in zip(pair.cols, v) if c} for v in basis] == list(kg.k1_basis)
        for made, dense in ((pair.one, dense_one(pair)), (pair.difference(), dense_difference(pair))):
            assert made.data == dense.data and made == dense


def column_residual(g, x):
    """Sum of c times column over incidence(g).columns, keyed by vertex."""
    pair = incidence(g)
    col_of = dict(zip(pair.cols, pair.columns))
    out = dict.fromkeys(pair.vertices, 0)
    for key, c in x.items():
        if key not in col_of:
            raise PreconditionError(f"unknown group {group_label(key)}")
        for i, val in col_of[key].items():
            out[pair.vertices[i]] += c * val
    return out


def test_residual_read_from_graph_matches_incidence_columns():
    rng = random.Random(53)
    kernel_seen = outside_seen = unknown_seen = 0
    for _ in range(60):
        g = random_separated_graph(rng)
        keys = list(g.group_keys())
        unknown = [("nowhere", 0), (g.vertices[0], len(g.groups_at(g.vertices[0]))),
                   (g.vertices[-1], -1)]
        for _ in range(5):
            picked = rng.sample(keys, rng.randint(0, len(keys)))
            x = {key: rng.randint(-2, 2) for key in picked}  # zeros included
            if rng.random() < 0.3:
                x[rng.choice(unknown)] = rng.randint(-1, 1)
            try:
                want = column_residual(g, x)
            except PreconditionError as exc:
                with pytest.raises(PreconditionError) as got:
                    element_residual(g, x)
                assert str(got.value) == str(exc)
                with pytest.raises(PreconditionError) as got:
                    require_kernel_element(g, x)
                assert str(got.value) == str(exc)
                unknown_seen += 1
                continue
            residual = element_residual(g, x)
            assert residual == want
            assert list(residual) == list(g.vertices)
            if any(want.values()):
                with pytest.raises(NotInKernelError) as exc:
                    require_kernel_element(g, x)
                assert exc.value.residual == want
                outside_seen += 1
            else:
                require_kernel_element(g, x)
                kernel_seen += 1
    assert kernel_seen and outside_seen and unknown_seen
    with pytest.raises(PreconditionError, match=r"^unknown group v\.3$"):
        element_residual(builtin("E", [2, 2]), {("v", 2): 0})


def test_membership_checks_build_no_incidence(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return incidence(g)

    monkeypatch.setattr(ktheory, "incidence", counting)
    monkeypatch.setattr(formal_star, "incidence", counting, raising=False)
    rng = random.Random(59)
    for _ in range(10):
        g, x = bipartite_graph_with_kernel(rng)
        formal_star.build_generator_matrices(g, x)
        ktheory.connecting_map_image(g, x)
        ktheory.phi_transport(g, x)
        assert calls == []
        ktheory.k_groups_full(g)
        assert calls == [g]
        calls.clear()


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


def test_k_groups_read_both_groups_off_one_smith_pass(monkeypatch):
    # seeded graphs, K0 torsion among them: k_groups_full runs one Smith
    # pass, with V appended, and its K0 is the V-free cokernel's, which
    # k0_tame also reads without V
    appended = []
    smith = exact_linalg._smith

    def recorded(a, m, n):
        appended.append((len(a) - m, n))  # rows below the block, and its columns
        smith(a, m, n)

    monkeypatch.setattr(exact_linalg, "_smith", recorded)
    rng = random.Random(4303)
    torsion = cores = 0
    for _ in range(120):
        g = random_bipartite_graph(rng)
        kg = k_groups_full(g)
        [(v_rows, n)] = appended
        assert v_rows == n
        cores += n > 0
        appended.clear()
        k0 = cokernel_invariants(incidence(g).difference())
        assert kg.k0 == k0 == k0_tame(g, 1).base
        assert kg.k1_rank == len(incidence(g).cols) - matrix_rank(incidence(g).difference())
        assert len(appended) == 3 and all(v_rows == 0 for v_rows, _ in appended)
        appended.clear()
        torsion += bool(k0.factors)
    assert torsion >= 15 and cores >= 30, (torsion, cores)


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
    """|W_k| named on layers built one canonical step at a time, up to the
    materialized depth, and w_count_formula on each source layer up to the
    given depth.  A layer past the budget raises canonical_sequence's error,
    found by counting the tuples over each built layer."""
    graphs, named = [g], []
    for n in range(depth):
        size = projected_step_size(graphs[n])
        if size > budget:
            raise BudgetExceededError(
                f"layer {n + 1} would generate {size} vertices "
                f"(budget {budget}); last completed layer is {n}", n,
            )
        if n < materialized:
            step = canonical_step_data(graphs[n])
            graphs.append(step.graph)
            named.append(len(step.w_vertices))
    formula = tuple(w_count_formula(h, h.layer0) for h in graphs[:depth])
    return tuple(named), formula


@pytest.mark.parametrize(
    "spec, depth, materialized",
    [
        ("E(2,2)", 3, 3),
        ("E(2,3)", 3, 3),
        ("E(3,3)", 3, 2),  # its layer 4 has 531 441 vertices: counted, not named
        ("lamplighter(2)", 3, 3),
        ("lamplighter(3)", 3, 3),
        ("E(2,2)", 4, 4),
        ("E(2,3)", 4, 3),  # its layer 5 has 1 289 945 088 vertices
        ("lamplighter(2)", 4, 4),
        ("lamplighter(3)", 4, 4),
    ],
)
def test_k0_tame_ranks_match_materialized_layers(spec, depth, materialized):
    g = builtin_from_spec(spec)
    named, formula = _ranks_by_oracles(g, depth, materialized, budget=10**30)
    ranks = k0_tame(g, depth, budget=10**30).layer_ranks
    assert ranks == formula
    assert ranks[:materialized] == named
    assert k0_tame(g, 1).layer_ranks == ranks[:1]


def test_k0_tame_ranks_match_materialized_layers_random():
    rng = random.Random(41)
    budget, depth = 20000, 3
    refused = 0
    for _ in range(200):
        g = random_bipartite_graph(rng)
        try:
            named, formula = _ranks_by_oracles(g, depth, depth, budget)
        except BudgetExceededError as exc:
            with pytest.raises(BudgetExceededError) as tame:
                k0_tame(g, depth, budget)
            assert (str(tame.value), tame.value.last_layer) == (str(exc), exc.last_layer)
            refused += 1
            continue
        assert k0_tame(g, depth, budget).layer_ranks == named == formula
    assert 20 < refused < 180


def test_k0_tame_budget_error_matches_sequence():
    cases = [builtin_from_spec(s) for s in ("E(2,2)", "E(2,3)", "lamplighter(3)")]
    cases.append(SeparatedGraph.build(  # no bipartite split: through the companion
        ["u", "w"],
        [("x1", "w", "u"), ("x2", "w", "u"), ("y1", "w", "u"), ("y2", "w", "u"), ("z", "u", "w")],
        {"u": [["x1", "x2"], ["y1", "y2"]], "w": [["z"]]},
    ))
    for g in cases:
        h = g if g.bipartite else bipartite_companion(g)
        with pytest.raises(BudgetExceededError) as want:
            _ranks_by_oracles(h, 3, 3, budget=10)
        for run in (lambda: canonical_sequence(h, 3, budget=10), lambda: k0_tame(g, 3, budget=10)):
            with pytest.raises(BudgetExceededError) as got:
                run()
            assert (str(got.value), got.value.last_layer) == (str(want.value), want.value.last_layer)
    with pytest.raises(BudgetExceededError) as pinned:
        k0_tame(cases[0], 3, budget=10)
    assert str(pinned.value) == "layer 2 would generate 16 vertices (budget 10); last completed layer is 1"


def test_k0_tame_refuses_a_depth_past_the_budget_before_any_elimination(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return incidence(g)

    monkeypatch.setattr(ktheory, "incidence", counting)
    unsplit = SeparatedGraph.build(  # no bipartite split: counted on its companion
        ["u", "w"],
        [("x1", "w", "u"), ("x2", "w", "u"), ("y1", "w", "u"), ("y2", "w", "u"), ("z", "u", "w")],
        {"u": [["x1", "x2"], ["y1", "y2"]], "w": [["z"]]},
    )
    for g in (builtin("E", [2, 2]), unsplit):
        with pytest.raises(BudgetExceededError):
            k0_tame(g, 3, budget=10)
    assert calls == []
    g = builtin("E", [2, 2])
    assert k0_tame(g, 1, budget=10).layer_ranks == (1,)
    assert calls == [g]


def test_monoid_agrees_with_k0():
    rng = random.Random(23)
    for _ in range(30):
        g = random_separated_graph(rng)
        assert monoid_universal_group(g) == k_groups_full(g).k0


def test_monoid_independent_of_column_reduction(monkeypatch):
    rng = random.Random(23)
    graphs = [random_separated_graph(rng) for _ in range(30)]
    want = [k_groups_full(g).k0 for g in graphs]

    def refuse(*args):
        raise AssertionError("the monoid group must not use ColumnReduction")

    monkeypatch.setattr(ktheory, "ColumnReduction", refuse)
    assert [monoid_universal_group(g) for g in graphs] == want


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


def test_phi_rejects_non_kernel(monkeypatch):
    g = builtin("E", [2, 2])
    with pytest.raises(NotInKernelError) as exc:
        phi_transport(g, {("v", 0): 1})
    assert exc.value.residual["v"] == 1
    # the image's own check: with X(a1) given X(b1)'s key, a1's -1 is lost at w
    key = {**_step_groups(g), "a1": ("w", 2)}
    monkeypatch.setattr(ktheory, "_step_groups", lambda g: key)
    message = r"^element is not in the kernel; residual \(w: 1\)$"
    with pytest.raises(NotInKernelError, match=message):
        phi_transport(g, {("v", 0): 1, ("v", 1): -1})


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
        stacked = IntMatrix(
            cols,
            range(len(images)),
            [[img.get(key, 0) for img in images] for key in cols],
        )
        diag = smith_diagonal(stacked)
        assert all(d == 1 for d in diag)
        assert len([d for d in diag if d]) == len(images)


def _phi_on_group_of_edge(g, x, group_of_edge):
    """The transport spelled out on a step's group of each edge: the sum of the
    n_i (i >= 2) on the groups of the first group's edges, -n_i on the i-th's."""
    out = {}
    for u in g.layer0:
        groups = g.groups_at(u)
        for i in range(1, len(groups)):
            n_i = x.get((u, i), 0)
            for e, c in [*((e, n_i) for e in groups[0]), *((e, -n_i) for e in groups[i])]:
                out[group_of_edge[e]] = out.get(group_of_edge[e], 0) + c
    return {k: c for k, c in out.items() if c}


def test_phi_matches_the_materialized_step():
    cases = []
    rng = random.Random(23)
    for _ in range(60):
        g, x = bipartite_graph_with_kernel(rng)
        y = random_kernel_element(g, rng) or x
        cases.append((g, [x, {key: 3 * c for key, c in x.items()}, y]))
    for spec, depth in (("E(2,2)", 2), ("lamplighter(2)", 3), ("E(2,3)", 2)):
        for h in canonical_sequence(builtin_from_spec(spec), depth).graphs:
            cases.append((h, [{}, *k_groups_full(h).k1_basis]))
    for g, xs in cases:
        graph, _, _, group_of_edge = reference_step(g, g.layer0, g.layer1)
        assert _step_groups(g) == group_of_edge == canonical_step_data(g).group_of_edge
        for x in xs:
            image = phi_transport(g, x)
            assert image == _phi_on_group_of_edge(g, x, group_of_edge)
            require_kernel_element(graph, image)


def test_phi_runs_no_step(capsys, monkeypatch):
    from sepk import cli, transform

    layers = canonical_sequence(builtin("E", [2, 2]), 2).graphs
    want = [_phi_on_group_of_edge(h, x, canonical_step_data(h).group_of_edge)
            for h in layers for x in k_groups_full(h).k1_basis]

    def refuse(*args):
        raise AssertionError("a step was generated")

    monkeypatch.setattr(transform, "_fresh_layer", refuse)
    monkeypatch.setattr(transform, "canonical_step_data", refuse)
    assert [phi_transport(h, x) for h in layers for x in k_groups_full(h).k1_basis] == want
    assert cli.main(["phi", "--builtin", "E(2,2)", "--element", "X:1,Y:-1"]) == 0
    assert capsys.readouterr().out == "-X(a1) - X(a2) + X(b1) + X(b2)\n"
    assert cli.main(["sequence", "--builtin", "E(2,2)", "--depth", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["|W_4| = 196", "|W_5| = 65072"]


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
    with pytest.raises(CharacterError, match=r"^base character misses vertices \['w'\]$"):
        extend_character(g, ["v"], CharacterAssignment({"v": 1 + 0j}), {})


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
    # NaN compares false with everything, so it must fail the check, not pass it
    for z in (complex("nan"), complex(1, float("nan")), complex("inf")):
        with pytest.raises(CharacterError, match="modulus"):
            CharacterAssignment({"v": z})
    g = builtin("E", [2, 2])
    base = CharacterAssignment({"v": -1 + 0j, "w": 1j})
    with pytest.raises(CharacterError, match="free value at 'v|a2,b2' has modulus nan"):
        extend_character(g, ["v"], base, {"v|a2,b2": complex("nan")})


def _character_cases():
    """(graph, vertex set): built-in layers 0..2 at their range layer, then seeded ones.

    Built-in layers whose multiresolution would take more than 6 000 tuples are
    left out; the seeded bipartite graphs are resolved at random nonempty
    subsets of their range layer.
    """
    for spec in ("E(2,2)", "E(2,3)", "E(3,3)", "lamplighter(2)", "lamplighter(3)"):
        for g in canonical_sequence(builtin_from_spec(spec), 2).graphs:
            if projected_step_size(g) <= 6000:
                yield g, list(g.layer0)
    rng = random.Random(1503)
    for _ in range(120):
        g = random_bipartite_graph(rng)
        yield g, rng.sample(g.layer0, rng.randint(1, len(g.layer0)))


def test_character_extension_matches_the_name_spelling_oracle():
    # bit for bit: the same products, factor for factor and in the same order
    rng = random.Random(6067)
    for g, vs in _character_cases():
        data = multiresolution_data(g, vs)
        base = dict.fromkeys(g.vertices, 1 + 0j)
        free = {v: cmath.exp(2j * cmath.pi * rng.random()) for v in data.w_vertices}
        ext = extend_character(g, vs, CharacterAssignment(base), free)
        assert ext.values == reference_character_values(g, vs, base, free)
        assert ext.values.keys() == set(data.graph.vertices)


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


def test_k0_grows_by_w_rank_to_layer_3():
    # layer 3 of E(2,3) has 5 256 vertices: the sparse unit-pivot path gives
    # K0(layer 3) = K0(base) + Z^(|W_2| + |W_3| + |W_4|), the same K1 rank, and
    # the same cokernel as the base of k0_tame on the layer
    for spec in (("E", [2, 2]), ("E", [2, 3]), ("lamplighter", [2])):
        g = builtin(*spec)
        seq = canonical_sequence(g, 3)
        layer = seq.graphs[3]
        base, top = k_groups_full(g), k_groups_full(layer)
        rank = sum(len(seq.w_sets[k]) for k in (2, 3, 4))
        assert top.k0 == base.k0.with_free_summand(rank)
        assert top.k1_rank == base.k1_rank
        assert k0_tame(layer, 0).base == top.k0


def test_companion_preserves_k_groups_small():
    rng = random.Random(43)
    for _ in range(20):
        g = random_separated_graph(rng)
        kg = k_groups_full(g)
        kc = k_groups_full(bipartite_companion(g))
        assert kg.k0 == kc.k0
        assert kg.k1_rank == kc.k1_rank
