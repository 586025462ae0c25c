import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

from sepk.graph_model import (
    SeparatedGraph,
    builtin,
    builtin_from_spec,
    serialize,
    validate,
)
from sepk.ktheory import incidence, k0_tame, k_groups_full
from sepk.transform import (
    BudgetExceededError,
    PreconditionError,
    ValidationError,
    bipartite_companion,
    canonical_sequence,
    canonical_step,
    canonical_step_data,
    ensure_valid,
    multiresolution_at,
    multiresolution_data,
    root_of,
    w_count_formula,
    w_set_sizes,
)
from sepk.transform import _EDGE, _GROUP, _RANGE, _SOURCE, _quotients, _tuple_classes

from conftest import (
    admissible_vertex_set,
    name_collision_graphs,
    random_bipartite_graph,
    random_separated_graph,
)
from graph_oracles import (
    projected_step_size,
    reference_step,
    reference_validate,
    renamed,
    s_inv,
)
from json_oracles import reference, to_json_obj


def test_multires_e22_counts():
    g = builtin("E", [2, 2])
    md = multiresolution_data(g, ["v"])
    out = md.graph
    assert len(out.vertices) == len(g.vertices) + 4
    assert len(out.edges) == len(g.edges) + 8
    new_groups = out.groups_at("w")
    assert len(new_groups) == 4
    assert all(len(grp) == 2 for grp in new_groups)
    # old groups at v untouched, generated vertices are sources
    assert out.groups_at("v") == g.groups_at("v")
    for name in out.vertices[len(g.vertices) :]:
        assert out.groups_at(name) == ()
        assert s_inv(out, name)
    assert validate(out).ok


def test_multires_single_group():
    # one group of three edges: three new vertices, three singleton groups
    g = SeparatedGraph.build(
        ["u", "w"],
        [("x1", "w", "u"), ("x2", "w", "u"), ("x3", "w", "u")],
        {"u": [["x1", "x2", "x3"]]},
    )
    md = multiresolution_data(g, ["u"])
    assert len(md.graph.vertices) == 2 + 3
    assert len(md.graph.edges) == 3 + 3
    assert [len(grp) for grp in md.graph.groups_at("w")] == [1, 1, 1]
    assert md.w_vertices == ()
    assert w_count_formula(g, ["u"]) == 0


def test_multires_precondition_edge_inside_v():
    g = SeparatedGraph.build(
        ["u", "v"],
        [("a", "u", "v"), ("b", "v", "u")],
        {"v": [["a"]], "u": [["b"]]},
    )
    with pytest.raises(PreconditionError, match="a|b"):
        multiresolution_at(g, ["u", "v"])


def test_multires_precondition_loop():
    g = SeparatedGraph.build(["u"], [("a", "u", "u")], {"u": [["a"]]})
    with pytest.raises(PreconditionError):
        multiresolution_at(g, ["u"])


def test_multires_requires_groups():
    g = builtin("E", [2, 2])
    with pytest.raises(PreconditionError, match="empty C_u"):
        multiresolution_at(g, ["w"])
    with pytest.raises(PreconditionError, match="unknown"):
        multiresolution_at(g, ["zz"])


def test_multires_counting_random():
    rng = random.Random(5)
    for _ in range(25):
        g = random_separated_graph(rng)
        vs = admissible_vertex_set(g, rng)
        if vs is None:
            continue
        md = multiresolution_data(g, vs)
        expect_v = 0
        expect_e = 0
        for u in vs:
            sizes = [len(grp) for grp in g.groups_at(u)]
            prod = 1
            for s in sizes:
                prod *= s
            expect_v += prod
            expect_e += len(sizes) * prod
        assert len(md.graph.vertices) == len(g.vertices) + expect_v
        assert len(md.graph.edges) == len(g.edges) + expect_e
        assert validate(md.graph).ok
        assert len(md.w_vertices) == w_count_formula(g, vs)


def test_canonical_step_e22():
    g = builtin("E", [2, 2])
    g1 = canonical_step(g)
    assert g1.layer0 == g.layer1
    assert len(g1.layer1) == 4
    assert len(g1.edges) == 8
    assert [len(grp) for grp in g1.groups_at("w")] == [2, 2, 2, 2]
    assert validate(g1).ok


def test_canonical_step_e23():
    g1 = canonical_step(builtin("E", [2, 3]))
    assert len(g1.layer1) == 6
    sizes = sorted(len(grp) for grp in g1.groups_at("w"))
    assert sizes == [2, 2, 2, 3, 3]
    assert len(g1.groups_at("w")) == 5


def test_canonical_step_single_group():
    g = SeparatedGraph.build(
        ["u", "w"],
        [("x1", "w", "u"), ("x2", "w", "u")],
        {"u": [["x1", "x2"]]},
        bipartite=(["u"], ["w"]),
    )
    g1 = canonical_step(g)
    assert len(g1.layer1) == 2
    assert all(len(grp) == 1 for grp in g1.groups_at("w"))


def test_canonical_step_requires_bipartite():
    g = SeparatedGraph.build(["u", "w"], [("x", "w", "u")], {"u": [["x"]]})
    with pytest.raises(PreconditionError, match="bipartite"):
        canonical_step(g)


def test_sequence_depth_zero():
    g = builtin("E", [2, 2])
    seq = canonical_sequence(g, 0)
    assert seq.graphs == (g,)
    assert seq.w_sets == {}


def test_sequence_w_sizes_e22():
    seq = canonical_sequence(builtin("E", [2, 2]), 2)
    assert len(seq.w_sets[2]) == 1
    assert len(seq.w_sets[3]) == 11
    # the formula computed on each source layer agrees with enumeration
    for n in (0, 1):
        g = seq.graphs[n]
        assert w_count_formula(g, g.layer0) == len(seq.w_sets[n + 2])


def test_sequence_layers_nest():
    seq = canonical_sequence(builtin("lamplighter", [2]), 3)
    for n in range(3):
        assert seq.graphs[n + 1].layer0 == seq.graphs[n].layer1


def test_sequence_budget_exceeded():
    with pytest.raises(BudgetExceededError) as exc:
        canonical_sequence(builtin("E", [2, 2]), 3, budget=10)
    assert exc.value.last_layer == 1
    assert "layer" in str(exc.value)


def test_sequence_refuses_a_depth_past_the_budget_before_building(monkeypatch):
    import sepk.transform

    steps = []
    monkeypatch.setattr(sepk.transform, "canonical_step_data", steps.append)
    with pytest.raises(BudgetExceededError) as exc:
        canonical_sequence(builtin("E", [2, 2]), 5)
    assert str(exc.value) == (
        "layer 5 would generate 67108864 vertices (budget 1000000); last completed layer is 4"
    )
    assert exc.value.last_layer == 4
    assert steps == []


def test_multiresolution_and_canonical_step_share_one_generator():
    # at the range layer both resolve the same tuples, so the same provenance
    rng = random.Random(1070)
    graphs = [
        h
        for spec in ("E(2,2)", "E(2,3)", "E(3,3)", "lamplighter(2)", "lamplighter(3)")
        for h in canonical_sequence(builtin_from_spec(spec), 2).graphs
        if projected_step_size(h) <= 6000
    ]
    graphs += [random_bipartite_graph(rng) for _ in range(60)]
    for g in graphs:
        fresh, step = multiresolution_data(g, g.layer0).step, canonical_step_data(g)
        assert fresh.w_vertices == step.w_vertices
        assert list(fresh.root.items()) == list(step.root.items())
        assert list(fresh.group_of_edge.items()) == list(step.group_of_edge.items())


def _odd_names(g: SeparatedGraph, rng: random.Random) -> SeparatedGraph:
    """g with about half its vertices and edges renamed to strings of a, ^, |, , and \\.

    Each new name ends in "#" and its own number, so no two of them, and no
    name generated from them, equal another name of g.
    """
    count = itertools.count()

    def rename(name):
        if rng.random() < 0.5:
            return name
        return "".join(rng.choices("a^|,\\", k=rng.randint(1, 3))) + f"#{next(count)}"

    vs = {v: rename(v) for v in g.vertices}
    es = {e.id: rename(e.id) for e in g.edges}
    return SeparatedGraph.build(
        vs.values(),
        [(es[e.id], vs[e.src], vs[e.dst]) for e in g.edges],
        {vs[v]: [[es[x] for x in grp] for grp in g.groups_at(v)] for v in g.vertices},
        None if g.bipartite is None else ([vs[v] for v in g.layer0], [vs[v] for v in g.layer1]),
    )


def _assert_step_is_the_reference(step, g, bases, sources):
    graph, w, root, group_of_edge = reference_step(g, bases, sources)
    assert serialize(step.graph) == serialize(graph)
    assert step.w_vertices == w
    assert list(step.root.items()) == list(root.items())
    assert list(step.group_of_edge.items()) == list(group_of_edge.items())


def test_generated_layers_match_the_name_level_reference_step():
    # the canonical step on built-in layers, whose names nest escapes, and on
    # seeded graphs, some with separator characters in their names
    rng = random.Random(2203)
    graphs = [
        h
        for spec in ("E(2,2)", "E(2,3)", "E(3,3)", "lamplighter(2)", "lamplighter(3)")
        for h in canonical_sequence(builtin_from_spec(spec), 2).graphs
        if projected_step_size(h) <= 6000
    ]
    for i in range(200):
        g = random_bipartite_graph(rng)
        graphs.append(_odd_names(g, rng) if i % 2 else g)
    odd = 0
    for g in graphs:
        _assert_step_is_the_reference(canonical_step_data(g), g, g.layer0, g.layer1)
        names = [*g.vertices, *(e.id for e in g.edges)]
        odd += any(c in name for name in names for c in "\\|,")
    assert odd >= 100
    # the multiresolution's fresh part, at an admissible vertex set of a graph
    # that need not be bipartite
    checked = 0
    while checked < 200:
        g = random_separated_graph(rng)
        g = _odd_names(g, rng) if checked % 2 else g
        vs = admissible_vertex_set(g, rng)
        if vs is None:
            continue
        bases = [v for v in g.vertices if v in vs]
        _assert_step_is_the_reference(multiresolution_data(g, vs).step, g, bases, g.vertices)
        checked += 1


def test_roots_e22():
    seq = canonical_sequence(builtin("E", [2, 2]), 2)
    for v in seq.layer_vertices(2):
        assert root_of(seq, v, 0) == "v"
    assert root_of(seq, "w", 1) == "w"
    for v in seq.layer_vertices(3):
        assert root_of(seq, v, 1) == "w"
    with pytest.raises(PreconditionError, match="parity"):
        root_of(seq, seq.layer_vertices(2)[0], 1)
    with pytest.raises(PreconditionError):
        root_of(seq, "ghost", 0)
    with pytest.raises(PreconditionError, match=r"^target layer 2 above layer 0 of 'v'$"):
        root_of(seq, "v", 2)
    for v, target in (("v", -2), ("w", -1)):
        with pytest.raises(PreconditionError, match=rf"^layer {target} not computed \(depth 2\)$"):
            seq.root_of(v, target)


def test_roots_of_every_vertex_of_a_wide_layer():
    seq = canonical_sequence(builtin("E", [2, 2]), 4)
    top = seq.layer_vertices(5)
    assert len(top) == 65536
    for v in top:
        base = seq.root_tables[5][v]
        assert seq.layer_of(v) == 5 and seq.layer_of(base) == 3
        assert seq.root_of(v, 5) == v
        assert seq.root_of(v, 3) == base
        assert seq.root_of(v, 1) == seq.root_tables[3][base] == "w"


def test_root_tables_point_to_bases():
    seq = canonical_sequence(builtin("lamplighter", [2]), 2)
    for k, table in seq.root_tables.items():
        for child, base in table.items():
            assert base in set(seq.layer_vertices(k - 2))
            assert child in set(seq.layer_vertices(k))


def test_companion_emn():
    for m, n in ((2, 2), (2, 3), (3, 5)):
        g = builtin("E", [m, n])
        c = bipartite_companion(g)
        assert len(c.vertices) == 4
        assert len(c.edges) == (m + n) + 2
        v0_groups = c.groups_at("v|0")
        assert len(v0_groups) == 3  # X copy, Y copy, singleton h
        assert v0_groups[-1] == ("h|v",)
        assert c.groups_at("w|0") == (("h|w",),)
        assert validate(c).ok


def test_companion_single_vertex():
    g = SeparatedGraph.build(["v"], [], {})
    c = bipartite_companion(g)
    assert len(c.vertices) == 2
    assert len(c.edges) == 1
    assert c.groups_at("v|0") == (("h|v",),)
    assert validate(c).ok


def test_companion_of_bipartite_is_bipartite():
    rng = random.Random(3)
    for _ in range(10):
        g = random_bipartite_graph(rng)
        c = bipartite_companion(g)
        assert c.bipartite is not None
        assert validate(c).ok


def test_companion_refuses_an_edge_h_beside_a_vertex_0():
    # the copy h|0 of edge h and the connecting edge h|0 of vertex 0
    g = SeparatedGraph.build(["0", "w"], [("h", "w", "0")], {"0": [["h"]]})
    with pytest.raises(PreconditionError) as exc:
        bipartite_companion(g)
    assert str(exc.value) == "generated edge names collide: ['h|0']"
    with pytest.raises(PreconditionError) as other:
        k0_tame(g, 2)
    assert str(other.value) == str(exc.value)
    # no other pair of names meets, escaped separators included
    pool = ["".join(p) for n in (1, 2) for p in itertools.product("h0|\\,", repeat=n)]
    for v, e in itertools.product(pool, pool):
        g = SeparatedGraph.build([v, "w"], [(e, "w", v)], {v: [[e]]})
        if (v, e) == ("0", "h"):
            continue
        c = bipartite_companion(g)
        assert len(set(x.id for x in c.edges)) == len(c.edges)
        assert validate(c).ok


def test_idempotent_naming():
    g = builtin("E", [2, 3])
    assert serialize(multiresolution_at(g, ["v"])) == serialize(multiresolution_at(g, ["v"]))
    assert serialize(canonical_step(g)) == serialize(canonical_step(g))
    assert serialize(bipartite_companion(g)) == serialize(bipartite_companion(g))
    a = reference(to_json_obj(canonical_sequence(g, 2)))
    b = reference(to_json_obj(canonical_sequence(g, 2)))
    assert a == b


def test_transformations_preserve_validity_random():
    rng = random.Random(9)
    for _ in range(15):
        g = random_bipartite_graph(rng)
        assert validate(canonical_step(g)).ok
        assert validate(bipartite_companion(g)).ok
        vs = admissible_vertex_set(g, rng)
        if vs:
            assert validate(multiresolution_at(g, vs)).ok


def _int_form(g: SeparatedGraph) -> tuple:
    return g._vindex, g._eindex, g._src, g._dst, g._groups


def _generated_layers(count: int, budget: int = 2000) -> list[SeparatedGraph]:
    """count layers made by canonical_step_data, each start taken to depth 3 or its budget.

    The starts are five built-ins, then seeded random bipartite graphs.
    """
    rng = random.Random(2818)
    starts = ["E(2,2)", "E(2,3)", "E(3,3)", "lamplighter(2)", "lamplighter(3)"]
    layers: list[SeparatedGraph] = []
    while len(layers) < count:
        g = builtin_from_spec(starts.pop(0)) if starts else random_bipartite_graph(rng)
        for _ in range(3):
            if projected_step_size(g) > budget:
                break
            g = canonical_step_data(g).graph
            layers.append(g)
    return layers[:count]


def test_generated_layers_carry_the_report_and_form_of_their_names():
    for layer in _generated_layers(300):
        rebuilt = SeparatedGraph.build(
            layer.vertices, layer.edges, dict(zip(layer.vertices, layer.separation)),
            layer.bipartite,
        )
        carried = layer.__dict__["_validation"]
        assert carried == validate(rebuilt) == reference_validate(rebuilt)
        assert carried.ok
        assert _int_form(layer) == _int_form(rebuilt)
        assert layer == rebuilt


def test_multiresolutions_carry_the_form_of_their_names():
    # the fresh part's form is joined onto g's, its edge indexes shifted past g's
    rng = random.Random(2819)
    cases = [(builtin_from_spec(s), ["v"]) for s in ("E(2,2)", "E(2,3)", "lamplighter(2)")]
    layer = canonical_sequence(builtin("E", [2, 2]), 2).graphs[2]
    cases.append((layer, layer.layer0))
    while len(cases) < 150:
        g = random_separated_graph(rng)
        g = _odd_names(g, rng) if len(cases) % 2 else g
        vs = admissible_vertex_set(g, rng)
        if vs is not None:
            cases.append((g, vs))
    for g, vs in cases:
        h = multiresolution_at(g, vs)
        rebuilt = SeparatedGraph.build(h.vertices, h.edges, dict(zip(h.vertices, h.separation)))
        assert _int_form(h) == _int_form(rebuilt)
        assert h == rebuilt


def test_a_sequence_validates_its_input_only(monkeypatch):
    import sepk.transform

    calls = []

    def counted(g):
        calls.append(g)
        return validate(g)

    monkeypatch.setattr(sepk.transform, "validate", counted)
    g = builtin("E", [2, 2])
    seq = canonical_sequence(g, 3)
    k_groups_full(seq.graphs[3])
    assert calls == [g]


def test_generated_vertex_name_collision_detected():
    # a user vertex that already carries the generated name pattern
    g = SeparatedGraph.build(
        ["u", "w", "u|x1"],
        [("x1", "w", "u")],
        {"u": [["x1"]]},
    )
    with pytest.raises(PreconditionError, match="collide"):
        multiresolution_at(g, ["u"])


def test_w_members_have_two_non_first_coordinates():
    seq = canonical_sequence(builtin("E", [2, 3]), 2)
    step_graph = seq.graphs[0]
    firsts = {grp[0] for v in step_graph.layer0 for grp in step_graph.groups_at(v)}
    for name in seq.w_sets[2]:
        # the name encodes base|x1,...,xk
        coords = name.split("|", 1)[1].split(",")
        assert sum(1 for x in coords if x not in firsts) >= 2


COLLISIONS = name_collision_graphs()


@pytest.mark.parametrize("g, step, kind", [c[1:] for c in COLLISIONS], ids=[c[0] for c in COLLISIONS])
def test_name_collision_detected_through_canonical_step(g, step, kind):
    h = canonical_step(g) if step else g
    with pytest.raises(PreconditionError, match=f"generated {kind} names collide") as exc:
        canonical_step(h)
    # the sequence and the name-free count stop at the same step, with the same message
    for run in (lambda: canonical_sequence(g, 2), lambda: w_set_sizes(g, 2), lambda: k0_tame(g, 2)):
        with pytest.raises(PreconditionError) as other:
            run()
        assert str(other.value) == str(exc.value)
    if step:
        assert k0_tame(g, 1).layer_ranks == (len(canonical_sequence(g, 1).w_sets[2]),)


def _rename(g, rng, pool, pooled=0.6):
    """g with some vertices and edges renamed, each from pool with chance pooled,
    else to a short odd string."""

    def fresh():
        if rng.random() < pooled:
            return rng.choice(pool)
        return "".join(rng.choice(("a", "w", "|", ",", "\\", "a^")) for _ in range(rng.randint(1, 3)))

    vs = {v: fresh() if rng.random() < 0.4 else v for v in g.vertices}
    es = {e.id: fresh() if rng.random() < 0.3 else e.id for e in g.edges}
    if len(set(vs.values())) < len(vs) or len(set(es.values())) < len(es):
        return None
    return SeparatedGraph.build(
        [vs[v] for v in g.vertices],
        [(es[e.id], vs[e.src], vs[e.dst]) for e in g.edges],
        {vs[v]: [[es[x] for x in grp] for grp in g.groups_at(v)] for v in g.vertices},
        ([vs[v] for v in g.layer0], [vs[v] for v in g.layer1]),
    )


def _named_w_counts(g, depth):
    """|W_2|, ..., |W_{depth+1}| read off layers rendered one canonical step at a time."""
    counts = []
    for _ in range(depth):
        step = canonical_step_data(g)
        counts.append(len(step.w_vertices))
        g = step.graph
    return tuple(counts)


def _outcome(run):
    try:
        return run()
    except PreconditionError as exc:
        return str(exc)


def test_name_free_collision_check_agrees_with_rendered_names():
    # names drawn from the first generated layers make collisions and many
    # near misses; the parsing check and the rendered names must decide alike
    rng = random.Random(13)
    collisions = 0
    for _ in range(300):
        g = random_bipartite_graph(rng, max_l0=2, max_l1=2, max_groups=2, max_size=2)
        seq = canonical_sequence(g, 2)
        pool = [v for h in seq.graphs[1:] for v in h.layer1]
        pool += [e.id for h in seq.graphs[1:] for e in h.edges]
        h = _rename(g, rng, pool)
        if h is None:
            continue
        want = _outcome(lambda: _named_w_counts(h, 2))
        assert _outcome(lambda: w_set_sizes(h, 2)) == want
        assert _outcome(lambda: tuple(map(len, canonical_sequence(h, 2).w_sets.values()))) == want
        collisions += isinstance(want, str)
    assert collisions >= 10


def test_generated_input_names_stop_every_count_as_the_rendered_steps_do():
    # Every name here comes from step 0 or 1 of the graph's own sequence, so
    # it holds a "|" and the name check parses it.  The digest pins every
    # outcome, so each message stays byte for byte as it is.
    rng = random.Random(31)
    outcomes = []
    while len(outcomes) < 150:
        g = random_bipartite_graph(rng, max_l0=2, max_l1=2, max_groups=2, max_size=2)
        seq = canonical_sequence(g, 2)
        pool = [*seq.graphs[1].layer1, *(e.id for e in seq.graphs[1].edges), *seq.graphs[2].layer1]
        h = _rename(g, rng, pool, pooled=1.0)
        if h is None or h == g:
            continue
        want = _outcome(lambda: _named_w_counts(h, 2))
        assert _outcome(lambda: w_set_sizes(h, 2)) == want
        assert _outcome(lambda: k0_tame(h, 2).layer_ranks) == want
        assert _outcome(lambda: tuple(map(len, canonical_sequence(h, 2).w_sets.values()))) == want
        outcomes.append(want)
    assert sum(isinstance(o, str) for o in outcomes) >= 30
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "05be4fc065f2415bbf52c00f361f4178c4482ca0ecdec7655103fa1b22b42029"


def test_names_without_a_bar_are_never_parsed(monkeypatch):
    import sepk.transform

    def split(name):
        raise AssertionError(f"parsed {name!r}")

    monkeypatch.setattr(sepk.transform, "_split_generated", split)
    rng = random.Random(41)
    starts = [builtin_from_spec(s) for s in BUILTINS]
    starts += [random_bipartite_graph(rng, max_groups=2, max_size=2) for _ in range(60)]
    for g in starts:
        assert not any("|" in x for x in [*g.vertices, *(e.id for e in g.edges)])
        assert k0_tame(g, 2).layer_ranks == w_set_sizes(g, 2)
        assert len(canonical_sequence(g, 2).graphs) == 3


def test_built_in_layer_names_are_never_parsed(monkeypatch):
    # every name of a built-in's layers 1-3 is cut where no possible head is
    import sepk.transform
    from sepk.ktheory import phi_transport

    specs = ("E(2,2)", "E(2,3)", "lamplighter(2)", "lamplighter(3)")
    layers = [h for s in specs for h in canonical_sequence(builtin_from_spec(s), 3).graphs[1:]]
    cases = [(h, k_groups_full(h).k1_basis) for h in layers]

    def answers():
        return [(w_set_sizes(h, 2, budget=10**30), [phi_transport(h, x) for x in xs])
                for h, xs in cases]

    want = answers()

    def split(name):
        raise AssertionError(f"parsed {name!r}")

    monkeypatch.setattr(sepk.transform, "_split_generated", split)
    assert answers() == want


def _sequence_outcome(render):
    try:
        return render()
    except (BudgetExceededError, PreconditionError) as exc:
        return type(exc), str(exc)


def _materialized(g, depth, budget):
    """The sequence text and JSON read off the built layers."""
    seq = canonical_sequence(g, depth, budget)
    text = "\n".join([
        *(f"layer {n}: {len(h.vertices)} vertices, {len(h.edges)} edges, "
          f"{len(h.group_keys())} groups" for n, h in enumerate(seq.graphs)),
        *(f"|W_{k}| = {len(seq.w_sets[k])}" for k in sorted(seq.w_sets)),
    ])
    return text, reference(to_json_obj(seq))


def test_sequence_text_counts_match_the_materialized_layers():
    # the text is counted on the quotient and the JSON written from the walk;
    # both must read as the library's layers do, refusals included
    from argparse import Namespace

    from sepk import cli

    rng = random.Random(17)
    runs = [(random_bipartite_graph(rng, max_size=2), range(3), (10**6, 50)) for _ in range(120)]
    # at 10**6, three-edge groups would build layers for minutes
    runs += [(random_bipartite_graph(rng), range(3), (2000, 50)) for _ in range(120)]
    runs += [(g, range(4), (10**6,)) for _, g, _, _ in COLLISIONS]
    runs += [(builtin_from_spec(s), range(top + 1), (10**6,)) for s, top in (
        ("E(2,2)", 3), ("lamplighter(2)", 5), ("E(2,3)", 2), ("lamplighter(3)", 3),
    )]
    # names that need escaping at every level; two bases whose plain order
    # ('"' before '#') is not the order of their literals ('\\' after '#'); and
    # a name that is a prefix of another before a space, which sorts below the
    # literal's closing quote
    odd = renamed(builtin("E", [2, 2]), random.Random(4))
    assert set("".join(odd.vertices)) & set('\\|,"\x01\b')
    quoted, spaced = (SeparatedGraph.build(
        [u, "#v", "w"], [(x, "w", u if x in "ab" else "#v") for x in ("a", "b", "c", c)],
        {u: [["a"], ["b"]], "#v": [["c", c]]}, ([u, "#v"], ["w"]),
    ) for u, c in (('"v', "d"), ("v", "c !")))
    # and the empty bipartite graph, whose quotients hold no class at all
    empty = SeparatedGraph.build([], [], {}, bipartite=([], []))
    runs += [(g, range(4), (10**6,)) for g in (odd, quoted, spaced, empty)]
    refused = Counter()
    for g, depths, budgets in runs:
        for depth, budget in itertools.product(depths, budgets):
            args = Namespace(depth=depth, budget=budget)
            want = _sequence_outcome(lambda: _materialized(g, depth, budget))
            if isinstance(want[0], type):
                want = (want, want)
            _, as_json, as_text = cli._cmd_sequence(cli._Loaded(g, {}), args)
            assert _sequence_outcome(as_text) == want[0]
            assert _sequence_outcome(lambda: "".join(as_json())) == want[1]
            refused[want[0][0] if isinstance(want[0], tuple) else None] += 1
    assert refused[BudgetExceededError] >= 100 and refused[PreconditionError] == 11
    assert refused[None] >= 500


def test_validation_report_is_computed_once_per_graph(monkeypatch):
    import sepk.transform

    calls = []

    def counted(g):
        calls.append(g)
        return validate(g)

    monkeypatch.setattr(sepk.transform, "validate", counted)
    broken = SeparatedGraph.build(
        ["v", "w"], [("a", "w", "v"), ("b", "w", "v")], {"v": [["a"], []]}
    )
    reports = []
    for call in (ensure_valid, incidence, ensure_valid, k_groups_full, incidence, canonical_step):
        with pytest.raises(ValidationError) as exc:
            call(broken)
        reports.append(exc.value.report)
        assert str(exc.value) == "graph fails validation:\n" + str(validate(broken))
    assert all(r == validate(broken) for r in reports)
    assert {v.kind for v in reports[0].violations} == {"empty-group", "partition-not-covering"}
    assert calls == [broken]

    g = builtin("E", [2, 2])
    for _ in range(3):
        assert ensure_valid(g) is g
        incidence(g)
    assert calls == [broken, g]
    # the kept report is not part of the graph's value
    assert g == builtin("E", [2, 2]) and hash(g) == hash(builtin("E", [2, 2]))


BUILTINS = ["E(2,2)", "E(2,3)", "E(3,3)", "E(3,5)", "lamplighter(2)", "lamplighter(3)"]


def _kind_totals(q) -> dict[int, int]:
    totals = dict.fromkeys((_RANGE, _GROUP, _EDGE, _SOURCE), 0)
    for kind, mult in zip(q.kind, q.mult):
        totals[kind] += mult
    return totals


def test_quotients_count_the_objects_of_built_layers():
    rng = random.Random(77)
    starts = [builtin_from_spec(s) for s in BUILTINS]
    starts += [random_bipartite_graph(rng) for _ in range(40)]
    for g in starts:
        try:
            seq = canonical_sequence(g, 3, budget=6000)
        except BudgetExceededError as exc:
            seq = canonical_sequence(g, exc.last_layer)
        for h, q in zip(seq.graphs, _quotients(g)):
            assert _kind_totals(q) == {
                _RANGE: len(h.layer0),
                _GROUP: sum(len(h.groups_at(u)) for u in h.layer0),
                _EDGE: len(h.edges),
                _SOURCE: len(h.layer1),
            }


@pytest.mark.parametrize("spec", BUILTINS)
def test_quotient_of_a_builtin_keeps_two_classes_of_each_sort(spec):
    # the merge keeps every layer of a built-in down to one or two classes per sort
    for q in itertools.islice(_quotients(builtin_from_spec(spec)), 10):
        assert max(Counter(q.kind).values()) <= 2


def test_w_set_sizes_enumerates_the_tuples_of_d_minus_2_layers(monkeypatch):
    # depth d reads the sizes of layer d - 1 off the quotient of layer d - 2
    import sepk.transform

    calls = []
    step = sepk.transform._tuple_classes
    monkeypatch.setattr(
        sepk.transform, "_tuple_classes", lambda q, layer: calls.append(q) or step(q, layer)
    )
    for depth in range(6):
        calls.clear()
        assert w_set_sizes(builtin("E", [2, 3]), depth, budget=10**30)[:3] == (2, 64, 4830)[:depth]
        assert len(calls) == max(depth - 2, 0)


def test_w_set_sizes_reaches_depths_whose_layers_cannot_be_built():
    g = builtin("E", [2, 2])
    start = time.perf_counter()
    ranks = w_set_sizes(g, 16, budget=10**5000)
    assert time.perf_counter() - start < 2.0  # it takes about 1 ms
    assert ranks[:4] == w_set_sizes(g, 4) == (1, 11, 196, 65072)
    assert len(str(ranks[-1])) == 3950
    with pytest.raises(BudgetExceededError) as exc:
        w_set_sizes(g, 16, budget=10**3000)
    assert exc.value.last_layer == 15


def test_a_refusal_writes_counts_past_the_digits_str_writes():
    # layer 17 of E(2,2) holds about 10^5924 vertices; str() writes an int
    # of at most 4 300 digits, so the refusal gives the count's power of ten
    budget = int("9" * 4300)
    with pytest.raises(BudgetExceededError) as exc:
        w_set_sizes(builtin("E", [2, 2]), 17, budget)
    assert exc.value.last_layer == 16
    assert str(exc.value) == (
        f"layer 17 would generate 10^5924 or more vertices (budget {budget}); "
        "last completed layer is 16"
    )
    with pytest.raises(BudgetExceededError) as exc:
        w_set_sizes(builtin("E", [2, 2]), 17, 10**5000)
    assert str(exc.value) == (
        "layer 17 would generate 10^5924 or more vertices (budget 10^5000 or more); "
        "last completed layer is 16"
    )


def test_class_budget_refuses_an_asymmetric_graph_before_enumerating():
    # Seed 38's layers keep few symmetries: counting layer 5 would enumerate
    # 461 516 880 source classes, which no vertex budget this large stops.
    g = random_bipartite_graph(random.Random(38))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        w_set_sizes(g, 5, budget=10**4000)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == (
        "layer 5 would take more than 1000000 vertex classes to count; last completed layer is 4"
    )
    assert exc.value.last_layer == 4
    assert len(w_set_sizes(g, 4, budget=10**4000)) == 4
    # built-ins keep two classes of each sort, so the same budget counts deep layers
    assert len(str(w_set_sizes(builtin("E", [2, 2]), 16, budget=10**4000)[-1])) == 3950


def test_class_budget_counts_exactly_the_source_classes_a_step_makes(monkeypatch):
    # the count comes before the classes, so a budget of one fewer refuses them
    import sepk.transform

    rng = random.Random(5)
    starts = [builtin_from_spec(s) for s in BUILTINS] + [random_bipartite_graph(rng) for _ in range(30)]
    for q in [list(itertools.islice(_quotients(g), 2))[-1] for g in starts]:  # layer 1
        made = Counter(_tuple_classes(q, 1).kind)[_SOURCE]
        monkeypatch.setattr(sepk.transform, "DEFAULT_BUDGET", made)
        assert Counter(_tuple_classes(q, 1).kind)[_SOURCE] == made
        monkeypatch.setattr(sepk.transform, "DEFAULT_BUDGET", made - 1)
        with pytest.raises(BudgetExceededError) as exc:
            _tuple_classes(q, 1)
        assert str(exc.value) == (
            f"layer 4 would take more than {made - 1} vertex classes to count; "
            "last completed layer is 3"
        )
        assert exc.value.last_layer == 3
        monkeypatch.undo()


def test_a_stationary_quotient_gives_every_later_layer_its_sizes(monkeypatch):
    # a quotient equal to the one before it is a fixed point: no later one is made
    import sepk.transform

    calls = []
    coarsest = sepk.transform._coarsest
    monkeypatch.setattr(sepk.transform, "_coarsest", lambda q: calls.append(q) or coarsest(q))
    one_edge = SeparatedGraph.build(["v", "w"], [("a", "w", "v")], {"v": [["a"]]}, (["v"], ["w"]))
    assert w_set_sizes(one_edge, 200_000) == (0,) * 200_000
    assert len(calls) <= 3
    # so does one p times the one before it: lamplighter(p)'s layers' sizes
    # then repeat, p times larger per layer
    for p in range(2, 7):
        calls.clear()
        ranks = w_set_sizes(builtin("lamplighter", [p]), 200, budget=10**400)
        assert ranks == tuple((p - 1) ** 2 * p**k for k in range(200))
        assert len(calls) <= 3
    # on seeded graphs, those that reach a fixed point and those that do not,
    # the counts are those of the built layers, past the fixed point; |W| is
    # zero on a layer that does not grow, so the layer sizes are compared too
    rng, depth = random.Random(12), 6
    starts = [one_edge] + [random_bipartite_graph(rng, max_size=2) for _ in range(120)]
    stationary = growing = 0
    for g in starts:
        calls.clear()
        try:
            counts, ranks = sepk.transform._sequence_counts(g, depth, budget=300)
        except BudgetExceededError:
            continue
        if len(calls) < depth - 1:
            stationary += 1
        else:
            growing += 1
        layers = canonical_sequence(g, depth, budget=300).graphs
        assert ranks == tuple(w_count_formula(h, h.layer0) for h in layers[:depth])
        assert counts == [(len(h.vertices), len(h.edges), len(h.group_keys())) for h in layers]
    assert stationary >= 10 and growing >= 10


def test_quotients_that_return_with_period_two_give_every_later_layer_its_sizes(monkeypatch):
    # a quotient equal to the one two layers back closes a cycle of two: the
    # last two layers' sizes alternate from then on, and no later quotient is made
    import sepk.transform

    calls = []
    coarsest = sepk.transform._coarsest
    monkeypatch.setattr(sepk.transform, "_coarsest", lambda q: calls.append(q) or coarsest(q))
    rng, depth = random.Random(12), 6
    draws = [random_bipartite_graph(rng, max_size=2 - n % 2) for n in range(200)][1::2]
    cycles, deep = 0, ()
    for g in draws:
        calls.clear()
        try:
            counts, ranks = sepk.transform._sequence_counts(g, depth, budget=300)
        except BudgetExceededError:
            continue
        made = [(q.kind, q.mult, q.up) for q in map(coarsest, calls)]
        if len(made) > 2 and made[-1] == made[-3] != made[-2]:
            cycles += 1
            if len(made) == 4 and not deep:  # a cycle closed at layer 3, far past it
                calls.clear()
                deep = w_set_sizes(g, 200_000)
                assert len(calls) == 4 and deep[:depth] == ranks and deep[4:] == deep[2:-2]
        layers = canonical_sequence(g, depth, budget=300).graphs
        assert ranks == tuple(w_count_formula(h, h.layer0) for h in layers[:depth])
        assert counts == [(len(h.vertices), len(h.edges), len(h.group_keys())) for h in layers]
    assert cycles >= 50 and deep
