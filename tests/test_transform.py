import random

import pytest

from sepk.graph_model import SeparatedGraph, builtin, builtin_from_spec, serialize, validate
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
    projected_step_size,
    root_of,
    w_count_formula,
    w_set_sizes,
)

from conftest import (
    admissible_vertex_set,
    name_collision_graphs,
    random_bipartite_graph,
    random_separated_graph,
)
from graph_oracles import reference_validate, s_inv


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
        for u in md.resolved:
            sizes = [len(grp) for grp in g.groups_at(u)]
            prod = 1
            for s in sizes:
                prod *= s
            expect_v += prod
            expect_e += len(sizes) * prod
        assert len(md.graph.vertices) == len(g.vertices) + expect_v
        assert len(md.graph.edges) == len(g.edges) + expect_e
        assert validate(md.graph).ok
        assert len(md.w_vertices) == w_count_formula(g, md.resolved)


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
    for v, target in (("v", -2), ("w", -1)):
        with pytest.raises(PreconditionError, match=rf"^layer {target} not computed \(depth 2\)$"):
            seq.root_of(v, target)


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


def test_idempotent_naming():
    g = builtin("E", [2, 3])
    assert serialize(multiresolution_at(g, ["v"])) == serialize(multiresolution_at(g, ["v"]))
    assert serialize(canonical_step(g)) == serialize(canonical_step(g))
    assert serialize(bipartite_companion(g)) == serialize(bipartite_companion(g))
    import json

    a = json.dumps(canonical_sequence(g, 2).to_json_obj())
    b = json.dumps(canonical_sequence(g, 2).to_json_obj())
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


def _rename(g, rng, pool):
    """g with some vertices and edges renamed from pool or to short odd strings."""

    def fresh():
        if rng.random() < 0.6:
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


def test_name_free_collision_check_agrees_with_rendered_names():
    # names drawn from the first generated layers make collisions and many
    # near misses; the parsing check and the rendered names must decide alike
    def outcome(run):
        try:
            return run()
        except PreconditionError as exc:
            return str(exc)

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
        want = outcome(lambda: tuple(len(ws) for ws in canonical_sequence(h, 2).w_sets.values()))
        assert outcome(lambda: w_set_sizes(h, 2)) == want
        collisions += isinstance(want, str)
    assert collisions >= 10


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
