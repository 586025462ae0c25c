"""Answers that are invariants of a separated graph, checked on reordered copies.

A copy from graph_oracles.shuffled lists its vertices, edges, groups, group
members and bipartite layers in seeded orders, so the sparse elimination
picks other pivots and the count and the canonical step walk the tuples
in another order: a second path to each answer, with no oracle of its
own.  A copy keeps each group's members, so a group is named by its set of
members across copies.
"""

import random
from collections import Counter

from sepk.exact_linalg import in_lattice_span
from sepk.graph_model import builtin_from_spec
from sepk.ktheory import k0_tame, k_groups_full, monoid_universal_group
from sepk.transform import (
    BudgetExceededError,
    PreconditionError,
    _sequence_counts,
    canonical_sequence,
    w_set_sizes,
)

from conftest import random_bipartite_graph
from graph_oracles import shuffled


def _or_refusal(count, g):
    """count(g, 2), or the type and message of its budget or precondition refusal."""
    try:
        return count(g, 2)
    except (BudgetExceededError, PreconditionError) as exc:
        return (type(exc).__name__, str(exc))


def _answers(g):
    """K0, K1's basis, the monoid's universal group, |W_2|, |W_3| and k0_tame to depth 2.

    K1's basis names each group by its set of members; a count is its
    refusal where it is refused.
    """
    k = k_groups_full(g)
    basis = [{frozenset(g.group(key)): c for key, c in x.items()} for x in k.k1_basis]
    return k.k0, basis, monoid_universal_group(g), _or_refusal(w_set_sizes, g), _or_refusal(k0_tame, g)


def _same_lattice(a, b):
    """Whether two lists of {coordinate: coefficient} span one lattice, by in_lattice_span both ways."""
    coords = list(set().union(*a, *b))
    a, b = ([[x.get(c, 0) for c in coords] for x in side] for side in (a, b))
    return all(in_lattice_span(b, x) for x in a) and all(in_lattice_span(a, x) for x in b)


def _graphs(rng):
    """60 seeded draws and layers 0-2 of four built-ins."""
    graphs = [random_bipartite_graph(rng) for _ in range(60)]
    for spec in ("E(2,2)", "E(2,3)", "lamplighter(2)", "lamplighter(3)"):
        graphs += canonical_sequence(builtin_from_spec(spec), 2).graphs
    return graphs


def test_invariants_equal_on_shuffled_copies():
    # each graph against two shuffled copies; some draws have K0 torsion,
    # some refuse the count and some have a nonzero K1
    rng = random.Random(48)
    graphs = _graphs(rng)
    torsion = refused = k1 = 0
    for g in graphs:
        k0, basis, *rest = _answers(g)
        torsion += bool(k0.factors)
        refused += isinstance(rest[1][0], str)
        k1 += bool(basis)
        for _ in range(2):
            k0_copy, basis_copy, *rest_copy = _answers(shuffled(g, rng))
            assert (k0_copy, len(basis_copy), rest_copy) == (k0, len(basis), rest)
            assert _same_lattice(basis_copy, basis)
    assert torsion >= 5 and refused >= 1 and k1 >= 5, (torsion, refused, k1)


def _sequence_answers(g):
    """Per layer of canonical_sequence(g, 2) its (vertices, edges), |W_k|, the
    sorted fibre sizes of each root table, and K0 of layer 2."""
    seq = canonical_sequence(g, 2)
    return (
        [(len(h.vertices), len(h.edges)) for h in seq.graphs],
        [len(seq.w_sets[k]) for k in (2, 3)],
        [sorted(Counter(seq.root_tables[k].values()).values()) for k in (2, 3)],
        k_groups_full(seq.graphs[2]).k0,
    )


def test_canonical_sequences_agree_on_shuffled_copies():
    # every graph of the list whose layer 2 has at most 2 000 vertices: the
    # materialized sequence of each shuffled copy walks its tuples in another
    # order, and the layers it makes have the same shape and K0
    rng = random.Random(48)
    checked = torsion = 0
    for g in _graphs(rng):
        try:
            counts, _ = _sequence_counts(g, 2)
        except (BudgetExceededError, PreconditionError):
            continue
        if counts[2][0] > 2000:
            continue
        answers = _sequence_answers(g)
        checked += 1
        torsion += bool(answers[-1].factors)
        for _ in range(2):
            assert _sequence_answers(shuffled(g, rng)) == answers
    assert checked >= 50 and torsion >= 5, (checked, torsion)
