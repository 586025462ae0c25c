"""Answers that are invariants of a separated graph, checked on reordered copies.

A copy from graph_oracles.shuffled lists its vertices, edges, groups, group
members and bipartite layers in seeded orders, so the sparse elimination
picks other pivots and the count walks the tuples in another order: a
second path to each answer, with no oracle of its own.
"""

import random

from sepk.graph_model import builtin_from_spec
from sepk.ktheory import k_groups_full, monoid_universal_group
from sepk.transform import BudgetExceededError, PreconditionError, canonical_sequence, w_set_sizes

from conftest import random_bipartite_graph
from graph_oracles import shuffled


def _answers(g):
    """K0, K1 rank, the monoid's universal group, and |W_2|, |W_3| or the refusal of their count."""
    k = k_groups_full(g)
    try:
        w = w_set_sizes(g, 2)
    except (BudgetExceededError, PreconditionError) as exc:
        w = (type(exc).__name__, str(exc))
    return k.k0, k.k1_rank, monoid_universal_group(g), w


def test_invariants_equal_on_shuffled_copies():
    # 60 seeded draws and layers 0-2 of four built-ins, each against two
    # shuffled copies; some draws have K0 torsion and some refuse the count
    rng = random.Random(48)
    graphs = [random_bipartite_graph(rng) for _ in range(60)]
    for spec in ("E(2,2)", "E(2,3)", "lamplighter(2)", "lamplighter(3)"):
        graphs += canonical_sequence(builtin_from_spec(spec), 2).graphs
    torsion = refused = 0
    for g in graphs:
        want = _answers(g)
        torsion += bool(want[0].factors)
        refused += isinstance(want[3][0], str)
        for _ in range(2):
            assert _answers(shuffled(g, rng)) == want
    assert torsion >= 5 and refused >= 1, (torsion, refused)
