import itertools
import random
from collections import Counter

import pytest

from sepk import exact_linalg
from sepk.exact_linalg import (
    AbelianGroupInvariants,
    ColumnReduction,
    IntMatrix,
    cokernel_invariants,
    hnf_column_basis,
    in_lattice_span,
    kernel_basis,
    matrix_rank,
    smith_normal_form,
)
from sepk.ktheory import incidence

from conftest import random_bipartite_graph
from dense_oracles import (
    det_bareiss,
    diagonal,
    in_span_by_two_forms,
    is_unimodular,
    mat_mul,
    smith_diagonal,
    to_lists,
)
from test_exact_linalg_golden import KINDS, seeded_matrices


def mat(rows):
    r = len(rows)
    c = len(rows[0]) if rows else 0
    return IntMatrix(range(r), range(c), rows)


def test_int_matrix_takes_only_integer_entries():
    # A float or a string is refused, neither rounded, parsed nor kept as given.
    with pytest.raises(TypeError):
        IntMatrix([0], [0, 1], [[1.5, "3"]])
    with pytest.raises(TypeError):
        cokernel_invariants(IntMatrix([0], [0], ((2.5,),)))
    m = IntMatrix([0], [0, 1], [[True, 3]])
    assert m.data == ((1, 3),) and type(m.data[0][0]) is int
    assert m == IntMatrix((0,), (0, 1), [(1, 3)])


@pytest.mark.parametrize("rows,cols,data,message", [
    ([0, 0], [0], [[1], [2]], "duplicate row labels"),
    ([0], ["c", "c"], [[1, 2]], "duplicate column labels"),
    ([0, 1], [0], [[1]], "row count does not match labels"),
    ([0, 1], [0, 1], [[1, 2], [3]], "column count does not match labels"),
])
def test_int_matrix_rejects_duplicate_labels_and_wrong_shapes(rows, cols, data, message):
    with pytest.raises(ValueError) as exc:
        IntMatrix(rows, cols, data)
    assert str(exc.value) == message


def test_snf_unimodular_2x2():
    # det = 1, so the form is the identity
    u, d, v = smith_normal_form(mat([[1, 1], [-3, -2]]))
    assert to_lists(d) == [[1, 0], [0, 1]]
    assert to_lists(mat_mul(mat_mul(u, mat([[1, 1], [-3, -2]])), v)) == to_lists(d)


def test_snf_rank_one():
    u, d, v = smith_normal_form(mat([[1, 1], [-3, -3]]))
    assert to_lists(d) == [[1, 0], [0, 0]]


def test_snf_zero_matrix():
    m = mat([[0, 0], [0, 0]])
    u, d, v = smith_normal_form(m)
    assert to_lists(d) == [[0, 0], [0, 0]]
    assert to_lists(u) == [[1, 0], [0, 1]]
    assert to_lists(v) == [[1, 0], [0, 1]]
    # empty shapes: the transforms are identities of the right sizes
    for r, c in ((0, 3), (3, 0), (0, 0)):
        u, d, v = smith_normal_form(IntMatrix(range(r), range(c), [[0] * c] * r))
        assert (u.shape, d.shape, v.shape) == ((r, r), (r, c), (c, c))
        assert to_lists(u) == [[int(i == j) for j in range(r)] for i in range(r)]
        assert to_lists(v) == [[int(i == j) for j in range(c)] for i in range(c)]


def test_snf_properties_random():
    rng = random.Random(42)
    for _ in range(60):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = mat([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        u, d, v = smith_normal_form(m)
        assert to_lists(mat_mul(mat_mul(u, m), v)) == to_lists(d)
        assert abs(det_bareiss(u)) == 1
        assert abs(det_bareiss(v)) == 1
        diag = diagonal(d)
        assert all(x >= 0 for x in diag)
        for i, j in itertools.product(range(r), range(c)):
            if i != j:
                assert d.data[i][j] == 0
        nonzero = [x for x in diag if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_cokernel_examples():
    assert cokernel_invariants(mat([[1, 1], [-3, -2]])) == AbelianGroupInvariants(0)
    assert cokernel_invariants(mat([[1, 1], [-3, -3]])) == AbelianGroupInvariants(1)
    assert cokernel_invariants(mat([[2]])) == AbelianGroupInvariants(0, (2,))


def test_cokernel_str():
    assert str(AbelianGroupInvariants(0)) == "0"
    assert str(AbelianGroupInvariants(1)) == "Z"
    assert str(AbelianGroupInvariants(2, (2, 6))) == "Z^2 ⊕ Z/2 ⊕ Z/6"


def test_invariants_reject_bad_chain():
    with pytest.raises(ValueError, match="^negative free rank$"):
        AbelianGroupInvariants(-1)
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (4, 6))


def test_cokernel_invariance_under_unimodular_moves():
    rng = random.Random(7)
    for _ in range(25):
        r = rng.randint(2, 5)
        c = rng.randint(2, 5)
        rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        base = cokernel_invariants(mat(rows))
        # row and column permutations
        pr = list(range(r))
        pc = list(range(c))
        rng.shuffle(pr)
        rng.shuffle(pc)
        shuffled = [[rows[i][j] for j in pc] for i in pr]
        assert cokernel_invariants(mat(shuffled)) == base
        # a few elementary row/column operations
        moved = [row[:] for row in rows]
        for _ in range(5):
            t = rng.randint(-2, 2)
            if rng.random() < 0.5:
                i1, i2 = rng.sample(range(r), 2)
                moved[i1] = [a + t * b for a, b in zip(moved[i1], moved[i2])]
            else:
                j1, j2 = rng.sample(range(c), 2)
                for row in moved:
                    row[j1] += t * row[j2]
        assert cokernel_invariants(mat(moved)) == base


def test_kernel_examples():
    # two equal columns: canonical kernel vector has a positive leading entry
    assert kernel_basis(mat([[1, 1], [-3, -3]])) == [(1, -1)]
    assert kernel_basis(mat([[1, 1], [-3, -2]])) == []
    assert kernel_basis(mat([[1, 0], [0, 1]])) == []


def test_kernel_annihilates_and_is_independent():
    rng = random.Random(11)
    for _ in range(40):
        r = rng.randint(1, 5)
        c = rng.randint(1, 6)
        m = mat([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        basis = kernel_basis(m)
        assert len(basis) == c - matrix_rank(m)
        for vec in basis:
            assert all(
                sum(m.data[i][j] * vec[j] for j in range(c)) == 0 for i in range(r)
            )
        if basis:
            stacked = IntMatrix(range(c), range(len(basis)), list(zip(*basis)))
            diag = smith_diagonal(stacked)
            assert all(d == 1 for d in diag)


def assert_small_kernel_vectors_in_span(m, basis):
    """Brute force: every kernel vector with entries in [-3, 3] is in the span."""
    r, c = m.shape
    for vec in itertools.product(range(-3, 4), repeat=c):
        if all(sum(m.data[i][j] * vec[j] for j in range(c)) == 0 for i in range(r)):
            assert in_lattice_span(basis, vec)


def test_kernel_brute_force_oracle_small():
    rng = random.Random(13)
    for _ in range(30):
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        m = mat([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        assert_small_kernel_vectors_in_span(m, kernel_basis(m))


def oracle_matrix(rng, kind):
    """A seeded matrix of at most 6 x 6, possibly empty, of the given kind.

    "units" has many +-1 entries, so unit pivots do most of the work;
    "no-units" has none, so the whole matrix is the dense core; "sparse" is
    mostly zero, with zero rows and columns; "large" mixes +-1 with entries
    of up to 84 bits.
    """
    r, c = rng.randint(0, 6), rng.randint(0, 6)
    entry = {
        "units": lambda: rng.choice((0, 0, 1, -1, rng.randint(-4, 4))),
        "no-units": lambda: rng.choice((0, 2, -2, 3, -4, 6, 9)),
        "sparse": lambda: rng.choice((0, 0, 0, 0, 0, 1, -1, 2)),
        "large": lambda: rng.choice((0, 1, -1, rng.randint(-(10**25), 10**25))),
    }[kind]
    rows = [[entry() for _ in range(c)] for _ in range(r)]
    if r and c and rng.random() < 0.3:
        rows[rng.randrange(r)] = [0] * c
        zero = rng.randrange(c)
        for row in rows:
            row[zero] = 0
    return IntMatrix(range(r), range(c), rows)


def test_unit_pivot_elimination_against_sympy_and_dense_smith():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(2001)
    kinds = ("units", "no-units", "sparse", "large")
    for n in range(500):
        m = oracle_matrix(rng, kinds[n % len(kinds)])
        r, c = m.shape
        flat = [x for row in m.data for x in row]
        factors = [abs(int(d)) for d in invariant_factors(sympy.Matrix(r, c, flat))]
        nonzero = [d for d in factors if d]
        assert [d for d in smith_diagonal(m) if d] == nonzero
        assert cokernel_invariants(m) == AbelianGroupInvariants(
            r - len(nonzero), tuple(d for d in nonzero if d > 1)
        )
        assert matrix_rank(m) == len(nonzero)
        basis = kernel_basis(m)
        assert len(basis) == c - len(nonzero)
        for vec in basis:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m.data)
        if basis:  # a saturated sublattice of the right rank is the whole kernel
            stacked = IntMatrix(range(c), range(len(basis)), list(zip(*basis)))
            assert set(smith_diagonal(stacked)) == {1}
        if c <= 3:
            assert_small_kernel_vectors_in_span(m, basis)


def test_hnf_canonical_form():
    basis = hnf_column_basis([[2, 4, 0], [3, 6, 1]], 3)
    # pivots strictly increase and are positive
    pivots = [next(i for i, x in enumerate(v) if x) for v in basis]
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for v, p in zip(basis, pivots):
        assert v[p] > 0
    # the span is unchanged
    for original in ([2, 4, 0], [3, 6, 1]):
        assert in_lattice_span(basis, original)


def test_hnf_drops_dependencies():
    # dependent and zero vectors collapse to a basis of the span
    assert hnf_column_basis([[1, 0], [2, 0], [3, 0]], 2) == [(1, 0)]
    assert hnf_column_basis([[1, 2], [1, 2], [0, 0]], 2) == [(1, 2)]


def test_in_lattice_span_edges():
    assert in_lattice_span([], [0, 0])
    assert not in_lattice_span([], [1, 0])
    assert in_lattice_span([[2, 0]], [4, 0])
    assert not in_lattice_span([[2, 0]], [3, 0])
    assert in_lattice_span([[2, 0, 1]], [4, 0]) and not in_lattice_span([[2, 0, 1]], [3, 0])
    with pytest.raises(ValueError):
        in_lattice_span([[2, 0]], [2, 0, 0])


def test_in_lattice_span_matches_the_two_form_oracle_on_kernels():
    # targets inside and outside each kernel, zero, and of one coordinate
    # fewer or more: a target longer than the basis vectors is refused, where
    # the two-form oracle raises IndexError or, for some, answers
    rng = random.Random(2002)
    kinds = ("units", "no-units", "sparse", "large")
    answers = {True: 0, False: 0}
    for n in range(300):
        m = oracle_matrix(rng, kinds[n % len(kinds)])
        c = m.shape[1]
        basis = kernel_basis(m)
        targets = [[0] * c]
        for _ in range(3):
            combo = [rng.randint(-3, 3) for _ in basis]
            inside = [sum(k * v[i] for k, v in zip(combo, basis)) for i in range(c)]
            targets += [inside, [x + rng.choice((0, 1, 2)) for x in inside]]
            targets.append([rng.randint(-3, 3) for _ in range(c)])
        targets += [t[:-1] for t in targets if t] + [t + [rng.choice((0, 1))] for t in targets]
        for target in targets:
            if basis and len(target) > c:
                with pytest.raises(ValueError, match="more than a basis vector"):
                    in_lattice_span(basis, target)
                continue
            want = in_span_by_two_forms(basis, target)
            assert in_lattice_span(basis, target) is want
            answers[want] += 1
    assert min(answers.values()) > 500


def test_det_and_unimodularity():
    assert det_bareiss(mat([[1, 1], [-3, -2]])) == 1
    assert det_bareiss(mat([[2, 0], [0, 3]])) == 6
    assert is_unimodular(mat([[1, 5], [0, -1]]))
    assert not is_unimodular(mat([[2, 0], [0, 1]]))


def test_big_integer_entries_survive():
    n = 10**40
    m = mat([[n, 1], [1, n]])
    u, d, v = smith_normal_form(m)
    assert to_lists(mat_mul(mat_mul(u, m), v)) == to_lists(d)
    assert d.data[0][0] == 1
    assert d.data[1][1] == n * n - 1


def _permuted(m, rng):
    """m with its rows and columns in seeded order, and the column order."""
    r, c = m.shape
    rows, cols = rng.sample(range(r), r), rng.sample(range(c), c)
    return IntMatrix(range(r), range(c), [[m.data[i][j] for j in cols] for i in rows]), cols


def test_elimination_does_not_depend_on_input_order():
    # the golden kinds and seeded incidences, K0 torsion among them, each
    # under two seeded row and column orders: a reordered copy pivots in
    # another order, and must give the same cokernel and the same kernel
    # lattice, carried across the column order
    rng = random.Random(4301)
    matrices = [(kind, m) for kind in sorted(KINDS) for m in seeded_matrices(kind)]
    matrices += [("incidence", incidence(random_bipartite_graph(rng)).difference())
                 for _ in range(100)]
    torsion = Counter()
    for kind, m in matrices:
        k0, basis = cokernel_invariants(m), kernel_basis(m)
        torsion[kind] += bool(k0.factors)
        for _ in range(2):
            p, cols = _permuted(m, rng)
            assert cokernel_invariants(p) == k0
            moved = kernel_basis(p)
            carried = [[v[j] for j in cols] for v in basis]
            assert all(in_lattice_span(moved, v) for v in carried)
            assert all(in_lattice_span(carried, v) for v in moved)
    assert torsion["incidence"] >= 10 and torsion.total() >= 100, torsion


def test_one_smith_pass_gives_both_groups_and_the_cokernel_appends_no_v(monkeypatch):
    # cokernel_and_kernel() reads K_0 and K_1 off one Smith pass of the core
    # with V appended; cokernel(), cokernel_invariants and matrix_rank run
    # their one pass without it.  Zero columns, empty shapes and repeated
    # columns (one of them negated) are among the cases.
    rng = random.Random(4302)
    kinds = ("units", "no-units", "sparse", "large")
    matrices = [oracle_matrix(rng, kinds[n % len(kinds)]) for n in range(400)]
    matrices += [IntMatrix(range(r), range(c), [[0] * c] * r)
                 for r, c in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 4))]
    for m in matrices[:200]:
        r, c = m.shape
        if c:
            j, k = rng.randrange(c), rng.randrange(c)
            rows = [row + (row[j], -row[k]) for row in m.data]
            matrices.append(IntMatrix(range(r), range(c + 2), rows))
    appended = []
    smith = exact_linalg._smith

    def recorded(a, m, n):
        appended.append(len(a) - m)
        smith(a, m, n)

    monkeypatch.setattr(exact_linalg, "_smith", recorded)
    for m in matrices:
        reduction = ColumnReduction(len(m.rows), m._columns)
        k0, basis = reduction.cokernel_and_kernel()
        assert appended == [len(reduction.core)]
        appended.clear()
        assert k0 == reduction.cokernel() == cokernel_invariants(m)
        assert len(m.rows) - k0.rank == matrix_rank(m)
        assert appended == [0, 0, 0]
        appended.clear()
        assert basis == kernel_basis(m)
        assert len(basis) == m.shape[1] - matrix_rank(m)
        appended.clear()
