"""Dense reference computations that the tests check sepk against.

Nothing in sepk calls these.  to_lists copies a labeled matrix into mutable
rows, transpose flips it, diagonal reads its main diagonal and format_grid
renders it as a labeled grid; smith_diagonal
reads the dense Smith form, which never goes through the sparse unit-pivot
elimination behind cokernel_invariants and kernel_basis; the fraction-free determinant
decides whether a Smith transform is unimodular, and mat_mul checks that
the transforms multiply the input to its Smith form.  reference_incidence
spells out the columns of 1_C - A by looking every edge up by name, and
dense_one and dense_difference spell out an incidence pair's matrices cell
by cell, the reference for its sparse views.  in_span_by_two_forms decides
lattice membership by comparing two Hermite forms, the basis's and the
basis's with the target appended.
"""

from sepk.exact_linalg import IntMatrix, _format_grid, hnf_column_basis, smith_normal_form
from sepk.graph_model import SeparatedGraph


def to_lists(matrix: IntMatrix) -> list[list[int]]:
    """The rows of a labeled integer matrix as mutable lists."""
    return [list(row) for row in matrix.data]


def diagonal(matrix: IntMatrix) -> tuple[int, ...]:
    """The entries (i, i) of a labeled integer matrix, up to its shorter side."""
    return tuple(matrix.data[i][i] for i in range(min(matrix.shape)))


def format_grid(matrix: IntMatrix) -> str:
    """The matrix as a grid of right-justified columns under its labels."""
    return _format_grid(
        [str(r) for r in matrix.rows],
        [str(c) for c in matrix.cols],
        [[str(x) for x in row] for row in matrix.data],
    )


def smith_diagonal(matrix: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the dense Smith form of matrix."""
    return diagonal(smith_normal_form(matrix)[1])


def transpose(matrix: IntMatrix) -> IntMatrix:
    """The transpose of a labeled integer matrix, labels swapped."""
    data = tuple(zip(*matrix.data)) if matrix.data else tuple(() for _ in matrix.cols)
    return IntMatrix(matrix.cols, matrix.rows, data)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b of two labeled integer matrices."""
    if len(a.cols) != len(b.rows):
        raise ValueError("inner dimensions do not match")
    bt = transpose(b).data
    out = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.data)
    return IntMatrix(a.rows, b.cols, out)


def det_bareiss(matrix: IntMatrix) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(matrix.rows)
    if n != len(matrix.cols):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = to_lists(matrix)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(matrix: IntMatrix) -> bool:
    return abs(det_bareiss(matrix)) == 1


def in_span_by_two_forms(basis, target) -> bool:
    """Whether target lies in the integer span of basis: appending it leaves the Hermite form."""
    dim = len(target)
    return hnf_column_basis(basis, dim) == hnf_column_basis([*basis, target], dim)


def reference_incidence(g: SeparatedGraph) -> tuple[dict[int, int], ...]:
    """The nonzero entries of each column of 1_C - A, rows by vertex position.

    One column per group, vertices in list order and groups in C_v order:
    +1 at the range vertex, -1 at the source of each member, with
    multiplicity.
    """
    row = {v: i for i, v in enumerate(g.vertices)}
    source = {e.id: e.src for e in g.edges}
    columns = []
    for v, groups in zip(g.vertices, g.separation):
        for grp in groups:
            col = {row[v]: 1}
            for eid in grp:
                i = row[source[eid]]
                col[i] = col.get(i, 0) - 1
            columns.append({i: x for i, x in col.items() if x})
    return tuple(columns)


def dense_one(pair) -> IntMatrix:
    """The matrix marking each group's range vertex, built from dense rows."""
    vidx = {v: i for i, v in enumerate(pair.vertices)}
    data = [[0] * len(pair.cols) for _ in pair.vertices]
    for j, (v, _) in enumerate(pair.cols):
        data[vidx[v]][j] = 1
    return IntMatrix(pair.vertices, pair.cols, data)


def dense_difference(pair) -> IntMatrix:
    """The matrix of 1_C - A, built from dense rows."""
    data = [[0] * len(pair.cols) for _ in pair.vertices]
    for j, col in enumerate(pair.columns):
        for i, x in col.items():
            data[i][j] = x
    return IntMatrix(pair.vertices, pair.cols, data)
