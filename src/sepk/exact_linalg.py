"""Exact integer matrix algebra: cokernels, kernel bases, Smith and Hermite forms.

Everything runs over plain Python ints (arbitrary precision); intermediate
entries of normal-form computations blow up quickly even for modest inputs,
so machine integers are never used.

Cokernels, kernels and ranks share one sparse elimination, ColumnReduction:
it pivots on +-1 entries first, in Markowitz order, and leaves only a core
without unit entries, usually tiny, to dense Smith form (cokernel) and
column echelon (kernel).  Dense Smith form picks pivots of minimal absolute
value to damp entry growth.  Correctness depends on neither pivot order,
and kernel bases come out in canonical Hermite form, so results do not
depend on the elimination path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """A dense integer matrix with duplicate-free row and column labels."""

    rows: tuple[Hashable, ...]
    cols: tuple[Hashable, ...]
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("duplicate row labels")
        if len(set(self.cols)) != len(self.cols):
            raise ValueError("duplicate column labels")
        if len(self.data) != len(self.rows):
            raise ValueError("row count does not match labels")
        for row in self.data:
            if len(row) != len(self.cols):
                raise ValueError("column count does not match labels")

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Hashable],
        cols: Iterable[Hashable],
        data: Sequence[Sequence[int]],
    ) -> "IntMatrix":
        return cls(tuple(rows), tuple(cols), tuple(tuple(int(x) for x in r) for r in data))

    @classmethod
    def identity(cls, labels: Iterable[Hashable]) -> "IntMatrix":
        labels = tuple(labels)
        n = len(labels)
        return cls(labels, labels, tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        ))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.data)) if self.data else tuple(() for _ in self.cols))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if len(self.cols) != len(other.rows):
            raise ValueError("inner dimensions do not match")
        bt = list(zip(*other.data)) if other.data else [()] * len(other.cols)
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
            for row in self.data
        )
        return IntMatrix(self.rows, other.cols, out)

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("labels do not match")
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        ))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.data[i][i] for i in range(min(self.shape)))

    def format_grid(self) -> str:
        """Human-readable labeled grid."""
        col_heads = [str(c) for c in self.cols]
        row_heads = [str(r) for r in self.rows]
        cells = [[str(x) for x in row] for row in self.data]
        widths = [
            max([len(col_heads[j])] + [len(cells[i][j]) for i in range(len(cells))] or [1])
            for j in range(len(col_heads))
        ]
        head_w = max([len(h) for h in row_heads] + [0])
        lines = [" " * head_w + "  " + "  ".join(h.rjust(w) for h, w in zip(col_heads, widths))]
        for rh, row in zip(row_heads, cells):
            lines.append(rh.rjust(head_w) + "  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """Normal form of a finitely generated abelian group.

    rank is the free rank; factors is the invariant-factor chain
    d_1 | d_2 | ... | d_s with every d_i >= 2.
    """

    rank: int
    factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in self.factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if prev is not None and d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.factors

    def with_free_summand(self, extra_rank: int) -> "AbelianGroupInvariants":
        return AbelianGroupInvariants(self.rank + extra_rank, self.factors)

    def __str__(self) -> str:
        parts: list[str] = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.factors)
        return " ⊕ ".join(parts) if parts else "0"


def _min_abs_pivot(a: list[list[int]], k: int) -> tuple[int, int] | None:
    # Smallest nonzero |entry| in the submatrix a[k:, k:]; early exit on 1.
    best = None
    best_val = 0
    for i in range(k, len(a)):
        row = a[i]
        for j in range(k, len(row)):
            v = row[j]
            if v:
                av = abs(v)
                if av == 1:
                    return (i, j)
                if best is None or av < best_val:
                    best = (i, j)
                    best_val = av
    return best


def _smith(a: list[list[int]], track: bool):
    """In-place SNF of a; returns (U_ops, V_ops) as matrices when track is set.

    Row operations are mirrored into u, column operations into v, keeping
    u * original * v == a at every step.
    """
    m, n = len(a), len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track else None
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if track else None

    def swap_rows(i1, i2):
        if i1 != i2:
            a[i1], a[i2] = a[i2], a[i1]
            if track:
                u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        if j1 != j2:
            for row in a:
                row[j1], row[j2] = row[j2], row[j1]
            if track:
                for row in v:
                    row[j1], row[j2] = row[j2], row[j1]

    def add_row(dst, src, t):
        # row dst += t * row src
        ad, asrc = a[dst], a[src]
        for j in range(n):
            ad[j] += t * asrc[j]
        if track:
            ud, usrc = u[dst], u[src]
            for j in range(m):
                ud[j] += t * usrc[j]

    def add_col(dst, src, t):
        for row in a:
            row[dst] += t * row[src]
        if track:
            for row in v:
                row[dst] += t * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if track:
            u[i] = [-x for x in u[i]]

    for k in range(min(m, n)):
        while True:
            pos = _min_abs_pivot(a, k)
            if pos is None:
                break
            swap_rows(k, pos[0])
            swap_cols(k, pos[1])
            pivot = a[k][k]
            dirty = False
            for i in range(k + 1, m):
                if a[i][k]:
                    q = a[i][k] // pivot
                    if q:
                        add_row(i, k, -q)
                    if a[i][k]:
                        dirty = True  # remainder left, re-pick pivot
            for j in range(k + 1, n):
                if a[k][j]:
                    q = a[k][j] // pivot
                    if q:
                        add_col(j, k, -q)
                    if a[k][j]:
                        dirty = True
            if dirty:
                continue
            # Pivot must divide the remaining submatrix for the divisibility
            # chain; if not, fold the offending row in and restart.
            offender = None
            for i in range(k + 1, m):
                row = a[i]
                for j in range(k + 1, n):
                    if row[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(k, offender, 1)
        if k < min(m, n) and a[k][k] < 0:
            negate_row(k)
    return u, v


def smith_normal_form(matrix: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U * matrix * V == D, U and V unimodular.

    D is diagonal with nonnegative entries forming a divisibility chain.
    """
    if not matrix.rows:  # _smith cannot see the column count of no rows
        return IntMatrix.identity(()), matrix, IntMatrix.identity(matrix.cols)
    a = matrix.to_lists()
    u, v = _smith(a, track=True)
    m = IntMatrix.from_rows
    return (
        m(matrix.rows, matrix.rows, u if u is not None else []),
        m(matrix.rows, matrix.cols, a),
        m(matrix.cols, matrix.cols, v if v is not None else []),
    )


# sparse column elimination -------------------------------------------------
#
# Cokernels, kernels and ranks all run through ColumnReduction, which takes a
# matrix as columns of {row: entry} dicts.  The incidence matrices of deep
# canonical-sequence layers are tall (thousands of rows), have a handful of
# nonzeros per row, and nearly all their entries are +-1.  A +-1 entry is a
# unit pivot: column operations clear the rest of its row, and then its row
# and column can leave the matrix without changing the cokernel (Dumas,
# Saunders, Villard, "On efficient sparse integer matrix Smith normal form
# computations", J. Symbolic Comput. 32, 2001).  Only the core left without
# a unit entry, usually tiny, goes to dense Smith form or column echelon.


class ColumnReduction:
    """Unit-pivot elimination of the integer matrix with the given columns.

    columns[j] maps row indices in range(nrows) to the nonzero entries of
    column j; the input is not modified.  Every pivot is a +-1 entry.
    Pivoting drops one row and one column, so the cokernel loses a trivial
    summand and the rank gains one.  The columns that remain form the core:
    they have no +-1 entry, and each carries its tail, the combination of
    input columns that it now is, from which kernel() reads kernel vectors.
    """

    def __init__(self, nrows: int, columns: Sequence[Mapping[int, int]]):
        cols: list[dict[int, int] | None] = [dict(c) for c in columns]
        tails: list[dict[int, int] | None] = [{j: 1} for j in range(len(cols))]
        units = [sum(1 for x in col.values() if x == 1 or x == -1) for col in cols]
        in_row: list[set[int]] = [set() for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i in col:
                in_row[i].add(j)
        # Markowitz order, approximated: the shortest column with a unit
        # entry, pivoted at its shortest row, fills in least.  A column is
        # queued again whenever a pivot changes it; stale entries are skipped.
        queue = [(len(col), j) for j, col in enumerate(cols) if units[j]]
        heapq.heapify(queue)
        pivots = 0
        while queue:
            size, c = heapq.heappop(queue)
            col = cols[c]
            if col is None or size != len(col) or not units[c]:
                continue
            r, shortest = -1, len(cols) + 1  # a row meets at most len(cols) columns
            for i, x in col.items():
                if (x == 1 or x == -1) and len(in_row[i]) < shortest:
                    r, shortest = i, len(in_row[i])
            unit = col[r]
            tail = tails[c]
            for q in [q for q in in_row[r] if q != c]:
                colq = cols[q]
                t = colq[r] * unit  # unit is its own inverse
                u = units[q]
                for i, x in col.items():
                    old = colq.get(i, 0)
                    new = old - t * x
                    if old == 1 or old == -1:
                        u -= 1
                    if new:
                        if not old:
                            in_row[i].add(q)
                        colq[i] = new
                        if new == 1 or new == -1:
                            u += 1
                    else:
                        del colq[i]
                        in_row[i].discard(q)
                units[q] = u
                tq = tails[q]
                for k, x in tail.items():
                    new = tq.get(k, 0) - t * x
                    if new:
                        tq[k] = new
                    else:
                        del tq[k]
                if u:
                    heapq.heappush(queue, (len(colq), q))
            for i in col:
                in_row[i].discard(c)
            cols[c] = tails[c] = None
            pivots += 1
        self.nrows = nrows
        self.ncols = len(cols)
        self.pivots = pivots
        self.core = [col for col in cols if col is not None]
        self.tails = [tail for tail in tails if tail is not None]

    def rank(self) -> int:
        core_rank, _ = _column_echelon(self.core, self.tails)
        return self.pivots + core_rank

    def cokernel(self) -> AbelianGroupInvariants:
        """Invariants of Z^nrows / column span, by dense Smith form of the core."""
        cols = [col for col in self.core if col]
        rows = sorted({i for col in cols for i in col})
        index = {i: k for k, i in enumerate(rows)}
        a = [[0] * len(cols) for _ in rows]
        for j, col in enumerate(cols):
            for i, x in col.items():
                a[index[i]][j] = x
        _smith(a, track=False)
        nonzero = [a[k][k] for k in range(min(len(rows), len(cols))) if a[k][k]]
        rank = self.nrows - self.pivots - len(nonzero)
        return AbelianGroupInvariants(rank, tuple(d for d in nonzero if d > 1))

    def kernel(self) -> list[tuple[int, ...]]:
        """A Z-basis of the kernel, in canonical column Hermite form."""
        if not self.ncols:
            return []
        _, tails = _column_echelon(self.core, self.tails)
        dense = []
        for tail in tails:
            vec = [0] * self.ncols
            for j, x in tail.items():
                vec[j] = x
            dense.append(vec)
        return hnf_column_basis(dense, self.ncols)


def _column_echelon(core, core_tails):
    """Unimodular column reduction of a copy; returns (pivot count, kernel tails).

    Each kernel tail expresses a combination of original columns that the
    reduction sent to zero, i.e. a kernel vector of the matrix.
    """
    cols = [dict(col) for col in core]
    tails = [dict(tail) for tail in core_tails]
    row_index: dict[int, set[int]] = {}
    for j, col in enumerate(cols):
        for r in col:
            row_index.setdefault(r, set()).add(j)

    def submul(q: int, p: int, t: int):
        # col q -= t * col p (both the matrix part and the tail part)
        colq, colp = cols[q], cols[p]
        for r, val in colp.items():
            new = colq.get(r, 0) - t * val
            if new:
                if r not in colq:
                    row_index[r].add(q)
                colq[r] = new
            elif r in colq:
                del colq[r]
                row_index[r].discard(q)
        tq, tp = tails[q], tails[p]
        for r, val in tp.items():
            new = tq.get(r, 0) - t * val
            if new:
                tq[r] = new
            elif r in tq:
                del tq[r]

    pivoted: set[int] = set()
    for r in sorted(row_index):
        live = [j for j in row_index[r] if j not in pivoted]
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][r]))
            p = live[0]
            pv = cols[p][r]
            remaining = [p]
            for q in live[1:]:
                t = cols[q][r] // pv
                if t:
                    submul(q, p, t)
                if cols[q].get(r):
                    remaining.append(q)
            live = remaining
        if live:
            pivoted.add(live[0])

    kernel_tails = []
    for j in range(len(cols)):
        if j not in pivoted:
            assert not cols[j], "column elimination left a nonzero non-pivot column"
            kernel_tails.append(tails[j])
    return len(pivoted), kernel_tails


def _reduction(matrix: IntMatrix) -> ColumnReduction:
    cols: list[dict[int, int]] = [{} for _ in matrix.cols]
    for i, row in enumerate(matrix.data):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return ColumnReduction(len(matrix.rows), cols)


def cokernel_invariants(matrix: IntMatrix) -> AbelianGroupInvariants:
    """Invariants of Z^rows / column-span(matrix)."""
    return _reduction(matrix).cokernel()


def matrix_rank(matrix: IntMatrix) -> int:
    return _reduction(matrix).rank()


def hnf_column_basis(vectors: Sequence[Sequence[int]], dim: int) -> list[tuple[int, ...]]:
    """Column-style Hermite normal form of the lattice spanned by vectors.

    Canonical output: pivot coordinates strictly increase, each leading
    entry is positive, and earlier vectors are reduced modulo later pivots
    (entries in a pivot coordinate lie in [0, pivot) for the other vectors).
    """
    basis = [list(v) for v in vectors]
    placed = 0
    for r in range(dim):
        live = [c for c in range(placed, len(basis)) if basis[c][r]]
        while len(live) > 1:
            live.sort(key=lambda c: abs(basis[c][r]))
            p = live[0]
            remaining = [p]
            for q in live[1:]:
                t = basis[q][r] // basis[p][r]
                if t:
                    for i in range(dim):
                        basis[q][i] -= t * basis[p][i]
                if basis[q][r]:
                    remaining.append(q)
            live = remaining
        if not live:
            continue
        c = live[0]
        basis[placed], basis[c] = basis[c], basis[placed]
        if basis[placed][r] < 0:
            basis[placed] = [-x for x in basis[placed]]
        pivot = basis[placed][r]
        for j in range(placed):
            t = basis[j][r] // pivot  # floor division leaves entry in [0, pivot)
            if t:
                for i in range(dim):
                    basis[j][i] -= t * basis[placed][i]
        placed += 1
    # Zero vectors (linear dependencies among inputs) are dropped.
    basis = basis[:placed]
    basis.sort(key=lambda v: next(i for i, x in enumerate(v) if x))
    return [tuple(v) for v in basis]


def kernel_basis(matrix: IntMatrix) -> list[tuple[int, ...]]:
    """A Z-basis of {x : matrix @ x == 0}, in canonical column Hermite form.

    Vectors are returned as dense coordinate tuples over matrix.cols; the
    list is empty when the kernel is trivial.
    """
    return _reduction(matrix).kernel()


def in_lattice_span(basis: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Exact membership of target in the integer span of basis vectors."""
    if not basis:
        return not any(target)
    dim = len(target)
    hnf = hnf_column_basis(basis, dim)
    residue = list(target)
    for vec in hnf:
        r = next(i for i, x in enumerate(vec) if x)
        if residue[r] % vec[r]:
            return False
        t = residue[r] // vec[r]
        if t:
            for i in range(dim):
                residue[i] -= t * vec[i]
    return not any(residue)
