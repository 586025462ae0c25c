"""Exact integer matrix algebra: cokernels, kernel bases, Smith and Hermite forms.

Everything runs over plain Python ints (arbitrary precision); intermediate
entries of normal-form computations blow up quickly even for modest inputs,
so machine integers are never used.

Cokernels, kernels and ranks share one sparse elimination, ColumnReduction:
it pivots on +-1 entries first, in Markowitz order, and leaves only a core
without unit entries, usually tiny, to one dense Smith elimination.  The
cokernel and the rank read its diagonal; the kernel reads the column
transform V, collected, like both transforms of smith_normal_form, by
identity rows or columns appended to the matrix the elimination works on.
Smith form picks pivots of minimal absolute value to damp entry growth.
Hermite form only canonicalizes: kernel bases come out in canonical column
Hermite form, so results do not depend on the elimination path, and
lattice membership compares two such forms.
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

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))


def _format_grid(row_heads: list[str], col_heads: list[str], cells: list[list[str]]) -> str:
    # Right-justified columns, each as wide as its widest head or cell.
    widths = [max([len(h)] + [len(row[j]) for row in cells]) for j, h in enumerate(col_heads)]
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


def _min_abs_pivot(a: list[list[int]], k: int, m: int, n: int) -> tuple[int, int] | None:
    # Smallest nonzero |entry| in the block a[k:m][k:n]; early exit on 1.
    best = None
    best_val = 0
    for i in range(k, m):
        row = a[i]
        for j in range(k, n):
            v = row[j]
            if v:
                av = abs(v)
                if av == 1:
                    return (i, j)
                if best is None or av < best_val:
                    best = (i, j)
                    best_val = av
    return best


def _smith(a: list[list[int]], m: int, n: int) -> None:
    """In-place Smith normal form of the block a[:m][:n].

    Row operations act on whole rows and column operations on every row of
    a, so an identity appended to the right of the first m rows becomes U,
    and identity rows appended below become V, with U * block * V == D.
    Pivots and the divisibility scan stay inside the block.
    """

    def add_row(dst, src, t):
        # row dst += t * row src
        a[dst] = [x + t * y for x, y in zip(a[dst], a[src])]

    for k in range(min(m, n)):
        while True:
            pos = _min_abs_pivot(a, k, m, n)
            if pos is None:
                break
            i, j = pos
            a[k], a[i] = a[i], a[k]
            if j != k:
                for row in a:
                    row[k], row[j] = row[j], row[k]
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
                    if q:  # column j -= q * column k
                        for row in a:
                            row[j] -= q * row[k]
                    if a[k][j]:
                        dirty = True
            if dirty:
                continue
            # Pivot must divide the remaining block for the divisibility
            # chain; if not, fold the offending row in and restart.
            offender = next(
                (i for i in range(k + 1, m) if any(a[i][j] % pivot for j in range(k + 1, n))),
                None,
            )
            if offender is None:
                break
            add_row(k, offender, 1)
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]


def _smith_cokernel(a: list[list[int]], m: int, n: int) -> AbelianGroupInvariants:
    """Invariants of Z^m / span of the columns of the block a[:m][:n]; a is consumed."""
    _smith(a, m, n)
    nonzero = [a[k][k] for k in range(min(m, n)) if a[k][k]]
    return AbelianGroupInvariants(m - len(nonzero), tuple(d for d in nonzero if d > 1))


def smith_normal_form(matrix: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U * matrix * V == D, U and V unimodular.

    D is diagonal with nonnegative entries forming a divisibility chain.
    """
    m, n = matrix.shape
    a = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(matrix.data)]
    a += [[int(i == j) for j in range(n)] for i in range(n)]
    _smith(a, m, n)
    rows = IntMatrix.from_rows
    return (
        rows(matrix.rows, matrix.rows, [row[n:] for row in a[:m]]),
        rows(matrix.rows, matrix.cols, [row[:n] for row in a[:m]]),
        rows(matrix.cols, matrix.cols, a[m:]),
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
# a unit entry, usually tiny, goes to the dense Smith elimination, behind
# the cokernel, the rank and the kernel alike.


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

    def _dense_core(self) -> list[list[int]]:
        # The core as dense rows over the rows it meets, one column per core column.
        rows = sorted({i for col in self.core for i in col})
        index = {i: k for k, i in enumerate(rows)}
        a = [[0] * len(self.core) for _ in rows]
        for j, col in enumerate(self.core):
            for i, x in col.items():
                a[index[i]][j] = x
        return a

    def rank(self) -> int:
        return self.nrows - self.cokernel().rank

    def cokernel(self) -> AbelianGroupInvariants:
        """Invariants of Z^nrows / column span, by Smith form of the core."""
        a = self._dense_core()
        core = _smith_cokernel(a, len(a), len(self.core))
        return core.with_free_summand(self.nrows - self.pivots - len(a))

    def kernel(self) -> list[tuple[int, ...]]:
        """A Z-basis of the kernel, in canonical column Hermite form.

        The columns of the core's V past its rank span the core's kernel;
        summing the tails they select carries them to the input columns.
        """
        a = self._dense_core()
        m, n = len(a), len(self.core)
        a += [[int(i == j) for j in range(n)] for i in range(n)]
        _smith(a, m, n)
        core_rank = sum(1 for k in range(min(m, n)) if a[k][k])
        vectors = []
        for j in range(core_rank, n):
            vec = [0] * self.ncols
            for v_row, tail in zip(a[m:], self.tails):
                t = v_row[j]
                if t:
                    for q, x in tail.items():
                        vec[q] += t * x
            vectors.append(vec)
        return hnf_column_basis(vectors, self.ncols)


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
    dim = len(target)
    return hnf_column_basis(basis, dim) == hnf_column_basis([*basis, target], dim)
