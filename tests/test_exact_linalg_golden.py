"""Golden digests of the exact linear algebra on seeded matrices.

The Smith transforms U and V are public output, but the property tests
only check U * M * V == D and unimodularity; these digests pin the exact
U, D and V of smith_normal_form, the kernel bases, cokernel invariants and
ranks, and membership answers, so a change of elimination order that keeps
every property but moves an output byte is caught.  The digests were
taken before the dense core moved to one Smith elimination.
"""

import hashlib
import random

import pytest

from sepk.exact_linalg import (
    IntMatrix,
    cokernel_invariants,
    in_lattice_span,
    kernel_basis,
    matrix_rank,
    smith_normal_form,
)

from dense_oracles import format_grid


def unit_rich(rng):
    r, c = rng.randint(1, 7), rng.randint(1, 7)
    return r, c, lambda: rng.choice((0, 0, 1, -1, 1, -1, rng.randint(-5, 5)))


def unit_free(rng):
    # No +-1 entry, so the unit-pivot pass does nothing and the dense core
    # is the whole matrix.
    r, c = rng.randint(1, 6), rng.randint(1, 6)
    return r, c, lambda: rng.choice((0, 2, -2, 3, -3, 4, -6, 9, 10, -15))


def sparse(rng):
    short, long = rng.randint(1, 4), rng.randint(8, 14)
    r, c = (long, short) if rng.random() < 0.5 else (short, long)
    return r, c, lambda: rng.choice((0,) * 9 + (1, -1, 2, -3))


def wide_entries(rng):
    r, c = rng.randint(1, 5), rng.randint(1, 5)
    return r, c, lambda: rng.choice((0, 1, -1, rng.randint(-(2**80), 2**80)))


KINDS = {
    "unit-rich": unit_rich,
    "unit-free": unit_free,
    "sparse": sparse,
    "80-bit": wide_entries,
}
EMPTY_SHAPES = ((0, 3), (3, 0), (0, 0), (0, 1), (1, 0))
SEED = {"unit-rich": 61, "unit-free": 62, "sparse": 63, "80-bit": 64}
COUNT = 100


def seeded_matrices(kind):
    rng = random.Random(SEED[kind])
    out = []
    for _ in range(COUNT):
        r, c, entry = KINDS[kind](rng)
        rows = [[entry() for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.4:  # a zero row and a zero column
            rows[rng.randrange(r)] = [0] * c
            zero = rng.randrange(c)
            for row in rows:
                row[zero] = 0
        out.append(IntMatrix.from_rows(range(r), range(c), rows))
    if kind == "sparse":
        out.extend(IntMatrix.from_rows(range(r), range(c), [[0] * c] * r) for r, c in EMPTY_SHAPES)
    return out


def membership_cases(rng, m):
    """(basis, target) pairs: the columns of m, a combination of them, and
    the same combination pushed off the lattice by a small vector."""
    r, c = m.shape
    columns = [list(col) for col in zip(*m.data)] if r else [[] for _ in range(c)]
    member = [0] * r
    for col in columns:
        t = rng.randint(-3, 3)
        member = [a + t * b for a, b in zip(member, col)]
    nudged = [a + rng.choice((0, 1, 1, 2)) for a in member]
    return [(columns, member), (columns, nudged), (columns[: c // 2], member)]


def digest_lines(kind):
    rng = random.Random(-SEED[kind])
    for m in seeded_matrices(kind):
        u, d, v = smith_normal_form(m)
        answers = tuple(
            in_lattice_span(basis, target) for basis, target in membership_cases(rng, m)
        )
        yield repr((
            m.data, u.data, d.data, v.data,
            kernel_basis(m), cokernel_invariants(m), matrix_rank(m), answers,
        ))


def sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


GOLDEN = {
    "unit-rich": "4e124db51ab3714f26d1d295cfb550515624fb3123b24ddcd8a5fe0d123b1a63",
    "unit-free": "e95dfdc548c790d6cc5a45eeedc4921d6a95d398e4017ec254594ea28fca67d8",
    "sparse": "17f3c25cecb96fe172f91fcc846a983fbffed79d8e1b5f65ee30fc7403c17faf",
    "80-bit": "fc8e15949c796a57f972b55ef8f1aee4b3c2eda4aa9df17e3ee052ea941c2e57",
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_linear_algebra_outputs_match_golden(kind):
    assert sha(digest_lines(kind)) == GOLDEN[kind]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_membership_cases_include_members_and_non_members(kind):
    rng = random.Random(-SEED[kind])
    answers = {
        in_lattice_span(basis, target)
        for m in seeded_matrices(kind)
        for basis, target in membership_cases(rng, m)
    }
    assert answers == {True, False}


def test_int_matrix_grid_matches_golden():
    m = IntMatrix.from_rows(
        ("v", "long row label", "w2"),
        ("a", "column b", "c", 7),
        [[1, -20, 0, 3], [12345678901234567890, 0, -1, 0], [0, 0, 0, -999]],
    )
    assert format_grid(m) == (
        "                                   a  column b   c     7\n"
        "             v                     1       -20   0     3\n"
        "long row label  12345678901234567890         0  -1     0\n"
        "            w2                     0         0   0  -999"
    )
    assert format_grid(IntMatrix.from_rows((), ("a", "bb"), [])) == "  a  bb"
    assert format_grid(IntMatrix.from_rows(("x",), (), [[]])) == "   \nx  "
