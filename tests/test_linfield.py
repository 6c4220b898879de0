"""The exact field kernel, rref, and the oracle's helpers on it.

`solve` and `kernel_basis` belong to the direct cover-homology oracle in
`tests/helpers.py`; they are tested here next to the kernel they use.

Oracle notes: every result is checked by multiplying back with
`matrices.mat_mul`, never with the kernel itself.  Invertible matrices are
built as L*U with unit lower triangular L and an upper triangular U with a
nonzero diagonal, so they are invertible by construction.
"""

import random

import pytest

from cyclocover.linfield import rref
from cyclocover.matrices import mat_mul
from cyclocover.rings import GF, QQ

from helpers import kernel_basis, solve

FIELDS = [QQ, GF(7)]


def identity(ring, n):
    return [[ring.coerce(int(i == j)) for j in range(n)] for i in range(n)]


def random_matrix(ring, rng, rows, cols):
    return [[ring.coerce(rng.randint(-4, 4)) for _ in range(cols)]
            for _ in range(rows)]


def random_invertible(ring, rng, n):
    lower = identity(ring, n)
    upper = identity(ring, n)
    for i in range(n):
        upper[i][i] = ring.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))
        for j in range(n):
            if j < i:
                lower[i][j] = ring.coerce(rng.randint(-4, 4))
            elif j > i:
                upper[i][j] = ring.coerce(rng.randint(-4, 4))
    return mat_mul(lower, upper)


def reduced(ring, rows):
    """`mat_mul` leaves GF(p) entries unreduced; compare their residues."""
    return [[ring.coerce(x) for x in row] for row in rows]


def columns(rows):
    return [list(col) for col in zip(*rows)]


@pytest.mark.parametrize("ring", FIELDS, ids=str)
class TestSolve:
    def test_round_trip(self, ring):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(1, 6)
            k = rng.randint(1, n)
            m = rng.randint(1, 4)
            # the first k columns of an invertible matrix are independent
            kmat = [row[:k] for row in random_invertible(ring, rng, n)]
            x = random_matrix(ring, rng, k, m)
            w = mat_mul(kmat, x)
            assert solve(ring, columns(kmat), columns(w), n) == columns(x)

    def test_target_outside_span(self, ring):
        rng = random.Random(9)
        a = random_invertible(ring, rng, 4)
        cols = columns(a)
        with pytest.raises(ValueError, match="span"):
            solve(ring, cols[:3], [cols[3]], 4)

    def test_dependent_columns(self, ring):
        rng = random.Random(10)
        cols = columns(random_invertible(ring, rng, 4))[:2]
        cols.append([x + y for x, y in zip(*cols)])
        with pytest.raises(ValueError, match="dependent"):
            solve(ring, cols, [cols[0]], 4)


@pytest.mark.parametrize("ring", FIELDS, ids=str)
def test_kernel_basis_is_annihilated(ring):
    rng = random.Random(11)
    for _ in range(25):
        rows, cols, r = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 4)
        # a product through r dimensions often has rank below min(rows, cols)
        a = mat_mul(random_matrix(ring, rng, rows, r),
                    random_matrix(ring, rng, r, cols))
        basis = kernel_basis(ring, a, cols)
        assert len(basis) == cols - len(rref(ring, a)[1])
        for v in basis:
            assert (reduced(ring, mat_mul(a, [[x] for x in v]))
                    == [[ring.coerce(0)]] * rows)


def test_rref_reduces_its_input():
    # entries that are not residues mod 7: 7 is 0, -1 is 6, 15 is 1; the
    # third reduced row is the sum of the first two minus 3 e_4
    F = GF(7)
    rows = [[7, -1, 15, 3], [2, 14, -8, 1], [-5, 6, 0, 22]]
    R, pivots = rref(F, rows)
    assert (R, pivots) == rref(F, reduced(F, rows))
    assert pivots == [0, 1, 3]
    assert all(type(x) is int and 0 <= x < 7 for row in R for x in row)


def test_kernel_of_no_rows_is_everything():
    assert kernel_basis(QQ, [], 3) == identity(QQ, 3)
