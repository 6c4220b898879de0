"""Smith normal form, characteristic polynomials, finite orders, cokernels.

[DERIVED] values come from hand computation or the brute-force oracles in
helpers.py; on random matrices the invariant factors are checked against
the determinantal divisors: d_1 ... d_i is the gcd of all i x i minors.
Those minors are Leibniz permutation sums (helpers.leibniz_det), against
which `det_int` and `det_coeffs` are checked too.  The Smith core is
driven through `laurent_cokernel`, its one entry point.
"""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from cyclocover.errors import PreconditionError
from cyclocover.matrices import (LaurentMatrix, det_coeffs, det_int,
                                 laurent_minor_gcd, laurent_product_is_zero,
                                 mat_identity, mat_mul)
from cyclocover.normal_forms import char_poly, finite_order, laurent_cokernel
from cyclocover.rings import GF, LaurentPoly, Poly, QQ, ZZ

from helpers import (brute_order, fraction_det, laurent_mat_mul, leibniz_det,
                     minor_gcd_oracle, monic_gcd, poly_add, poly_divmod, poly_mul,
                     rand_unimodular_laurent, smith_oracle, strip_t_power)


def P(*cs):
    return Poly(ZZ, cs)


def minors(a, i):
    """Every i x i minor of the matrix a, as submatrices."""
    for rs in combinations(range(len(a)), i):
        for cs in combinations(range(len(a[0])), i):
            yield [[a[r][c] for c in cs] for r in rs]


def lmat(rows):
    """The LaurentMatrix over ZZ of rows of int coefficient tuples."""
    return LaurentMatrix(ZZ, len(rows), len(rows[0]) if rows else 0,
                         [[LaurentPoly(ZZ, 0, cs) for cs in row] for row in rows])


def check_smith_form(mat, field):
    """The factors of `laurent_cokernel` are monic with a nonzero constant
    term and each divides the next, and, padded with ones up to the rank,
    d_1 ... d_i is the gcd over kappa[t] of all i x i minors up to a power
    of t, for every i.  The minors are Leibniz sums of the entries, moved
    into kappa[t] by one power of t for the whole matrix.  The products,
    minors and gcds run on the coefficient lists of `helpers`."""
    fs, free = laurent_cokernel(mat, field)
    rank = mat.nrows - free
    assert all(f.leading == 1 and f.coeffs[0] for f in fs)
    p = field.char
    for i in range(1, len(fs)):
        assert not poly_divmod(fs[i].coeffs, fs[i - 1].coeffs, p)[1]
    invariants = [[1]] * (rank - len(fs)) + [f.coeffs for f in fs]
    v = min((e.val for row in mat.entries for e in row), default=0)
    a = [[[0] * (e.val - v) + list(e.body.coeffs) for e in row]
         for row in mat.entries]
    prod = [1]
    for i in range(1, min(mat.nrows, mat.ncols) + 1):
        g = []
        for sub in minors(a, i):
            g = monic_gcd(g, leibniz_det(sub, p), p)
        prod = poly_mul(prod, invariants[i - 1], p) if i <= rank else []
        assert Poly(field, prod) == Poly(field, strip_t_power(g)), (mat, i)
    return fs, rank


def make_singular(a, rng, scalars):
    """Replace the last row by a combination of the first two (n >= 2)."""
    c0, c1 = rng.choice(scalars), rng.choice(scalars)
    a[-1] = [c0 * x + c1 * y for x, y in zip(a[0], a[1])]


class TestDeterminant:
    # [DERIVED] a zero leading pivot whose block holds a unit in row 0
    # (column swap at k = 0, the first two), a pivot that vanishes after a
    # unit step (column swap at k = 1, the next two); with no unit in the
    # block, a zero leading pivot (row swap at k = 0), a pivot that
    # vanishes after a Bareiss step (row swap at k = 1, prev 2), and a
    # column that vanishes below the diagonal (early exit)
    SWAPS = ([[0, 1], [1, 0]], [[0, 2, 1], [3, 0, 4], [5, 6, 0]],
             [[1, 2, 3], [2, 4, 5], [1, 3, 4]], [[1, 2, 3], [2, 4, 7], [3, 6, 1]],
             [[0, 2, 3], [3, 0, 4], [5, 6, 0]], [[2, 0, 3], [4, 0, 5], [6, 7, 8]],
             [[1, 2, 3], [2, 4, 8], [3, 6, 1]])

    def test_int_hand_cases(self):
        assert [det_int(a) for a in self.SWAPS] == [-1, 58, 1, 0, 94, 14, 0]
        assert det_int([]) == 1
        assert det_int([[-4]]) == -4

    def test_int_random_against_leibniz(self):
        rng = random.Random(3)
        for trial in range(120):
            n = rng.randint(1, 5)
            a = [[rng.choice([0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(n)]
                 for _ in range(n)]
            if trial % 3 == 0:
                a[0][0] = 0
            if trial % 4 == 1 and n >= 2:
                make_singular(a, rng, [-2, -1, 0, 1, 3])
            d = det_int(a)
            assert ([d] if d else []) == leibniz_det([[[x] for x in row] for row in a]), a
            assert type(d) is int

    # [DERIVED] by hand and by Fraction elimination; the comments name the
    # route through det_int's unit steps (pivot +-1 while prev is 1), its
    # block search for a unit (rows k.., columns k.., row by row) and its
    # Bareiss steps
    UNIT_PHASE = (
        # a unit step at column 0; the block search then meets the 1 in
        # row 1, column 2 before the 1 below the diagonal, so a column swap
        # gives the second unit step: det -6
        ([[1, 2, 0], [3, 1, 1], [0, 1, 1]], -6),
        # one unit step leaves column 1 zero from row 1 down; a column swap
        # brings up the -1 of column 2 for a second unit step, which
        # leaves 0 in the last entry: det 0
        ([[1, 2, 3], [2, 4, 5], [1, 2, 7]], 0),
        # a zero diagonal entry: a row and a column swap bring up the 1 of
        # row 1; after that unit step a row and a column swap bring up a
        # -1, and a diagonal 1 ends it: three unit steps, det 9
        ([[0, 0, 3, 3], [-1, 2, 1, -2], [0, 1, 3, 0], [1, -2, -2, -2]], 9),
        # one unit step, then column 1 reads 0, 2, 3 from row 1 down and
        # the block holds no unit: the zero pivot is swapped with the first
        # nonzero entry below it, the 2, and Bareiss steps end it; det 29
        ([[1, 1, 2, 1], [2, 2, 6, 9], [1, 3, 5, 6], [-1, 2, 3, 1]], 29),
        # Bareiss pivots 2 and 1 bring prev back to 1, so the diagonal 1 in
        # column 2 is a unit step: det 2
        ([[2, 1, 0, 0], [3, 2, 1, 0], [0, 1, 3, 1], [1, 0, 1, 4]], 2),
        # the same, with a zero on the diagonal in column 2: the search
        # meets a 1 in that row at column 3, and a column swap alone gives
        # the unit step; det 1
        ([[2, 1, 0, 0], [3, 2, 1, 0], [1, 1, 1, 1], [0, 1, 1, 2]], 1),
    )
    # [[2, 1], [1, 3]]: a leading pivot 2 with a unit below it is a plain
    # Bareiss step (no search below a nonzero diagonal entry before any
    # unit step)
    SMALL = (([[1]], 1), ([[-1]], -1), ([[0]], 0), ([[5]], 5),
             ([[1, 2], [3, 4]], -2), ([[0, -1], [1, 0]], 1),
             ([[-1, 5], [2, 7]], -17), ([[2, 3], [4, 5]], -2),
             ([[0, 2], [3, 0]], -6), ([[2, 1], [1, 3]], 5))
    # [DERIVED] the block search, each case by hand and by Fraction
    # elimination
    BLOCK_SEARCH = (
        # after a unit step the block is [[2, 1], [3, 1]]: its only units
        # lie right of column 1, so a column swap alone brings one up;
        # det -1
        ([[1, 1, 2], [2, 4, 5], [3, 6, 7]], -1),
        # after a unit step row 1 of the block, [2, 2, 3], holds no unit,
        # and the first unit is the -1 at row 2, column 3: a row swap and a
        # column swap together, then a unit step with pivot -1 (three sign
        # flips), then a Bareiss step with pivot 2; det 4
        ([[1, 1, 1, 1], [1, 3, 3, 4], [2, 4, 2, 1], [1, 3, 4, 5]], 4),
        # the same at k = 0, from a zero diagonal entry: det -61
        ([[0, 2, 3], [2, 5, -1], [3, 1, 4]], -61),
        # a zero diagonal entry and no unit anywhere: the search falls back
        # to the first nonzero entry of column 0, the 4 (not the 2 below
        # it), and Bareiss steps run with prev 1, then 4; det 6
        ([[0, 2, 3], [4, 5, 6], [2, 7, 9]], 6),
        # a singular 0/+-1 matrix (row 0 + row 1 = row 2 + row 3): a column
        # swap at the zero leading pivot, then unit steps only, with 0 left
        # in the last entry; det 0
        ([[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]], 0),
    )

    @pytest.mark.parametrize("a,d", UNIT_PHASE + SMALL + BLOCK_SEARCH)
    def test_int_unit_phase_cases(self, a, d):
        assert fraction_det(a) == d
        assert det_int(a) == d

    def test_int_random_01_biased_against_fractions(self):
        # mostly 0 and +-1, so unit steps run, hand over to Bareiss steps
        # (and now and then back) at varying columns, and meet zero columns
        # on singular draws
        rng = random.Random(23)
        pool = [0, 0, 0, 1, 1, -1, -1, 2, -3]
        for trial in range(400):
            n = rng.randint(1, 14)
            a = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            if trial % 5 == 1 and n >= 2:
                make_singular(a, rng, [-1, 0, 1, 2])
            assert det_int(a) == fraction_det(a), a

    # A non-unit step with at least 6 rows left and a nonzero 2 x 2 pivot
    # minor D eliminates two columns at once (Sylvester's identity, a
    # division by prev^2).  [DERIVED] by Fraction elimination; the routes
    # named were checked on an instrumented copy of the loop.

    @staticmethod
    def no_unit_matrix(rng, n):
        # entries without 0 or +-1, so no step is a unit step and no
        # pivot search runs unless a pivot vanishes
        return [[rng.choice([-1, 1]) * rng.randint(2, 9) for _ in range(n)]
                for _ in range(n)]

    def test_int_two_step_random(self):
        # sizes 6..14: two-steps back to back (prev != 1 from the second
        # one on), then one-steps on the last 5 rows
        rng = random.Random(41)
        for trial in range(60):
            a = self.no_unit_matrix(rng, 6 + trial % 9)
            assert det_int(a) == fraction_det(a), a

    def test_int_two_step_singular_pivot_minor(self):
        # D = 2*6 - 4*3 = 0 with the pivot 2: a one-step update at column
        # 0, then a zero pivot at column 1 and a search
        rng = random.Random(42)
        for n in range(6, 15):
            a = self.no_unit_matrix(rng, n)
            a[0][:2] = [2, 4]
            a[1][:2] = [3, 6]
            d = fraction_det(a)
            assert d != 0
            assert det_int(a) == d, a

    def test_int_zero_pivot_after_two_step(self):
        # row 2 is row 0 plus row 1 on the first three columns, so the
        # leading 3 x 3 minor vanishes while the 2 x 2 one does not: the
        # two-step at column 0 leaves a zero pivot at column 2
        rng = random.Random(43)
        for n in range(6, 15):
            a = self.no_unit_matrix(rng, n)
            a[0][:3] = [2, 3, 5]
            a[1][:3] = [4, -3, 7]
            a[2][:3] = [6, 0, 12]
            assert det_int(a) == fraction_det(a), a

    def test_int_two_step_rank_deficient(self):
        # a last row that is a combination of the first two, and a rank-2
        # matrix (every row a combination of rows 0 and 1): determinant 0
        rng = random.Random(44)
        for n in range(6, 15):
            a = self.no_unit_matrix(rng, n)
            make_singular(a, rng, [-2, 2, 3])
            assert det_int(a) == 0 == fraction_det(a), a
            for i in range(2, n):
                make_singular(a, rng, [-2, 2, 3])
                a.insert(2, a.pop())
            assert det_int(a) == 0 == fraction_det(a), a

    def test_int_two_step_unit_rich(self):
        # 0/1 on the first r columns and the first r rows, no units on the
        # rest: unit steps with column swaps first, then two-steps on the
        # Schur complement, as on Maillet's core
        rng = random.Random(45)
        for trial in range(60):
            n = 8 + trial % 7
            r = rng.randint(2, n - 6)
            a = self.no_unit_matrix(rng, n)
            for i in range(n):
                for j in range(n):
                    if i < r or j < r:
                        a[i][j] = rng.choice([0, 1])
            if trial % 4 == 1:
                make_singular(a, rng, [1, 2])
            assert det_int(a) == fraction_det(a), a

    def test_poly_two_step_against_leibniz(self):
        # a 6 x 6 matrix at t = 2^k: one two-step, then one-steps
        rng = random.Random(46)
        for _ in range(2):
            a = [[[rng.choice([-1, 1]) * rng.randint(2, 5)]
                  + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
                  for _ in range(6)] for _ in range(6)]
            self.check_against_leibniz(a)

    def test_int_entry_types(self):
        # only ints: a bool, float, str, Fraction or Poly entry is refused
        # before elimination; a float, str or bool used to raise TypeError
        # or, for bools, be read as 0 and 1
        for bad in ([[True, False], [True, True]], [[1.0]], [["1"]],
                    [[1, 2], [3, Fraction(4)]], [[Poly.one(ZZ)]]):
            for check in (det_int, char_poly):
                with pytest.raises(PreconditionError, match="integer matrix"):
                    check(bad)

    @pytest.mark.parametrize("bad, message", [
        ([[1, 2], [3]], "matrix is not 2x2"), ([[1, 2]], "matrix is not 1x1"),
        ([(1,)], "matrix is not 1x1"), ([[1], 2], "matrix is not 2x2")],
        ids=str)
    def test_square_shape(self, bad, message):
        for check in (det_int, char_poly):
            with pytest.raises(PreconditionError, match=f"^{message}$"):
                check(bad)

    # det_coeffs evaluates at t = 2^k and reads balanced base-2^k digits
    # back, so the cases below aim at the digit bound.  The determinant
    # commutes with ZZ[t] -> kappa[t], so each integer result read into
    # `ring` must be the Leibniz sum taken over `ring`

    @staticmethod
    def check_against_leibniz(a, ring=ZZ):
        got = det_coeffs(a)
        assert not got or got[-1] != 0, a
        assert Poly(ring, got) == Poly(ring, leibniz_det(a, ring.char)), a
        return got

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)])
    def test_poly_hand_cases(self, ring):
        for a in self.SWAPS:
            rows = [[(x,) if x else () for x in row] for row in a]
            assert Poly(ring, self.check_against_leibniz(rows, ring)) \
                == Poly(ring, (det_int(a),))
        assert det_coeffs([]) == [1]
        # [DERIVED] det [[0, t], [t + 1, 1]] = -t^2 - t
        got = self.check_against_leibniz([[(), (0, 1)], [(1, 1), (1,)]], ring)
        assert Poly(ring, got) == Poly(ring, (0, -1, -1))

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)])
    def test_poly_random_against_leibniz(self, ring):
        rng = random.Random(5)
        scalars = [[], [1], [-2], [0, 1], [1, -1]]
        for trial in range(40):
            n = rng.randint(1, 5)
            a = [[P(*[rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]).coeffs
                  for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:
                a[0][0] = ()
            if trial % 4 == 1 and n >= 2:
                # make_singular on coefficient lists
                c0, c1 = rng.choice(scalars), rng.choice(scalars)
                a[-1] = [poly_add(poly_mul(c0, x), poly_mul(c1, y))
                         for x, y in zip(a[0], a[1])]
            self.check_against_leibniz(a, ring)

    @staticmethod
    def random_matrix(rng, n, coeff, max_len):
        return [[[coeff() for _ in range(rng.randint(0, max_len))]
                 for _ in range(n)] for _ in range(n)]

    def test_poly_huge_mixed_sign_coefficients(self):
        rng = random.Random(11)
        big = 10 ** 20
        for _ in range(30):
            n = rng.randint(1, 4)
            self.check_against_leibniz(self.random_matrix(
                rng, n, lambda: rng.choice([-1, 1]) * (big + rng.randint(-9, 9)), 3))

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(7)])
    def test_poly_zero_row_and_1x1(self, ring):
        assert self.check_against_leibniz([[(0, 1), (2,)], [(), ()]], ring) == []
        assert self.check_against_leibniz([[(-3, 0, 5)]], ring) == [-3, 0, 5]
        assert self.check_against_leibniz([[()]], ring) == []

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)])
    def test_poly_degrees_up_to_6(self, ring):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 4)
            self.check_against_leibniz(
                self.random_matrix(rng, n, lambda: rng.randint(-9, 9), 7), ring)

    def test_poly_large_prime_field(self):
        # residues in [0, p) as integers: the determinant over ZZ, read
        # modulo p, against the Leibniz sum over GF(p)
        ring = GF(2 ** 31 - 1)
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(1, 4)
            self.check_against_leibniz(
                self.random_matrix(rng, n, lambda: rng.randrange(ring.p), 3), ring)

    # [DERIVED] one nonzero entry per row makes the determinant a single
    # product, so its one coefficient reaches B = prod of the row 1-norms
    @pytest.mark.parametrize("a, expected", [
        ([[(3,), ()], [(), (-5,)]], (-15,)),
        ([[(), (0, 3)], [(0, 0, 5), ()]], (0, 0, 0, -15)),
        ([[(0, 0, -4), ()], [(), (0, 0, 4)]], (0, 0, 0, 0, -16)),
        ([[(1,), (), ()], [(), (), (7,)], [(), (-1,), ()]], (7,)),
    ])
    def test_poly_coefficient_at_the_bound(self, a, expected):
        assert self.check_against_leibniz(a) == list(expected)

    def test_coeffs_against_leibniz(self):
        # square matrices of int coefficient lists, a repeated row now and
        # then making them singular
        rng = random.Random(23)
        for trial in range(60):
            n = rng.randint(1, 4)
            a = [[[rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
                  for _ in range(n)] for _ in range(n)]
            if trial % 4 == 1 and n >= 2:
                a[1] = [list(cs) for cs in a[0]]
            got = self.check_against_leibniz(a)
            if trial % 4 == 1 and n >= 2:
                assert got == []


class TestClearedRows:
    def test_mixed_valuations_and_zero_entries(self):
        # [DERIVED] each row is multiplied by t^(-least nonzero valuation);
        # a zero entry stays () and a zero row is left alone
        z = LaurentPoly.zero(ZZ)
        m = LaurentMatrix(ZZ, 3, 3, [
            [LaurentPoly(ZZ, -2, [3, 1]), z, LaurentPoly(ZZ, 1, [-1])],
            [z, LaurentPoly(ZZ, 4, [2]), LaurentPoly(ZZ, 5, [1, 0, 7])],
            [z, z, z]])
        assert m.cleared_rows() == [
            [(3, 1), (), (0, 0, 0, -1)],
            [(), (2,), (0, 1, 0, 7)],
            [(), (), ()]]

    def test_values_are_the_rows_times_a_t_power(self):
        rng = random.Random(29)
        for _ in range(40):
            entries = [[TestMinorGcdAgainstOracle.rand_entry(rng) for _ in range(3)]
                       for _ in range(2)]
            cleared_rows = LaurentMatrix(ZZ, 2, 3, entries).cleared_rows()
            for row, cleared in zip(entries, cleared_rows):
                v = min((e.val for e in row if not e.is_zero), default=0)
                assert [LaurentPoly(ZZ, v, cs) for cs in cleared] == row
                assert all(not cs or cs[-1] != 0 for cs in cleared)


class TestRandUnimodularLaurent:
    """The disguises in test_covers and test_modules conjugate by
    rand_unimodular_laurent pairs, so each pair must be exactly inverse
    under helpers.laurent_mat_mul."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pairs_multiply_to_identity(self, n):
        rng = random.Random(61 + n)
        ident = LaurentMatrix(ZZ, n, n, mat_identity(n))
        moved = 0
        for _ in range(20):
            u, uinv = rand_unimodular_laurent(n, rng, steps=6)
            assert laurent_mat_mul(u, uinv) == ident == laurent_mat_mul(uinv, u), u
            moved += u != ident
        assert moved >= 15 if n > 1 else moved == 0


class TestLaurentProductIsZero:
    """laurent_product_is_zero, one integer product at t = 2^k, against
    the entries of helpers.laurent_mat_mul."""

    @staticmethod
    def product_is_zero(a, b):
        return all(e.is_zero for row in laurent_mat_mul(a, b).entries for e in row)

    @staticmethod
    def mat(rows):
        return LaurentMatrix(ZZ, len(rows), len(rows[0]) if rows else 0, rows)

    def test_hand_cases(self):
        L = LaurentPoly
        t, one, z = L(ZZ, 1, [1]), L.const(ZZ, 1), L.zero(ZZ)
        # [DERIVED] t * (t - 2) and t^-2 * (t - 2) vanish at t = 2 only
        t_minus_2 = L(ZZ, 0, [-2, 1])
        for a in ([[t]], [[L(ZZ, -2, [1])]]):
            assert not laurent_product_is_zero(self.mat(a), self.mat([[t_minus_2]]))
        # [DERIVED] t^-1 * t^-2 - t^-3 * 1 = 0: cancellation across the sum
        a = self.mat([[L(ZZ, -1, [1]), L(ZZ, -3, [-1])]])
        b = self.mat([[L(ZZ, -2, [1])], [one]])
        assert laurent_product_is_zero(a, b)
        assert not laurent_product_is_zero(a, self.mat([[L(ZZ, -2, [1])], [t]]))
        # rank-0 middle degree: the 2 x 3 product is empty of summands
        a = LaurentMatrix(ZZ, 2, 0, [[], []])
        assert laurent_product_is_zero(a, LaurentMatrix.zero(ZZ, 0, 3))
        assert laurent_product_is_zero(self.mat([[z, z]]), self.mat([[t], [one]]))

    def test_rejects_shape_and_ring(self):
        a = LaurentMatrix(ZZ, 2, 2, mat_identity(2))
        with pytest.raises(ValueError, match="shape"):
            laurent_product_is_zero(a, LaurentMatrix(ZZ, 3, 3, mat_identity(3)))
        with pytest.raises(PreconditionError, match="over ZZ"):
            laurent_product_is_zero(a, LaurentMatrix(QQ, 2, 2, mat_identity(2)))

    def test_random_against_laurent_product(self):
        # a = [x | x y] and b = [y ; -I] multiply to zero; one perturbed
        # entry of b (often by a multiple of t - 2) usually breaks that
        rng = random.Random(31)
        entry = TestMinorGcdAgainstOracle.rand_entry
        seen = {True: 0, False: 0}
        for trial in range(150):
            m, p, q = rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, 3)
            x = [[entry(rng) for _ in range(p)] for _ in range(m)]
            y = [[entry(rng) for _ in range(q)] for _ in range(p)]
            xy = (laurent_mat_mul(self.mat(x), self.mat(y)) if p
                  else LaurentMatrix.zero(ZZ, m, q))
            a = [x[i] + list(xy.entries[i]) for i in range(m)]
            b = [y[i] for i in range(p)] + [
                [LaurentPoly.const(ZZ, -int(i == j)) for j in range(q)]
                for i in range(q)]
            if trial % 2:
                i, j = rng.randrange(p + q), rng.randrange(q)
                c = LaurentPoly(ZZ, rng.randint(-3, 3), [-2, 1])
                e = c if trial % 4 == 1 else entry(rng)
                # b[i][j] + e as the 1 x 1 product (b[i][j], e) (1 ; 1)
                pair = self.mat([[b[i][j], e]])
                b[i][j] = laurent_mat_mul(pair, self.mat([[1], [1]])).entries[0][0]
            a, b = self.mat(a), self.mat(b)
            want = self.product_is_zero(a, b)
            assert laurent_product_is_zero(a, b) == want, (a, b)
            seen[want] += 1
        assert min(seen.values()) >= 30, seen


class TestMinorGcdAgainstOracle:
    """laurent_minor_gcd, one Kronecker evaluation per matrix, against
    helpers.minor_gcd_oracle, one Leibniz sum per minor."""

    @staticmethod
    def rand_entry(rng):
        if rng.random() < 0.2:
            return LaurentPoly.zero(ZZ)
        return LaurentPoly(ZZ, rng.randint(-3, 3),
                           [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])

    def rand_rows(self, rng, g, r):
        rows = [[self.rand_entry(rng) for _ in range(r)] for _ in range(g)]
        if g and r and rng.random() < 0.3:
            rows[rng.randrange(g)] = [LaurentPoly.zero(ZZ)] * r
        if g and r and rng.random() < 0.3:
            j = rng.randrange(r)
            for row in rows:
                row[j] = LaurentPoly.zero(ZZ)
        return rows

    def check(self, rows, g, r):
        mat = LaurentMatrix(ZZ, g, r, rows)
        results = []
        for size in range(min(g, r) + 2):
            got = laurent_minor_gcd(mat, size)
            assert got == minor_gcd_oracle(mat, size), (rows, size)
            results.append(got)
        return results

    def test_every_shape_and_size(self):
        rng = random.Random(2417)
        for g in range(5):
            for r in range(8):
                for _ in range(2):
                    self.check(self.rand_rows(rng, g, r), g, r)

    def test_rank_deficient_is_zero(self):
        rng = random.Random(2423)
        for g, r in [(2, 2), (3, 5), (4, 4), (4, 7)]:
            rows = self.rand_rows(rng, g - 1, r)
            a, b = self.rand_entry(rng), LaurentPoly(ZZ, rng.randint(-3, 3), [-2])
            # a * rows[0] + b * rows[-1]
            rows += laurent_mat_mul(LaurentMatrix(ZZ, 1, 2, [[a, b]]),
                                    LaurentMatrix(ZZ, 2, r, [rows[0], rows[-1]])).entries
            assert self.check(rows, g, r)[g].is_zero

    def test_content_above_one(self):
        # row 0 times 6 (1 - t + t^2) t^-1: every maximal minor is a
        # multiple of 6 (1 - t + t^2), so the early exit at 1 never fires
        rng = random.Random(2437)
        h = LaurentPoly(ZZ, -1, [6, -6, 6])
        for g, r in [(1, 3), (2, 4), (3, 3), (4, 6)]:
            rows = [[self.rand_entry(rng) for _ in range(r)] for _ in range(g)]
            rows[0] = laurent_mat_mul(LaurentMatrix(ZZ, 1, 1, [[h]]),
                                      LaurentMatrix(ZZ, 1, r, rows[:1])).entries[0]
            got = self.check(rows, g, r)[g]
            assert not got.is_zero and got.content() % 6 == 0
            assert not poly_divmod(got.coeffs, [1, -1, 1])[1]

    def test_empty_minor_is_one_without_the_column_range(self):
        # listing the column subsets of size 0 would first copy
        # range(ncols) into a tuple: about 40 MB at 10^6 columns
        mat = LaurentMatrix(ZZ, 0, 10**6, [])
        tracemalloc.start()
        try:
            got = laurent_minor_gcd(mat, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == Poly.one(ZZ)
        assert peak < 1 << 20, peak

    def test_one_row_scaled_by_a_million(self):
        # the scaled row is the last one, so a bound taken from the first
        # `size` rows would miss it on every minor that contains it
        rng = random.Random(2441)
        big = LaurentMatrix(ZZ, 1, 1, [[LaurentPoly(ZZ, 2, [10**6])]])
        for g, r in [(2, 3), (3, 4), (4, 5), (4, 7)]:
            for _ in range(3):
                rows = self.rand_rows(rng, g, r)
                rows[-1] = laurent_mat_mul(
                    big, LaurentMatrix(ZZ, 1, r, rows[-1:])).entries[0]
                self.check(rows, g, r)


class TestSnfPoly:
    """Hand cases of the Smith core through `laurent_cokernel`.  t is a
    unit of kappa[t, 1/t], so a factor that would be t is t - 2 here."""

    def test_diagonal_swap_to_divisibility(self):
        # [DERIVED] diag(t - 2, t + 1) ~ diag(1, (t - 2)(t + 1)): the roots
        # 2 and -1 differ, so the gcd is 1 and the lcm t^2 - t - 2
        m = lmat([[(-2, 1), ()], [(), (1, 1)]])
        assert laurent_cokernel(m, QQ) == ([Poly(QQ, (-2, -1, 1))], 0)

    def test_zero_and_identity(self):
        F = GF(5)
        assert laurent_cokernel(lmat([[(), ()], [(), ()]]), F) == ([], 2)
        assert laurent_cokernel(lmat([[(1,), ()], [(), (1,)]]), F) == ([], 0)
        assert laurent_cokernel(lmat([]), F) == ([], 0)

    def test_gcd_lcm_chain(self):
        # [DERIVED] diag(t + 1, t - 2, (t - 2)(t + 1)) ~ diag(1, (t - 2)(t + 1),
        # (t - 2)(t + 1)): the diagonal pass carries the lcm of the first
        # pair into the third
        tp1, tm2, both = (1, 1), (-2, 1), (-2, -1, 1)
        m = lmat([[tp1, (), ()], [(), tm2, ()], [(), (), both]])
        assert check_smith_form(m, QQ) == ([Poly(QQ, both), Poly(QQ, both)], 3)
        # [DERIVED] diag(t - 2, t - 2, t + 1) ~ diag(1, t - 2, (t - 2)(t + 1)):
        # s_1 must meet s_3 as well as s_2
        m = lmat([[tm2, (), ()], [(), tm2, ()], [(), (), tp1]])
        assert check_smith_form(m, QQ) == ([Poly(QQ, tm2), Poly(QQ, both)], 3)

    def test_minor_gcds_random(self):
        rng = random.Random(11)
        for field in (QQ, GF(5)):
            for _ in range(25):
                m = rng.randint(1, 3)
                n = rng.randint(1, 3)
                a = [[LaurentPoly(ZZ, rng.randint(-1, 1),
                                  [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                      for _ in range(n)] for _ in range(m)]
                check_smith_form(LaurentMatrix(ZZ, m, n, a), field)

    def test_pivot_moves_during_row_clear(self):
        # [DERIVED] the 2 x 2 minors are -2(1 - t)(t - 2), -2(t - 2)^2 and
        # 0, with gcd t - 2.  Clearing row 0 swaps 1 - 2t^2 mod (1 - t) = -1
        # into the pivot column, which then also holds 2(t - 2): the next
        # column operation must reach row 1 as well.
        m = lmat([[(1, 0, -2), (1, -1), (-2, 1)], [(-4, 2), (), ()]])
        assert check_smith_form(m, QQ) == ([Poly(QQ, (-2, 1))], 2)

    @pytest.mark.parametrize("field", [QQ, GF(2**31 - 1)])
    def test_rank_deficient_4x6(self, field):
        # a = B C with B 4 x r and C r x 6 has rank at most r < 4
        rng = random.Random(13)
        for r in (1, 2, 3, 3):
            def rand(rows, cols):
                return LaurentMatrix(ZZ, rows, cols, [
                    [LaurentPoly(ZZ, 0, [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))])
                     for _ in range(cols)] for _ in range(rows)])
            _, rank = check_smith_form(laurent_mat_mul(rand(4, r), rand(r, 6)), field)
            assert rank <= r

    def test_mixed_entries_rejected(self):
        # a Laurent matrix is over ZZ: an entry over QQ or GF(5), as a
        # LaurentPoly or as a Poly, is refused rather than lifted into ZZ
        for ring in (QQ, GF(5)):
            for e in (LaurentPoly(ring, 0, (3,)), Poly(ring, (3,))):
                with pytest.raises(PreconditionError, match="different ring"):
                    LaurentMatrix(ZZ, 1, 2, [[1, e]])

    def test_ragged_rejected(self):
        with pytest.raises(PreconditionError, match="grid"):
            LaurentMatrix(ZZ, 2, 2, [[1, 0], [0]])

    @pytest.mark.parametrize("entry", [1.5, "1", True, Fraction(1, 2)], ids=repr)
    def test_entry_must_be_an_integer(self, entry):
        # 1.5 used to raise TypeError
        with pytest.raises(PreconditionError, match="coefficient|coerce"):
            LaurentMatrix(ZZ, 1, 1, [[entry]])

    @pytest.mark.parametrize("nrows,ncols,entries", [
        (0, -5, []), (True, 1, [[1]]), (1.0, 1, [[1]])])
    def test_shape_must_be_counts(self, nrows, ncols, entries):
        # each size is an int >= 0 and not a bool (errors.is_count); a
        # 0 x -5 relation matrix would present the zero module as one of
        # infinite dimension
        with pytest.raises(PreconditionError, match="bad shape"):
            LaurentMatrix(ZZ, nrows, ncols, entries)


class TestSnfAgainstOracle:
    """The fraction-free Smith core, driven through `laurent_cokernel`,
    against TestLaurentCokernelAgainstOracle.oracle: helpers.smith_oracle,
    Euclid over kappa[t] on coefficient lists.  Both must give the same monic
    factors and the same free rank."""

    FIELDS = [QQ, GF(2), GF(5), GF(2**31 - 1)]

    @staticmethod
    def rand_coeff(rng, field):
        if field is QQ:
            # non-monic pivots
            return rng.randint(-6, 6)
        if field.p > 5:
            return rng.choice([rng.randint(-3, 3), rng.randrange(field.p)])
        return rng.randint(0, field.p - 1)

    def rand_matrix(self, rng, field, m, n, max_len=3):
        return LaurentMatrix(ZZ, m, n, [
            [LaurentPoly(ZZ, 0, [self.rand_coeff(rng, field)
                                 for _ in range(rng.randint(0, max_len))])
             for _ in range(n)] for _ in range(m)])

    @staticmethod
    def check(m, field):
        got = laurent_cokernel(m, field)
        assert got == TestLaurentCokernelAgainstOracle.oracle(m, field), m
        return got

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_random_shapes(self, field):
        rng = random.Random(1701 + field.char % 1000)
        for _ in range(100):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            self.check(self.rand_matrix(rng, field, m, n, 3 if m * n <= 9 else 2), field)

    def test_row_clear_scales_the_rest_of_the_column(self):
        # column 0 is clear below a non-monic pivot c(t - 2) of least
        # degree, so the first steps are column steps with s != 1, and rows
        # 1.. of each such column must be scaled with it; no entry has a
        # zero constant term, so clearing the rows by powers of t changes
        # nothing
        rng = random.Random(1721)
        for _ in range(200):
            def lin():
                return (rng.choice([-1, 1, 2]), rng.randint(1, 3))
            m, n = rng.randint(2, 3), rng.randint(2, 3)
            a = [[lin() for _ in range(n)] for _ in range(m)]
            c = rng.choice([2, 3, -2])
            a[0][0] = (-2 * c, c)
            for row in a[1:]:
                row[0] = ()
            self.check(lmat(a), QQ)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_rank_deficient(self, field):
        rng = random.Random(1709 + field.char % 1000)
        for r in (1, 2, 2, 3):
            b = self.rand_matrix(rng, field, 4, r, 2)
            c = self.rand_matrix(rng, field, r, 4, 2)
            _, free = self.check(laurent_mat_mul(b, c), field)
            assert free >= 4 - r

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_empty_and_zero(self, field):
        for g, r in ((0, 0), (3, 0), (1, 3), (2, 2)):
            assert self.check(LaurentMatrix.zero(ZZ, g, r), field) == ([], g)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_free_part_complexes(self, field):
        # [DERIVED] the boundaries of [t-1, t-1] and of its transpose
        # [[t-1], [t-1]] have rank 1 and the one factor t - 1, so the
        # cokernel of the 2 x 1 is free of rank 1 beside it
        tm1 = (-1, 1)
        assert self.check(lmat([[tm1, tm1]]), field) == ([Poly(field, tm1)], 0)
        assert self.check(lmat([[tm1], [tm1]]), field) == ([Poly(field, tm1)], 1)


class TestCharPoly:
    def test_companion_of_trefoil(self):
        # [DERIVED] char of [[1,-1],[1,0]] is t^2 - t + 1
        assert char_poly([[1, -1], [1, 0]]) == P(1, -1, 1)

    def test_identity(self):
        assert char_poly([[1, 0], [0, 1]]) == P(1, -2, 1)

    def test_empty(self):
        assert char_poly([]) == Poly.one(ZZ)

    def test_conjugation_invariance(self):
        rng = random.Random(3)
        from helpers import rand_unimodular_int
        for _ in range(20):
            n = rng.randint(1, 4)
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            p, pinv = rand_unimodular_int(n, rng)
            conj = mat_mul(mat_mul(p, a), pinv)
            assert char_poly(conj) == char_poly(a)


class TestFiniteOrder:
    def test_small_examples(self):
        # [DERIVED] rotation by 90 degrees has order 4
        assert finite_order([[0, -1], [1, 0]]) == 4
        assert finite_order([[1, 0], [0, 1]]) == 1
        assert finite_order([[-1, 0], [0, -1]]) == 2
        # [DERIVED] order-6 trefoil monodromy
        assert finite_order([[1, -1], [1, 0]]) == 6

    def test_unipotent_is_infinite(self):
        assert finite_order([[1, 1], [0, 1]]) is None

    def test_hyperbolic_is_infinite(self):
        assert finite_order([[2, 1], [1, 1]]) is None

    def test_non_semisimple_roots_of_unity(self):
        # eigenvalues all 1 but not the identity
        assert finite_order([[1, 0, 1], [0, 1, 0], [0, 0, 1]]) is None

    def test_requires_unimodular(self):
        with pytest.raises(PreconditionError, match="determinant"):
            finite_order([[2, 0], [0, 1]])

    def test_empty_matrix(self):
        assert finite_order([]) == 1

    def test_against_brute_force(self):
        rng = random.Random(19)
        from helpers import rand_unimodular_int
        # conjugates of block rotations: known finite orders
        blocks = {
            2: [[0, -1], [1, 0]],          # order 4
            3: [[1, -1], [1, 0]],          # order 6
            6: [[0, -1], [1, -1]],         # order 3
        }
        for _ in range(15):
            base = rng.choice(list(blocks.values()))
            p, pinv = rand_unimodular_int(2, rng)
            a = mat_mul(mat_mul(p, base), pinv)
            assert finite_order(a) == brute_order(a)


class TestLaurentCokernel:
    def test_principal_torsion(self):
        # [DERIVED] coker(t^2 - t + 1) over QQ[t,1/t]
        f = LaurentPoly.from_poly(P(1, -1, 1))
        m = LaurentMatrix(ZZ, 1, 1, [[f]])
        factors, free = laurent_cokernel(m, QQ)
        assert free == 0
        assert factors == [Poly(QQ, (1, -1, 1))]

    def test_unit_relation(self):
        m = LaurentMatrix(ZZ, 1, 1, [[LaurentPoly(ZZ, -3, [5])]])
        factors, free = laurent_cokernel(m, QQ)
        assert factors == [] and free == 0

    def test_zero_relation_gives_free(self):
        m = LaurentMatrix(ZZ, 1, 1, [[LaurentPoly.zero(ZZ)]])
        factors, free = laurent_cokernel(m, QQ)
        assert factors == [] and free == 1

    def test_no_relations(self):
        m = LaurentMatrix.zero(ZZ, 2, 0)
        assert laurent_cokernel(m, QQ) == ([], 2)

    def test_t_factor_stripped_f2(self):
        # [DERIVED] over F_2, diag(t, t+1): t is a unit, so only t+1 remains
        F = GF(2)
        t = LaurentPoly.from_poly(P(0, 1))
        tp1 = LaurentPoly.from_poly(P(1, 1))
        z = LaurentPoly.zero(ZZ)
        m = LaurentMatrix(ZZ, 2, 2, [[t, z], [z, tp1]])
        factors, free = laurent_cokernel(m, F)
        assert free == 0
        assert factors == [Poly(F, (1, 1))]

    def test_needs_field(self):
        m = LaurentMatrix(ZZ, 1, 1, [[LaurentPoly.const(ZZ, 1)]])
        with pytest.raises(PreconditionError, match="needs a field"):
            laurent_cokernel(m, ZZ)

    def test_needs_integer_matrix(self):
        # Laurent matrices are over ZZ; a field enters as laurent_cokernel's
        # base change only
        for ring in (QQ, GF(5)):
            with pytest.raises(PreconditionError, match="over ZZ"):
                LaurentMatrix(ring, 1, 1, [[LaurentPoly.const(ring, 1)]])

    def test_negative_valuations_handled(self):
        # t^-1 (t - 1) presents the same module as (t - 1)
        f = LaurentPoly(ZZ, -1, P(-1, 1))
        m = LaurentMatrix(ZZ, 1, 1, [[f]])
        factors, free = laurent_cokernel(m, QQ)
        assert free == 0 and factors == [Poly(QQ, (-1, 1))]


class TestLaurentCokernelAgainstOracle:
    """laurent_cokernel, which clears each row over ZZ and then reads it
    into kappa[t], against smith_oracle on rows reduced into
    kappa[t, 1/t] first and cleared there, so a coefficient that vanishes
    modulo p moves the clearing power of t."""

    FIELDS = [QQ, GF(2), GF(5), GF(2**31 - 1)]

    @staticmethod
    def rand_matrix(rng, g, r):
        def entry():
            if rng.random() < 0.2:
                return LaurentPoly.zero(ZZ)
            return LaurentPoly(ZZ, rng.randint(-3, 3),
                               [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))])
        rows = [[entry() for _ in range(r)] for _ in range(g)]
        if g and r and rng.random() < 0.3:
            rows[rng.randrange(g)] = [LaurentPoly.zero(ZZ)] * r
        if g and r and rng.random() < 0.3:
            j = rng.randrange(r)
            for row in rows:
                row[j] = LaurentPoly.zero(ZZ)
        return LaurentMatrix(ZZ, g, r, rows)

    @staticmethod
    def oracle(mat, field):
        rows = []
        for row in mat.entries:
            row = [LaurentPoly(field, e.val, e.body.coeffs) for e in row]
            v = min((e.val for e in row if not e.is_zero), default=0)
            rows.append([(0,) * (e.val - v) + e.body.coeffs for e in row])
        invariants, rank = smith_oracle(rows, field.char)
        factors = [Poly(field, strip_t_power(f)) for f in invariants]
        return [f for f in factors if f.degree > 0], mat.nrows - rank

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_random_shapes(self, field):
        rng = random.Random(2459 + field.char % 1000)
        for g in range(5):
            for r in range(5):
                for _ in range(3):
                    m = self.rand_matrix(rng, g, r)
                    assert laurent_cokernel(m, field) == self.oracle(m, field), m

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_clearing_power_moves_modulo_p(self, field):
        # [DERIVED] the row (10 + t, 5 t^2) needs no clearing over ZZ, but
        # modulo 2 or 5 its first entry is t, so over kappa[t, 1/t] it is
        # cleared by t^-1; the row is unimodular over every kappa
        # (gcd(10 + t, t^2) = 1), so the cokernel is 0
        m = LaurentMatrix(ZZ, 1, 2, [[LaurentPoly(ZZ, 0, [10, 1]),
                                      LaurentPoly(ZZ, 2, [5])]])
        assert laurent_cokernel(m, field) == self.oracle(m, field) == ([], 0)

    # [DERIVED] rows of integer coefficient tuples (lowest degree first) and
    # the cokernel over GF(5), whose reduction modulo 5 changes the matrix
    GF5_EDGES = {
        # 5t - 5 vanishes modulo 5, leaving gcd(0, t - 1) = t - 1
        "entry_vanishes": ([[(-5, 5), (-1, 1)]], ([(4, 1)], 0)),
        # the row (5t, 10) vanishes modulo 5, leaving one relation on two
        # generators: free rank 1
        "row_vanishes": ([[(0, 5), (10,)], [(-2, 1), (1,)]], ([], 1)),
        # t + 5 is t modulo 5, a unit of GF(5)[t, 1/t], and
        # (t + 5)(t^2 - t + 1) is t (t^2 + 4t + 1), leaving t^2 + 4t + 1
        "constant_vanishes": ([[(5, 1), ()], [(), (5, -4, 4, 1)]],
                              ([(1, 4, 1)], 0)),
    }

    @pytest.mark.parametrize("name", sorted(GF5_EDGES))
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    def test_reduction_modulo_p_edge_cases(self, name, field):
        rows, want = self.GF5_EDGES[name]
        m = LaurentMatrix(ZZ, len(rows), len(rows[0]),
                          [[LaurentPoly(ZZ, 0, cs) for cs in row] for row in rows])
        got = laurent_cokernel(m, field)
        assert got == self.oracle(m, field)
        assert all(f.coeffs[0] for f in got[0])
        if field is GF(5):
            assert got == ([Poly(field, cs) for cs in want[0]], want[1])

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    def test_one_poly_per_factor(self, field, monkeypatch):
        # the cleared rows reach the Smith core as coefficient lists; only
        # the returned factors are built as Poly
        rng = random.Random(4242)
        mats = [self.rand_matrix(rng, g, r) for g in range(1, 5)
                for r in range(1, 5) for _ in range(2)]
        built = [0]
        real = Poly.__init__

        def counted(poly, ring, coeffs):
            built[0] += 1
            real(poly, ring, coeffs)

        monkeypatch.setattr(Poly, "__init__", counted)
        total = 0
        for m in mats:
            built[0] = 0
            factors, _ = laurent_cokernel(m, field)
            assert built[0] == len(factors), m
            total += len(factors)
        assert total


class TestConstantPivots:
    """The Smith core's pass for a constant pivot, a unit of kappa[t], and
    its closing pass over the non-constant diagonal entries only, against
    `TestLaurentCokernelAgainstOracle.oracle` (helpers.smith_oracle).  The
    inputs are rich in constants: non-unit integers 2, 3, 4 and 6 (some of
    them zero modulo 2), zero rows and columns, products of lower rank and
    integer disguises of diagonals that mix constants with polynomials."""

    FIELDS = [QQ, GF(2), GF(5), GF(2**31 - 1)]
    CONSTANTS = (2, 3, 4, 6, -2, -3, -4, -6, 1, -1)

    def rand_rows(self, rng, g, r):
        def entry():
            x = rng.random()
            if x < 0.2:
                return ()
            if x < 0.6:
                return (rng.choice(self.CONSTANTS),)
            return tuple(rng.randint(-4, 4) for _ in range(rng.randint(2, 3)))
        rows = [[entry() for _ in range(r)] for _ in range(g)]
        if rng.random() < 0.3:
            rows[rng.randrange(g)] = [()] * r
        if rng.random() < 0.3:
            j = rng.randrange(r)
            for row in rows:
                row[j] = ()
        return rows

    def disguised_diagonal(self, rng, n):
        """P D Q for unimodular integer P, Q and D diagonal, its entries
        constants from CONSTANTS, polynomials of degree 1 or 2 and zeros."""
        from helpers import rand_unimodular_int
        diag = [rng.choice([(rng.choice(self.CONSTANTS),), (),
                            (rng.randint(-3, 3), rng.choice((1, 2, -3))),
                            (rng.randint(-3, 3), rng.randint(-2, 2), 2)])
                for _ in range(n)]
        d = lmat([[diag[i] if i == j else () for j in range(n)] for i in range(n)])
        p = LaurentMatrix(ZZ, n, n, rand_unimodular_int(n, rng, 12)[0])
        q = LaurentMatrix(ZZ, n, n, rand_unimodular_int(n, rng, 12)[0])
        return laurent_mat_mul(laurent_mat_mul(p, d), q)

    @staticmethod
    def check(m, field):
        got = laurent_cokernel(m, field)
        assert got == TestLaurentCokernelAgainstOracle.oracle(m, field), m
        return got

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_random_constant_rich(self, field):
        rng = random.Random(3607 + field.char % 1000)
        for _ in range(150):
            g, r = rng.randint(1, 5), rng.randint(1, 5)
            self.check(lmat(self.rand_rows(rng, g, r)), field)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_rank_deficient_products(self, field):
        rng = random.Random(3613 + field.char % 1000)
        for _ in range(40):
            g, k, r = rng.randint(2, 5), rng.randint(1, 3), rng.randint(2, 5)
            b = lmat(self.rand_rows(rng, g, k))
            c = lmat(self.rand_rows(rng, k, r))
            _, free = self.check(laurent_mat_mul(b, c), field)
            assert free >= g - k

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_disguised_diagonals(self, field):
        rng = random.Random(3617 + field.char % 1000)
        for _ in range(40):
            self.check(self.disguised_diagonal(rng, rng.randint(2, 5)), field)

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    def test_unimodular_needs_no_division(self, field, monkeypatch):
        # every entry of a disguised unimodular integer matrix is a
        # constant, and so is every Schur complement: each pivot takes the
        # constant pass, and no closing pass is left to run
        from helpers import rand_unimodular_int
        from cyclocover import normal_forms
        calls = [0]
        real = normal_forms.pseudo_divmod

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(normal_forms, "pseudo_divmod", counted)
        rng = random.Random(3623)
        for n in (1, 3, 6, 9):
            u = rand_unimodular_int(n, rng, 40)[0]
            assert laurent_cokernel(LaurentMatrix(ZZ, n, n, u), field) == ([], 0)
        assert calls[0] == 0

    def test_roadmap_tori_over_qq(self):
        # the 8 x 8 and 9 x 9 tori tI - A of ROADMAP's "What is still
        # slow" table, A drawn row by row from Random(1000 n + 1).  The
        # oracle runs on the transpose, which has the same invariant
        # factors: its Euclid over QQ takes seconds on tI - A itself
        for n in (8, 9):
            rng = random.Random(1000 * n + 1)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            m = lmat([[(-x, 1) if i == j else (-x,) for j, x in enumerate(row)]
                      for i, row in enumerate(a)])
            mt = lmat([[(-a[j][i], 1) if i == j else (-a[j][i],) for j in range(n)]
                       for i in range(n)])
            got = laurent_cokernel(m, QQ)
            assert got == TestLaurentCokernelAgainstOracle.oracle(mt, QQ)
            assert got == ([Poly(QQ, char_poly(a).coeffs)], 0)
