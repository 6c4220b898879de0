"""Smith normal form, characteristic polynomials, finite orders, cokernels.

[DERIVED] values come from hand computation or the brute-force oracles in
helpers.py; on random matrices the invariant factors are checked against
the determinantal divisors: d_1 ... d_i is the gcd of all i x i minors.
Those minors come from `det_int` and `det_poly`, so both are first
checked against the Leibniz permutation sum in helpers.py.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from cyclocover.matrices import LaurentMatrix, det_int, det_poly, mat_mul
from cyclocover.normal_forms import (DomainError, char_poly, finite_order,
                                     laurent_cokernel, smith_normal_form)
from cyclocover.rings import GF, LaurentPoly, MixedRingError, Poly, QQ, ZZ, poly_gcd

from helpers import brute_order, leibniz_det


def P(*cs):
    return Poly(ZZ, cs)


def minors(a, i):
    """Every i x i minor of the matrix a, as submatrices."""
    for rs in combinations(range(len(a)), i):
        for cs in combinations(range(len(a[0])), i):
            yield [[a[r][c] for c in cs] for r in rs]


def check_determinantal_divisors(a, res, det, gcd, zero, one):
    """d_1 ... d_i equals the gcd of all i x i minors, for every i."""
    fs = res.invariant_factors
    prod = one
    for i in range(1, min(len(a), len(a[0])) + 1):
        g = zero
        for sub in minors(a, i):
            g = gcd(g, det(sub))
        prod = prod * fs[i - 1] if i <= res.rank else zero
        assert prod == g, (a, i)


def check_diagonal(res, m, n, zero):
    for i in range(m):
        for j in range(n):
            if i != j:
                assert res.D[i][j] == zero


def make_singular(a, rng, scalars):
    """Replace the last row by a combination of the first two (n >= 2)."""
    c0, c1 = rng.choice(scalars), rng.choice(scalars)
    a[-1] = [c0 * x + c1 * y for x, y in zip(a[0], a[1])]


class TestDeterminant:
    # [DERIVED] zero leading pivot (row swap at k = 0), a pivot that
    # vanishes mid-elimination (swap at k = 1), and a column that vanishes
    # below the diagonal (early exit)
    SWAPS = ([[0, 1], [1, 0]], [[0, 2, 1], [3, 0, 4], [5, 6, 0]],
             [[1, 2, 3], [2, 4, 5], [1, 3, 4]], [[1, 2, 3], [2, 4, 7], [3, 6, 1]])

    def test_int_hand_cases(self):
        assert [det_int(a) for a in self.SWAPS] == [-1, 58, 1, 0]
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
            assert d == leibniz_det(a, 1, 0), a
            assert type(d) is int

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)])
    def test_poly_hand_cases(self, ring):
        for a in self.SWAPS:
            rows = [[Poly(ring, (x,)) for x in row] for row in a]
            assert det_poly(rows, ring) == Poly(ring, (det_int(a),))
        assert det_poly([], ring) == Poly.one(ring)
        # [DERIVED] det [[0, t], [t + 1, 1]] = -t^2 - t
        t, one = Poly.t(ring), Poly.one(ring)
        assert det_poly([[Poly.zero(ring), t], [t + one, one]], ring) \
            == Poly(ring, (0, -1, -1))

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)])
    def test_poly_random_against_leibniz(self, ring):
        rng = random.Random(5)
        one, zero = Poly.one(ring), Poly.zero(ring)
        scalars = [Poly(ring, cs) for cs in ((), (1,), (-2,), (0, 1), (1, -1))]
        for trial in range(40):
            n = rng.randint(1, 5)
            a = [[Poly(ring, [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                  for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:
                a[0][0] = zero
            if trial % 4 == 1 and n >= 2:
                make_singular(a, rng, scalars)
            assert det_poly(a, ring) == leibniz_det(a, one, zero), a

    def test_poly_int_entries_are_constants(self):
        assert det_poly([[0, 2], [3, 1]], QQ) == Poly(QQ, (-6,))

    def test_poly_mixed_ring_rejected(self):
        with pytest.raises(MixedRingError):
            det_poly([[Poly.t(ZZ)]], QQ)

    # det_poly evaluates at t = 2^k and reads balanced base-2^k digits back,
    # so the cases below aim at the digit bound and at the ring mappings

    @staticmethod
    def random_matrix(rng, ring, n, coeff, max_len):
        return [[Poly(ring, [coeff() for _ in range(rng.randint(0, max_len))])
                 for _ in range(n)] for _ in range(n)]

    def check_against_leibniz(self, a, ring):
        assert det_poly(a, ring) == leibniz_det(a, Poly.one(ring), Poly.zero(ring)), a

    def test_poly_huge_mixed_sign_coefficients(self):
        rng = random.Random(11)
        big = 10 ** 20
        for _ in range(30):
            n = rng.randint(1, 4)
            a = self.random_matrix(
                rng, ZZ, n, lambda: rng.choice([-1, 1]) * (big + rng.randint(-9, 9)), 3)
            self.check_against_leibniz(a, ZZ)

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(7)])
    def test_poly_zero_row_and_1x1(self, ring):
        t = Poly.t(ring)
        a = [[t, Poly(ring, (2,))], [Poly.zero(ring), Poly.zero(ring)]]
        assert det_poly(a, ring) == Poly.zero(ring)
        f = Poly(ring, (-3, 0, 5))
        assert det_poly([[f]], ring) == f
        assert det_poly([[Poly.zero(ring)]], ring) == Poly.zero(ring)

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)])
    def test_poly_degrees_up_to_6(self, ring):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 4)
            self.check_against_leibniz(
                self.random_matrix(rng, ring, n, lambda: rng.randint(-9, 9), 7), ring)

    def test_poly_rational_denominators(self):
        rng = random.Random(17)
        pool = [Fraction(1, 3), Fraction(-5, 7), Fraction(2), Fraction(0),
                Fraction(-1, 6), Fraction(9, 14)]
        for _ in range(30):
            n = rng.randint(1, 4)
            self.check_against_leibniz(
                self.random_matrix(rng, QQ, n, lambda: rng.choice(pool), 3), QQ)
        third, m57 = Poly(QQ, (Fraction(1, 3),)), Poly(QQ, (Fraction(-5, 7),))
        # [DERIVED] det diag(1/3, -5/7) = -5/21
        assert det_poly([[third, Poly.zero(QQ)], [Poly.zero(QQ), m57]], QQ) \
            == Poly(QQ, (Fraction(-5, 21),))

    def test_poly_large_prime_field(self):
        ring = GF(2 ** 31 - 1)
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(1, 4)
            self.check_against_leibniz(
                self.random_matrix(rng, ring, n, lambda: rng.randrange(ring.p), 3), ring)

    # [DERIVED] one nonzero entry per row makes the determinant a single
    # product, so its one coefficient reaches B = prod of the row 1-norms
    @pytest.mark.parametrize("a, expected", [
        ([[(3,), ()], [(), (-5,)]], (-15,)),
        ([[(), (0, 3)], [(0, 0, 5), ()]], (0, 0, 0, -15)),
        ([[(0, 0, -4), ()], [(), (0, 0, 4)]], (0, 0, 0, 0, -16)),
        ([[(1,), (), ()], [(), (), (7,)], [(), (-1,), ()]], (7,)),
    ])
    def test_poly_coefficient_at_the_bound(self, a, expected):
        rows = [[Poly(ZZ, cs) for cs in row] for row in a]
        assert det_poly(rows, ZZ) == Poly(ZZ, expected)


class TestSnfInt:
    def test_textbook_2x2(self):
        # [DERIVED] classic example: diag(2, 4), not diag(2, 8)
        res = smith_normal_form([[2, 4], [6, 8]])
        assert res.invariant_factors == [2, 4]

    def test_identity(self):
        res = smith_normal_form([[1, 0], [0, 1]])
        assert res.invariant_factors == [1, 1]

    def test_zero_matrix(self):
        res = smith_normal_form([[0, 0], [0, 0]])
        assert res.rank == 0

    def test_rectangular(self):
        res = smith_normal_form([[2, 0, 0], [0, 3, 0]])
        assert res.invariant_factors == [1, 6]

    def test_divisibility_chain_and_minor_gcds(self):
        rng = random.Random(7)
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            res = smith_normal_form(a)
            check_determinantal_divisors(a, res, det_int, math.gcd, 0, 1)
            fs = res.invariant_factors
            assert all(f > 0 for f in fs)
            for i in range(1, len(fs)):
                assert fs[i] % fs[i - 1] == 0
            check_diagonal(res, m, n, 0)

    def test_pivot_signs_positive(self):
        res = smith_normal_form([[-4]])
        assert res.invariant_factors == [4]


class TestSnfPoly:
    def test_diagonal_swap_to_divisibility(self):
        # [DERIVED] diag(t, t+1) ~ diag(1, t^2+t)
        t = Poly(QQ, (0, 1))
        tp1 = Poly(QQ, (1, 1))
        res = smith_normal_form([[t, Poly.zero(QQ)], [Poly.zero(QQ), tp1]])
        assert res.invariant_factors == [Poly.one(QQ), t * tp1]

    def test_minor_gcds_random(self):
        rng = random.Random(11)
        for field in (QQ, GF(5)):
            zero = Poly.zero(field)
            for _ in range(25):
                m = rng.randint(1, 3)
                n = rng.randint(1, 3)
                a = [[Poly(field, [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                      for _ in range(n)] for _ in range(m)]
                res = smith_normal_form(a)
                check_determinantal_divisors(a, res, lambda sub: det_poly(sub, field),
                                             poly_gcd, zero, Poly.one(field))
                fs = res.invariant_factors
                assert all(f.is_monic() for f in fs)
                for i in range(1, len(fs)):
                    assert divmod(fs[i], fs[i - 1])[1].is_zero
                check_diagonal(res, m, n, zero)

    def test_zz_t_rejected(self):
        with pytest.raises(DomainError):
            smith_normal_form([[Poly(ZZ, (0, 1))]])

    def test_mixed_entries_rejected(self):
        with pytest.raises(DomainError):
            smith_normal_form([[1, Poly(QQ, (1,))]])


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
        from cyclocover.matrices import int_mat_inverse
        for _ in range(20):
            n = rng.randint(1, 4)
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            p = rand_unimodular_int(n, rng)
            conj = mat_mul(mat_mul(p, a), int_mat_inverse(p))
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
        with pytest.raises(ValueError):
            finite_order([[2, 0], [0, 1]])

    def test_empty_matrix(self):
        assert finite_order([]) == 1

    def test_against_brute_force(self):
        rng = random.Random(19)
        from helpers import rand_unimodular_int
        from cyclocover.matrices import int_mat_inverse
        # conjugates of block rotations: known finite orders
        blocks = {
            2: [[0, -1], [1, 0]],          # order 4
            3: [[1, -1], [1, 0]],          # order 6
            6: [[0, -1], [1, -1]],         # order 3
        }
        for _ in range(15):
            base = rng.choice(list(blocks.values()))
            p = rand_unimodular_int(2, rng)
            a = mat_mul(mat_mul(p, base), int_mat_inverse(p))
            assert finite_order(a) == brute_order(a)


class TestLaurentCokernel:
    def test_principal_torsion(self):
        # [DERIVED] coker(t^2 - t + 1) over QQ[t,1/t]
        f = LaurentPoly.from_poly(Poly(QQ, (1, -1, 1)))
        m = LaurentMatrix(QQ, 1, 1, [[f]])
        factors, free = laurent_cokernel(m)
        assert free == 0
        assert factors == [Poly(QQ, (1, -1, 1))]

    def test_unit_relation(self):
        m = LaurentMatrix(QQ, 1, 1, [[LaurentPoly.t_power(QQ, -3, 5)]])
        factors, free = laurent_cokernel(m)
        assert factors == [] and free == 0

    def test_zero_relation_gives_free(self):
        m = LaurentMatrix(QQ, 1, 1, [[LaurentPoly.zero(QQ)]])
        factors, free = laurent_cokernel(m)
        assert factors == [] and free == 1

    def test_no_relations(self):
        m = LaurentMatrix.zero(QQ, 2, 0)
        assert laurent_cokernel(m) == ([], 2)

    def test_t_factor_stripped_f2(self):
        # [DERIVED] over F_2, diag(t, t+1): t is a unit, so only t+1 remains
        F = GF(2)
        t = LaurentPoly.from_poly(Poly(F, (0, 1)))
        tp1 = LaurentPoly.from_poly(Poly(F, (1, 1)))
        z = LaurentPoly.zero(F)
        m = LaurentMatrix(F, 2, 2, [[t, z], [z, tp1]])
        factors, free = laurent_cokernel(m)
        assert free == 0
        assert factors == [Poly(F, (1, 1))]

    def test_needs_field(self):
        m = LaurentMatrix(ZZ, 1, 1, [[LaurentPoly.one(ZZ)]])
        with pytest.raises(DomainError):
            laurent_cokernel(m)

    def test_negative_valuations_handled(self):
        # t^-1 (t - 1) presents the same module as (t - 1)
        f = LaurentPoly(QQ, -1, Poly(QQ, (-1, 1)))
        m = LaurentMatrix(QQ, 1, 1, [[f]])
        factors, free = laurent_cokernel(m)
        assert free == 0 and factors == [Poly(QQ, (-1, 1))]
