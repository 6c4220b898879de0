"""Conjugation-periodicity solving and torsion lifting.

Orders are verified against the brute-force powering oracles in
helpers.py wherever the search space is small enough.
"""

import random
import time
from itertools import product
from math import gcd, lcm

import pytest

from cyclocover import periodicity
from cyclocover.arith import factorize
from cyclocover.errors import InternalCheckError, PreconditionError
from cyclocover.matrices import mat_identity, mat_mul, mat_pow
from cyclocover.normal_forms import char_poly, finite_order
from cyclocover.periodicity import (FgAbelianAutomorphism, RelationError,
                                    cor_period_driver, full_order,
                                    solve_prop_matrix)

from helpers import (brute_automorphism_order, brute_order,
                     brute_order_prime_to, distinct_degrees,
                     rand_unimodular_int)


ROT4 = [[0, -1], [1, 0]]
TREFOIL = [[1, -1], [1, 0]]           # order 6
TREFOIL_B = [[1, 0], [1, -1]]         # B TREFOIL B^-1 = TREFOIL^-1
I2 = [[1, 0], [0, 1]]


def identity_automorphism(r, orders):
    """The identity of Z^r + sum Z/d_i, d_i in `orders`: blocks I, I, 0."""
    return FgAbelianAutomorphism(mat_identity(r), orders,
                                 mat_identity(len(orders)),
                                 [[0] * r for _ in orders])


class TestSolvePropMatrix:
    def test_rotation_k3_sign_minus(self):
        # [DERIVED] A^3 = -A = A^-1 for the rotation, B = I works with sign -1
        assert solve_prop_matrix(ROT4, I2, 3, -1) == 4

    def test_trefoil_k5(self):
        # [DERIVED] A has order 6, A^5 = A^-1; conjugating by B below
        # inverts A, so B A^5 B^-1 = A
        b = [[1, 0], [1, -1]]
        assert solve_prop_matrix(TREFOIL, b, 5, 1) == 6

    def test_identity_any_k(self):
        assert solve_prop_matrix(I2, I2, 7, 1) == 1

    @pytest.mark.parametrize("a, b, message", [
        ([[1, 0], [1]], I2, "A is not 2x2"),
        (ROT4, [[1]], "B is not 2x2"),
        ([(1,)], [[1]], "A is not 1x1"),
        ([[1.0]], [[1]], "A is not an integer matrix"),
        (ROT4, [[1, 0], [0, True]], "B is not an integer matrix")], ids=str)
    def test_matrices_checked(self, a, b, message):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            solve_prop_matrix(a, b, 3, 1)

    def test_one_determinant_per_matrix(self, monkeypatch):
        # det A is read off the characteristic polynomial, which the order
        # of A needs anyway, so only B takes a determinant
        calls = []
        real = periodicity.det_int

        def counting(a):
            calls.append(a)
            return real(a)
        monkeypatch.setattr(periodicity, "det_int", counting)
        assert solve_prop_matrix(TREFOIL, TREFOIL_B, 5, 1) == 6
        assert calls == [TREFOIL_B]

    def test_one_characteristic_polynomial(self, monkeypatch):
        # an A of infinite order fails on the cyclotomic factoring of its
        # characteristic polynomial, which is built once, before any power
        from cyclocover import normal_forms
        calls = []
        real = periodicity.char_poly

        def counting(a):
            calls.append(a)
            return real(a)
        monkeypatch.setattr(periodicity, "char_poly", counting)
        monkeypatch.setattr(normal_forms, "char_poly", counting)
        anosov = [[2, 1], [1, 1]]
        with pytest.raises(RelationError, match="does not hold"):
            solve_prop_matrix(anosov, I2, 2, 1)
        assert calls == [anosov]

    def test_order_matches_brute_force(self):
        rng = random.Random(47)
        for base, k, sign in [(ROT4, 3, -1), (TREFOIL, 5, 1),
                              ([[0, -1], [1, -1]], 4, 1)]:
            p, pinv = rand_unimodular_int(2, rng)
            a = mat_mul(mat_mul(p, base), pinv)
            bk = mat_mul(mat_mul(p, {3: I2, 5: [[1, 0], [1, -1]],
                                     4: I2}[k]), pinv)
            if sign == 1 and k == 4:
                # A^4 = A for order 3
                bk = I2
            m = solve_prop_matrix(a, bk, k, sign)
            assert m == brute_order_prime_to(a, k)

    def test_relation_failure(self):
        # B = [[1,0],[1,-1]] inverts the trefoil monodromy, so
        # B A^7 B^-1 = A^-1 != A and B A^5 B^-1 = A != A^-1
        for a, b, k, sign in [(ROT4, I2, 3, 1), (TREFOIL, TREFOIL_B, 7, 1),
                              (TREFOIL, TREFOIL_B, 5, -1)]:
            with pytest.raises(RelationError, match="does not hold"):
                solve_prop_matrix(a, b, k, sign)

    def test_non_unimodular_rejected(self):
        with pytest.raises(RelationError):
            solve_prop_matrix([[2, 0], [0, 1]], I2, 3, 1)
        with pytest.raises(RelationError):
            solve_prop_matrix(I2, [[2, 0], [0, 1]], 3, 1)

    def test_bad_k_and_sign(self):
        # k is an int > 1 and sign the int +-1, bools refused: True == 1
        # used to pass as sign +1
        for k in (1, 2.5, True):
            with pytest.raises(PreconditionError, match="k must be"):
                solve_prop_matrix(I2, I2, k, 1)
        for sign in (2, 0, True, 1.0):
            with pytest.raises(PreconditionError, match="sign must be"):
                solve_prop_matrix(I2, I2, 3, sign)

    def test_infinite_order_is_internal_error(self):
        # unipotent A with the (vacuously checkable) sign -1 relation:
        # B A^2 B^-1 = A^-1 with B = diag(1, -1) inverting the shear
        a = [[1, 1], [0, 1]]
        b = [[1, 0], [0, -1]]
        # B invertible: the relation is A B A^2 = B
        if mat_mul(a, mat_mul(b, mat_pow(a, 2))) == b:
            with pytest.raises(InternalCheckError, match="infinite order"):
                solve_prop_matrix(a, b, 2, -1)
        else:
            # no valid relation exists, which is itself the point
            with pytest.raises(RelationError):
                solve_prop_matrix(a, b, 2, -1)

    def test_trefoil_k7_sign_minus(self):
        # [DERIVED] A^7 = A, and B inverts A, so B A^7 B^-1 = A^-1
        assert solve_prop_matrix(TREFOIL, TREFOIL_B, 7, -1) == 6

    def test_order_not_prime_to_k(self):
        # A of order 4, k = 2: A^2 = A^-1 fails, so build A of order 3, k=3:
        a = [[0, -1], [1, -1]]
        # A^3 = I so B A^3 B^-1 = I != A: relation fails, use k=4 instead
        with pytest.raises(RelationError):
            solve_prop_matrix(a, I2, 3, 1)
        # with k=4, A^4 = A: the relation holds but gcd(3, 4) = 1, fine
        assert solve_prop_matrix(a, I2, 4, 1) == 3


class TestAutomorphismGroup:
    @pytest.mark.parametrize("free, torsion, mixing, name", [
        ([[True]], [[2]], [[0]], "free block"),
        ([[1]], [[True]], [[0]], "torsion block"),
        ([[1]], [[2]], [[0.5]], "mixing block")], ids=str)
    def test_blocks_are_integer_matrices(self, free, torsion, mixing, name):
        # a torsion block [[True]] used to be read as 1, and a mixing block
        # [[0.5]] stored as it was
        with pytest.raises(PreconditionError,
                           match=f"^{name} is not an integer matrix"):
            FgAbelianAutomorphism(free, [3], torsion, mixing)

    @pytest.mark.parametrize("e", [-1, 1.5, True, "2"], ids=repr)
    def test_power_needs_a_count(self, e):
        # -1 used to raise ValueError, 1.5 TypeError, and True to return phi
        phi = FgAbelianAutomorphism(TREFOIL, [3], [[2]], [[1, 0]])
        with pytest.raises(PreconditionError, match="^e must be an int >= 0"):
            phi.power(e)

    def test_power_builds_the_identity_only_for_zero(self, monkeypatch):
        phi = FgAbelianAutomorphism(TREFOIL, [3], [[2]], [[1, 0]])
        calls = [0]
        real = periodicity.mat_identity

        def counted(n):
            calls[0] += 1
            return real(n)

        monkeypatch.setattr(periodicity, "mat_identity", counted)
        assert phi.power(1) == phi
        assert phi.power(6) == phi.power(2).power(3)
        assert calls[0] == 0
        assert phi.power(0).is_identity()
        assert calls[0] == 2

    @pytest.mark.parametrize("free, torsion, mixing, message", [
        ([[1, 0], [0]], [[2]], [[0, 0]], "free block is not 2x2"),
        ([[1]], [[2, 0]], [[0]], "torsion block is not 1x1"),
        ([[1]], [[2]], [], "mixing block is not 1x1"),
        ([[1]], [[2]], [[0, 0]], "mixing block is not 1x1")], ids=str)
    def test_block_shapes(self, free, torsion, mixing, message):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            FgAbelianAutomorphism(free, [3], torsion, mixing)

    def test_orders_need_not_be_a_list(self):
        # orders >= 2 in a divisibility chain are sorted whatever their
        # container; a tuple used to be refused as unsorted
        phi = FgAbelianAutomorphism([], (2,), [[1]], [[]])
        assert phi.is_identity() and phi.torsion_order() == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="divisibility"):
            FgAbelianAutomorphism([[1]], [2, 3], I2, [[0], [0]])
        with pytest.raises(ValueError, match="sorted|>= 2"):
            FgAbelianAutomorphism([[1]], [1], [[1]], [[0]])
        with pytest.raises(ValueError, match="invertible"):
            FgAbelianAutomorphism([[2]], [], [], [])
        with pytest.raises(ValueError, match="preserve"):
            # Z/2 + Z/4: sending the order-4 generator to the order-2 one
            # requires the (2,1) entry times 2 to vanish mod 4
            FgAbelianAutomorphism([], [2, 4], [[1, 0], [1, 1]], [[], []])
        with pytest.raises(PreconditionError, match="different groups"):
            FgAbelianAutomorphism([[1]], [], [], []).compose(
                FgAbelianAutomorphism([], [], [], []))

    @pytest.mark.parametrize("orders", [[3.0], [7.0], ["5"]], ids=repr)
    def test_torsion_orders_are_ints(self, orders):
        # [3.0] used to build with float entries and [7.0] to end in a
        # TypeError from det_int
        with pytest.raises(PreconditionError, match="torsion order must be"):
            FgAbelianAutomorphism([], orders, [[2]], [[]])

    def test_torsion_invertibility_mod_p(self):
        with pytest.raises(ValueError, match="not invertible"):
            FgAbelianAutomorphism([], [2], [[0]], [[]])
        with pytest.raises(ValueError, match="not invertible"):
            FgAbelianAutomorphism([], [2, 2], [[1, 1], [1, 1]], [[], []])

    def test_compose_and_power(self):
        phi = FgAbelianAutomorphism(ROT4, [3], [[2]], [[1, 0]])
        assert phi.power(0).is_identity()
        p4 = phi.power(4)
        assert p4.free_block == I2
        # torsion part: 2^4 = 16 = 1 mod 3
        assert p4.torsion_block == [[1]]

    def test_torsion_order(self):
        phi = FgAbelianAutomorphism([], [5], [[2]], [[]])
        assert phi.torsion_order() == 4   # ord of 2 mod 5
        phi = FgAbelianAutomorphism([], [4], [[3]], [[]])
        assert phi.torsion_order() == 2

    def test_identity_helper(self):
        e = identity_automorphism(2, [2, 4])
        assert e.is_identity()
        assert e.torsion_order() == 1
        with pytest.raises(PreconditionError, match="divisibility"):
            identity_automorphism(1, [2, 3])


class TestTorsionOrder:
    """Orders on T = sum Z/d_i from a known multiple, stripped prime by
    prime, against the one-factor-at-a-time powering oracle."""

    @pytest.mark.parametrize("a,p", [
        ([[0, 1], [1, 1]], 2),        # x^2 + x + 1
        ([[2, 5, 1], [0, 3, 4], [6, 1, 1]], 7),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5),
    ])
    def test_charpoly_mod_known_answers(self, a, p):
        want = [c % p for c in char_poly(a).coeffs]
        assert periodicity._charpoly_mod(a, p) == want

    def test_charpoly_mod_against_char_poly(self):
        rng = random.Random(5)
        for _ in range(300):
            n, p = rng.randrange(1, 7), rng.choice([2, 3, 5, 7, 101])
            # sparse entries reach the zero-pivot and row-swap branches
            a = [[rng.choice([0, 0, rng.randrange(-9, 10)]) for _ in range(n)]
                 for _ in range(n)]
            want = [c % p for c in char_poly(a).coeffs]
            assert periodicity._charpoly_mod(a, p) == want, (a, p)

    @pytest.mark.parametrize("f,p,degrees", [
        ([1, 1, 1], 2, [2]),                  # irreducible over GF(2)
        ([1, 1, 0, 1], 2, [3]),               # x^3 + x + 1
        ([1, 1, 1, 1], 2, []),                # (x + 1)^3
        ([1, 0, 1], 7, [2]),                  # x^2 + 1, 7 = 3 mod 4
        ([6, 1], 7, []),                      # x - 1 is left out
        ([1, 1], 7, [1]),                     # x + 1 is kept
        ([1, 2, 1], 7, [1]),                  # (x + 1)^2: once, as degree 1
        # (x^2 + 1)(x - 3)(x - 1)^2 over GF(7)
        ([4, 0, 6, 1, 2, 1], 7, [1, 2]),
    ])
    def test_factor_degrees_known_answers(self, f, p, degrees):
        assert periodicity._factor_degrees(f, p) == degrees

    def test_factor_degrees_against_the_split_oracle(self):
        # seeded blocks mod small and large primes, and random f of every
        # degree from 1 up, with p = 2 and 3 among them
        rng = random.Random(23)
        for p in (2, 3, 5, 7, 101, 1000003, 10 ** 24 + 7):
            for n in range(1, 9):
                block = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                f = periodicity._charpoly_mod(block, p)
                if f[0]:
                    assert periodicity._factor_degrees(f, p) == \
                        distinct_degrees(f, p), (block, p)
                f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 1)] + [1]
                assert periodicity._factor_degrees(f, p) == \
                    distinct_degrees(f, p), (f, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_factor_degrees_of_degree_one(self, p):
        # x + c for every c != 0; x - 1 is left out
        for c in range(1, p):
            assert periodicity._factor_degrees([c, 1], p) == \
                ([] if c == p - 1 else [1])

    def test_factor_degrees_of_a_large_block_is_quick(self):
        rng = random.Random(1)
        p = 10 ** 24 + 7
        f = periodicity._charpoly_mod(
            [[rng.randrange(p) for _ in range(40)] for _ in range(40)], p)
        expected = distinct_degrees(f, p)
        start = time.perf_counter()
        got = periodicity._factor_degrees(f, p)
        elapsed = time.perf_counter() - start
        assert got == expected
        # powering x^(p^j) afresh at each degree took 1.7 s here
        assert elapsed < 0.5

    @pytest.mark.parametrize("orders", [[2, 2], [2, 4], [4, 4], [3, 9], [3, 3],
                                        [2, 2, 4]])
    def test_multiple_on_every_accepted_block(self, orders):
        # every reduced block that the constructor accepts: the multiple is
        # one of the order, its primes are listed, and the order is exact
        ranges = [range(d) for d in orders for _ in orders]
        s = len(orders)
        for flat in product(*ranges):
            block = [list(flat[i * s:(i + 1) * s]) for i in range(s)]
            try:
                phi = FgAbelianAutomorphism([], orders, block, [[]] * s)
            except PreconditionError:
                continue
            multiple, primes = periodicity._order_multiple(
                orders, phi.torsion_block, factorize(orders[-1]))
            want = brute_automorphism_order([], orders, block, [[]] * s)
            assert multiple % want == 0 and set(factorize(multiple)) <= primes
            assert phi.torsion_order() == want, block

    def test_multiple_factors_only_the_degrees_the_block_has(self):
        # the identity has only the eigenvalue 1: nothing is factored
        assert periodicity._order_multiple([2] * 137, [[int(i == j) for j in range(137)]
                                                       for i in range(137)],
                                           {2: 1}) == (2 ** 8, {2})
        assert periodicity._order_multiple([1000003], [[2]], {1000003: 1}) == (
            1000002, {2, 3, 166667, 1000003})

    @pytest.mark.parametrize("orders", [[2] * 137, [10 ** 24 + 7] * 3])
    def test_identity_on_large_groups_is_quick(self, orders):
        # 2^137 - 1 and p^2 + p + 1 are never factored for the identity
        start = time.perf_counter()
        phi = identity_automorphism(0, orders)
        assert phi.torsion_order() == 1
        assert cor_period_driver([phi], 2, [([], 1)]) == (1, 1)
        assert time.perf_counter() - start < 5

    def test_against_brute_force_non_cyclic(self):
        rng = random.Random(19)
        for orders in ([2, 4, 8], [3, 9], [5, 5], [2, 2, 4], [6, 12]):
            checked = 0
            while checked < 200:
                # T[i][j] d_j = 0 mod d_i: T[i][j] is a multiple of d_i / gcd
                torsion = [[di // gcd(di, dj) * rng.randrange(gcd(di, dj))
                            for dj in orders] for di in orders]
                try:
                    phi = FgAbelianAutomorphism([], orders, torsion,
                                                [[] for _ in orders])
                except PreconditionError:
                    continue  # not invertible
                want = brute_automorphism_order([], orders, torsion,
                                                [[] for _ in orders])
                assert phi.torsion_order() == want, (orders, torsion)
                checked += 1

    def test_large_prime_under_a_primitive_root(self):
        for p in (100003, 1000003):
            phi = FgAbelianAutomorphism([], [p], [[2]], [[]])
            start = time.perf_counter()
            assert phi.torsion_order() == p - 1
            assert time.perf_counter() - start < 0.05

    def test_checks_once(self, monkeypatch):
        calls = []
        real = periodicity.det_int

        def counting(a):
            calls.append(a)
            return real(a)
        monkeypatch.setattr(periodicity, "det_int", counting)
        phi = FgAbelianAutomorphism([[1]], [5], [[2]], [[0]])
        assert calls
        calls.clear()
        assert phi.power(1000).is_identity()
        assert phi.compose(phi).torsion_block == [[4]]
        assert phi.torsion_order() == 4
        assert full_order(phi, 1) == 4
        assert calls == []


class TestFullOrder:
    def test_pure_free(self):
        phi = FgAbelianAutomorphism(ROT4, [], [], [])
        assert full_order(phi, 4) == 4

    def test_torsion_lifting(self):
        # free part identity (m_free = 1), torsion 2 mod 5 has order 4
        phi = FgAbelianAutomorphism([[1]], [5], [[2]], [[0]])
        assert full_order(phi, 1) == 4

    def test_mixing_extends_order(self):
        # free identity, trivial torsion action, nonzero mixing into Z/4:
        # phi(x) = x + e on torsion coordinates, order 4
        phi = FgAbelianAutomorphism([[1]], [4], [[1]], [[1]])
        assert full_order(phi, 1) == 4
        assert phi.power(4).is_identity()
        assert not phi.power(2).is_identity()

    def test_lcm_of_free_and_torsion(self):
        phi = FgAbelianAutomorphism(ROT4, [3], [[2]], [[0, 0]])
        # free order 4, torsion order 2 -> lcm 4
        assert full_order(phi, 4) == 4

    def test_against_brute_force(self):
        # Z^r + Z/a + Z/ac with off-diagonal torsion entries (the (1, 0)
        # entry a multiple of c, so that orders are preserved), random
        # mixing and a free block of finite order; m_free may be any
        # multiple of the free order, and l is then lcm(m_free, order)
        rng = random.Random(61)
        frees = [[], [[1]], [[-1]], ROT4, TREFOIL, [[0, -1], [1, -1]]]
        checked = 0
        while checked < 300:
            a, c = rng.choice((2, 3, 4, 6)), rng.choice((1, 2, 3))
            orders = [a, a * c]
            free = rng.choice(frees)
            if len(free) == 2:
                p, pinv = rand_unimodular_int(2, rng)
                free = mat_mul(mat_mul(p, free), pinv)
            torsion = [[rng.randrange(a), rng.randrange(a * c)],
                       [c * rng.randrange(a), rng.randrange(a * c)]]
            mixing = [[rng.randrange(d) for _ in free] for d in orders]
            try:
                phi = FgAbelianAutomorphism(free, orders, torsion, mixing)
            except PreconditionError:
                continue  # torsion block not invertible
            m_free = brute_order(free) * rng.choice((1, 2, 5))
            want = brute_automorphism_order(free, orders, torsion, mixing)
            assert full_order(phi, m_free) == lcm(m_free, want)
            checked += 1

    def test_wrong_m_free(self):
        phi = FgAbelianAutomorphism(ROT4, [], [], [])
        with pytest.raises(RelationError):
            full_order(phi, 3)

    def test_m_free_must_be_a_count(self):
        # 2.5 used to reach arith.power as a TypeError, and True was read
        # as m_free = 1
        phi = FgAbelianAutomorphism([[1]], [], [], [])
        for m_free in (0, 2.5, True):
            with pytest.raises(PreconditionError, match="m_free must be"):
                full_order(phi, m_free)


class TestDriver:
    @pytest.mark.parametrize("k", [1, 2.5, True, "5"], ids=repr)
    def test_k_checked_once_before_the_degrees(self, k):
        # k belongs to no degree: with no degrees k = 1 used to pass, and
        # 2.5 to end in a TypeError from math.gcd
        with pytest.raises(PreconditionError, match="^k must be"):
            cor_period_driver([], k, [])
        with pytest.raises(PreconditionError, match="^k must be"):
            cor_period_driver([FgAbelianAutomorphism([], [3], [[2]], [[]])],
                              k, [([], 1)])

    def test_trefoil_k5(self):
        mono = [FgAbelianAutomorphism([[1]], [], [], []),
                FgAbelianAutomorphism(TREFOIL, [], [], [])]
        wit = [([[1]], 1), ([[1, 0], [1, -1]], 1)]
        assert cor_period_driver(mono, 5, wit) == (6, 6)

    def test_free_order_is_verified_once(self, monkeypatch):
        # _solve_relation verifies A^m = I in each degree with a free
        # part; the driver then powers the free block nowhere else but in
        # its final phi^l = id check, which calls `power`, not `mat_pow`
        calls = []
        real = periodicity.mat_pow

        def counted(a, e):
            calls.append(e)
            return real(a, e)

        monkeypatch.setattr(periodicity, "mat_pow", counted)
        mono = [FgAbelianAutomorphism([[1]], [], [], []),
                FgAbelianAutomorphism(TREFOIL, [3], [[2]], [[1, 0]])]
        wit = [([[1]], 1), ([[1, 0], [1, -1]], 1)]
        m, l = cor_period_driver(mono, 5, wit)
        assert (m, l) == (6, lcm(6, brute_automorphism_order(TREFOIL, [3], [[2]],
                                                            [[1, 0]])))
        assert len(calls) == 2  # one A^(k mod m) per degree

    def test_torsion_extends_l(self):
        mono = [FgAbelianAutomorphism([[1]], [4], [[3]], [[0]])]
        wit = [([[1]], 1)]
        m, l = cor_period_driver(mono, 3, wit)
        assert m == 1 and l == 2

    def test_degree_tagged_errors(self):
        mono = [FgAbelianAutomorphism([[1]], [], [], []),
                FgAbelianAutomorphism([[1, 1], [0, 1]], [], [], [])]
        wit = [([[1]], 1), (I2, 1)]
        with pytest.raises(RelationError, match="degree 1:"):
            cor_period_driver(mono, 5, wit)

    def test_bad_sign_refused_in_its_degree(self):
        mono = [FgAbelianAutomorphism([[1]], [], [], []),
                FgAbelianAutomorphism(ROT4, [], [], [])]
        for sign in (True, 1.0, 2):
            with pytest.raises(PreconditionError,
                               match="degree 1: sign must be"):
                cor_period_driver(mono, 3, [([[1]], 1), (I2, sign)])

    @pytest.mark.parametrize("entry", [5, None, [[1]]], ids=repr)
    def test_monodromy_entry_must_be_an_automorphism(self, entry):
        # 5 used to end in an AttributeError
        with pytest.raises(PreconditionError,
                           match="^degree 0: .* is not an FgAbelianAutomorphism"):
            cor_period_driver([entry], 2, [([], 1)])
        with pytest.raises(PreconditionError, match="^degree 1: "):
            cor_period_driver([FgAbelianAutomorphism([[1]]), entry], 2,
                              [([[1]], 1), ([], 1)])

    @pytest.mark.parametrize("witness", [5, ([[1]],), [[[1]], 1, 1], "ab", None],
                             ids=repr)
    def test_witness_must_be_a_pair(self, witness):
        # 5 used to end in a TypeError and ([[1]],) in a ValueError, from
        # unpacking the witness as (B, sign)
        with pytest.raises(PreconditionError,
                           match="^degree 0: .* is not a \\(B, sign\\) pair"):
            cor_period_driver([FgAbelianAutomorphism([[1]])], 2, [witness])
        with pytest.raises(PreconditionError, match="^degree 1: "):
            cor_period_driver([FgAbelianAutomorphism([[1]])] * 2, 2,
                              [([[1]], 1), witness])

    def test_witness_pair_as_list(self):
        m, l = cor_period_driver([FgAbelianAutomorphism([[1]])], 2, [[[[1]], 1]])
        assert (m, l) == (1, 1)

    def test_witness_length_mismatch(self):
        with pytest.raises(ValueError):
            cor_period_driver([FgAbelianAutomorphism([[1]], [], [], [])], 5, [])

    def test_torsion_only_degrees_skipped_for_m(self):
        mono = [FgAbelianAutomorphism([], [3], [[2]], [[]])]
        wit = [([], 1)]
        m, l = cor_period_driver(mono, 5, wit)
        assert m == 1 and l == 2


# Phi_d for the d whose phi(d) <= 4, low degree first, written out here
# rather than taken from rings.cyclotomic
CYCLOTOMIC = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1],
              5: [1, 1, 1, 1, 1], 6: [1, -1, 1], 8: [1, 0, 0, 0, 1],
              10: [1, -1, 1, -1, 1], 12: [1, 0, -1, 0, 1]}


def companion(f):
    """The companion matrix of the monic int coefficient list f."""
    n = len(f) - 1
    return [[int(i == j + 1) if j < n - 1 else -f[i] for j in range(n)]
            for i in range(n)]


def block_sum(blocks):
    n = sum(map(len, blocks))
    out, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def jordan_pair(c):
    """[[C, I], [0, C]]: eigenvalues those of C, never semisimple."""
    n = len(c)
    return ([row + [int(i == j) for j in range(n)] for i, row in enumerate(c)]
            + [[0] * n + row for row in c])


def conjugated(a, rng):
    p, pinv = rand_unimodular_int(len(a), rng)
    return mat_mul(mat_mul(p, a), pinv)


def cyclotomic_sum(rng, size, semisimple=True):
    """A seeded conjugate of a sum of companions of Phi_d on about `size`
    rows; with semisimple False one summand is a `jordan_pair`."""
    blocks = []
    while sum(map(len, blocks)) < size:
        blocks.append(companion(CYCLOTOMIC[rng.choice(list(CYCLOTOMIC))]))
    if not semisimple:
        blocks[0] = jordan_pair(blocks[0])
    return conjugated(block_sum(blocks), rng)


def brute_power(a, e):
    acc = mat_identity(len(a))
    for _ in range(e):
        acc = mat_mul(acc, a)
    return acc


class TestOrdersAgainstOracles:
    """`finite_order`, `solve_prop_matrix` and `cor_period_driver` on sums
    of cyclotomic companions against the brute-force powering oracles."""

    def test_finite_order(self):
        rng = random.Random(2021)
        for size in [1, 2, 3, 4, 5] * 6:
            a = cyclotomic_sum(rng, size)
            assert finite_order(a) == brute_order(a), a

    def test_non_semisimple_has_no_finite_order(self):
        rng = random.Random(2022)
        for size in [1, 2, 3, 4] * 3:
            a = cyclotomic_sum(rng, size, semisimple=False)
            assert finite_order(a) is None
            assert brute_order(a, cap=200) is None

    def test_solve_prop_matrix(self):
        # B a power of A commutes with A, so the relation reads A^k = A^sign
        rng = random.Random(2023)
        for size in [1, 2, 3, 4, 5] * 6:
            a = cyclotomic_sum(rng, size)
            b = brute_power(a, rng.randint(0, 3))
            m, sign = brute_order(a), rng.choice((1, -1))
            # about half the k hold: k = sign mod m
            k = max(2, rng.choice((rng.randint(2, 40), m * rng.randint(1, 3) + sign)))
            if brute_power(a, k) == brute_power(a, sign % m):
                assert solve_prop_matrix(a, b, k, sign) \
                    == brute_order_prime_to(a, k) == m
            else:
                with pytest.raises(RelationError, match="does not hold"):
                    solve_prop_matrix(a, b, k, sign)

    def test_solve_prop_matrix_refuses_non_semisimple(self):
        rng = random.Random(2024)
        for size in [1, 2, 3, 4] * 3:
            a = cyclotomic_sum(rng, size, semisimple=False)
            b = brute_power(a, rng.randint(0, 3))
            with pytest.raises(RelationError, match="does not hold"):
                solve_prop_matrix(a, b, rng.randint(2, 40), rng.choice((1, -1)))

    def test_cor_period_driver(self):
        rng = random.Random(2025)
        for _ in range(20):
            frees = [cyclotomic_sum(rng, rng.randint(1, 3)) for _ in range(2)]
            sign = rng.choice((1, -1))
            order = lcm(*map(brute_order, frees))
            k = order * rng.randint(1, 3) + sign  # so the relation holds
            while k < 2:
                k += order
            mono, wit, want_m, want_l = [], [], 1, 1
            for free in frees:
                d = rng.choice((3, 4, 5, 7, 9))
                torsion = [[rng.choice([u for u in range(1, d) if gcd(u, d) == 1])]]
                mixing = [[rng.randrange(d) for _ in free]]
                mono.append(FgAbelianAutomorphism(free, [d], torsion, mixing))
                wit.append((brute_power(free, rng.randint(0, 3)), sign))
                want_m = lcm(want_m, brute_order_prime_to(free, k))
                want_l = lcm(want_l, brute_automorphism_order(free, [d], torsion,
                                                              mixing))
            assert cor_period_driver(mono, k, wit) == (want_m, want_l)

    def test_cor_period_driver_refuses_non_semisimple(self):
        rng = random.Random(2026)
        for _ in range(6):
            good = cyclotomic_sum(rng, 2)
            bad = cyclotomic_sum(rng, rng.randint(1, 2), semisimple=False)
            mono = [FgAbelianAutomorphism(good), FgAbelianAutomorphism(bad)]
            k = brute_order(good) + 1
            with pytest.raises(RelationError, match="^degree 1: .*does not hold"):
                cor_period_driver(mono, k, [(good, 1), (bad, 1)])
