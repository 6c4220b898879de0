"""Conjugation-periodicity solving and torsion lifting.

Orders are verified against the brute-force powering oracles in
helpers.py wherever the search space is small enough.
"""

import random
from math import lcm

import pytest

from cyclocover import periodicity
from cyclocover.errors import InternalCheckError, PreconditionError
from cyclocover.matrices import mat_mul, mat_pow
from cyclocover.periodicity import (FgAbelianAutomorphism, RelationError,
                                    cor_period_driver, full_order,
                                    solve_prop_matrix)

from helpers import (brute_automorphism_order, brute_order,
                     brute_order_prime_to, rand_unimodular_int)


ROT4 = [[0, -1], [1, 0]]
TREFOIL = [[1, -1], [1, 0]]           # order 6
TREFOIL_B = [[1, 0], [1, -1]]         # B TREFOIL B^-1 = TREFOIL^-1
I2 = [[1, 0], [0, 1]]


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
        with pytest.raises(ValueError):
            solve_prop_matrix(I2, I2, 1, 1)
        with pytest.raises(ValueError):
            solve_prop_matrix(I2, I2, 3, 2)

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

    def test_torsion_search_bound_is_a_precondition(self, monkeypatch):
        # 2 has order 12 mod 13, over a search bound lowered to 10
        monkeypatch.setattr(periodicity, "_TORSION_ORDER_CEILING", 10)
        phi = FgAbelianAutomorphism([], [13], [[2]], [[]])
        with pytest.raises(PreconditionError, match="search bound 10"):
            phi.torsion_order()
        with pytest.raises(PreconditionError, match="search bound 10"):
            full_order(phi, 1)

    def test_identity_helper(self):
        e = FgAbelianAutomorphism.identity(2, [2, 4])
        assert e.is_identity()
        assert e.torsion_order() == 1


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


class TestDriver:
    def test_trefoil_k5(self):
        mono = [FgAbelianAutomorphism([[1]], [], [], []),
                FgAbelianAutomorphism(TREFOIL, [], [], [])]
        wit = [([[1]], 1), ([[1, 0], [1, -1]], 1)]
        assert cor_period_driver(mono, 5, wit) == (6, 6)

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

    def test_witness_length_mismatch(self):
        with pytest.raises(ValueError):
            cor_period_driver([FgAbelianAutomorphism([[1]], [], [], [])], 5, [])

    def test_torsion_only_degrees_skipped_for_m(self):
        mono = [FgAbelianAutomorphism([], [3], [[2]], [[]])]
        wit = [([], 1)]
        m, l = cor_period_driver(mono, 5, wit)
        assert m == 1 and l == 2
