"""Small known-answer tests for the benchmark's independent oracles.

    python3 -m pytest bench/test_oracles.py     (or: python3 bench/test_oracles.py)
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as O  # noqa: E402


def test_rank_and_nullity_over_q_and_fp():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert O.rank(m) == 2
    assert O.rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert O.rank([[1, 1], [1, 3]]) == 2
    assert O.rank([[1, 1], [1, 3]], 2) == 1
    assert O.nullity([[2, 0], [0, 3]], 2) == 1
    assert O.nullity([[2, 0], [0, 3]], 3) == 1
    assert O.nullity([[2, 0], [0, 3]]) == 0
    assert O.nullity([]) == 0


def test_powers_and_orders():
    rot = [[0, -1], [1, 0]]
    assert O.mat_pow(rot, 2) == [[-1, 0], [0, -1]]
    assert O.is_identity(O.mat_pow(rot, 4))
    assert O.order_prime_to(rot, 3, 100) == 4
    assert O.order_prime_to([[1, 1], [0, 1]], 2, 50) is None
    assert O.is_identity(O.mat_pow([[1, 1], [0, 1]], 5, 5), 5)
    six = [[1, -1], [1, 0]]
    assert O.order_prime_to(six, 5, 100) == 6
    assert O.order_prime_to(six, 2, 100) is None
    assert O.order_prime_to([[-1]], 2, 100) is None
    # (u, v) -> (-u, 2v + u) on Z + Z/3: the square adds u to v, so order 6
    assert O.automorphism_order([[-1]], [3], [[2]], [[1]], 100) == 6
    assert O.automorphism_order([[1]], [4], [[3]], [[0]], 100) == 2


def test_cover_dims_of_the_trefoil_torus():
    blocks = [[[1]], [[1, -1], [1, 0]]]
    assert O.cover_dims(blocks, 5) == [1, 1, 0]
    assert O.cover_dims(blocks, 6) == [1, 3, 2]
    # over GF(3), t^2 - t + 1 = (t + 1)^2: the square of the monodromy is
    # unipotent with a one-dimensional fixed space, its cube is -1
    assert O.cover_dims(blocks, 2, 3) == [1, 2, 1]
    assert O.cover_dims(blocks, 3, 3) == [1, 1, 0]
    assert O.cover_dims(blocks, 6, 3) == [1, 3, 2]


def test_polynomial_gcd_and_primitive_parts():
    tm1 = [-1, 1]
    assert O.pmul(tm1, [1, 1]) == [-1, 0, 1]
    assert O.pgcd(O.pmul(tm1, [2, 1]), O.pmul(tm1, [1, 2])) == [-1, 1]
    assert O.pgcd([2, 2], [4, 4]) == [2, 2]
    assert O.pgcd([2], [0, 1]) == [1]
    assert O.pgcd([], [0, -3, 0, 3]) == [-3, 0, 3]
    assert O.primitive([0, -4, 0, -8]) == [1, 0, 2]
    assert O.normalize([0, 0, 3, -1]) == [-3, 1]


def test_determinants_and_minor_gcds():
    assert O.det([[[1, 1], [2]], [[3], [0, 1]]]) == [-6, 1, 1]
    assert O.det([[[0, 1]]]) == [0, 1]
    tm1 = [-1, 1]
    assert O.maximal_minor_gcd([[tm1, []], [[], tm1]]) == [1, -2, 1]
    assert O.maximal_minor_gcd([[[2], [0, 1]]]) == [1]
    assert O.maximal_minor_gcd([[[2], [2, 2]]]) == [2]
    assert O.maximal_minor_gcd([[[1], [2]], [[2], [4]]]) == []


def test_fingen_closed_form():
    assert O.fingen_principal([1, -1, 1]) == (True, 2)
    assert O.fingen_principal([0, 0, 1, -3, 1]) == (True, 2)
    assert O.fingen_principal([-1, 2]) == (False, None)
    assert O.fingen_principal([-2, 1]) == (False, None)
    assert O.fingen_principal([2, 2]) == (False, None)
    assert O.fingen_principal([1]) == (True, 0)
    assert O.fingen_principal([]) == (False, None)


def test_mapping_torus_of_the_circle_and_boundary_squares():
    ranks, mats = O.mapping_torus([1], [], [[[1]]])
    assert ranks == [1, 1]
    assert mats == [[[{0: -1, 1: 1}]]]
    ranks, mats = O.mapping_torus([1, 2], [[[0, 0]]], [[[1]], [[1, -1], [1, 0]]])
    assert ranks == [1, 3, 2]
    prod = O.laurent_mat_mul(mats[0], mats[1])
    assert all(not e for row in prod for e in row)


def test_bernoulli_numbers_and_kummer():
    b = O.bernoulli(12)
    assert b[1] == Fraction(-1, 2)
    assert (b[2], b[4], b[6]) == (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42))
    assert b[12] == Fraction(-691, 2730)
    assert b[3] == 0
    b = O.bernoulli(100)
    irregular = [p for p in range(5, 102) if O.is_prime(p) and O.irregular(p, b)]
    assert irregular == [37, 59, 67, 101]


def test_odd_factors():
    assert O.odd_part(48) == 3
    assert O.least_odd_prime_factor(8, 100) is None
    assert O.least_odd_prime_factor(2 * 37, 100) == 37
    assert O.least_odd_prime_factor(695, 100) == 5
    assert O.least_odd_prime_factor(4889, 100) is None      # prime beyond the limit
    assert O.least_odd_prime_factor(4889, 10 ** 4) == 4889


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
