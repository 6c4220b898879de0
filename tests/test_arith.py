"""Primality up to IS_PRIME_LIMIT, factoring beyond the trial-division range,
and the shared square-and-multiply and order-stripping helpers."""

import random
from operator import mul

import pytest

from cyclocover import arith
from cyclocover.arith import (IS_PRIME_LIMIT, factorize, is_prime,
                              order_from_multiple, power,
                              smallest_odd_prime_factor)
from cyclocover.matrices import mat_pow


def _brute_smallest_odd(n):
    while n % 2 == 0:
        n //= 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n if n > 1 else None


class TestLargeCofactors:
    # both factors lie just above the trial-division limit of 10**5
    @pytest.mark.parametrize("n,smallest,factors", [
        (100003 * 100019, 100003, {100003: 1, 100019: 1}),
        (100003 ** 2, 100003, {100003: 2}),
        (2 ** 3 * 100019 * 100003, 100003, {2: 3, 100003: 1, 100019: 1}),
    ])
    def test_exact(self, n, smallest, factors):
        assert smallest_odd_prime_factor(n) == smallest
        assert factorize(n) == factors

    def test_no_second_trial_division(self, monkeypatch):
        # the Pollard-rho stage takes the leftover cofactor directly
        def trial_again(n):
            raise AssertionError("factorize called on the cofactor")
        monkeypatch.setattr(arith, "factorize", trial_again)
        assert smallest_odd_prime_factor(100003 * 100019) == 100003

    def test_small_against_brute_force(self):
        rng = random.Random(5)
        for n in [1, 2, 64, 3, 9, 105] + [rng.randint(1, 10 ** 6) for _ in range(200)]:
            assert smallest_odd_prime_factor(n) == _brute_smallest_odd(n), n


class TestIsPrime:
    def test_is_prime_limit_is_honest(self):
        # a strong pseudoprime to the bases 2..37, below IS_PRIME_LIMIT
        n = 318665857834031151167461
        assert n < IS_PRIME_LIMIT and not is_prime(n)
        assert factorize(n) == {399165290221: 1, 798330580441: 1}


class TestPower:
    def test_known_answers(self):
        assert power(3, 13, mul, 1) == 3 ** 13
        assert power(7, 0, mul, 1) == 1
        assert power(-2, 1, mul, 1) == -2
        # a product that is not commutative keeps its order
        assert power("ab", 5, str.__add__, "") == "ab" * 5

    def test_negative_exponent_is_refused(self):
        # the shared loop would otherwise shift -1 right forever
        with pytest.raises(ValueError, match="exponent >= 0"):
            power(1, -1, int.__mul__, 1)
        with pytest.raises(ValueError, match="exponent >= 0"):
            power(2, -1, mul, 1)
        with pytest.raises(ValueError, match="exponent >= 0"):
            mat_pow([[1]], -2)

    def test_multiplies_once_per_bit_and_squares_below_the_top_bit(self):
        calls = []

        def mul(a, b):
            calls.append((a, b))
            return a * b
        assert power(2, 0b1011, mul, 1) == 2 ** 11
        # 2 multiplies into the result, the lowest set bit taking 2 as it
        # is, and 3 squarings, none past the top bit
        assert len(calls) == 5

    def test_product_count(self):
        calls = []

        def counting(a, b):
            calls.append(None)
            return a * b
        one = object()
        assert power(3, 0, counting, one) is one and not calls
        for e in range(1, 300):
            calls.clear()
            assert power(3, e, counting, one) == 3 ** e
            assert len(calls) == e.bit_length() + bin(e).count("1") - 2, e


class TestOrderFromMultiple:
    @pytest.mark.parametrize("n,primes,modulus,base,order", [
        (6, [2, 3], 7, 2, 3),            # 2 has order 3 mod 7
        (6, [2, 3], 7, 3, 6),            # 3 is a primitive root mod 7
        (12, [2, 3, 5], 13, 1, 1),       # a prime that does not divide n
        (1000002, [2, 3, 166667], 1000003, 2, 1000002),
        (2 ** 10, [2], 2 ** 12, 5, 2 ** 10),  # 5 has order 2^(k-2) mod 2^k
    ])
    def test_multiplicative_orders(self, n, primes, modulus, base, order):
        assert order_from_multiple(
            n, primes, lambda e: pow(base, e, modulus) == 1) == order

    def test_one_check_per_prime_when_the_order_is_small(self):
        calls = []
        assert order_from_multiple(
            2 ** 20 * 3 ** 5, [2, 3], lambda e: calls.append(e) or True) == 1
        assert calls == [3 ** 5, 1]

    def test_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rng.choice([p for p in range(3, 200) if is_prime(p)])
            a = rng.randrange(1, m)
            want = next(e for e in range(1, m) if pow(a, e, m) == 1)
            assert order_from_multiple(m - 1, factorize(m - 1),
                                       lambda e: pow(a, e, m) == 1) == want
