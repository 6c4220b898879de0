"""Primality up to IS_PRIME_LIMIT and factoring beyond the trial-division range."""

import random

import pytest

from cyclocover import arith
from cyclocover.arith import (IS_PRIME_LIMIT, factorize, is_prime,
                              smallest_odd_prime_factor)


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
