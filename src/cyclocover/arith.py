"""Elementary integer arithmetic: primality, factoring, totients, primitive
roots, orders."""

from math import gcd

# The first 13 primes as Miller-Rabin bases decide primality below
# 3317044064679887385961981; the first 12 only below 318665857834031151167461,
# a strong pseudoprime to all of them (OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

IS_PRIME_LIMIT = 33 * 10 ** 23

_SMALL_PRIME_LIMIT = 100_000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid for n < IS_PRIME_LIMIT = 3.3 * 10**24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle-finding variant; n must be odd composite.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise RuntimeError(f"pollard rho failed on {n}")


def factorize(n: int) -> dict:
    """Full prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    while d <= _SMALL_PRIME_LIMIT and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    return _rho_factorize(n, out)


def _rho_factorize(n: int, out: dict) -> dict:
    """Add the prime factorization of n >= 1 to out by Pollard rho."""
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return out


def totient(n: int) -> int:
    """Euler's phi(n) for n >= 1."""
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def smallest_odd_prime_factor(n: int):
    """Smallest odd prime dividing n, or None if n is a power of two."""
    if n < 1:
        raise ValueError("n must be positive")
    while n % 2 == 0:
        n //= 2
    if n == 1:
        return None
    d = 3
    while d <= _SMALL_PRIME_LIMIT and d * d <= n:
        if n % d == 0:
            return d
        d += 2
    if d * d > n:
        return n
    return min(_rho_factorize(n, {}))


def primitive_root(p: int) -> int:
    """Least primitive root modulo an odd prime p."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    qs = list(factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise RuntimeError("no primitive root found")  # unreachable for prime p


def power(base, e, mul, one):
    """base**e for an int e >= 0 by square-and-multiply: `one`, mul's unit, for
    e = 0, else bit_length(e) + popcount(e) - 2 products (base itself for e = 1)."""
    if e < 0:
        raise ValueError(f"power needs an exponent >= 0, got {e}")
    result = None
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return one if result is None else result


def order_from_multiple(n, primes, is_one):
    """The order dividing n at which is_one holds exactly on its multiples.
    For each of the `primes`, which hold all of n's, its whole power is
    taken off n and put back one factor at a time until is_one holds, so
    an order far below n costs few checks, and each at a small exponent."""
    for p in primes:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        while e and not is_one(n):
            n, e = n * p, e - 1
    return n
