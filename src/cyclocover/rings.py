"""Exact coefficient rings and dense uni-variate (Laurent) polynomials.

Supported coefficient rings: the integers (ZZ), the rationals (QQ) and
prime fields GF(p) for word-sized p.  Coefficients are plain values: int
over ZZ; over QQ an int when the value is integral and a Fraction only
otherwise; and over GF(p) an int in [0, p).  A ring's `coerce` is the one
place that normalizes, so code that adds or multiplies GF(p)
coefficients itself must coerce the result before it tests it for zero
or stores it.  What is not in the ring (a bool, a float, a str, a
Fraction whose denominator p divides) `coerce` refuses with
PreconditionError.

Polynomials are dense coefficient lists.  A `Poly` and a `LaurentPoly`
(which carries an extra power-of-t valuation) are values only: they are
built, compared and printed, and a `Poly` over ZZ also gives its
`content` and `primitive` part, but neither is added, multiplied,
divided or evaluated.  A `Poly` is false exactly when it is zero.

All polynomial arithmetic runs on the coefficient-list primitives of
this module; each is defined once:

- `strip_coeffs` is the one trailing-zero strip, under `Poly`
  construction, `pseudo_divmod` and `sub_mul_coeffs`;
- `sub_mul_coeffs` (s*a - q*b) is the one add/subtract loop, under the
  Smith loop's row steps, t^q - 1 modulo f and the characteristic
  polynomials mod p;
- `primitive_coeffs` is the one division of a list by its content, under
  `Poly.content`, `Poly.primitive` and `gcd_zz_coeffs`;
- `pseudo_divmod` divides without fractions and is the one division
  loop: `cyclotomic`, the gcds over ZZ[t] (a primitive pseudo-remainder
  sequence) and over GF(p), and the Smith loop over kappa[t] all run on
  it, never through Fraction coefficients;
- `mul_coeffs` is the one product loop, under `mulmod_coeffs`, the
  Smith loop's lcm step and the cyclotomic products over QQ.
"""

from fractions import Fraction
from math import gcd, lcm

from .arith import is_prime, totient
from .errors import PreconditionError, check_count


class _IntegerRing:
    name = "ZZ"
    is_field = False
    char = 0

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        raise PreconditionError(f"cannot coerce {x!r} into ZZ")

    def __repr__(self):
        return "ZZ"


class _RationalField:
    name = "QQ"
    is_field = True
    char = 0

    def coerce(self, x):
        """An int for an integral value, a Fraction otherwise."""
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if type(x) is int:
            return x
        raise PreconditionError(f"cannot coerce {x!r} into QQ")

    def __repr__(self):
        return "QQ"


ZZ = _IntegerRing()
QQ = _RationalField()


class PrimeField:
    is_field = True

    _cache: dict = {}

    def __new__(cls, p):
        # only an int is looked up: 7.0 == 7 would find GF(7)
        if isinstance(p, int) and p in cls._cache:
            return cls._cache[p]
        if not isinstance(p, int) or not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if p >= 1 << 64:
            raise PreconditionError("prime fields are limited to word-sized p")
        self = super().__new__(cls)
        self.p = p
        self.char = p
        self.name = f"GF({p})"
        cls._cache[p] = self
        return self

    def coerce(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise PreconditionError(f"denominator divisible by {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise PreconditionError(f"cannot coerce {x!r} into {self.name}")

    def __repr__(self):
        return self.name


def GF(p):
    return PrimeField(p)


class Poly:
    """Dense polynomial; coeffs[i] is the coefficient of t**i."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(strip_coeffs([ring.coerce(c) for c in coeffs]))

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @classmethod
    def one(cls, ring):
        return cls(ring, (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self):
        return self.coeffs[0] if self.coeffs else self.ring.coerce(0)

    def content(self):
        """gcd of integer coefficients (ZZ polynomials only), >= 0."""
        return self._zz_primitive()[0]

    def primitive(self):
        """Content-1, positive-leading associate over ZZ."""
        if self.is_zero:
            return self
        f = self._zz_primitive()[1]
        return Poly(ZZ, f if f[-1] > 0 else [-c for c in f])

    def _zz_primitive(self):
        if self.ring is not ZZ:
            raise TypeError("content is defined over ZZ")
        return primitive_coeffs(self.coeffs)

    def low_order(self):
        """Multiplicity of the root t = 0."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(parts).replace("+ -", "- ")


def gcd_zz_coeffs(a, b):
    """gcd of two int coefficient lists (no trailing zeros; [] is zero)
    with a positive leading coefficient: the gcd of the contents times the
    primitive part of the last nonzero remainder of the primitive
    pseudo-remainder sequence (Collins 1967; Brown 1971)."""
    if not a or not b:
        f = a or b
        return [-c for c in f] if f and f[-1] < 0 else list(f)
    ca, f = primitive_coeffs(a)
    cb, g = primitive_coeffs(b)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        f, g = g, primitive_coeffs(pseudo_divmod(f, g)[2])[1]
    if g:
        # a nonzero constant divides f, so the primitive parts are coprime
        f = [1]
    c = gcd(ca, cb)
    if f[-1] < 0:
        c = -c
    return [c * x for x in f]


def pseudo_divmod(f, g, p=0):
    """(s, q, r) with s*f = q*g + r and len(r) < len(g), for coefficient
    lists f and g (no trailing zeros, g nonzero).

    With p = 0 the lists hold ints and nothing leaves ZZ: each step scales
    by lc(g) / gcd(top, lc(g)), so s divides lc(g)^(deg f - deg g + 1) and
    is a unit of QQ (s = 1 for lc(g) = +-1, which never scales).  With p
    prime they hold residues in [0, p), each step uses the field quotient
    and s = 1.  Each quotient coefficient is stored in the slot of the top
    coefficient it cancels, so a later scaling of the working list scales
    it too.
    """
    r = list(f)
    n = len(g)
    lc = g[-1]
    s = 1
    # 1/lc where it is integral: over GF(p), and over ZZ for lc = +-1
    lc_inv = pow(lc, -1, p) if p else lc if lc in (1, -1) else 0
    for top_i in range(len(r) - 1, n - 2, -1):
        top = r[top_i]
        if not top:
            continue
        k = top_i - n + 1
        if p:
            v = top * lc_inv % p
            for i in range(n - 1):
                r[k + i] = (r[k + i] - v * g[i]) % p
        else:
            if lc_inv:
                v = top * lc_inv
            else:
                h = gcd(top, lc)
                u, v = lc // h, top // h
                if u != 1:
                    r = [u * x for x in r]
                    s *= u
            for i in range(n - 1):
                r[k + i] -= v * g[i]
        r[top_i] = v
    q = r[n - 1:]
    del r[n - 1:]
    return s, q, strip_coeffs(r)


def strip_coeffs(cs):
    """The coefficient list cs, in place, without its trailing zeros."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def sub_mul_coeffs(s, a, q, b, p=0):
    """s*a - q*b on coefficient lists, reduced modulo p when p > 0 and b is
    nonzero.  Coefficients are ints or Fractions for p = 0 and residues
    otherwise; the result has no trailing zeros."""
    out = [s * c for c in a] if s != 1 else list(a)
    if b:
        n = len(q) + len(b) - 1
        if len(out) < n:
            out += [0] * (n - len(out))
        m = len(b)
        for i, c in enumerate(q):
            if c:
                out[i:i + m] = [x - c * d for x, d in zip(out[i:i + m], b)]
        if p:
            out = [c % p for c in out]
    return strip_coeffs(out)


def primitive_coeffs(f):
    """(content, primitive part) of an int coefficient list f: the content
    is the gcd of the coefficients, >= 0 and 0 for [], and the primitive
    part is f divided by it (f itself when the content is 0 or 1), with
    the signs of f."""
    c = gcd(*f)
    return c, f if c <= 1 else [x // c for x in f]


def mul_coeffs(a, b, p=0):
    """The product of two coefficient lists (no trailing zeros; [] is
    zero), reduced modulo p when p > 0."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out] if p else out


def mulmod_coeffs(a, b, f, p):
    """a*b mod f over GF(p), on residue lists (f nonzero)."""
    return pseudo_divmod(mul_coeffs(a, b, p), f, p)[2]


def gcd_gf_coeffs(a, b, p):
    """Monic gcd of two residue lists over GF(p) by Euclid ([] when both
    are zero)."""
    while b:
        a, b = b, pseudo_divmod(a, b, p)[2]
    return monic_coeffs(a, p)


def monic_coeffs(f, p):
    """f divided by its leading coefficient: residues over GF(p), or for
    p = 0 an int list read over QQ (an int where the quotient is one)."""
    if not f or f[-1] == 1:
        return f
    lc = f[-1]
    if p:
        inv = pow(lc, -1, p)
        return [c * inv % p for c in f]
    return [c // lc if c % lc == 0 else Fraction(c, lc) for c in f]


def clear_denominators(coeff_lists):
    """(den, int_lists): den is the lcm of the denominators of the QQ
    coefficients (ints or Fractions) in `coeff_lists`, and int_lists holds
    den times each coefficient, as lists of ints."""
    den = lcm(*(c.denominator for cs in coeff_lists for c in cs))
    return den, [[c.numerator * (den // c.denominator) for c in cs]
                 for cs in coeff_lists]


_CYCLOTOMIC_CACHE = {}


def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial over ZZ."""
    # every cached key is a valid index; the exact type test keeps True,
    # which hashes like the key 1, away from the cache
    if type(n) is int and n in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[n]
    check_count("cyclotomic index", n, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            # Phi_d is monic, so the division is exact in ZZ[t]
            num = pseudo_divmod(num, cyclotomic(d).coeffs)[1]
    phi = _CYCLOTOMIC_CACHE[n] = Poly(ZZ, num)
    return phi


def cyclotomic_degree(n: int) -> int:
    """phi(n) = deg Phi_n, read off Phi_n when it is already built; only an
    n whose Phi_n has not been built pays `totient`, and nothing is built."""
    phi = _CYCLOTOMIC_CACHE.get(n)
    return totient(n) if phi is None else phi.degree



class LaurentPoly:
    """Element t**val * body(t) with body(0) != 0 (zero has val 0)."""

    __slots__ = ("ring", "val", "body")

    def __init__(self, ring, val, body):
        if not isinstance(val, int) or isinstance(val, bool):
            raise PreconditionError(f"bad valuation {val!r}")
        if not isinstance(body, Poly):
            body = Poly(ring, body)
        elif body.ring is not ring:
            raise PreconditionError(f"body over {body.ring}, not {ring}")
        if body.is_zero:
            val = 0
        else:
            k = body.low_order()
            if k:
                body = Poly(ring, body.coeffs[k:])
                val += k
        self.ring = ring
        self.val = val
        self.body = body

    @classmethod
    def zero(cls, ring):
        return cls(ring, 0, Poly.zero(ring))

    @classmethod
    def from_poly(cls, p: Poly):
        return cls(p.ring, 0, p)

    @classmethod
    def const(cls, ring, c):
        return cls(ring, 0, Poly(ring, (c,)))

    @property
    def is_zero(self):
        return self.body.is_zero

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.ring is other.ring and self.val == other.val
                and self.body == other.body)

    def __hash__(self):
        return hash((id(self.ring), self.val, self.body))

    def __repr__(self):
        if self.is_zero:
            return "0"
        if self.val == 0:
            return repr(self.body)
        return f"t^{self.val}*({self.body!r})"
