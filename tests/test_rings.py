"""Coefficient rings, Poly and LaurentPoly values, and the coefficient-list
primitives of rings, checked against the arithmetic of helpers.

Oracle notes: [DERIVED] values are checked against hand computation or a
second independent identity (e.g. prod of cyclotomics = t^n - 1);
[TRIVIAL] cases assert definitional behavior.
"""

import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclocover import rings
from cyclocover.arith import totient
from cyclocover.errors import PreconditionError
from cyclocover.matrices import kronecker_eval
from cyclocover.rings import (GF, LaurentPoly, Poly, QQ, ZZ,
                              cyclotomic, gcd_zz_coeffs, primitive_coeffs,
                              pseudo_divmod, strip_coeffs, sub_mul_coeffs)

from helpers import (gcd_zz_over_qq, monic_gcd, poly_add, poly_divmod,
                     poly_monic, poly_mul, poly_sub)


def P(*cs):
    return Poly(ZZ, cs)


def L(val, *cs):
    return LaurentPoly(ZZ, val, Poly(ZZ, cs))


class TestPolyBasics:
    def test_zero_normalization(self):
        # [TRIVIAL] trailing zeros are dropped
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).is_zero

    def test_degree_leading_constant(self):
        f = P(3, 0, -2)
        assert f.degree == 2 and f.leading == -2 and f.constant == 3

    # `Poly` has no arithmetic; the next three check by hand the list
    # arithmetic of helpers, which the oracles run on

    def test_arithmetic(self):
        # [DERIVED] (t+1)(t-1) = t^2 - 1
        assert poly_mul([1, 1], [-1, 1]) == [-1, 0, 1]
        assert poly_add([1, 1], [-1, 1]) == [0, 2]
        assert poly_sub([1, 1], [1, 1]) == []
        assert poly_sub([], [1, -2]) == [-1, 2]
        # modulo 5: (2t + 3)(3t + 2) = 6t^2 + 13t + 6 = t^2 + 3t + 1
        assert poly_mul([3, 2], [2, 3], 5) == [1, 3, 1]

    def test_divmod_exact_over_zz(self):
        # [DERIVED] t^2 - 1 = (t + 1)(t - 1)
        assert poly_divmod([-1, 0, 1], [-1, 1]) == ([1, 1], [])

    def test_divmod_over_field(self):
        # [DERIVED] t^2 + 1 = (t/2)(2t) + 1 over QQ; over GF(5), 1/2 = 3
        assert poly_divmod([1, 0, 1], [0, 2]) == ([0, Fraction(1, 2)], [1])
        assert poly_divmod([1, 0, 1], [0, 2], 5) == ([0, 3], [1])

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(7)])
    def test_bool_is_nonzero(self, ring):
        # [TRIVIAL] false exactly for the zero polynomial
        assert not Poly.zero(ring)
        assert not Poly(ring, (0, 0))
        assert Poly(ring, (0, 1))
        assert Poly.one(ring)

    def test_content_primitive(self):
        f = P(-6, 0, -9)
        assert f.content() == 3
        assert f.primitive() == P(2, 0, 3)
        assert f.primitive().leading > 0

    def test_evaluate(self):
        # [DERIVED] a value is read on the one Horner kernel, at t = 2^k:
        # 1 - 2 + 4 = 3 at t = 2, 1 - 8 + 64 = 57 at t = 8
        assert kronecker_eval(P(1, -1, 1).coeffs, 1) == 3
        assert kronecker_eval(P(1, -1, 1).coeffs, 3) == 57
        assert kronecker_eval(Poly.zero(ZZ).coeffs, 7) == 0

    def test_low_order(self):
        assert P(0, 0, 5).low_order() == 2
        assert P(1, 2).low_order() == 0

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=repr)
    @pytest.mark.parametrize("x", [True, 1.5, "1", None], ids=repr)
    def test_coerce_refusals(self, ring, x):
        with pytest.raises(PreconditionError):
            ring.coerce(x)

    def test_denominator_divisible_by_p(self):
        # used to raise ZeroDivisionError
        with pytest.raises(PreconditionError, match="divisible by 5"):
            Poly(GF(5), [Fraction(1, 5)])
        assert Poly(GF(5), [Fraction(1, 2)]).coeffs == (3,)

    def test_bool_coefficient_rejected(self):
        with pytest.raises(PreconditionError, match="cannot coerce True"):
            Poly(ZZ, (True,))


class TestGcd:
    def test_poly_gcd_monic(self):
        # [DERIVED] gcd(t^2-1, t^2-2t+1) = t - 1, by helpers.monic_gcd
        assert monic_gcd([-1, 0, 1], [1, -2, 1]) == [-1, 1]
        assert monic_gcd([-2, 0, 2], [0, 3, -3]) == [-1, 1]

    def test_poly_gcd_over_gf(self):
        # over F_2, t^2 + 1 = (t+1)^2
        assert monic_gcd([1, 0, 1], [1, 1], 2) == [1, 1]
        assert monic_gcd([], [], 2) == []

    def test_gcd_zz_contents(self):
        # [DERIVED] gcd(2(t-1), 4(t^2-1)) = 2(t-1)
        assert gcd_zz_coeffs([-2, 2], [-4, 0, 4]) == [-2, 2]

    def test_gcd_zz_zero_arguments(self):
        assert gcd_zz_coeffs([], [-3, 1]) == [-3, 1]
        assert gcd_zz_coeffs([0, -1], []) == [0, 1]


class TestGcdZZ:
    """gcd_zz_coeffs (primitive pseudo-remainder sequence on ints) against
    helpers.gcd_zz_over_qq (Euclid over QQ[t], then Gauss's lemma), on
    int coefficient lists; products and quotients come from helpers."""

    @staticmethod
    def rand_poly(rng, max_len, bound=6):
        return strip_coeffs([rng.randint(-bound, bound)
                             for _ in range(rng.randint(0, max_len))])

    def check(self, a, b):
        g = gcd_zz_coeffs(a, b)
        assert g == gcd_zz_over_qq(a, b), (a, b)
        assert g == gcd_zz_coeffs(b, a)
        assert not g or g[-1] > 0
        return g

    def test_random_pairs(self):
        rng = random.Random(23)
        for _ in range(300):
            self.check(self.rand_poly(rng, 6), self.rand_poly(rng, 6))

    def test_planted_common_factor_and_contents(self):
        rng = random.Random(29)
        for _ in range(200):
            h = self.rand_poly(rng, 4)
            if not h:
                continue
            c = rng.choice([1, 2, 6, -4, 15])
            a = poly_mul([c * x for x in self.rand_poly(rng, 5)], h)
            c = rng.choice([1, 3, -6, 10])
            b = poly_mul([c * x for x in self.rand_poly(rng, 5)], h)
            g = self.check(a, b)
            if a and b:
                # h divides both, so its primitive part divides their gcd
                # in ZZ[t]
                q, r = poly_divmod(g, Poly(ZZ, h).primitive().coeffs)
                assert not r and all(x.denominator == 1 for x in q)

    def test_known_values(self):
        # [DERIVED] 6(t-2)(t+1)^2 and -4(t+1)(t^2+3): contents 6, 4; common t+1
        a = poly_mul(poly_mul([-12, 6], [1, 1]), [1, 1])
        b = poly_mul([1, 1], [-12, 0, -4])
        assert gcd_zz_coeffs(a, b) == [2, 2]
        # [DERIVED] negative leading coefficients, coprime primitive parts
        assert gcd_zz_coeffs([3, -9, -6], [9, 0, -3]) == [3]
        # [DERIVED] (2t + 3) | both; its sign is made positive
        a = poly_mul([-15, -10], [1, 0, 1])
        assert gcd_zz_coeffs(a, poly_mul([-3, -2], [7, 1])) == [3, 2]

    def test_zero_and_constant_inputs(self):
        assert gcd_zz_coeffs([], []) == []
        assert gcd_zz_coeffs([], [-6]) == [6]
        assert gcd_zz_coeffs([-4], [6]) == [2]
        assert gcd_zz_coeffs([-4], [6, -2, 10]) == [2]
        assert gcd_zz_coeffs([9, 0, 3], [-3]) == [3]
        assert gcd_zz_coeffs([0, 0, -2], [0, 4]) == [0, 2]

    def test_stays_in_the_integers(self, monkeypatch):
        # rings builds no Fraction on the way, and every coefficient is an int
        def refuse(*args):
            raise AssertionError("gcd_zz_coeffs went through QQ[t]")
        monkeypatch.setattr(rings, "Fraction", refuse)
        rng = random.Random(31)
        for _ in range(50):
            h = self.rand_poly(rng, 3)
            g = gcd_zz_coeffs(poly_mul(self.rand_poly(rng, 5), h),
                         poly_mul(self.rand_poly(rng, 5), h))
            assert all(type(x) is int for x in g)
        assert gcd_zz_coeffs([-2, 2], [-4, 0, 4]) == [-2, 2]


class TestRationalValues:
    """QQ keeps an integral value as an int and a Fraction only otherwise."""

    def test_coerce(self):
        assert type(QQ.coerce(Fraction(4, 2))) is int
        assert type(QQ.coerce(7)) is int
        assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)

    def test_no_poly_holds_an_integral_fraction(self):
        def ok(f):
            return all(type(c) is int or c.denominator != 1 for c in f.coeffs)
        rng = random.Random(37)
        for _ in range(200):
            a = Poly(QQ, [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                          for _ in range(rng.randint(0, 4))])
            b = Poly(QQ, [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                          for _ in range(rng.randint(1, 3))])
            results = [a, b, Poly(QQ, poly_monic(a.coeffs)),
                       Poly(QQ, poly_monic(b.coeffs)),
                       Poly(QQ, [Fraction(3, 2) * c for c in a.coeffs])]
            assert all(ok(f) for f in results), (a, b)
        # equality and hashing do not see the representation
        assert Poly(QQ, [Fraction(4, 2)]) == Poly(QQ, [2])
        assert hash(Poly(QQ, [Fraction(4, 2)])) == hash(Poly(QQ, [2]))


class TestPseudoDivmod:
    """s*f = q*g + r with deg r < deg g, on int lists and modulo p."""

    @staticmethod
    def rand_list(rng, length, lo, hi):
        cs = [rng.randint(lo, hi) for _ in range(length)]
        while cs and not cs[-1]:
            cs.pop()
        return cs

    def test_identity_over_zz(self):
        rng = random.Random(41)
        for _ in range(300):
            f = self.rand_list(rng, rng.randint(0, 8), -9, 9)
            g = self.rand_list(rng, rng.randint(1, 5), -9, 9) or [rng.choice([-2, 3])]
            s, q, r = pseudo_divmod(f, g)
            assert s != 0 and len(r) < len(g)
            assert [s * c for c in f] == poly_add(poly_mul(q, g), r)
            # s divides lc(g)^(deg f - deg g + 1)
            assert g[-1] ** max(len(f) - len(g) + 1, 0) % s == 0

    def test_unit_leading_coefficient_needs_no_scaling(self):
        # [DERIVED] 2t + 1 = -2 (1 - t) + 3, and
        # 3t^2 + 2t + 1 = (-3t - 5)(1 - t) + 6
        assert pseudo_divmod([1, 2], [1, -1]) == (1, [-2], [3])
        assert pseudo_divmod([1, 2, 3], [1, -1]) == (1, [-5, -3], [6])
        rng = random.Random(47)
        for _ in range(200):
            f = self.rand_list(rng, rng.randint(0, 8), -9, 9)
            g = self.rand_list(rng, rng.randint(0, 4), -9, 9) + [rng.choice([1, -1])]
            s, q, r = pseudo_divmod(f, g)
            assert s == 1 and len(r) < len(g)
            assert (q, r) == poly_divmod(f, g)
            assert f == poly_add(poly_mul(q, g), r)

    @pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
    def test_field_quotient_modulo_p(self, p):
        rng = random.Random(43)
        for _ in range(200):
            f = self.rand_list(rng, rng.randint(0, 8), 0, p - 1)
            g = self.rand_list(rng, rng.randint(1, 5), 0, p - 1) or [1]
            s, q, r = pseudo_divmod(f, g, p)
            assert s == 1
            assert all(0 <= c < p for c in q + r)
            assert (q, r) == poly_divmod(f, g, p)


class TestCoefficientLists:
    """strip_coeffs, sub_mul_coeffs and primitive_coeffs, over ZZ, QQ
    (Fraction coefficients) and GF(p), against Poly arithmetic, values at
    a few points and math.gcd; the arithmetic they are checked against is
    that of helpers."""

    RINGS = [(ZZ, 0), (QQ, 0), (GF(5), 5), (GF(2 ** 31 - 1), 2 ** 31 - 1)]

    @staticmethod
    def rand_coeff(rng, ring, p):
        if p:
            return rng.randrange(p)
        if ring is QQ and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randint(-9, 9)

    def rand_list(self, rng, ring, p, max_len):
        return strip_coeffs([self.rand_coeff(rng, ring, p)
                             for _ in range(rng.randint(0, max_len))])

    def test_strip(self):
        # [TRIVIAL] trailing zeros go, inner and leading ones stay, in place
        cs = [0, 1, 0, 2, 0, 0]
        assert strip_coeffs(cs) is cs and cs == [0, 1, 0, 2]
        assert strip_coeffs([]) == [] and strip_coeffs([0, 0]) == []
        assert strip_coeffs([Fraction(1, 2), Fraction(0)]) == [Fraction(1, 2)]
        assert strip_coeffs([3, 0]) == [3]

    @pytest.mark.parametrize("ring,p", RINGS, ids=lambda x: str(x))
    def test_sub_mul_against_poly_arithmetic(self, ring, p):
        def value(f, x):
            return sum(c * x ** i for i, c in enumerate(f))
        rng = random.Random(53)
        for trial in range(300):
            a = self.rand_list(rng, ring, p, 6)
            q = self.rand_list(rng, ring, p, 4)
            b = self.rand_list(rng, ring, p, 4)
            s = rng.choice([1, -1, 3, Fraction(2, 3)] if ring is QQ else [1, -1, 3])
            if trial % 10 == 0:
                b = a  # a zero result: everything must be stripped
                q, s = [1], 1
            out = sub_mul_coeffs(s, a, q, b, p)
            assert not out or out[-1] != 0
            if p and b:
                assert all(0 <= c < p for c in out)
            want = poly_sub([s * c for c in a], poly_mul(q, b, p), p)
            assert Poly(ring, out) == Poly(ring, want)
            for x in (0, 1, -2, 3):
                expect = s * value(a, x) - value(q, x) * value(b, x)
                assert ring.coerce(value(out, x)) == ring.coerce(expect)

    def test_sub_mul_hand_cases(self):
        # [DERIVED] 2(1 + t) - (1 + t)(2) = 0; (t^2) - (t)(t - 1) = t
        assert sub_mul_coeffs(2, [1, 1], [1, 1], [2]) == []
        assert sub_mul_coeffs(1, [0, 0, 1], [0, 1], [-1, 1]) == [0, 1]
        # modulo 5: (4 + t) - (1)(4) = t, and b = 0 leaves s*a as it is
        assert sub_mul_coeffs(1, [4, 1], [1], [4], 5) == [0, 1]
        assert sub_mul_coeffs(1, [4, 1], [1], [], 5) == [4, 1]
        assert sub_mul_coeffs(1, [], [1], [], 5) == []

    def test_primitive_hand_cases(self):
        # [DERIVED] contents are >= 0 and the primitive part keeps the signs
        assert primitive_coeffs([]) == (0, [])
        assert primitive_coeffs([0, 6, -4]) == (2, [0, 3, -2])
        assert primitive_coeffs([-6, -4]) == (2, [-3, -2])
        assert primitive_coeffs([-5]) == (5, [-1])
        f = [3, -2, 5]
        c, prim = primitive_coeffs(f)
        assert c == 1 and prim is f

    def test_primitive_against_math_gcd(self):
        rng = random.Random(59)
        for _ in range(300):
            scale = rng.choice([1, -1, 2, -6, 35])
            f = strip_coeffs([scale * rng.randint(-20, 20)
                              for _ in range(rng.randint(0, 6))])
            c, prim = primitive_coeffs(f)
            assert c == reduce(gcd, f, 0) >= 0
            assert [c * x for x in prim] == f
            assert gcd(*prim) == (1 if f else 0)
            if f:
                assert Poly(ZZ, f).content() == c
                assert Poly(ZZ, f).primitive() == Poly(ZZ, prim if prim[-1] > 0
                                                      else [-x for x in prim])


class TestCyclotomic:
    def test_small_values(self):
        # [DERIVED] standard table
        assert cyclotomic(1) == P(-1, 1)
        assert cyclotomic(2) == P(1, 1)
        assert cyclotomic(4) == P(1, 0, 1)
        assert cyclotomic(6) == P(1, -1, 1)
        assert cyclotomic(12) == P(1, 0, -1, 0, 1)

    @pytest.mark.parametrize("n", [1, 2, 6, 30, 105, 200])
    def test_product_identity(self, n):
        # [DERIVED] prod_{d | n} Phi_d = t^n - 1
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic(d).coeffs)
        assert prod == [-1] + [0] * (n - 1) + [1]

    def test_first_nontrivial_coefficient(self):
        # Phi_105 is the first with a coefficient of absolute value 2
        assert -2 in cyclotomic(105).coeffs

    def test_bad_index(self):
        # checked before the cache: True hashes like the cached key 1
        cyclotomic(1)
        for bad in (0, -1, 2.0, True, None, "3"):
            with pytest.raises(PreconditionError, match="cyclotomic index"):
                cyclotomic(bad)

    def test_still_works_when_wrapped(self, monkeypatch):
        # a wrapper rebinding the module name (as mocks and tracers do) is
        # what the recursion then calls; the cache must not live on it
        from cyclocover import rings
        original = rings.cyclotomic
        calls = []

        def wrapper(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(rings, "cyclotomic", wrapper)
        assert rings.cyclotomic(12) == P(1, 0, -1, 0, 1)
        assert calls[0] == 12

    def test_degree_read_off_built_polynomial(self, monkeypatch):
        # a built Phi_n gives phi(n) without factoring n; an unbuilt one is
        # not built, so a huge index costs a factorization only
        cyclotomic(12)
        factored = []
        monkeypatch.setattr(rings, "totient",
                            lambda n: factored.append(n) or totient(n))
        assert rings.cyclotomic_degree(12) == 4
        assert factored == []
        n = 10 ** 18 + 9
        assert rings.cyclotomic_degree(n) == totient(n)
        assert factored == [n] and n not in rings._CYCLOTOMIC_CACHE


class TestLaurent:
    def test_valuation_normalization(self):
        f = L(0, 0, 0, 3, 1)
        assert f.val == 2 and f.body == P(3, 1)

    def test_zero_valuation(self):
        assert LaurentPoly.zero(ZZ).val == 0

    def test_min_max_exp(self):
        f = L(-2, 1, 0, 0, 7)
        assert f.val == -2

    @pytest.mark.parametrize("val", [1.5, True, "2"])
    def test_valuation_must_be_an_int(self, val):
        # a bool printed as t^True and a float failed later in cleared_rows
        with pytest.raises(PreconditionError, match="bad valuation"):
            LaurentPoly(ZZ, val, [1, 1])

    @pytest.mark.parametrize("ring", [GF(5), QQ])
    def test_body_over_other_ring_rejected(self, ring):
        # a residue 3 over GF(5) is not the integer 3
        with pytest.raises(PreconditionError, match="body over"):
            LaurentPoly(ZZ, 0, Poly(ring, (3,)))


FIELDS = [QQ, GF(2), GF(7), GF(2**31 - 1)]
big_ints = st.integers(-10**12, 10**12)
rationals = st.one_of(big_ints, st.fractions(-10**12, 10**12, max_denominator=10**6))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.lists(rationals, max_size=9),
       st.lists(rationals, max_size=5), rationals)
@example(QQ, [1], [], -1)
@example(QQ, [5, 0, -3, 7], [2], -1)
def test_divmod_identity(field, a_cs, b_cs, lead):
    # helpers.poly_divmod, the long division of the oracles: a = q*b + r
    # with deg r < deg b; Fraction coefficients over QQ only, the prime
    # fields see numerators
    p = field.char
    if p:
        a_cs = [c.numerator for c in a_cs]
        b_cs = [c.numerator for c in b_cs]
        lead = lead.numerator
    if field.coerce(lead) == 0:
        lead += 1
    b = b_cs + [lead]
    q, r = poly_divmod(a_cs, b, p)
    assert Poly(field, poly_add(poly_mul(q, b, p), r, p)) == Poly(field, a_cs)
    assert len(r) < len(b)
    if p:
        assert all(type(c) is int and 0 <= c < p for c in q + r)


def test_prime_field_needs_an_int(monkeypatch):
    # 7.0 == 7, so GF(7.0) is refused both before GF(7) is built and after
    monkeypatch.setattr(rings.PrimeField, "_cache", {})
    for _ in range(2):
        with pytest.raises(PreconditionError, match="7.0 is not prime"):
            GF(7.0)
        assert GF(7).p == 7


@pytest.mark.parametrize("p, message", [
    (4, "4 is not prime"), (-7, "-7 is not prime"),
    (2**89 - 1, "word-sized")], ids=str)
def test_prime_field_refusals(p, message):
    with pytest.raises(PreconditionError, match=message):
        GF(p)
