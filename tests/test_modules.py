"""Finite generation over ZZ of modules over ZZ[t, 1/t].

The main oracle is lattice_fg_oracle in helpers.py: a brute-force lattice
stabilization computation in the rational companion model, fully
independent of the eigenvalue criterion under test.  residue_fingen in
helpers.py decides the same question by Smith forms over the residue
fields, and must return the same verdict, witness included, as the
Fitting-ideal route.
"""

import collections
import random
import time
from fractions import Fraction

import pytest

from cyclocover import modules
from cyclocover.errors import PreconditionError
from cyclocover.matrices import LaurentMatrix
from cyclocover.modules import (FreeCokernelError, INFINITE_DIMENSION,
                                ModulePresentation, Property1Result,
                                T_NOT_INTEGRAL, TINV_NOT_INTEGRAL,
                                base_change_residue,
                                finitely_generated_over_Z, minor_gcd,
                                order_ideal, property1_check, relevant_primes)
from cyclocover.normal_forms import laurent_cokernel
from cyclocover.rings import LaurentPoly, Poly, QQ, ZZ

from helpers import (gcd_zz_over_qq, lattice_fg_oracle, laurent_mat_mul,
                     leibniz_det, rand_unimodular_laurent, residue_fingen,
                     same_record)


def P(*cs):
    return Poly(ZZ, cs)


def principal(*cs):
    return ModulePresentation.principal(P(*cs))


class TestOrderIdeal:
    def test_trefoil(self):
        assert order_ideal(principal(1, -1, 1)) == P(1, -1, 1)

    def test_content_excluded(self):
        # 3(t - 1): the canonical order ideal drops the integer content
        assert order_ideal(principal(-3, 3)) == P(-1, 1)

    def test_sign_normalized(self):
        assert order_ideal(principal(1, -1)) == P(-1, 1)

    def test_diagonal(self):
        tm1 = LaurentPoly.from_poly(P(-1, 1))
        z = LaurentPoly.zero(ZZ)
        m = ModulePresentation(2, LaurentMatrix(ZZ, 2, 2, [[tm1, z], [z, tm1]]))
        assert order_ideal(m) == P(1, -2, 1)

    def test_free_module_gives_zero(self):
        assert order_ideal(ModulePresentation.free(2)).is_zero

    def test_minor_gcd_keeps_content(self):
        assert minor_gcd(principal(-6, 3)) == P(-6, 3)


class TestProperty1:
    def test_holds_at_generic_point(self):
        r = property1_check(principal(1, -1, 1), 0)
        assert r.holds() and r.dim == 2

    def test_nonintegral_t(self):
        # coker(2t - 1): t acts as 1/2 over QQ
        r = property1_check(principal(-1, 2), 0)
        assert r.finite_dim and not r.t_integral

    def test_nonintegral_t_inverse(self):
        # coker(t - 2): t integral, t^-1 = 1/2 is not
        r = property1_check(principal(-2, 1), 0)
        assert r.finite_dim and r.t_integral and not r.tinv_integral

    def test_infinite_dim(self):
        r = property1_check(ModulePresentation.free(1), 0)
        assert not r.finite_dim and r.dim is None

    def test_at_prime_everything_algebraic_is_integral(self):
        r = property1_check(principal(-1, 2), 5)
        assert r.holds()

    def test_residue_dimension_drop(self):
        # coker(3): zero over QQ, one-dimensional over F_3
        m = principal(3)
        assert property1_check(m, 0).dim == 0
        assert property1_check(m, 3).dim is None  # free of rank 1 over F_3
        assert not property1_check(m, 3).finite_dim

    def test_base_change_residue_shapes(self):
        factors, free = base_change_residue(principal(1, -1, 1), 7)
        assert free == 0 and sum(f.degree for f in factors) == 2


class TestRelevantPrimes:
    def test_fibered_has_none(self):
        assert relevant_primes(principal(1, -1, 1)) == []

    def test_leading_and_constant(self):
        # 2t^2 + t + 3: primes dividing 2*3
        assert relevant_primes(principal(3, 1, 2)) == [2, 3]

    def test_content_prime(self):
        assert relevant_primes(principal(5, -5)) == [5]

    def test_free_raises(self):
        with pytest.raises(FreeCokernelError):
            relevant_primes(ModulePresentation.free(1))


class TestFinGen:
    # classic worked examples, each confirmed by the lattice oracle
    CASES = [
        ((-1, 1), True),          # t - 1 (unknot)
        ((1, -1, 1), True),       # trefoil
        ((1, -3, 1), True),       # figure eight
        ((-1, 2), False),         # 2t - 1
        ((-2, 1), False),         # t - 2
        ((3, -1, 3), False),      # 3t^2 - t + 3
        ((3,), False),            # coker(3): infinite over F_3
        ((2, -3, 2), False),      # even leading/constant, monic fails mod 2
    ]

    @pytest.mark.parametrize("coeffs,expected", CASES)
    def test_against_oracle(self, coeffs, expected):
        f = P(*coeffs)
        v = finitely_generated_over_Z(ModulePresentation.principal(f))
        assert v.answer is expected
        assert lattice_fg_oracle(f) is expected

    def test_witness_kinds(self):
        v = finitely_generated_over_Z(ModulePresentation.free(1))
        assert v.witness.kind == INFINITE_DIMENSION and v.witness.prime == 0
        v = finitely_generated_over_Z(principal(-1, 2))
        assert v.witness.kind == T_NOT_INTEGRAL
        v = finitely_generated_over_Z(principal(-2, 1))
        assert v.witness.kind == TINV_NOT_INTEGRAL
        v = finitely_generated_over_Z(principal(3))
        assert v.witness.kind == INFINITE_DIMENSION and v.witness.prime == 3

    def test_underlying_rank(self):
        v = finitely_generated_over_Z(principal(1, -1, 1))
        assert v.answer and v.underlying_rank == 2
        v = finitely_generated_over_Z(principal(1, -3, 1))
        assert v.underlying_rank == 2

    def test_zero_generators(self):
        v = finitely_generated_over_Z(ModulePresentation.free(0))
        assert v.answer and v.underlying_rank == 0

    def test_unit_relation(self):
        m = ModulePresentation.principal(LaurentPoly(ZZ, -2, [-1]))
        v = finitely_generated_over_Z(m)
        assert v.answer and v.underlying_rank == 0

    def test_random_principal_against_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            deg = rng.randint(0, 3)
            coeffs = [rng.randint(-3, 3) for _ in range(deg + 1)]
            f = P(*coeffs)
            if f.is_zero:
                continue
            got = finitely_generated_over_Z(ModulePresentation.principal(f))
            assert got.answer is lattice_fg_oracle(f), coeffs

    def test_disguised_presentations(self):
        # multiply the relation matrix by unimodular Laurent matrices on
        # both sides: the module is unchanged
        rng = random.Random(29)
        for coeffs, expected in self.CASES[:6]:
            f = LaurentPoly.from_poly(P(*coeffs))
            z = LaurentPoly.zero(ZZ)
            base = LaurentMatrix(ZZ, 2, 2, [[f, z], [z, 1]])
            u, _ = rand_unimodular_laurent(2, rng)
            v, _ = rand_unimodular_laurent(2, rng)
            m = ModulePresentation(2, laurent_mat_mul(laurent_mat_mul(u, base), v))
            assert finitely_generated_over_Z(m).answer is expected

    def test_relation_matrix_must_be_zz(self):
        with pytest.raises(PreconditionError, match="over ZZ"):
            ModulePresentation(1, LaurentMatrix(QQ, 1, 1,
                                                [[LaurentPoly.const(QQ, 1)]]))

    @pytest.mark.parametrize("relations", [[[1]], None], ids=str)
    def test_relations_must_be_a_laurent_matrix(self, relations):
        # [[1]] used to end in an AttributeError
        with pytest.raises(PreconditionError,
                           match="relations is not a LaurentMatrix"):
            ModulePresentation(1, relations)

    def test_row_count_must_match(self):
        with pytest.raises(ValueError):
            ModulePresentation(2, LaurentMatrix.zero(ZZ, 1, 1))

    @pytest.mark.parametrize("generators", [1.0, True, -1])
    def test_generator_count_must_be_a_count(self, generators):
        with pytest.raises(PreconditionError):
            ModulePresentation(generators, LaurentMatrix(ZZ, 1, 0, [[]]))

    @pytest.mark.parametrize("f,kind,witness", [
        # [DERIVED] diag(2t - 1, 2t - 1): t acts as 1/2 on QQ^2, so the
        # characteristic polynomial is (t - 1/2)^2 = t^2 - t + 1/4
        (P(-1, 2), T_NOT_INTEGRAL, Poly(QQ, (Fraction(1, 4), -1, 1))),
        # [DERIVED] diag(t - 3, t - 3): (t - 3)^2 = t^2 - 6t + 9
        (P(-3, 1), TINV_NOT_INTEGRAL, Poly(QQ, (9, -6, 1))),
    ])
    def test_witness_is_characteristic_polynomial(self, f, kind, witness):
        f = LaurentPoly.from_poly(f)
        z = LaurentPoly.zero(ZZ)
        m = ModulePresentation(2, LaurentMatrix(ZZ, 2, 2, [[f, z], [z, f]]))
        v = finitely_generated_over_Z(m)
        assert v.witness.kind == kind and v.witness.factor == witness
        assert same_record(v, residue_fingen(m))


class TestFiberedCondition:
    def test_fg_iff_monic_and_unit_constant(self):
        # for principal coker(f) with f != 0: finitely generated over ZZ
        # iff the primitive part is monic with constant +-1 (both ends unit)
        rng = random.Random(31)
        seen_true = seen_false = 0
        for _ in range(80):
            deg = rng.randint(1, 3)
            coeffs = [rng.randint(-2, 2) for _ in range(deg)] + [rng.choice([1, -1, 2])]
            f = P(*coeffs)
            if f.is_zero or f.constant == 0:
                continue
            prim = f.primitive()
            fibered = (abs(f.content()) == 1 and abs(prim.leading) == 1
                       and prim.constant in (1, -1))
            got = finitely_generated_over_Z(ModulePresentation.principal(f))
            assert got.answer is fibered, coeffs
            seen_true += fibered
            seen_false += not fibered
        assert seen_true > 5 and seen_false > 5


def _random_summand(rng):
    """Laurent polynomial of degree <= 2, often with non-unit ends or content 2."""
    deg = rng.randint(0, 2)
    cs = [rng.choice([1, -1, 2, -2, 3])]
    if deg:
        cs += [rng.randint(-2, 2) for _ in range(deg - 1)]
        cs.append(rng.choice([1, -1, 2, 3]))
    if rng.random() < 0.2:
        cs = [2 * c for c in cs]
    return LaurentPoly(ZZ, rng.randint(-1, 1), cs)


def _disguised_sum(rng):
    k = rng.randint(1, 3)
    z = LaurentPoly.zero(ZZ)
    base = LaurentMatrix(ZZ, k, k, [[_random_summand(rng) if i == j else z
                                     for j in range(k)] for i in range(k)])
    u, _ = rand_unimodular_laurent(k, rng, 3)
    v, _ = rand_unimodular_laurent(k, rng, 3)
    return ModulePresentation(k, laurent_mat_mul(laurent_mat_mul(u, base), v))


def _dense(rng):
    """g x r with g <= 3, r from g - 1 to g + 2, entries of valuation -1..1."""
    g = rng.randint(0, 3)
    r = rng.randint(max(0, g - 1), g + 2)
    deg = 1 if g == 3 else 2
    rows = [[LaurentPoly(ZZ, rng.randint(-1, 1),
                         [rng.randint(-3, 3) for _ in range(rng.randint(0, deg) + 1)])
             for _ in range(r)] for _ in range(g)]
    return ModulePresentation(g, LaurentMatrix(ZZ, g, r, rows))


def _smith_property1(m):
    """property1_check(m, 0) read off the Smith form over QQ[t]."""
    factors, free_rank = laurent_cokernel(m.relations, QQ)
    if free_rank > 0:
        return Property1Result(False, False, False, None)
    t_ok = all(c.denominator == 1 for f in factors for c in f.coeffs)
    tinv_ok = t_ok and all(f.constant in (1, -1) for f in factors)
    return Property1Result(True, t_ok, tinv_ok, sum(f.degree for f in factors))


class TestAgainstResidueFields:
    def test_random_presentations(self):
        rng = random.Random(41)
        seen = collections.Counter()
        for i in range(300):
            m = _disguised_sum(rng) if i % 2 == 0 else _dense(rng)
            got = finitely_generated_over_Z(m)
            assert same_record(got, residue_fingen(m)), (i, m.relations.entries)
            assert same_record(property1_check(m, 0), _smith_property1(m)), \
                (i, m.relations.entries)
            w = got.witness
            seen[(got.answer, w and w.kind, w and w.prime > 0,
                  got.underlying_rank is not None)] += 1
        for kind in [(True, None, None, True), (True, None, None, False),
                     (False, INFINITE_DIMENSION, False, False),
                     (False, INFINITE_DIMENSION, True, False),
                     (False, T_NOT_INTEGRAL, False, False),
                     (False, TINV_NOT_INTEGRAL, False, False)]:
            assert seen[kind] >= 10, (kind, seen)


class TestFittingRoute:
    def _count_calls(self, monkeypatch):
        calls = {"minor_gcd": 0, "laurent_cokernel": 0}
        for name in calls:
            def counted(*args, _real=getattr(modules, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(modules, name, counted)
        return calls

    def test_yes_needs_no_smith_form(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        assert finitely_generated_over_Z(principal(1, -1, 1)).answer
        assert calls == {"minor_gcd": 1, "laurent_cokernel": 0}

    def test_content_no_needs_no_smith_form(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        v = finitely_generated_over_Z(principal(3))
        assert v.witness.prime == 3 and v.relevant_primes == (3,)
        assert calls == {"minor_gcd": 1, "laurent_cokernel": 0}

    def test_witness_factor_needs_no_smith_form(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        v = finitely_generated_over_Z(principal(-1, 2))
        assert v.witness.kind == T_NOT_INTEGRAL
        assert v.witness.factor == Poly(QQ, (Fraction(-1, 2), 1))
        assert calls == {"minor_gcd": 1, "laurent_cokernel": 0}

    def test_generic_property1_needs_no_smith_form(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        r = property1_check(principal(-2, 1), 0)
        assert r.finite_dim and r.t_integral and not r.tinv_integral
        assert calls == {"minor_gcd": 1, "laurent_cokernel": 0}

    @staticmethod
    def _dense_5x9():
        # the Smith form over QQ[t] of this presentation runs for minutes
        rng = random.Random(3)
        return [[Poly(ZZ, [rng.randint(-3, 3) for _ in range(3)])
                 for _ in range(9)] for _ in range(5)]

    def test_dense_5x9_is_fast(self):
        rows = self._dense_5x9()
        m = ModulePresentation(5, LaurentMatrix(
            ZZ, 5, 9, [[LaurentPoly.from_poly(f) for f in row] for row in rows]))
        start = time.perf_counter()
        v = finitely_generated_over_Z(m)
        elapsed = time.perf_counter() - start
        assert v.answer and v.underlying_rank is None and elapsed < 2.0
        # independent check: three maximal minors, as Leibniz sums, are
        # already coprime by Euclid over QQ[t]
        g = []
        for cols in ((0, 1, 2, 3, 4), (4, 5, 6, 7, 8), (0, 2, 4, 6, 8)):
            minor = leibniz_det([[row[j].coeffs for j in cols] for row in rows])
            g = gcd_zz_over_qq(g, minor)
        assert g == [1]

    def test_dense_5x9_witness_is_fast(self):
        # the 5x9 block-summed with coker(2t - 1): a generic "no" whose
        # witness needs no Smith form of the 5x9
        z = LaurentPoly.zero(ZZ)
        rows = [[LaurentPoly.from_poly(f) for f in row] + [z]
                for row in self._dense_5x9()]
        rows.append([z] * 9 + [LaurentPoly.from_poly(P(-1, 2))])
        m = ModulePresentation(6, LaurentMatrix(ZZ, 6, 10, rows))
        start = time.perf_counter()
        v = finitely_generated_over_Z(m)
        elapsed = time.perf_counter() - start
        assert not v.answer and v.witness.kind == T_NOT_INTEGRAL
        assert v.witness.factor == Poly(QQ, (Fraction(-1, 2), 1))
        assert elapsed < 2.0

    def test_dense_7x13_content_no_is_fast(self):
        # a dense 6x12 degree-2 block plus coker(2): every maximal minor is
        # even, so the minor gcd has no early exit and visits all
        # C(7, 7) * C(13, 7) = 1716 minors
        rng = random.Random(7)
        z = LaurentPoly.zero(ZZ)
        rows = [[LaurentPoly.from_poly(Poly(ZZ, [rng.randint(-3, 3) for _ in range(3)]))
                 for _ in range(12)] + [z] for _ in range(6)]
        rows.append([z] * 12 + [LaurentPoly.const(ZZ, 2)])
        m = ModulePresentation(7, LaurentMatrix(ZZ, 7, 13, rows))
        start = time.perf_counter()
        v = finitely_generated_over_Z(m)
        elapsed = time.perf_counter() - start
        assert not v.answer and v.witness.prime == 2
        assert v.relevant_primes == (2,)
        assert elapsed < 2.0
