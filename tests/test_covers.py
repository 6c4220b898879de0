"""Mapping tori, infinite and finite cyclic cover homology, Wang dimensions.

Primary cross-check: on random mapping tori and on complexes with a free
part, the finite-cover homology read off the infinite-cover invariant
factors (and the Wang dimensions, where defined) must agree with the
direct ker/im oracle in `helpers`: equal dimensions and similar t-actions.
The infinite-cover factors must match the hand-derivable expected factors
of t*I - f_* on homology.
"""

import random
import sys
import time
from fractions import Fraction

import pytest

from cyclocover import covers, matrices, normal_forms, rings
from cyclocover.covers import (FreeHomologyError, SelfCoverWitness,
                               TwistedChainComplex, cover_dimensions,
                               cover_homology_field, dimension_bound_check,
                               infinite_cover_homology_field,
                               mapping_torus_complex, t_action_matrix,
                               verify_self_cover_relation, wang_dimensions)
from cyclocover.errors import PreconditionError
from cyclocover.matrices import LaurentMatrix, mat_identity, mat_pow
from cyclocover.normal_forms import char_poly
from cyclocover.rings import GF, LaurentPoly, Poly, QQ, ZZ

from helpers import (cone_boundaries, direct_cover_homology, gcd_zz_over_qq,
                     laurent_mat_mul, minor_gcd_oracle, monic_gcd, poly_mul,
                     rand_unimodular_laurent, random_chain_endo, smith_oracle,
                     strip_t_power)


def trefoil():
    # circle with one 0-cell and two 1-cells, monodromy [[1,-1],[1,0]]
    return mapping_torus_complex([1, 2], [[[0, 0]]], [[[1]], [[1, -1], [1, 0]]])


def circle():
    return mapping_torus_complex([1], [], [[[1]]])


def klein():
    # identity on H_0, multiplication by -1 on H_1
    return mapping_torus_complex([1, 1], [[[0]]], [[[1]], [[-1]]])


def expected_factors(m, field=QQ):
    """Invariant factors over kappa[t,1/t] of t*I - m, as Polys, via the
    Smith form over kappa[t] by Euclid on coefficient lists
    (`helpers.smith_oracle`).

    For an invertible m these decide m up to similarity.
    """
    rows = [[[-m[i][j], 1] if i == j else [-m[i][j]] for j in range(len(m))]
            for i in range(len(m))]
    factors = (strip_t_power(f) for f in smith_oracle(rows, field.char)[0])
    return [Poly(field, f) for f in factors if len(f) > 1]


def check_against_oracle(x, field, q):
    """cover_homology_field vs the direct oracle; returns the oracle's dims."""
    got = cover_homology_field(x, field, q)
    want = direct_cover_homology(x, field, q)
    dims = [d for d, _ in want]
    assert [d for d, _ in got] == dims, (x, field, q)
    for j, ((_, a), (_, b)) in enumerate(zip(got, want)):
        assert expected_factors(a, field) == expected_factors(b, field), (x, field, q, j)
    return dims


def disguised(ranks, boundaries, rng):
    """The complex with each d_j replaced by u_{j-1} d_j u_j^-1, u_j unimodular."""
    us = [rand_unimodular_laurent(n, rng, steps=6) for n in ranks]
    return TwistedChainComplex(ranks, [
        laurent_mat_mul(laurent_mat_mul(us[j - 1][0], d), us[j][1])
        for j, d in enumerate(boundaries, start=1)])


def lp(*cs):
    return LaurentPoly.from_poly(Poly(ZZ, cs))


def anosov():
    # monodromy [[2, 1], [1, 1]] on H_1: t^2 - 3t + 1 has no root of unity
    return mapping_torus_complex([1, 2], [[[0, 0]]], [[[1]], [[2, 1], [1, 1]]])


def coker_2t_minus_1():
    # H_0(X_inf; QQ) = QQ[t]/(t - 1/2): an invariant factor outside ZZ[t]
    return TwistedChainComplex([1, 1], [LaurentMatrix(ZZ, 1, 1, [[lp(-1, 2)]])])


def free_part_complexes():
    """[t-1, t-1] (free H_1) and its transpose [[t-1], [t-1]] (free H_0)."""
    tm1 = LaurentPoly.from_poly(Poly(ZZ, (-1, 1)))
    return [TwistedChainComplex([1, 2], [LaurentMatrix(ZZ, 1, 2, [[tm1, tm1]])]),
            TwistedChainComplex([2, 1], [LaurentMatrix(ZZ, 2, 1, [[tm1], [tm1]])])]


class TestMappingTorus:
    def test_circle(self):
        x = circle()
        assert x.ranks == (1, 1)
        inf = infinite_cover_homology_field(x, QQ)
        assert inf == [([Poly(QQ, (-1, 1))], 0), ([], 0)]

    def test_trefoil_homology(self):
        inf = infinite_cover_homology_field(trefoil(), QQ)
        assert inf[0] == ([Poly(QQ, (-1, 1))], 0)
        assert inf[1] == ([Poly(QQ, (1, -1, 1))], 0)
        assert inf[2] == ([], 0)

    def test_klein_homology(self):
        inf = infinite_cover_homology_field(klein(), QQ)
        assert inf[0] == ([Poly(QQ, (-1, 1))], 0)
        assert inf[1] == ([Poly(QQ, (1, 1))], 0)
        assert inf[2] == ([], 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_cone_block_formula(self, seed):
        # the fibre's end maps enter the cone as empty blocks; the helper
        # writes every entry of [[dF_j, t - f_{j-1}], [0, -dF_{j-1}]] out on
        # its own, with the fibre read as rank 0 off its ends
        rng = random.Random(3800 + seed)
        fibres = [random_chain_endo(rng)[:3] for _ in range(100)] + [
            ([], [], []), ([0], [], [[]]),
            ([2, 0], [[[], []]], [[[1, 2], [3, 4]], []]),
            ([0, 3], [[]], [[], [[1, 0, 0], [0, 2, 0], [0, 0, 3]]])]
        for fibre in fibres:
            x = mapping_torus_complex(*fibre)
            assert (list(x.ranks), list(x.boundaries)) == cone_boundaries(*fibre), fibre

    def test_boundary_composition_validated(self):
        b2 = LaurentMatrix(ZZ, 1, 1, [[1]])
        b1 = LaurentMatrix(ZZ, 1, 1, [[1]])
        with pytest.raises(ValueError, match="composition"):
            TwistedChainComplex([1, 1, 1], [b1, b2])

    def test_boundary_shape_validated(self):
        with pytest.raises(PreconditionError, match="boundary 1 is not 1x2"):
            TwistedChainComplex([1, 2], [LaurentMatrix(ZZ, 1, 1, [[1]])])

    @pytest.mark.parametrize("b", [[[1, 1]], [[1]], [[1, 1], [1]]], ids=str)
    def test_raw_grid_boundary_refused(self, b):
        # a boundary is a LaurentMatrix; a grid is refused whatever its
        # shape, one that fits the ranks included
        with pytest.raises(PreconditionError,
                           match="boundary 1 is not a LaurentMatrix"):
            TwistedChainComplex([1, 2], [b])

    @pytest.mark.parametrize("ranks", [[1.0], [True, 1], [-1], [1, -1], ["1"]],
                             ids=str)
    def test_rank_must_be_a_count(self, ranks):
        # a float, a bool or a negative rank is refused before any boundary
        # is looked at; 1.0 used to build and report free rank 1.0
        boundaries = [[[0]]] if len(ranks) == 2 else []
        with pytest.raises(PreconditionError, match="bad rank list"):
            TwistedChainComplex(ranks, boundaries)

    @pytest.mark.parametrize("rank", [True, 1.0, -1, "1"], ids=repr)
    def test_fibre_rank_must_be_a_count(self, rank):
        # [True] used to build ranks (1, 1), and [1.0] to end in a TypeError
        with pytest.raises(PreconditionError, match="bad rank list"):
            mapping_torus_complex([rank], [], [[[1]]])

    @pytest.mark.parametrize("f", [[[[True]]], [[[1.5]]], [[["1"]]]], ids=str)
    def test_endomorphism_entries_are_ints(self, f):
        # [[True]] used to build, read as 1, and [[1.5]] to end in a
        # TypeError
        with pytest.raises(PreconditionError,
                           match=r"^f\[0\] is not an integer matrix$"):
            mapping_torus_complex([1], [], f)

    @pytest.mark.parametrize("bnds, f, message", [
        ([[[0.5]]], [[[1]], [[1]]], "boundary 1 is not an integer matrix"),
        ([[[0], [0]]], [[[1]], [[1]]], "boundary 1 is not 1x1"),
        ([[[0]]], [[[1]], [[1, 0]]], r"f\[1\] is not 1x1")], ids=str)
    def test_blocks_checked(self, bnds, f, message):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            mapping_torus_complex([1, 1], bnds, f)

    def test_noncommuting_endomorphism_rejected(self):
        # f_0 dF_1 - dF_1 f_1 is the off-diagonal block of the cone's d o d
        with pytest.raises(PreconditionError, match="composition"):
            mapping_torus_complex([1, 1], [[[1]]], [[[1]], [[2]]])

    def test_t_acts_as_f(self):
        # [DERIVED] torus of multiplication by 3 on a point: H_0 = coker(t-3)
        x = mapping_torus_complex([1], [], [[[3]]])
        inf = infinite_cover_homology_field(x, QQ)
        assert inf[0] == ([Poly(QQ, (-3, 1))], 0)

    def test_random_identity(self):
        # factors of H_j(torus of f) match those of t*I - f_* on H_j(F)
        rng = random.Random(101)
        for _ in range(40):
            ranks, bnds, f, hom = random_chain_endo(rng)
            x = mapping_torus_complex(ranks, bnds, f)
            inf = infinite_cover_homology_field(x, QQ)
            for j, blk in enumerate(hom):
                factors, free = inf[j]
                assert free == 0
                assert factors == expected_factors(blk), (j, blk)
            # top degree is the shifted copy; torus of an n-complex has n+1
            assert len(inf) == len(ranks) + 1

    def test_random_8x8_monodromy_over_qq_is_fast(self):
        # the fraction-free Smith loop keeps coefficient growth in check;
        # H_0 of the torus is coker(tI - A), whose factors multiply to
        # char_poly(A)
        rng = random.Random(8001)
        a = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(8)]
        x = mapping_torus_complex([8], [], [a])
        start = time.perf_counter()
        inf = infinite_cover_homology_field(x, QQ)
        assert time.perf_counter() - start < 2
        factors, free = inf[0]
        prod = [1]
        for f in factors:
            prod = poly_mul(prod, f.coeffs)
        assert free == 0 and Poly(QQ, prod) == Poly(QQ, char_poly(a).coeffs)


class TestOneSmithFormPerBoundary:
    def test_call_counts(self, monkeypatch):
        calls = {"laurent_cokernel": 0, "_smith_lists": 0}
        for mod, name in ((covers, "laurent_cokernel"),
                          (normal_forms, "_smith_lists")):
            def counted(*args, _real=getattr(mod, name), _name=name):
                calls[_name] += 1
                if _name == "laurent_cokernel":
                    # the boundary over ZZ itself, with the field beside it
                    mat, field = args
                    assert mat.ring is ZZ and field is QQ
                return _real(*args)
            monkeypatch.setattr(mod, name, counted)
        x = trefoil()
        infinite_cover_homology_field(x, QQ)
        # the zero boundaries 0 and top + 1 need no cokernel, so each of
        # the two inner boundaries takes one cokernel and one Smith form
        assert calls == {"laurent_cokernel": len(x.boundaries),
                         "_smith_lists": 2}

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    def test_end_boundaries_skipped(self, field):
        # [DERIVED] the zero maps off the ends contribute rank 0 and no
        # torsion, so a complex without boundaries is free in each degree
        assert infinite_cover_homology_field(
            TwistedChainComplex([2], []), field) == [([], 2)]
        empty = LaurentMatrix(ZZ, 0, 3, [])
        assert infinite_cover_homology_field(
            TwistedChainComplex([0, 3], [empty]), field) == [([], 0), ([], 3)]
        x = trefoil()
        assert infinite_cover_homology_field(x, field) == [
            ([Poly(field, (-1, 1))], 0), ([Poly(field, (1, -1, 1))], 0), ([], 0)]
        for q in range(1, 8):
            check_against_oracle(x, field, q)

    # Known answers by construction: boundary entries, and per field the
    # (factors, free rank) of H_0, H_1, ..., as integer coefficient tuples,
    # lowest degree first.  Over GF(2), t - 2 = t is a unit of
    # kappa[t, 1/t] and drops out.
    CASES = {
        # H_1 = coker(t^2 - t + 1) + free of rank 1; H_0 = coker(t - 1)
        "torsion_and_free": (
            [1, 3, 1],
            [[[(), (), (-1, 1)]], [[(1, -1, 1)], [()], [()]]],
            {QQ: [([(-1, 1)], 0), ([(1, -1, 1)], 1), ([], 0)],
             GF(2): [([(1, 1)], 0), ([(1, 1, 1)], 1), ([], 0)],
             GF(5): [([(4, 1)], 0), ([(1, 4, 1)], 1), ([], 0)]}),
        # nothing in degree 1: both boundaries are empty matrices
        "rank_zero_middle": (
            [1, 0, 1],
            [[[]], []],
            {field: [([], 1), ([], 0), ([], 1)] for field in (QQ, GF(2), GF(5))}),
        # H_0 = coker(t - 2) + free of rank 1
        "t_minus_2_beside_free": (
            [2, 1],
            [[[(-2, 1)], [()]]],
            {QQ: [([(-2, 1)], 1), ([], 0)],
             GF(2): [([], 1), ([], 0)],
             GF(5): [([(3, 1)], 1), ([], 0)]}),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_known_answers_disguised(self, name):
        ranks, bnds, want = self.CASES[name]
        bnds = [LaurentMatrix(ZZ, ranks[j - 1], ranks[j],
                              [[lp(*cs) for cs in row] for row in b])
                for j, b in enumerate(bnds, start=1)]
        rng = random.Random(404)
        for _ in range(5):
            x = disguised(ranks, bnds, rng)
            for field, degrees in want.items():
                expect = [([Poly(field, cs) for cs in fs], free) for fs, free in degrees]
                assert infinite_cover_homology_field(x, field) == expect, (name, field)


class TestWang:
    def test_trefoil_q6(self):
        # [DERIVED] t^6-1 is divisible by both t-1 and t^2-t+1
        assert wang_dimensions(trefoil(), QQ, 6) == [1, 3, 2]

    def test_trefoil_q5(self):
        assert wang_dimensions(trefoil(), QQ, 5) == [1, 1, 0]

    def test_trefoil_q1(self):
        assert wang_dimensions(trefoil(), QQ, 1) == [1, 1, 0]

    def test_klein(self):
        assert wang_dimensions(klein(), QQ, 2) == [1, 2, 1]
        assert wang_dimensions(klein(), QQ, 3) == [1, 1, 0]

    def test_char_2_collapse(self):
        # over F_2, t + 1 = t - 1 divides t^q - 1 for all q
        assert wang_dimensions(klein(), GF(2), 3) == [1, 2, 1]

    def test_free_part_raises(self):
        tm1 = LaurentPoly.from_poly(Poly(ZZ, (-1, 1)))
        x = TwistedChainComplex([2, 1], [LaurentMatrix(ZZ, 2, 1, [[tm1], [tm1]])])
        with pytest.raises(FreeHomologyError):
            wang_dimensions(x, QQ, 2)

    def test_bad_q(self):
        # q is an int >= 1 and not a bool: 2.5 gave float dimensions over
        # QQ and a TypeError over GF(5), and True was read as q = 1
        x = mapping_torus_complex([1, 2], [[[0, 0]]], [[[1]], [[0, -1], [1, -1]]])
        for q in (0, -3, 2.5, 6.0, True, "3"):
            for field in (QQ, GF(5)):
                with pytest.raises(PreconditionError, match="q must be"):
                    wang_dimensions(x, field, q)
                with pytest.raises(PreconditionError, match="q must be"):
                    cover_homology_field(x, field, q)
                with pytest.raises(PreconditionError, match="q must be"):
                    cover_dimensions(x, field, [2, q])

    @pytest.mark.parametrize("field", [QQ, GF(5)])
    def test_trefoil_huge_q_is_fast(self, field):
        # [DERIVED] t^2 - t + 1 divides t^q - 1 iff 6 | q, over QQ and
        # over GF(5) (where it is irreducible); 10^18 = 4 mod 6
        start = time.perf_counter()
        assert wang_dimensions(trefoil(), field, 10**18) == [1, 1, 0]
        assert wang_dimensions(trefoil(), field, 6 * 10**17) == [1, 3, 2]
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("q", [10**6, 10**18])
    def test_anosov_huge_q_is_fast(self, q):
        # [DERIVED] t^2 - 3t + 1 has no root of unity, so gcd(f, t^q - 1) = 1
        # for it at every q; over QQ no t^q mod f is formed, whose
        # coefficients would have about q bits
        x = anosov()
        start = time.perf_counter()
        assert wang_dimensions(x, QQ, q) == [1, 1, 0]
        assert [d for d, _ in cover_homology_field(x, QQ, q)] == [1, 1, 0]
        assert time.perf_counter() - start < 0.1

    def test_free_part_at_huge_q_raises(self):
        # the free rank is checked before any t^q - 1 is built
        with pytest.raises(FreeHomologyError):
            wang_dimensions(free_part_complexes()[0], QQ, 10**18)


class TestTqModF:
    """gcd(f, t^q - 1) is taken from the cyclotomic divisors of f over QQ
    and as gcd(f, (t^q mod f) - 1) over GF(p)."""

    @staticmethod
    def via_tq1(x, field, q):
        """cover_homology_field by gcds with t^q - 1 itself."""
        tq1 = Poly(field, [-1] + [0] * (q - 1) + [1])
        out, below = [], []
        for factors, free_rank in infinite_cover_homology_field(x, field):
            here = [Poly(field, monic_gcd(f.coeffs, tq1.coeffs, field.char))
                    for f in factors]
            blocks = [g for g in here + [tq1] * free_rank + below if g.degree > 0]
            out.append((sum(g.degree for g in blocks), t_action_matrix(blocks, field)))
            below = here
        return out

    def test_agrees_with_tq1_route(self):
        rng = random.Random(404)
        # rotation by 90 degrees: t^2 + 1 splits over GF(5), not over QQ
        rotation = mapping_torus_complex([1, 2], [[[0, 0]]], [[[1]], [[0, -1], [1, 0]]])
        tori = [trefoil(), klein(), rotation, anosov(), coker_2t_minus_1()]
        tori += free_part_complexes()
        tori += [mapping_torus_complex(*random_chain_endo(rng)[:3]) for _ in range(4)]
        for x in tori:
            for field in (QQ, GF(5)):
                # 5, 10 and 25 are multiples of the characteristic of GF(5)
                for q in (1, 2, 3, 4, 5, 6, 7, 10, 12, 25, 60, 97, 200):
                    assert cover_homology_field(x, field, q) == self.via_tq1(x, field, q), \
                        (x.ranks, field, q)


class TestDirectCover:
    def test_circle_q3(self):
        out = cover_homology_field(circle(), QQ, 3)
        assert [d for d, _ in out] == [1, 1]
        # t acts trivially on H_0 of the connected cover
        assert out[0][1] == [[QQ.coerce(1)]]

    def test_trefoil_q6_dims_and_action(self):
        out = cover_homology_field(trefoil(), QQ, 6)
        assert [d for d, _ in out] == [1, 3, 2]
        # induced t on H_1 has characteristic roots at 1 and the primitive
        # sixth roots: char poly (t-1)(t^2-t+1)
        act = [[QQ.coerce(x) for x in row] for row in out[1][1]]
        ints = [[int(x) for x in row] for row in act]
        assert char_poly(ints) == Poly(ZZ, (-1, 2, -2, 1))

    def test_agrees_with_wang_on_random_tori(self):
        # both routes against the direct oracle, not against each other
        rng = random.Random(202)
        for _ in range(12):
            ranks, bnds, f, _ = random_chain_endo(rng)
            x = mapping_torus_complex(ranks, bnds, f)
            for q in (1, 2, 3):
                dims = check_against_oracle(x, QQ, q)
                assert wang_dimensions(x, QQ, q) == dims, (ranks, q)

    def test_free_part_agrees_with_oracle(self):
        # only the oracle checks the t^q - 1 blocks of a free part
        for x in free_part_complexes():
            for field in (QQ, GF(2), GF(5)):
                for q in range(1, 9):
                    check_against_oracle(x, field, q)

    def test_gf5_action_entries_are_residues(self):
        # the companion column negates t^2 - t + 1's low coefficients
        out = cover_homology_field(trefoil(), GF(5), 6)
        assert [d for d, _ in out] == [1, 3, 2]
        assert out[2][1] == [[0, 4], [1, 1]]
        for _, act in out:
            assert all(type(x) is int and 0 <= x < 5 for row in act for x in row)

    def test_euler_characteristic(self):
        # chi(X_q) = q * chi(X), degreewise over any field
        rng = random.Random(303)
        for _ in range(8):
            ranks, bnds, f, _ = random_chain_endo(rng)
            x = mapping_torus_complex(ranks, bnds, f)
            chi_cells = sum((-1) ** j * r for j, r in enumerate(x.ranks))
            for q in (1, 2, 4):
                dims = [d for d, _ in cover_homology_field(x, QQ, q)]
                chi = sum((-1) ** j * d for j, d in enumerate(dims))
                assert chi == q * chi_cells

    def test_action_has_order_q_eigenvalues(self):
        # t^q acts as the deck-complete cycle, hence trivially on homology
        out = cover_homology_field(trefoil(), QQ, 6)
        for dim, act in out:
            if dim == 0:
                continue
            p6 = mat_pow(act, 6)
            assert p6 == [[QQ.coerce(int(i == j)) for j in range(dim)]
                          for i in range(dim)]


def torus_of_poly(coeffs):
    """The complex with H_0 = coker(f), f given by its coefficients."""
    f = LaurentPoly.from_poly(Poly(ZZ, coeffs))
    return TwistedChainComplex([1, 1], [LaurentMatrix(ZZ, 1, 1, [[f]])])


# every integral witness the self-cover tests below use:
# (complex, k, sign, hbar, per-degree answer)
WITNESSES = [
    (trefoil, 5, 1, [[[1]], [[1, 1], [0, -1]], []], [True, True, True]),
    (trefoil, 5, 1, [[[1]], [[1, 0], [0, 1]], []], [True, False, True]),
    (klein, 3, -1, [[[1]], [[1]], []], [True, True, True]),
    (trefoil, 7, -1, [[[1]], [[1, 1], [0, -1]], []], [True, True, True]),
    (trefoil, 7, -1, [[[1]], [[1, 0], [0, 1]], []], [True, False, True]),
    (trefoil, 5, -1, [[[1]], [[1, 0], [0, 1]], []], [True, True, True]),
    (trefoil, 10**18 + 1, -1, [[[1]], [[1, 1], [0, -1]], []], [True, False, True]),
    (trefoil, 10**18 + 1, -1, [[[1]], [[1, 0], [0, 1]], []], [True, True, True]),
    (lambda: torus_of_poly((-2, 1)), 10**10, 1, [[[1]], []], [False, True]),
    (lambda: torus_of_poly((-1, 2)), 10**10, -1, [[[1]], []], [False, True]),
]


class TestSelfCover:
    @pytest.mark.parametrize("scale", [Fraction(1, 3), Fraction(-2, 5)], ids=str)
    def test_rational_multiple_of_a_witness(self, scale):
        # hbar enters both sides linearly: a nonzero rational multiple of a
        # witness gives the same answer in every degree, with den > 1 in
        # the cleared integer block
        for complex_of, k, sign, hbar, want in WITNESSES:
            x = complex_of()
            assert verify_self_cover_relation(x, SelfCoverWitness(k, sign, hbar)) == want
            scaled = [[[scale * e for e in row] for row in block] for block in hbar]
            assert verify_self_cover_relation(
                x, SelfCoverWitness(k, sign, scaled)) == want, (k, sign, hbar)

    def test_singular_rational_hbar_rejected(self):
        # the rows of [[1/2, 1], [1, 2]] are proportional; twice it is integral
        hbar = [[[1]], [[Fraction(1, 2), 1], [1, 2]], []]
        with pytest.raises(PreconditionError, match="hbar block 1 is not invertible"):
            verify_self_cover_relation(trefoil(), SelfCoverWitness(5, 1, hbar))

    @pytest.mark.parametrize("hbar, message", [
        (None, "need one hbar block per degree"),
        (5, "need one hbar block per degree"),
        ([[[1]], 5, []], "hbar block 1 is not 2x2"),
        ([[[1]], [[1, 0], 5], []], "hbar block 1 is not 2x2"),
        # the shape is refused before the entry that cannot be coerced
        ([[[1]], [["x"]], []], "hbar block 1 is not 2x2"),
    ], ids=["none", "int", "int block", "int row", "bad entry"])
    def test_hbar_shape_checked_before_its_entries(self, hbar, message):
        with pytest.raises(PreconditionError, match=message):
            verify_self_cover_relation(trefoil(), SelfCoverWitness(5, 1, hbar))

    @pytest.mark.parametrize("sign, residue, want", [
        (1, 1, [True, True]), (-1, -1, [True, True]), (1, 2, [False, True])],
        ids=["plus k=1", "minus k=-1", "plus k=2"])
    def test_k_is_taken_modulo_the_order(self, sign, residue, want):
        # with hbar = I the relation reads T^(sign*k) = T.  T permutes 29
        # cells in cycles of 5, 7, 8 and 9, so it has order m = 2520 and is
        # powered by k mod m; powering by a k of 1000 digits took seconds
        perm = []
        for length in (5, 7, 8, 9):
            start = len(perm)
            perm += [start + (i + 1) % length for i in range(length)]
        n, m = len(perm), 2520
        a = [[int(perm[j] == i) for j in range(n)] for i in range(n)]
        x = mapping_torus_complex([n], [], [a])
        hbar = [mat_identity(n), []]
        k = m * 10**1000 + residue
        start = time.perf_counter()
        got = verify_self_cover_relation(x, SelfCoverWitness(k, sign, hbar))
        assert time.perf_counter() - start < 0.5
        assert got == want
        assert verify_self_cover_relation(
            x, SelfCoverWitness(k % m + m, sign, hbar)) == want

    def test_trefoil_k5(self):
        # t^5 = t^-1 on the order-6 part; conjugation by hbar realizes it
        w = SelfCoverWitness(5, 1, [[[1]], [[1, 1], [0, -1]], []])
        assert verify_self_cover_relation(trefoil(), w) == [True, True, True]

    def test_wrong_witness_detected(self):
        w = SelfCoverWitness(5, 1, [[[1]], [[1, 0], [0, 1]], []])
        assert verify_self_cover_relation(trefoil(), w) == [True, False, True]

    def test_singular_hbar_rejected(self):
        w = SelfCoverWitness(5, 1, [[[1]], [[1, 1], [1, 1]], []])
        with pytest.raises(ValueError, match="invertible"):
            verify_self_cover_relation(trefoil(), w)

    def test_shape_validation(self):
        w = SelfCoverWitness(5, 1, [[[1]], [[1]], []])
        with pytest.raises(ValueError):
            verify_self_cover_relation(trefoil(), w)
        # k is an int > 1 and not a bool; 2.5 used to raise TypeError
        for k in (1, -5, 2.5, 6.0, True, "5"):
            with pytest.raises(PreconditionError, match="k must be"):
                verify_self_cover_relation(trefoil(), SelfCoverWitness(k, 1, []))
        # sign is the int +-1; True == 1 used to pass as +1
        for sign in (0, 2, True, 1.0, "1"):
            with pytest.raises(PreconditionError, match="sign must be"):
                verify_self_cover_relation(trefoil(),
                                           SelfCoverWitness(5, sign, []))

    @pytest.mark.parametrize("hbar", [[[[1]], [[1, 1], [0, -1]]], [[[1]]] * 4, []])
    def test_block_count_checked_before_any_smith_form(self, hbar, monkeypatch):
        def refuse(*args):
            raise AssertionError("laurent_cokernel ran before the input check")
        monkeypatch.setattr(covers, "laurent_cokernel", refuse)
        with pytest.raises(PreconditionError, match="one hbar block per degree"):
            verify_self_cover_relation(trefoil(), SelfCoverWitness(5, 1, hbar))

    def test_sign_minus_one(self):
        # klein H_1 is coker(t+1): t = -1 = t^-1, identity witnesses k=3, sign=-1
        w = SelfCoverWitness(3, -1, [[[1]], [[1]], []])
        assert verify_self_cover_relation(klein(), w) == [True, True, True]

    @pytest.mark.parametrize("k, hbar1, want", [
        # t^7 = t on the order-6 part, so sign -1 needs hbar conjugating
        # t to t^-1, and the identity fails; t^5 = t^-1, so there the
        # identity works
        (7, [[1, 1], [0, -1]], [True, True, True]),
        (7, [[1, 0], [0, 1]], [True, False, True]),
        (5, [[1, 0], [0, 1]], [True, True, True]),
        # 10^18 + 1 = 5 mod 6
        (10**18 + 1, [[1, 1], [0, -1]], [True, False, True]),
        (10**18 + 1, [[1, 0], [0, 1]], [True, True, True]),
    ])
    def test_trefoil_sign_minus_one(self, k, hbar1, want):
        w = SelfCoverWitness(k, -1, [[[1]], hbar1, []])
        assert verify_self_cover_relation(trefoil(), w) == want

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("coeffs", [(-2, 1), (-1, 2)])
    def test_non_root_of_unity_fails_without_powering(self, coeffs, sign):
        # H_0 = coker(t - 2), or coker(2t - 1) with the non-integral root
        # 1/2: T = (2) or (1/2) is not similar to T^(sign k), so the
        # relation fails at k = 10^10 without computing 2^k
        f = LaurentPoly.from_poly(Poly(ZZ, coeffs))
        x = TwistedChainComplex([1, 1], [LaurentMatrix(ZZ, 1, 1, [[f]])])
        w = SelfCoverWitness(10**10, sign, [[[1]], []])
        start = time.perf_counter()
        assert verify_self_cover_relation(x, w) == [False, True]
        assert time.perf_counter() - start < 0.1


class TestDimensionBound:
    def test_mapping_tori_satisfy_bound(self):
        assert dimension_bound_check(trefoil(), QQ, [1, 2, 3, 6])
        assert dimension_bound_check(klein(), QQ, [2, 4])
        uni = mapping_torus_complex([1, 2], [[[0, 0]]], [[[1]], [[1, 1], [0, 1]]])
        assert dimension_bound_check(uni, QQ, [2, 4, 8])

    def test_growing_complex_violates(self):
        tm1 = LaurentPoly.from_poly(Poly(ZZ, (-1, 1)))
        x = TwistedChainComplex([1, 2], [LaurentMatrix(ZZ, 1, 2, [[tm1, tm1]])])
        assert not dimension_bound_check(x, QQ, [2])
        # dim H_1(X_q) = q + 1 grows without bound
        dims = [cover_homology_field(x, QQ, q)[1][0] for q in (2, 4, 8)]
        assert dims == [3, 5, 9]

    def test_iterates_read_once(self):
        # a generator or iterator of q is read once, not used up by the
        # check of each q before the dimensions are computed
        tm1 = LaurentPoly.from_poly(Poly(ZZ, (-1, 1)))
        x = TwistedChainComplex([1, 2], [LaurentMatrix(ZZ, 1, 2, [[tm1, tm1]])])
        assert not dimension_bound_check(x, QQ, (q for q in [2]))
        assert cover_dimensions(x, QQ, iter([2, 4])) == [[1, 3], [1, 5]]
        with pytest.raises(PreconditionError):
            cover_dimensions(x, QQ, (q for q in [2, 0]))

    @pytest.mark.parametrize("q", [covers._T_ACTION_LIMIT, 10**18])
    def test_t_action_limit_refuses_before_building(self, q):
        # dim H_1(X_q) = q + 1 is over the limit, so nothing is allocated
        with pytest.raises(PreconditionError, match=str(covers._T_ACTION_LIMIT)):
            cover_homology_field(free_part_complexes()[0], QQ, q)

    def test_t_action_limit_is_on_the_dimension(self, monkeypatch):
        monkeypatch.setattr(covers, "_T_ACTION_LIMIT", 10)
        x = free_part_complexes()[0]
        assert [d for d, _ in cover_homology_field(x, QQ, 9)] == [1, 10]
        with pytest.raises(PreconditionError, match="dimension 11"):
            cover_homology_field(x, QQ, 10)

    def test_cover_dimensions_one_infinite_cover(self, monkeypatch):
        qs = [1, 2, 5, 6, 12]
        want = [[d for d, _ in cover_homology_field(trefoil(), GF(5), q)] for q in qs]
        calls = []
        real = covers.infinite_cover_homology_field
        monkeypatch.setattr(covers, "infinite_cover_homology_field",
                            lambda *a: calls.append(a) or real(*a))
        assert cover_dimensions(trefoil(), GF(5), qs) == want
        assert dimension_bound_check(trefoil(), GF(5), qs)
        assert len(calls) == 2

    def test_t_action_matrix_block_structure(self):
        f = Poly(QQ, (1, -1, 1))
        g = Poly(QQ, (-1, 1))
        m = t_action_matrix([g, f], QQ)
        assert len(m) == 3
        # [DERIVED] (t - 1)(t^2 - t + 1) = t^3 - 2t^2 + 2t - 1
        assert char_poly([[int(x) for x in row] for row in m]) == \
            Poly(ZZ, (-1, 2, -2, 1))


class TestOraclesAreIndependent:
    """The oracles do not run on the library kernels they check.  With the
    Bareiss loop, `det_int`, `det_coeffs`, the Smith core and every
    coefficient-list kernel of `rings` but `strip_coeffs` (which `Poly`
    construction needs) made to raise under every name a library module or
    `helpers` holds them by, the oracles still return, and give what the
    library gave before."""

    KERNELS = (matrices._bareiss, matrices.det_int, matrices.det_coeffs,
               normal_forms._smith_lists, rings.gcd_zz_coeffs,
               rings.pseudo_divmod, rings.sub_mul_coeffs, rings.mul_coeffs,
               rings.mulmod_coeffs, rings.gcd_gf_coeffs, rings.monic_coeffs)

    def refuse_kernels(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an oracle ran on a library kernel")
        kernels = set(map(id, self.KERNELS))
        patched = 0
        for name, mod in list(sys.modules.items()):
            if (name in ("cyclocover", "helpers")
                    or name.startswith("cyclocover.")):
                for attr, value in list(vars(mod).items()):
                    if id(value) in kernels:
                        monkeypatch.setattr(mod, attr, refuse)
                        patched += 1
        assert patched >= len(self.KERNELS)

    def test_oracles_avoid_the_library_kernels(self, monkeypatch):
        rng = random.Random(4099)

        def entry():
            return LaurentPoly(ZZ, rng.randint(-2, 2),
                               [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])

        mat = LaurentMatrix(ZZ, 3, 4, [[entry() for _ in range(4)] for _ in range(3)])
        gcds = [matrices.laurent_minor_gcd(mat, size) for size in range(4)]
        blocks = [([[0, -1], [1, -1]], QQ), ([[1, 1], [0, 1]], GF(5)),
                  ([[2, 1], [1, 1]], QQ)]
        factors = [infinite_cover_homology_field(
            mapping_torus_complex([2], [], [m]), field)[0][0] for m, field in blocks]
        # [x | x y] times [y ; -I] is zero, x times y is not
        y = LaurentMatrix(ZZ, 4, 2, [[entry() for _ in range(2)] for _ in range(4)])
        xy = laurent_mat_mul(mat, y)
        a = LaurentMatrix(ZZ, 3, 6, [r + s for r, s in zip(mat.entries, xy.entries)])
        b = LaurentMatrix(ZZ, 6, 2, list(y.entries) + [
            [LaurentPoly(ZZ, 0, [-int(i == j)]) for j in range(2)] for i in range(2)])
        pairs = [(mat, y), (a, b)]
        products = [laurent_mat_mul(u, v) for u, v in pairs]
        verdicts = [matrices.laurent_product_is_zero(u, v) for u, v in pairs]
        assert verdicts == [False, True]
        polys = [([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))],
                  [rng.randint(-4, 4) for _ in range(rng.randint(0, 5))])
                 for _ in range(30)]
        polys = [(rings.strip_coeffs(f), rings.strip_coeffs(g)) for f, g in polys]
        polys.append(([-2, 0, 2], [2, -4, 2]))  # [DERIVED] gcd 2(t - 1)
        zz_gcds = [rings.gcd_zz_coeffs(f, g) for f, g in polys]
        self.refuse_kernels(monkeypatch)
        # the library itself now fails on each path
        with pytest.raises(AssertionError, match="library kernel"):
            matrices.laurent_minor_gcd(mat, 2)
        with pytest.raises(AssertionError, match="library kernel"):
            normal_forms.laurent_cokernel(mat, QQ)
        with pytest.raises(AssertionError, match="library kernel"):
            char_poly([[1, 2], [3, 4]])
        with pytest.raises(AssertionError, match="library kernel"):
            rings.gcd_zz_coeffs([-1, 1], [1, 1])
        assert [minor_gcd_oracle(mat, size) for size in range(4)] == gcds
        assert [expected_factors(m, field) for m, field in blocks] == factors
        got = [laurent_mat_mul(u, v) for u, v in pairs]
        assert got == products
        assert [all(e.is_zero for row in p.entries for e in row) for p in got] == verdicts
        assert [gcd_zz_over_qq(f, g) for f, g in polys] == zz_gcds
        assert zz_gcds[-1] == [-2, 2]
        # [DERIVED] the entries have gcd 1 (t - 1 and t + 1 are coprime)
        # and the determinant is -(t - 1)(t + 1): factors 1 and t^2 - 1
        smith_rows = [[[-1, 0, 1], [-1, 1]], [[1, 1], []]]
        assert smith_oracle(smith_rows) == ([[1], [-1, 0, 1]], 2)

    def test_direct_cover_homology_avoids_the_library_kernels(self, monkeypatch):
        # the ker/im oracle eliminates on its own Gauss-Jordan loop, and the
        # library's self-cover check, which decides invertibility by
        # det_int, fails once the kernels are refused
        x = mapping_torus_complex([1, 2], [[[0, 0]]], [[[1]], [[1, -1], [1, 0]]])
        cases = [(QQ, 6), (GF(5), 6), (QQ, 4), (GF(5), 3)]
        want = [direct_cover_homology(x, field, q) for field, q in cases]
        # [DERIVED] by Wang, H_j(X_q) = coker(f^q - 1 | H_j F) + ker(f^q - 1 |
        # H_{j-1} F), and f_* on H_1 F = kappa^2 has order 6 with f^3 = -1:
        # f^q = 1 at q = 6, and f^q - 1 is invertible at q = 4 and at q = 3
        # over GF(5), where f^3 - 1 = -2
        assert [[d for d, _ in out] for out in want] == [[1, 3, 2], [1, 3, 2],
                                                         [1, 1, 0], [1, 1, 0]]
        witness = SelfCoverWitness(5, 1, [[[1]], [[1, 1], [0, -1]], []])
        assert verify_self_cover_relation(x, witness) == [True, True, True]
        self.refuse_kernels(monkeypatch)
        with pytest.raises(AssertionError, match="library kernel"):
            verify_self_cover_relation(x, witness)
        assert [direct_cover_homology(x, field, q) for field, q in cases] == want
