"""Twisted chain complexes, infinite/finite cyclic cover homology, Wang data.

A TwistedChainComplex is a finite free chain complex over ZZ[t, 1/t]; the
boundary in degree j maps degree j to degree j-1 and acts on column
vectors.  Mapping tori of integer chain endomorphisms are built as the
algebraic cone of (t - f).
"""

from typing import List, NamedTuple

from .arith import power
from .errors import (InternalCheckError, PreconditionError, check_count,
                     check_sign, is_count, shown)
from .linfield import rref
from .matrices import (LaurentMatrix, int_mat_check, laurent_product_is_zero,
                       mat_mul, mat_pow)
from .normal_forms import cyclotomic_indices, laurent_cokernel, peel_cyclotomics
from .rings import (Poly, QQ, ZZ, clear_denominators, cyclotomic, gcd_gf_coeffs,
                    mul_coeffs, mulmod_coeffs, sub_mul_coeffs)


class FreeHomologyError(PreconditionError):
    """Infinite-cover homology has a free part where torsion is required."""


# the largest t-action cover_homology_field builds; a free part makes its
# dimension grow with q, so such a q is refused before anything is allocated
_T_ACTION_LIMIT = 2048


class TwistedChainComplex:
    """ranks[j] cells in degree j; boundaries[j-1], a ranks[j-1] x ranks[j]
    LaurentMatrix, is the map C_j -> C_{j-1}, for 1 <= j <= top.  The zero
    maps off the ends are not stored."""

    __slots__ = ("ranks", "boundaries")

    def __init__(self, ranks, boundaries):
        ranks = list(ranks)
        if not all(map(is_count, ranks)):
            raise PreconditionError(f"bad rank list {shown(ranks)}")
        if len(boundaries) != max(len(ranks) - 1, 0):
            raise PreconditionError(
                "need exactly one boundary per adjacent pair of degrees")
        for j, b in enumerate(boundaries, start=1):
            if not isinstance(b, LaurentMatrix):
                raise PreconditionError(f"boundary {j} is not a LaurentMatrix")
            rows, cols = ranks[j - 1], ranks[j]
            if b.nrows != rows or b.ncols != cols:
                raise PreconditionError(f"boundary {j} is not {rows}x{cols}")
        for j in range(1, len(boundaries)):
            if not laurent_product_is_zero(boundaries[j - 1], boundaries[j]):
                raise PreconditionError(
                    f"boundary composition in degree {j + 1} is nonzero")
        self.ranks = tuple(ranks)
        self.boundaries = tuple(boundaries)

    def __repr__(self):
        return f"TwistedChainComplex(ranks={list(self.ranks)})"


class SelfCoverWitness(NamedTuple):
    k: int
    sign: int             # +1 preserves, -1 reverses deck orientation
    hbar: List[list]      # per-degree square rational matrices


def mapping_torus_complex(ranks_f, boundaries_f, f) -> TwistedChainComplex:
    """Algebraic mapping torus: cone of (t - f) on C(F) tensor ZZ[t,1/t].

    `boundaries_f[j-1]` (ranks_f[j-1] x ranks_f[j]) and `f[j]` are integer
    matrices; f must commute with the boundaries degreewise.  The cone's
    d o d has f_{j-1} dF_j - dF_j f_j as its off-diagonal block, so
    `TwistedChainComplex` refuses an f that fails to commute.
    """
    ranks_f = list(ranks_f)
    if not all(map(is_count, ranks_f)):
        raise PreconditionError(f"bad rank list {shown(ranks_f)}")
    top = len(ranks_f) - 1
    if len(f) != len(ranks_f):
        raise PreconditionError("need one endomorphism block per degree")
    if len(boundaries_f) != max(top, 0):
        raise PreconditionError("need exactly one boundary per adjacent pair of degrees")
    dF = [None] + list(boundaries_f)
    for j, fj in enumerate(f):
        int_mat_check(f"f[{j}]", fj, ranks_f[j], ranks_f[j])
    for j in range(1, top + 1):
        int_mat_check(f"boundary {j}", dF[j], ranks_f[j - 1], ranks_f[j])

    def rank_of(j):
        return ranks_f[j] if 0 <= j <= top else 0

    ranks = [rank_of(j) + rank_of(j - 1) for j in range(top + 2)]
    boundaries = []
    for j in range(1, top + 2):
        rows = ranks[j - 1]
        cols = ranks[j]
        off = rank_of(j)
        m = [[0] * cols for _ in range(rows)]
        # block [[dF_j, t - f_{j-1}], [0, -dF_{j-1}]]; the gluing
        # (x, 0) ~ (f(x), 1) reads t*x = f(x), so t acts as f on homology
        if 1 <= j <= top:
            for a, row in enumerate(dF[j]):
                m[a][:off] = row
        for a, row in enumerate(f[j - 1]):
            m[a][off:] = [-c for c in row]
            m[a][off + a] = Poly(ZZ, (-row[a], 1))
        if j >= 2:
            for a, row in enumerate(dF[j - 1]):
                m[rank_of(j - 1) + a][off:] = [-c for c in row]
        boundaries.append(LaurentMatrix(ZZ, rows, cols, m))
    return TwistedChainComplex(ranks, boundaries)


def infinite_cover_homology_field(X: TwistedChainComplex, field):
    """H_j(X_inf; kappa) as (invariant factors, free rank) per degree.

    Over the PID kappa[t, 1/t], C_j / ker d_j embeds in the free module
    C_{j-1}, so it is free and ker d_j is a direct summand of C_j.  Hence
    coker d_{j+1} is H_j plus a free module of rank rk d_j: H_j has the
    torsion of coker d_{j+1} and free rank n_j - rk d_j - rk d_{j+1}.  One
    Smith form per boundary in `X.boundaries` gives both its torsion and
    its rank; the zero maps d_0 and d_{top+1} off the ends have rank 0,
    and coker d_{top+1} = C_top has no torsion.
    """
    factors, ranks = [], [0]
    for d in X.boundaries:
        fs, free = laurent_cokernel(d, field)
        factors.append(fs)
        ranks.append(d.nrows - free)
    factors.append([])
    ranks.append(0)
    out = []
    for j, n in enumerate(X.ranks):
        free_rank = n - ranks[j] - ranks[j + 1]
        if free_rank < 0:
            raise InternalCheckError(
                f"rk d_{j} + rk d_{j + 1} = {ranks[j]} + {ranks[j + 1]} "
                f"exceeds rank {n} of C_{j}")
        out.append((factors[j], free_rank))
    return out


def t_action_matrix(factors, field):
    """Block companion matrix of t acting on the direct sum of kappa[t]/(f),
    for monic f: block f has ones below its diagonal and -f's coefficients
    in its last column."""
    n = sum(f.degree for f in factors)
    zero, one = field.coerce(0), field.coerce(1)
    m = [[zero] * n for _ in range(n)]
    off = 0
    for f in factors:
        last = off + f.degree - 1
        for i, c in enumerate(f.coeffs[:-1], start=off):
            if i > off:
                m[i][i - 1] = one
            m[i][last] = field.coerce(-c)
        off = last + 1
    return m


def _gcd_tq1(f, q, p):
    """The monic gcd(f, t^q - 1) over QQ (p = 0) or GF(p), for a monic
    coefficient list f of degree >= 1.

    Over QQ, t^q - 1 is the product of the Phi_d with d | q and has no
    repeated factor, so the gcd is the product of those Phi_d that divide
    f, tested on f's cleared ZZ[t] multiple.  Phi_d divides f only if
    phi(d) <= deg f, and phi(d) >= sqrt(d / 2), so d <= 2 deg(f)^2 + 2
    bounds the search whatever the size of q.  Over GF(p) it is
    gcd(f, (t^q mod f) - 1), with t^q mod f by square-and-multiply.
    """
    if p:
        tq = power([0, 1], q, lambda u, v: mulmod_coeffs(u, v, f, p), [1])
        return gcd_gf_coeffs(f, sub_mul_coeffs(1, tq, [1], [1], p), p)
    n = len(f) - 1
    found, _ = peel_cyclotomics(clear_denominators([f])[1][0],
                                (d for d in range(1, 2 * n * n + 3) if q % d == 0))
    g = [1]
    for d in sorted(found):
        g = mul_coeffs(g, cyclotomic(d).coeffs)
    return g


def _cover_blocks(inf, field, q):
    """Per degree, (here, free_rank, below): H_j(X_q; kappa) is the sum of
    kappa[t]/(g) over g in here + [t^q - 1] * free_rank + below.

    Each g in here is gcd(f, t^q - 1) for an invariant factor f
    (`_gcd_tq1`), and the free part is kept as a count, so nothing here
    grows with q, and over QQ nothing is powered.
    """
    out = []
    below = []
    for factors, free_rank in inf:
        here = []
        for f in factors:
            g = _gcd_tq1(f.coeffs, q, field.char)
            if len(g) == len(f.coeffs):
                here.append(f)
            elif len(g) > 1:
                here.append(Poly(field, g))
        out.append((here, free_rank, below))
        below = here
    return out


def _dims(blocks, q):
    return [sum(g.degree for g in here + below) + q * free_rank
            for here, free_rank, below in blocks]


def cover_homology_field(X: TwistedChainComplex, field, q):
    """Homology of the q-fold cyclic cover with kappa coefficients.

    Returns per degree (dimension, matrix of the induced t-action), read
    off the invariant factors of H_*(X_inf; kappa).  Over the PID
    kappa[t, 1/t] the universal-coefficient theorem splits H_j(X_q) as
    kappa[t]-modules into H_j(X_inf)/(t^q - 1) plus the (t^q - 1)-torsion
    of H_{j-1}(X_inf).  The action is the block companion matrix
    (`t_action_matrix`) of these blocks, in this order:

    - gcd(f, t^q - 1) for each invariant factor f of H_j(X_inf);
    - t^q - 1 once per unit of free rank of H_j(X_inf);
    - gcd(f, t^q - 1) for each invariant factor f of H_{j-1}(X_inf);

    with blocks of degree 0 dropped.  Each gcd is read from the
    cyclotomic divisors of f over QQ and from t^q mod f over GF(p)
    (`_gcd_tq1`), so only the t^q - 1 blocks of a free part grow with q.
    The dimension is the sum of the block degrees.  A dimension above
    _T_ACTION_LIMIT raises PreconditionError before any block is built.
    """
    check_count("q", q, 1)
    blocks = _cover_blocks(infinite_cover_homology_field(X, field), field, q)
    dims = _dims(blocks, q)
    if max(dims, default=0) > _T_ACTION_LIMIT:
        raise PreconditionError(
            f"t-action of dimension {max(dims)} exceeds the limit "
            f"{_T_ACTION_LIMIT}")
    free = any(free_rank for _, free_rank, _ in blocks)
    tq = Poly(field, [-1] + [0] * (q - 1) + [1]) if free else None
    return [(dim, t_action_matrix(here + [tq] * free_rank + below, field))
            for dim, (here, free_rank, below) in zip(dims, blocks)]


def wang_dimensions(X: TwistedChainComplex, field, q):
    """dim H_j(X_q; kappa) when every H_j(X_inf; kappa) is torsion.

    This is the Wang-sequence case of `cover_homology_field`: each
    invariant factor f contributes deg gcd(t^q - 1, f) in its own degree
    and in the next.  A free part would make the dimensions grow with q,
    so it raises FreeHomologyError.
    """
    check_count("q", q, 1)
    inf = infinite_cover_homology_field(X, field)
    for j, (_, free_rank) in enumerate(inf):
        if free_rank:
            raise FreeHomologyError(
                f"H_{j}(X_inf) has free rank {free_rank}; Wang dimensions are infinite")
    return _dims(_cover_blocks(inf, field, q), q)


def verify_self_cover_relation(X: TwistedChainComplex, w: SelfCoverWitness):
    """Check hbar_j * T_j == T_j^{sign*k} * hbar_j on H_j(X_inf; QQ).

    With hbar_j invertible the relation makes T_j similar to T_j^{sign*k},
    so lambda -> lambda^{sign*k} permutes the eigenvalues of T_j and each
    is a root of unity.  A degree where one is not fails without powering,
    so no entry of T_j^k grows exponentially in k.  The eigenvalues are
    the roots of the last invariant factor, which all others divide.
    """
    check_count("k", w.k, 2)
    check_sign(w.sign)
    if len(w.hbar) != len(X.ranks):
        raise PreconditionError("need one hbar block per degree")
    inf = infinite_cover_homology_field(X, QQ)
    results = []
    for j, (factors, free_rank) in enumerate(inf):
        if free_rank:
            raise FreeHomologyError(f"H_{j}(X_inf; QQ) has a free part")
        dim = sum(f.degree for f in factors)
        hb = [[QQ.coerce(x) for x in row] for row in w.hbar[j]]
        if len(hb) != dim or any(len(r) != dim for r in hb):
            raise PreconditionError(f"hbar block {j} is not {dim}x{dim}")
        if dim == 0:
            results.append(True)
            continue
        if len(rref(QQ, hb)[1]) != dim:
            raise PreconditionError(f"hbar block {j} is not invertible")
        f = factors[-1]
        if (any(c.denominator != 1 for c in f.coeffs)
                or cyclotomic_indices(f.coeffs) is None):
            results.append(False)
            continue
        T = t_action_matrix(factors, QQ)
        Tk = mat_pow(T, w.k)
        if w.sign > 0:
            holds = mat_mul(hb, T) == mat_mul(Tk, hb)
        else:
            # T is invertible, so hbar T = T^-k hbar reads T^k hbar T = hbar
            holds = mat_mul(Tk, mat_mul(hb, T)) == hb
        results.append(holds)
    return results


def cover_dimensions(X: TwistedChainComplex, field, iterates):
    """Per listed q, the dimensions dim H_j(X_q; kappa) for every degree j.

    H_*(X_inf; kappa) is computed once and read for every q as in
    `cover_homology_field`, from block degrees alone: a unit of free rank
    adds q without building t^q - 1.
    """
    qs = list(iterates)
    for q in qs:
        check_count("q", q, 1)
    inf = infinite_cover_homology_field(X, field)
    return [_dims(_cover_blocks(inf, field, q), q) for q in qs]


def dimension_bound_check(X: TwistedChainComplex, field, iterates):
    """True iff dim H_j(X_q; kappa) <= ranks[j] for every listed q and degree."""
    return all(d <= r for dims in cover_dimensions(X, field, iterates)
               for d, r in zip(dims, X.ranks))
