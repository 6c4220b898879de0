"""Twisted chain complexes, infinite/finite cyclic cover homology, Wang data.

A TwistedChainComplex is a finite free chain complex over ZZ[t, 1/t]; the
boundary in degree j maps degree j to degree j-1 and acts on column
vectors.  Mapping tori of integer chain endomorphisms are built as the
algebraic cone of (t - f).
"""

from dataclasses import dataclass
from typing import List

from .linfield import QuotientSpace, inverse, kernel_basis, rref
from .matrices import LaurentMatrix, mat_copy, mat_identity, mat_mul
from .normal_forms import _PolyDomain, laurent_cokernel, smith_normal_form
from .rings import LaurentPoly, Poly, QQ, ZZ, poly_gcd


class FreeHomologyError(ValueError):
    """Infinite-cover homology has a free part where torsion is required."""


class TwistedChainComplex:
    """ranks[j] cells in degree j; boundaries[j-1] is the map C_j -> C_{j-1}."""

    __slots__ = ("ranks", "boundaries")

    def __init__(self, ranks, boundaries):
        ranks = list(ranks)
        if any(r < 0 for r in ranks):
            raise ValueError("negative rank")
        if len(boundaries) != max(len(ranks) - 1, 0):
            raise ValueError("need exactly one boundary per adjacent pair of degrees")
        mats = []
        for j, b in enumerate(boundaries, start=1):
            if not isinstance(b, LaurentMatrix):
                b = LaurentMatrix(ZZ, ranks[j - 1], ranks[j], b)
            if b.ring is not ZZ:
                raise TypeError("boundaries must be over ZZ")
            if b.nrows != ranks[j - 1] or b.ncols != ranks[j]:
                raise ValueError(f"boundary {j} has shape {b.nrows}x{b.ncols}, "
                                 f"expected {ranks[j - 1]}x{ranks[j]}")
            mats.append(b)
        for j in range(1, len(mats)):
            if not (mats[j - 1] * mats[j]).is_zero():
                raise ValueError(f"boundary composition in degree {j + 1} is nonzero")
        self.ranks = tuple(ranks)
        self.boundaries = tuple(mats)

    @property
    def top_degree(self):
        return len(self.ranks) - 1

    def boundary(self, j):
        """The boundary C_j -> C_{j-1}; zero maps off the ends."""
        if 1 <= j <= self.top_degree:
            return self.boundaries[j - 1]
        if j == 0:
            return LaurentMatrix.zero(ZZ, 0, self.ranks[0])
        if j == self.top_degree + 1:
            return LaurentMatrix.zero(ZZ, self.ranks[-1], 0)
        raise IndexError(f"no boundary in degree {j}")

    def __repr__(self):
        return f"TwistedChainComplex(ranks={list(self.ranks)})"


@dataclass
class SelfCoverWitness:
    k: int
    sign: int             # +1 preserves, -1 reverses deck orientation
    hbar: List[list]      # per-degree square rational matrices


def mapping_torus_complex(ranks_f, boundaries_f, f) -> TwistedChainComplex:
    """Algebraic mapping torus: cone of (t - f) on C(F) tensor ZZ[t,1/t].

    `boundaries_f[j-1]` and `f[j]` are integer matrices; f must commute
    with the boundaries degreewise.
    """
    ranks_f = list(ranks_f)
    top = len(ranks_f) - 1
    if len(f) != len(ranks_f):
        raise ValueError("need one endomorphism block per degree")
    dF = [None] + list(boundaries_f)
    for j, fj in enumerate(f):
        if len(fj) != ranks_f[j] or any(len(r) != ranks_f[j] for r in fj):
            raise ValueError(f"f[{j}] is not square of size {ranks_f[j]}")
    for j in range(1, top + 1):
        lhs = mat_mul(f[j - 1], dF[j])
        rhs = mat_mul(dF[j], f[j])
        if lhs != rhs:
            raise ValueError(f"endomorphism does not commute with boundary {j}")

    def rank_of(j):
        return ranks_f[j] if 0 <= j <= top else 0

    ranks = [rank_of(j) + rank_of(j - 1) for j in range(top + 2)]
    t = LaurentPoly.t_power(ZZ, 1)
    zero = LaurentPoly.zero(ZZ)
    boundaries = []
    for j in range(1, top + 2):
        rows = ranks[j - 1]
        cols = ranks[j]
        m = [[zero] * cols for _ in range(rows)]
        # block [[dF_j, t - f_{j-1}], [0, -dF_{j-1}]]; the gluing
        # (x, 0) ~ (f(x), 1) reads t*x = f(x), so t acts as f on homology
        if 1 <= j <= top:
            for a in range(rank_of(j - 1)):
                for b in range(rank_of(j)):
                    c = dF[j][a][b]
                    if c:
                        m[a][b] = LaurentPoly.const(ZZ, c)
        for a in range(rank_of(j - 1)):
            for b in range(rank_of(j - 1)):
                e = -LaurentPoly.const(ZZ, f[j - 1][a][b])
                if a == b:
                    e = e + t
                m[a][rank_of(j) + b] = e
        if j >= 2:
            for a in range(rank_of(j - 2)):
                for b in range(rank_of(j - 1)):
                    c = dF[j - 1][a][b]
                    if c:
                        m[rank_of(j - 1) + a][rank_of(j) + b] = LaurentPoly.const(ZZ, -c)
        boundaries.append(LaurentMatrix(ZZ, rows, cols, m))
    return TwistedChainComplex(ranks, boundaries)


def _homology_presentation(X: TwistedChainComplex, field, j):
    """Present H_j(X_inf; kappa) as a cokernel over kappa[t, 1/t]."""
    dj = X.boundary(j).to_ring(field)
    dj1 = X.boundary(j + 1).to_ring(field)
    n = X.ranks[j]
    if n == 0:
        return LaurentMatrix.zero(field, 0, 0)
    poly_rows, _ = dj.cleared_rows()
    if dj.nrows == 0:
        # everything is a cycle
        kernel_dim = n
        vinv = mat_identity(n, Poly.one(field), Poly.zero(field))
        rank = 0
    else:
        snf = smith_normal_form(poly_rows, _PolyDomain(field))
        rank = snf.rank
        kernel_dim = n - rank
        vinv = snf.Vinv
    # coordinates of the boundaries from above in the kernel basis
    vinv_l = LaurentMatrix(field, n, n,
                           [[LaurentPoly.from_poly(p) for p in row] for row in vinv])
    coords = vinv_l * dj1
    rows = []
    for i in range(n):
        row = coords.row(i)
        if i < rank:
            if any(not e.is_zero for e in row):
                raise AssertionError("boundary columns are not cycles")
        else:
            rows.append(row)
    return LaurentMatrix(field, kernel_dim, dj1.ncols, rows)


def infinite_cover_homology_field(X: TwistedChainComplex, field):
    """H_j(X_inf; kappa) as (invariant factors, free rank) per degree."""
    out = []
    for j in range(X.top_degree + 1):
        pres = _homology_presentation(X, field, j)
        out.append(laurent_cokernel(pres))
    return out


def companion_matrix(f: Poly):
    """Companion matrix of a monic polynomial, over its coefficient ring."""
    n = f.degree
    ring = f.ring
    zero = ring.coerce(0)
    m = [[zero] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = ring.coerce(1)
    for i in range(n):
        m[i][n - 1] = -f.coeffs[i]
    return m


def t_action_matrix(factors, field):
    """Block companion matrix of t acting on the direct sum of kappa[t]/(f)."""
    dims = [f.degree for f in factors]
    n = sum(dims)
    zero = field.coerce(0)
    m = [[zero] * n for _ in range(n)]
    off = 0
    for f in factors:
        blk = companion_matrix(f)
        d = f.degree
        for a in range(d):
            for b in range(d):
                m[off + a][off + b] = blk[a][b]
        off += d
    return m


def wang_dimensions(X: TwistedChainComplex, field, q):
    """dim H_j(X_q; kappa) from the Wang sequence of the q-fold cover.

    Uses dim coker(t^q - 1 | H_j(X_inf)) + dim ker(t^q - 1 | H_{j-1}(X_inf)),
    both equal to deg gcd(t^q - 1, f) summed over invariant factors.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    inf = infinite_cover_homology_field(X, field)
    for j, (_, free_rank) in enumerate(inf):
        if free_rank:
            raise FreeHomologyError(
                f"H_{j}(X_inf) has free rank {free_rank}; Wang dimensions are infinite")
    tq1 = Poly(field, [-1] + [0] * (q - 1) + [1])
    gdeg = [sum(poly_gcd(tq1, f).degree for f in factors)
            for factors, _ in inf]
    dims = []
    for j in range(len(gdeg)):
        below = gdeg[j - 1] if j >= 1 else 0
        dims.append(gdeg[j] + below)
    return dims


def _big_matrix(mat: LaurentMatrix, field, q):
    """Base change along kappa[t,1/t] -> kappa[t]/(t^q - 1), cell-major basis."""
    zero = field.coerce(0)
    rows = mat.nrows * q
    cols = mat.ncols * q
    big = [[zero] * cols for _ in range(rows)]
    for i in range(mat.nrows):
        for j in range(mat.ncols):
            e = mat[i, j]
            if e.is_zero:
                continue
            for idx, c in enumerate(e.body.coeffs):
                if not c:
                    continue
                shift = (e.val + idx) % q
                cf = field.coerce(c)
                for a in range(q):
                    big[i * q + (a + shift) % q][j * q + a] = \
                        big[i * q + (a + shift) % q][j * q + a] + cf
    return big


def cover_homology_field(X: TwistedChainComplex, field, q):
    """Direct homology of the q-fold cyclic cover with kappa coefficients.

    Returns per degree (dimension, matrix of the induced t-action).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    out = []
    for j in range(X.top_degree + 1):
        n = X.ranks[j] * q
        dj = _big_matrix(X.boundary(j).to_ring(field), field, q)
        dj1 = _big_matrix(X.boundary(j + 1).to_ring(field), field, q)
        ker = kernel_basis(field, dj, n)
        im_cols = [list(col) for col in zip(*dj1)]
        quot = QuotientSpace(field, ker, im_cols, n)

        def shift(v):
            # t acts on each cell's block of q coordinates as the cyclic shift
            return [v[c * q + (a - 1) % q]
                    for c in range(X.ranks[j]) for a in range(q)]

        action = quot.action_matrix(shift) if quot.dim else []
        out.append((quot.dim, action))
    return out


def verify_self_cover_relation(X: TwistedChainComplex, w: SelfCoverWitness):
    """Check hbar_j * T_j == T_j^{sign*k} * hbar_j on H_j(X_inf; QQ)."""
    if w.k <= 1:
        raise ValueError("k must be > 1")
    if w.sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    inf = infinite_cover_homology_field(X, QQ)
    results = []
    if len(w.hbar) != len(inf):
        raise ValueError("need one hbar block per degree")
    for j, (factors, free_rank) in enumerate(inf):
        if free_rank:
            raise FreeHomologyError(f"H_{j}(X_inf; QQ) has a free part")
        dim = sum(f.degree for f in factors)
        hb = [[QQ.coerce(x) for x in row] for row in w.hbar[j]]
        if len(hb) != dim or any(len(r) != dim for r in hb):
            raise ValueError(f"hbar block {j} is not {dim}x{dim}")
        if dim == 0:
            results.append(True)
            continue
        if len(rref(QQ, hb)[1]) != dim:
            raise ValueError(f"hbar block {j} is not invertible")
        T = t_action_matrix(factors, QQ)
        Tk = _field_mat_pow(QQ, T, w.sign * w.k)
        lhs = mat_mul(hb, T)
        rhs = mat_mul(Tk, hb)
        results.append(lhs == rhs)
    return results


def _field_mat_pow(field, m, e):
    n = len(m)
    if e < 0:
        m = inverse(field, m)
        e = -e
    result = mat_identity(n, field.coerce(1), field.coerce(0))
    base = mat_copy(m)
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def dimension_bound_check(X: TwistedChainComplex, field, iterates):
    """True iff dim H_j(X_q; kappa) <= ranks[j] for every listed q and degree."""
    for q in iterates:
        dims = [d for d, _ in cover_homology_field(X, field, q)]
        for j, d in enumerate(dims):
            if d > X.ranks[j]:
                return False
    return True
