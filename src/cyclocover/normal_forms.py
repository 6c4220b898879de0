"""Matrix normal forms over Euclidean domains, plus derived invariants.

Smith normal form is supported over ZZ and over k[t] for k a field
(QQ or a prime field).  Laurent matrices over a field reduce to the
polynomial case by clearing rows with powers of t.
"""

from dataclasses import dataclass
from operator import attrgetter

from .arith import factorize
from .matrices import (LaurentMatrix, det_int, det_poly, mat_copy,
                       int_mat_check, int_mat_pow, mat_is_identity)
from .rings import MixedRingError, Poly, ZZ, cyclotomic

from math import lcm


class DomainError(MixedRingError):
    """Matrix entries do not lie uniformly in a supported domain."""


def _infer_domain(rows):
    """(Euclidean size, canonical associate) of the entries' domain:
    (abs, abs) over ZZ, (degree, monic) over k[t]."""
    kinds = set()
    ring = None
    for row in rows:
        for e in row:
            if isinstance(e, bool):
                raise DomainError("bool entry in matrix")
            if isinstance(e, int):
                kinds.add("int")
            elif isinstance(e, Poly):
                kinds.add("poly")
                if ring is None:
                    ring = e.ring
                elif ring is not e.ring:
                    raise DomainError("mixed polynomial coefficient rings")
            else:
                raise DomainError(f"unsupported matrix entry {e!r}")
    if kinds == {"int"} or not kinds:
        return abs, abs
    if kinds == {"poly"}:
        if ring is ZZ:
            raise DomainError("SNF over ZZ[t] is not supported (not a PID)")
        if not ring.is_field:
            raise DomainError(f"SNF needs field polynomial coefficients, got {ring}")
        return attrgetter("degree"), Poly.monic
    raise DomainError("mixed integer and polynomial entries")


@dataclass
class SnfResult:
    """D is A brought to diagonal form; its first `rank` diagonal entries
    are the invariant factors, each dividing the next."""
    D: list
    rank: int

    @property
    def invariant_factors(self):
        return [self.D[i][i] for i in range(self.rank)]


def smith_normal_form(rows) -> SnfResult:
    """Smith normal form over ZZ or k[t], invariants only.

    `rows` is a list of rows; entries must be ints or Poly over one field.
    Pivots are chosen by minimal Euclidean size, ties by lowest (row, col).
    """
    size, normalize = _infer_domain(rows)
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    D = mat_copy(rows)

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = D[i][j]
                if not e:
                    continue
                s = size(e)
                if best is None or s < best:
                    best = s
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            D[t], D[pi] = D[pi], D[t]
        if pj != t:
            swap_cols(t, pj)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if not D[i][t]:
                    continue
                q = divmod(D[i][t], D[t][t])[0]
                if q:
                    D[i] = [a - q * b for a, b in zip(D[i], D[t])]
                if D[i][t]:
                    D[t], D[i] = D[i], D[t]
                    dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if not D[t][j]:
                    continue
                q = divmod(D[t][j], D[t][t])[0]
                if q:
                    for row in D:
                        row[j] = row[j] - q * row[t]
                if D[t][j]:
                    swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if not D[i][j]:
                        continue
                    if divmod(D[i][j], D[t][t])[1]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into row t and re-reduce
            D[t] = [a + b for a, b in zip(D[t], D[offender])]
        # row t now holds only its pivot
        D[t][t] = normalize(D[t][t])
        t += 1
    return SnfResult(D=D, rank=t)


# ---------------------------------------------------------------------------
# characteristic polynomial and finite order

def char_poly(a) -> Poly:
    """det(tI - A), monic, for a square integer matrix."""
    int_mat_check(a, square=True)
    n = len(a)
    ring = ZZ
    t = Poly.t(ring)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = Poly(ring, (-a[i][j],))
            if i == j:
                e = e + t
            row.append(e)
        rows.append(row)
    return det_poly(rows, ring)


def finite_order(a):
    """Exact multiplicative order of an invertible integer matrix.

    Returns None when the order is infinite.  Requires |det A| = 1.
    """
    int_mat_check(a, square=True)
    n = len(a)
    if n == 0:
        return 1
    if det_int(a) not in (1, -1):
        raise ValueError("matrix must have determinant +-1")
    # peel cyclotomic factors (monic, so division in ZZ[t] is exact);
    # anything left means an eigenvalue off the unit circle or a
    # non-root-of-unity on it, hence infinite order
    rem = char_poly(a)
    indices = set()
    d = 1
    while rem.degree > 0 and d <= 2 * n * n + 2:
        phi = cyclotomic(d)
        if phi.degree <= rem.degree:
            while True:
                q, r = divmod(rem, phi)
                if r.is_zero:
                    rem = q
                    indices.add(d)
                else:
                    break
        d += 1
    if rem.degree > 0:
        return None
    order = 1
    for d in indices:
        order = lcm(order, d)
    if not mat_is_identity(int_mat_pow(a, order)):
        return None  # eigenvalues are roots of unity but A is not semisimple
    for p in factorize(order):
        while order % p == 0 and mat_is_identity(int_mat_pow(a, order // p)):
            order //= p
    return order


# ---------------------------------------------------------------------------
# cokernels over Laurent PIDs

def laurent_cokernel(mat: LaurentMatrix):
    """Invariant factors and free rank of coker over kappa[t, 1/t].

    Rows are cleared into kappa[t] by unit row scalings, Smith normal form
    is taken there, and unit (power-of-t or constant) factors are dropped.
    Returned factors are monic with nonzero constant term, in divisibility
    order.
    """
    ring = mat.ring
    if not ring.is_field:
        raise DomainError("laurent_cokernel needs field coefficients")
    if mat.nrows == 0:
        return [], 0
    if mat.ncols == 0:
        return [], mat.nrows
    poly_rows, _ = mat.cleared_rows()
    snf = smith_normal_form(poly_rows)
    factors = []
    for f in snf.invariant_factors:
        k = f.low_order()
        if k:
            f = Poly(ring, f.coeffs[k:])
        if f.degree > 0:
            factors.append(f.monic())
    return factors, mat.nrows - snf.rank
