"""Dense matrices: integer matrices and matrices over Laurent rings."""

from itertools import chain, combinations
from math import prod

from .arith import power
from .errors import PreconditionError, is_count, shown
from .rings import LaurentPoly, Poly, ZZ, gcd_zz_coeffs


# ---------------------------------------------------------------------------
# generic list-of-lists helpers (entries support +, -, *)

def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

def mat_mul(a, b):
    """Product of matrices of ints or Fractions whose shapes the caller
    has checked to match.  GF(p) entries come out unreduced: a GF(p)
    caller must pass them through `ring.coerce`."""
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        orow = []
        for j in range(n):
            acc = None
            for k, x in enumerate(row):
                term = x * b[k][j]
                acc = term if acc is None else acc + term
            orow.append(acc)
        out.append(orow)
    return out


# ---------------------------------------------------------------------------
# integer matrices

def int_mat_check(name, a, rows, cols):
    """PreconditionError unless a is a list of `rows` lists of `cols` ints
    each, bools excluded."""
    if (type(a) is not list or len(a) != rows
            or any(type(row) is not list or len(row) != cols for row in a)):
        raise PreconditionError(f"{name} is not {rows}x{cols}")
    if not set(map(type, chain.from_iterable(a))) <= {int}:
        raise PreconditionError(f"{name} is not an integer matrix")

def _bareiss(m):
    """Determinant of the square integer matrix m (overwritten) by
    fraction-free Bareiss elimination; every `//` divides exactly.

    While prev is 1 the rows below k hold the Schur complement itself, so
    a pivot +-1 there eliminates with no multiplication by the pivot and
    no division: each lower row with a nonzero lead a loses a * pivot
    times the pivot row, on that row's nonzero columns only, and prev
    stays 1.  A unit is looked for only where a pivot search is due
    anyway (a zero diagonal entry) or right after a unit step, so a
    matrix whose leading pivots are neither goes through plain Bareiss
    with no extra scan.  The search covers the whole remaining block
    (rows k.., columns k..), row by row, and brings the first unit it
    meets to (k, k) by a row swap and a column swap; the column swap
    touches rows k.. only, since the rows above are never read again.
    Failing a unit, a zero diagonal entry is swapped with the first
    nonzero entry below it.

    A non-unit step with at least 6 rows left and a nonzero 2 x 2 pivot
    minor D (rows and columns k, k+1) eliminates both columns in one pass
    (Bareiss's two-step, by Sylvester's identity): each entry x below and
    right of the pivot block becomes the 3 x 3 determinant of the pivot
    block bordered by x's row and column, divided by prev^2, and prev
    becomes D // prev.  It saves a pass and a division per entry for one
    more multiplication.  On 3 x 3 to 5 x 5 blocks of 60-bit entries,
    about the size of `laurent_minor_gcd`'s minors, that is a loss
    (3-31%), so blocks of fewer than 6 rows, the tail of every matrix
    included, keep the one-step update.
    """
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    unit = False  # whether the last step had a unit pivot
    steps = iter(range(n - 1))
    for k in steps:
        pk = m[k][k]
        if not pk or unit and pk != 1 and pk != -1:
            s = c = k
            for i in range(k, n):
                tail = m[i][k:]
                if 1 in tail:
                    s, c = i, k + tail.index(1)
                    break
                if -1 in tail:
                    s, c = i, k + tail.index(-1)
                    break
            else:
                if not pk:
                    for s in range(k + 1, n):
                        if m[s][k]:
                            break
                    else:
                        return 0  # column k is zero from row k down
            if c != k:
                for i in range(k, n):
                    ri = m[i]
                    ri[k], ri[c] = ri[c], ri[k]
                sign = -sign
            if s != k:
                m[k], m[s] = m[s], m[k]
                sign = -sign
        rk = m[k]
        pk = rk[k]
        unit = prev == 1 and (pk == 1 or pk == -1)
        if unit:
            if pk < 0:
                sign = -sign
            piv = [(j, rk[j] * pk) for j in range(k + 1, n) if rk[j]]
            for i in range(k + 1, n):
                ri = m[i]
                a = ri[k]
                if a:
                    for j, x in piv:
                        ri[j] -= a * x
        elif n - k >= 6 and (dd := pk * m[k + 1][k + 1] - rk[k + 1] * m[k + 1][k]):
            # x := det [[pk, b, y], [c, e, z], [a, a1, x]] / prev^2, with y,
            # z the pivot rows' entries in x's column
            rl = m[k + 1]
            b, c, e = rk[k + 1], rl[k], rl[k + 1]
            u = [b * z - e * y for y, z in zip(rk[k + 2:], rl[k + 2:])]
            v = [c * y - pk * z for y, z in zip(rk[k + 2:], rl[k + 2:])]
            pp = prev * prev
            for i in range(k + 2, n):
                ri = m[i]
                a = ri[k]
                a1 = ri[k + 1]
                ri[k + 2:] = [(x * dd + a * y + a1 * z) // pp
                              for x, y, z in zip(ri[k + 2:], u, v)]
            prev = dd // prev
            next(steps)  # column k + 1 is eliminated too
        else:
            for i in range(k + 1, n):
                ri = m[i]
                a = ri[k]
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * pk - a * rk[j]) // prev
            prev = pk
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d

def det_int(a):
    """Exact determinant of a square integer matrix."""
    int_mat_check("matrix", a, len(a), len(a))
    return _bareiss([row[:] for row in a])

def mat_is_identity(a):
    return all(x == (1 if i == j else 0)
               for i, row in enumerate(a) for j, x in enumerate(row))

def mat_pow(a, e):
    """a**e for e >= 0 by square-and-multiply.  Entries as in `mat_mul`: a
    GF(p) caller must `ring.coerce` the result."""
    return power(a, e, mat_mul, mat_identity(len(a)))


# ---------------------------------------------------------------------------
# determinants over polynomial rings

def _row_norm(cs_row):
    """max(1, 1-norm of a row of int coefficient lists): the row's factor
    in the Leibniz bound on a determinant's 1-norm."""
    return max(1, sum(sum(map(abs, cs)) for cs in cs_row))

def kronecker_eval(cs, k):
    """The int coefficient list cs evaluated at t = 2^k, by Horner's rule
    with shifts for products."""
    v = 0
    for c in reversed(cs):
        v = (v << k) + c
    return v

def _kronecker_digits(d, k):
    """The balanced base-2^k digits of d, lowest first: the coefficients
    of the polynomial whose value at t = 2^k is d."""
    base = 1 << k
    half = base >> 1
    coeffs = []
    while d:
        c = d & (base - 1)
        if c >= half:
            c -= base
        coeffs.append(c)
        d = (d - c) >> k
    return coeffs

def det_coeffs(rows):
    """Exact determinant of a square matrix of int coefficient lists, as an
    int coefficient list, by Kronecker substitution.

    The Leibniz expansion bounds the 1-norm of the determinant by
    B = prod_i max(1, sum_j |a_ij|_1), so with k = bitlen(B) + 1 every
    coefficient lies strictly inside (-2^(k-1), 2^(k-1)).  One integer
    Bareiss run at t = 2^k therefore gives the coefficients back as
    balanced base-2^k digits.
    """
    k = prod(map(_row_norm, rows)).bit_length() + 1
    return _kronecker_digits(
        _bareiss([[kronecker_eval(cs, k) for cs in row] for row in rows]), k)


# ---------------------------------------------------------------------------
# Laurent matrices

class LaurentMatrix:
    """Rectangular matrix with LaurentPoly entries over ZZ, read through
    `entries` and `cleared_rows`; it has no arithmetic.

    `ring` must be ZZ, and an entry (Poly or LaurentPoly) over another ring
    is refused rather than lifted into ZZ.  A field enters only as a base
    change, through `laurent_cokernel(mat, field)`.  The shape must be two
    counts and the entry grid must match it.  Each refusal raises
    PreconditionError.
    """

    __slots__ = ("nrows", "ncols", "entries")

    ring = ZZ

    def __init__(self, ring, nrows, ncols, entries):
        if ring is not ZZ:
            raise PreconditionError(f"Laurent matrices are over ZZ, got {ring}")
        if not (is_count(nrows) and is_count(ncols)):
            raise PreconditionError(f"bad shape {shown(nrows)} x {shown(ncols)}")
        if len(entries) != nrows or any(len(r) != ncols for r in entries):
            raise PreconditionError("entry grid does not match declared shape")
        self.nrows = nrows
        self.ncols = ncols
        self.entries = tuple(tuple(map(self._coerce_entry, row))
                             for row in entries)

    @staticmethod
    def _coerce_entry(e):
        if not isinstance(e, LaurentPoly):
            if not isinstance(e, Poly):
                return LaurentPoly.const(ZZ, e)
            e = LaurentPoly.from_poly(e)
        if e.ring is not ZZ:
            raise PreconditionError("matrix entry over a different ring")
        return e

    @classmethod
    def zero(cls, ring, nrows, ncols):
        z = LaurentPoly.zero(ring)
        return cls(ring, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    def cleared_rows(self):
        """The rows as lists of coefficient tuples, each row multiplied by
        the power of t that clears it (its least nonzero valuation becomes
        0).  This is how rows are cleared for minor gcds and for cokernels:
        a unit row scaling changes minors by units and keeps the cokernel's
        isomorphism type."""
        out = []
        for row in self.entries:
            v = min([e.val for e in row if e.body.coeffs], default=0)
            out.append([(0,) * (e.val - v) + e.body.coeffs if e.body.coeffs
                        else () for e in row])
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.entries)
        return f"LaurentMatrix({self.nrows}x{self.ncols} over ZZ: {body})"


def laurent_product_is_zero(a: LaurentMatrix, b: LaurentMatrix) -> bool:
    """Whether the product a * b of Laurent matrices over ZZ is zero, by
    one integer matrix product.

    Each matrix is multiplied by t^-v for its least valuation v (zero
    entries count as valuation 0), which multiplies the product by a unit
    and leaves polynomial entries.  Entry (i, j) of the product then has
    1-norm at most (1-norm of row i of a) * (largest entry 1-norm of b)
    <= B < 2^k.  So the lowest nonzero coefficient c of a nonzero entry,
    at t^i, has 0 < |c| < 2^k, and the entry's value at t = 2^k is
    c * 2^(k*i) modulo 2^(k*(i+1)), which is not 0.
    """
    if a.ncols != b.nrows:
        raise PreconditionError(f"shapes {a.nrows}x{a.ncols} and "
                                f"{b.nrows}x{b.ncols} do not multiply")

    def norm(e):
        return sum(map(abs, e.body.coeffs))

    bound = (max((sum(map(norm, row)) for row in a.entries), default=0)
             * max((norm(e) for row in b.entries for e in row), default=0))
    k = bound.bit_length()

    def at_2k(mat):
        v = min((e.val for row in mat.entries for e in row), default=0)
        return [[kronecker_eval(e.body.coeffs, k) << k * (e.val - v)
                 for e in row] for row in mat.entries]

    return not any(map(any, mat_mul(at_2k(a), at_2k(b))))


def laurent_minor_gcd(mat: LaurentMatrix, size: int) -> Poly:
    """gcd (over ZZ[t], content included) of all size x size minors.

    Rows are first cleared by powers of t, which only changes minors by
    units.  Returns the zero polynomial when all minors vanish.

    Each entry is evaluated once, at t = 2^k with k from `det_coeffs`'s
    bound B: a minor's Leibniz bound is a product of `size` row factors
    `_row_norm`, so the product of the `size` largest ones bounds every
    minor.  Each minor is then one integer Bareiss run, its t-power
    stripped and its coefficients read back as base-2^k digits.
    """
    if size > mat.nrows or size > mat.ncols:
        return Poly.zero(ZZ)
    if size == 0:
        # the empty minor; `combinations` would first copy every column index
        return Poly.one(ZZ)
    cs_rows = mat.cleared_rows()
    bound = prod(sorted(map(_row_norm, cs_rows), reverse=True)[:size])
    k = bound.bit_length() + 1
    mask = (1 << k) - 1
    vals = [[kronecker_eval(cs, k) for cs in cs_row] for cs_row in cs_rows]
    g = []
    for rsel in combinations(vals, size):
        for csel in combinations(range(mat.ncols), size):
            d = _bareiss([[r[j] for j in csel] for r in rsel])
            if not d:
                continue
            # strip the t-power unit so contents combine correctly
            while not d & mask:
                d >>= k
            g = gcd_zz_coeffs(g, _kronecker_digits(d, k))
            if g == [1]:
                return Poly.one(ZZ)
    return Poly(ZZ, g)
