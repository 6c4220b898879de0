"""Smith normal form over k[t], plus derived invariants.

The Smith form is taken over k[t] for k a field (QQ or a prime field),
on coefficient lists (`_smith_lists`, where a constant pivot, a unit,
takes one Schur-complement pass).  `laurent_cokernel` is its entry point:
Laurent matrices over ZZ reduce to it by clearing rows with powers of t,
and the cleared ZZ[t] rows reach the list core as they are over QQ and
reduced modulo p over GF(p), with no Poly in between.
"""

from .errors import PreconditionError
from .matrices import (LaurentMatrix, det_coeffs, int_mat_check,
                       mat_is_identity, mat_pow)
from .rings import (Poly, ZZ, cyclotomic, cyclotomic_degree, gcd_gf_coeffs,
                    gcd_zz_coeffs, monic_coeffs, mul_coeffs, pseudo_divmod,
                    strip_coeffs, sub_mul_coeffs)

from math import gcd, lcm


def _smith_lists(D, p):
    """The monic invariant factors s_1 | ... | s_rank, as coefficient
    lists, of the matrix D: a list of row lists, which the loop reorders
    and overwrites, whose entries are coefficient lists or tuples (no
    trailing zeros; empty is zero), residues over GF(p) for p > 0 and ints
    read over QQ for p = 0.

    Pivots are chosen by least degree, ties by least |leading
    coefficient| (a +-1 first) and then lowest (row, col), until the
    matrix is diagonal.  The non-constant diagonal entries are then put in
    divisibility order by diag(a, b) ~ diag(gcd, lcm) and made monic,
    after a [1] for each constant one.

    The loop runs fraction-free.  A constant pivot c is a unit: each lower
    row with lead a becomes s*row - q*(row 0) on columns 1.. (s = 1 and q =
    a/c over GF(p); s = c/h and q = a/h for h = gcd(c, content a) over QQ),
    and row 0, all multiples of c, is dropped untouched.  At other pivots
    each step is a pseudo-division s*a = q*b + r (`pseudo_divmod`, the field
    quotient over GF(p)): a row step sets D[i] to s*D[i] - q*D[0], a column
    step sets D[0][j] to r and multiplies the rest of column j by s.  Over
    QQ every row step divides out the row's content.  Every step is
    invertible over k[t] and monic invariant factors are unique, so they are
    Euclid's over k[t].  The closing pass runs on the same lists
    (`gcd_zz_coeffs` over QQ, `gcd_gf_coeffs` over GF(p)).
    """
    if not p:
        D = [_primitive_row(row) for row in D]
    diag = []
    while True:
        nonzero = [(len(e), abs(e[-1]), i, j) for i, row in enumerate(D)
                   for j, e in enumerate(row) if e]
        if not nonzero:
            break
        _, _, pi, pj = min(nonzero)
        D[0], D[pi] = D[pi], D[0]
        for row in D:
            row[0], row[pj] = row[pj], row[0]
        if len(D[0][0]) == 1:
            # a unit pivot c: one Schur-complement pass, row 0 dropped
            c, top, rows = D[0][0][0], D[0][1:], []
            c_inv = pow(c, -1, p) if p else 0
            for row in D[1:]:
                a = row[0]
                if not a:
                    rows.append(row[1:])
                    continue
                if p:
                    s, q = 1, [x * c_inv % p for x in a]
                else:
                    h = gcd(c, *a) if c > 0 else -gcd(c, *a)
                    s, q = c // h, [x // h for x in a]
                row = [sub_mul_coeffs(s, x, q, y, p) for x, y in zip(row[1:], top)]
                rows.append(row if p else _primitive_row(row))
            diag.append(D[0][0])
            D = rows
            continue
        dirty = True
        while dirty:
            # clear column 0; a nonzero remainder becomes the pivot
            dirty = False
            for i in range(1, len(D)):
                a = D[i][0]
                if not a:
                    continue
                if len(a) >= len(D[0][0]):
                    s, q, r = pseudo_divmod(a, D[0][0], p)
                    D[i] = [r] + [sub_mul_coeffs(s, x, q, y, p)
                                  for x, y in zip(D[i][1:], D[0][1:])]
                    if not p:
                        D[i] = _primitive_row(D[i])
                if D[i][0]:
                    D[0], D[i] = D[i], D[0]
                    dirty = True
            if dirty:
                continue
            # clear row 0; while column 0 is clear a column operation
            # changes row 0 only, up to the scaling s of column j, so stop
            # at the first column swap
            for j in range(1, len(D[0])):
                a = D[0][j]
                if not a:
                    continue
                if len(a) >= len(D[0][0]):
                    s, _, D[0][j] = pseudo_divmod(a, D[0][0], p)
                    if s != 1:
                        for row in D[1:]:
                            row[j] = [s * c for c in row[j]]
                if D[0][j]:
                    for row in D:
                        row[0], row[j] = row[j], row[0]
                    dirty = True
                    break
        diag.append(D[0][0])
        D = [row[1:] for row in D[1:]]
    units = [[1] for f in diag if len(f) == 1]
    diag = [f for f in diag if len(f) > 1]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if pseudo_divmod(b, a, p)[2]:
                # over QQ both are known up to a unit, and so are these
                g = gcd_gf_coeffs(a, b, p) if p else gcd_zz_coeffs(a, b)
                diag[i], diag[j] = g, mul_coeffs(a, pseudo_divmod(b, g, p)[1], p)
    return units + [monic_coeffs(f, p) for f in diag]


def _primitive_row(row):
    """The row of int coefficient lists divided by its content."""
    h = 0
    for e in row:
        for c in e:
            h = gcd(h, c)
            if h == 1:
                return row
    if h > 1:
        return [[c // h for c in e] for e in row]
    return row


# ---------------------------------------------------------------------------
# characteristic polynomial and finite order

def char_poly(a) -> Poly:
    """det(tI - A), monic, for a square integer matrix (`det_coeffs` on
    the int coefficient lists of tI - A)."""
    int_mat_check("matrix", a, len(a), len(a))
    return Poly(ZZ, det_coeffs([[[-x, 1] if i == j else [-x]
                                 for j, x in enumerate(row)]
                                for i, row in enumerate(a)]))


def peel_cyclotomics(f, indices):
    """(found, rest) for a nonzero int coefficient list f: found is the set
    of the d in `indices` with Phi_d dividing f, and rest is f with each
    such Phi_d divided out as often as it divides.

    Phi_d is monic, so each test is an exact division in ZZ[t].  phi(d) =
    deg Phi_d (`cyclotomic_degree`) is compared with deg rest first, and
    Phi_d is built only when it fits.
    """
    rest = list(f)
    found = set()
    for d in indices:
        if len(rest) <= 1:
            break
        if cyclotomic_degree(d) >= len(rest):
            continue
        phi = cyclotomic(d).coeffs
        while True:
            _, q, r = pseudo_divmod(rest, phi)
            if r:
                break
            rest = q
            found.add(d)
    return found, rest


def cyclotomic_indices(f):
    """The set of d with Phi_d dividing f, a monic int coefficient list, or
    None when f is not a product of cyclotomic polynomials, that is when
    some root of f is not a root of unity.

    Cyclotomic factors are peeled off (`peel_cyclotomics`); deg Phi_d =
    phi(d) >= sqrt(d / 2) bounds d by 2 deg(f)^2.
    """
    n = len(f) - 1
    indices, rest = peel_cyclotomics(f, range(1, 2 * n * n + 3))
    return None if len(rest) > 1 else indices


def finite_order(a):
    """Exact multiplicative order of an integer matrix A with det A = +-1,
    read off the constant term (-1)^n det A of its characteristic
    polynomial, or None when the order is infinite."""
    f = char_poly(a)  # checks that A is a square integer matrix
    if f.constant not in (1, -1):
        raise PreconditionError("matrix must have determinant +-1")
    return cyclotomic_order(a, cyclotomic_indices(f.coeffs))


def cyclotomic_order(a, indices):
    """`finite_order` of a square integer matrix A with det A = +-1 from the
    `cyclotomic_indices` of its characteristic polynomial: None when they
    are None or A is not semisimple.  A^lcm(indices) = I makes A
    semisimple, with a primitive d-th root of unity among its eigenvalues
    for each d in `indices`, so that lcm is the order."""
    if indices is None:
        return None
    order = lcm(*indices)
    return order if mat_is_identity(mat_pow(a, order)) else None


# ---------------------------------------------------------------------------
# cokernels over Laurent PIDs

def laurent_cokernel(mat: LaurentMatrix, field):
    """Invariant factors and free rank of coker over field[t, 1/t] of the
    LaurentMatrix `mat` over ZZ.

    Each row of `mat` is cleared into ZZ[t] by a power of t (a unit row
    scaling, `LaurentMatrix.cleared_rows`).  The cleared rows go to the
    Smith core `_smith_lists` as they are over QQ, and with every
    coefficient reduced modulo p over GF(p).  Unit (power-of-t or constant) factors are
    dropped, and a Poly is built only for a factor of positive degree.
    Returned factors are monic with nonzero constant term, in divisibility
    order.
    """
    if not field.is_field:
        raise PreconditionError(f"laurent_cokernel needs a field, got {field}")
    if mat.nrows == 0:
        return [], 0
    if mat.ncols == 0:
        return [], mat.nrows
    p = field.char
    D = mat.cleared_rows()
    if p:
        D = [[strip_coeffs([c % p for c in cs]) for cs in row] for row in D]
    invariants = _smith_lists(D, p)
    factors = []
    for f in invariants:
        k = next(i for i, c in enumerate(f) if c)
        if len(f) - k > 1:
            factors.append(Poly(field, f[k:]))
    return factors, mat.nrows - len(invariants)

