"""Shared test helpers: independent oracles and random generators.

The oracles here deliberately avoid the library's own decision paths:
the lattice oracle uses rational companion matrices plus integer HNF,
finite generation is also decided by Smith forms over the residue fields,
matrix orders are found by brute-force powering, finite-cover homology
is computed directly as ker/im of the cover's dense boundary matrices, and
h_p^- comes from the exact product of cyclically shifted polynomials and
from Maillet's full determinant, determinants come from Fraction
elimination and from the Leibniz permutation sum, gcds over ZZ[t] from
Euclid over QQ[t], minor gcds from one Leibniz sum per minor folded by
that gcd, Smith forms from Euclid over kappa[t] on Poly entries, and
Laurent matrix products from Poly sums and products entry by entry.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

from cyclocover.arith import factorize, primitive_root
from cyclocover.linfield import rref
from cyclocover.matrices import LaurentMatrix, mat_identity, mat_mul
from cyclocover.modules import (FinGenVerdict, FinGenWitness,
                                INFINITE_DIMENSION, T_NOT_INTEGRAL,
                                TINV_NOT_INTEGRAL, minor_gcd)
from cyclocover.normal_forms import laurent_cokernel
from cyclocover.rings import GF, LaurentPoly, Poly, QQ, ZZ, cyclotomic, poly_gcd


# ---------------------------------------------------------------------------
# integer HNF (row style), used to canonicalize lattices

def hnf(rows):
    """Canonical row Hermite form of an integer matrix, as a tuple of rows."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    ncols = len(work[0])
    out = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        # clear below by Euclid
        for i in range(r + 1, len(work)):
            while work[i][c]:
                q = work[i][c] // work[r][c]
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                if work[i][c]:
                    work[r], work[i] = work[i], work[r]
        if work[r][c] < 0:
            work[r] = [-a for a in work[r]]
        for i in range(r):
            q = work[i][c] // work[r][c]
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r] if any(row))


# ---------------------------------------------------------------------------
# lattice-stabilization oracle for principal modules coker(f)

def _companion_frac(g):
    d = g.degree
    lead = Fraction(g.leading)
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        m[i][i - 1] = Fraction(1)
    for i in range(d):
        m[i][d - 1] = -Fraction(g.coeffs[i]) / lead
    return m

def _frac_inv(m):
    n = len(m)
    work = [row[:] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        piv = next(i for i in range(col, n) if work[i][col])
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [[work[i][n + j] for j in range(n)] for i in range(n)]

def _lattice_key(vectors, den):
    return hnf([[int(x * den) for x in v] for v in vectors])

def lattice_fg_oracle(f: Poly, max_n=12) -> bool:
    """Brute-force test: is coker(f) over ZZ[t,1/t] finitely generated over ZZ?

    Nonzero content > 1 surjects onto F_p[t,1/t], so only primitive f can
    give a finitely generated module; for those, track the abelian group
    generated by t^j * e (|j| <= N) inside the companion model and check
    the one-step stabilization L_N == L_{N+1}.
    """
    if f.is_zero:
        return False
    if abs(f.content()) > 1:
        return False
    g = f.primitive()
    k = g.low_order()
    if k:  # t is a unit of ZZ[t,1/t], so a t-power factor is irrelevant
        g = Poly(ZZ, g.coeffs[k:])
    if g.degree == 0:
        return True  # unit relation, zero module
    c = _companion_frac(g)
    cinv = _frac_inv(c)
    d = g.degree
    e = [Fraction(int(i == 0)) for i in range(d)]

    def gens(n):
        vs = [e]
        fwd = back = e
        for _ in range(n):
            fwd = [sum(c[i][k] * fwd[k] for k in range(d)) for i in range(d)]
            back = [sum(cinv[i][k] * back[k] for k in range(d)) for i in range(d)]
            vs.append(fwd)
            vs.append(back)
        return vs

    for n in range(1, max_n + 1):
        a = gens(n)
        b = gens(n + 1)
        den = 1
        for v in b:
            for x in v:
                den = lcm(den, x.denominator)
        if _lattice_key(a, den) == _lattice_key(b, den):
            return True
    return False


# ---------------------------------------------------------------------------
# finite generation read off the residue fields

def residue_fingen(M) -> FinGenVerdict:
    """finitely_generated_over_Z by Smith forms over the residue fields.

    At the generic point the QQ-cokernel must be finite dimensional with
    t and 1/t integral (every invariant factor in ZZ[t], the product of
    their constants +-1); then every prime dividing the content, leading
    or constant coefficient of the minor gcd must leave no free part over
    F_p.  A generic "no" names the product of the invariant factors, the
    characteristic polynomial of t.  The underlying rank of a square
    presentation is the QQ-dimension.
    """
    factors, free_rank = laurent_cokernel(M.relations, QQ)
    if free_rank > 0:
        return FinGenVerdict(False, FinGenWitness(0, INFINITE_DIMENSION, None),
                             None, ())
    char = Poly.one(QQ)
    for f in factors:
        char = char * f
    if any(c.denominator != 1 for f in factors for c in f.coeffs):
        return FinGenVerdict(False, FinGenWitness(0, T_NOT_INTEGRAL, char),
                             None, ())
    if char.constant not in (1, -1):
        return FinGenVerdict(False, FinGenWitness(0, TINV_NOT_INTEGRAL, char),
                             None, ())
    g = minor_gcd(M)
    prim = g.primitive()
    bad = g.content() * abs(prim.leading) * abs(prim.constant)
    primes = tuple(sorted(factorize(bad))) if bad > 1 else ()
    for p in primes:
        _, p_free = laurent_cokernel(M.relations, GF(p))
        if p_free > 0:
            return FinGenVerdict(False,
                                 FinGenWitness(p, INFINITE_DIMENSION, None),
                                 None, primes)
    rank = None
    if M.relations.ncols == M.generators:
        rank = sum(f.degree for f in factors)
    return FinGenVerdict(True, None, rank, primes)


# ---------------------------------------------------------------------------
# direct finite-cover homology: ker/im of dense matrices over a field

def kernel_basis(ring, rows, ncols):
    """Basis (list of column vectors) of the right kernel of `rows`."""
    zero = ring.coerce(0)
    one = ring.coerce(1)
    R, pivots = rref(ring, rows)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for j in free:
        v = [zero] * ncols
        v[j] = one
        for r_i, c in enumerate(pivots):
            v[c] = ring.coerce(-R[r_i][j])
        basis.append(v)
    return basis

def solve(ring, columns, targets, nrows):
    """Coordinates x with K * x = w for each target w; K has the given columns.

    Row-reduces [K | W]: when K has full column rank its pivots are the
    first len(columns) columns, and the rows above read off the solutions.
    Raises ValueError if the columns are dependent or a target is outside
    their span.
    """
    k = len(columns)
    aug = [[col[i] for col in columns] + [w[i] for w in targets]
           for i in range(nrows)]
    R, pivots = rref(ring, aug)
    if pivots[:k] != list(range(k)):
        raise ValueError("columns are linearly dependent")
    if len(pivots) > k:
        raise ValueError("vector not in the column span")
    return [[R[i][k + t] for i in range(k)] for t in range(len(targets))]

class QuotientSpace:
    """ker/im presentation of a homology group over a field.

    `kernel` is a list of column vectors spanning ker (linearly
    independent); `image_cols` are vectors inside ker spanning im.
    """

    def __init__(self, ring, kernel, image_cols, ambient_dim):
        self.ring = ring
        self.kernel = kernel
        self.ambient_dim = ambient_dim
        coords = solve(ring, kernel, image_cols, ambient_dim)
        s = len(kernel)
        # echelonize the image coordinates inside kappa**s
        echelon, self.im_pivots = rref(ring, coords)
        self.echelon = [row for row in echelon if any(row)]
        pivset = set(self.im_pivots)
        self.quot_indices = [i for i in range(s) if i not in pivset]

    @property
    def dim(self):
        return len(self.quot_indices)

    def reduce(self, coords):
        """Project kernel coordinates to quotient coordinates."""
        v = coords[:]
        for row, p in zip(self.echelon, self.im_pivots):
            if v[p]:
                f = v[p]
                v = [self.ring.coerce(x - f * y) for x, y in zip(v, row)]
        return [v[i] for i in self.quot_indices]

    def action_matrix(self, op):
        """Matrix on ker/im of an ambient linear map preserving ker and im.

        `op` maps an ambient vector to its image.
        """
        images = [op(self.kernel[i]) for i in self.quot_indices]
        cols = [self.reduce(c)
                for c in solve(self.ring, self.kernel, images, self.ambient_dim)]
        return [[cols[j][i] for j in range(len(cols))] for i in range(self.dim)]

def _big_matrix(mat, field, q):
    """Base change of a LaurentMatrix over ZZ along ZZ[t,1/t] ->
    kappa[t]/(t^q - 1), cell-major basis."""
    zero = field.coerce(0)
    rows = mat.nrows * q
    cols = mat.ncols * q
    big = [[zero] * cols for _ in range(rows)]
    for i in range(mat.nrows):
        for j in range(mat.ncols):
            e = mat.entries[i][j]
            if e.is_zero:
                continue
            for idx, c in enumerate(e.body.coeffs):
                if not c:
                    continue
                shift = (e.val + idx) % q
                cf = field.coerce(c)
                for a in range(q):
                    big[i * q + (a + shift) % q][j * q + a] = field.coerce(
                        big[i * q + (a + shift) % q][j * q + a] + cf)
    return big

def direct_cover_homology(X, field, q):
    """Homology of the q-fold cyclic cover as ker/im of dense matrices.

    Returns per degree (dimension, matrix of the induced t-action) in the
    basis-dependent coordinates of the kernel; compare actions up to
    similarity.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    d = X.boundaries
    out = []
    for j, rank in enumerate(X.ranks):
        n = rank * q
        # the maps d_0 and d_{top+1} off the ends are zero
        dj = _big_matrix(d[j - 1] if j else LaurentMatrix.zero(ZZ, 0, rank),
                         field, q)
        dj1 = _big_matrix(d[j] if j < len(d) else LaurentMatrix.zero(ZZ, rank, 0),
                          field, q)
        ker = kernel_basis(field, dj, n)
        im_cols = [list(col) for col in zip(*dj1)]
        quot = QuotientSpace(field, ker, im_cols, n)

        def shift(v):
            # t acts on each cell's block of q coordinates as the cyclic shift
            return [v[c * q + (a - 1) % q]
                    for c in range(rank) for a in range(q)]

        out.append((quot.dim, quot.action_matrix(shift) if quot.dim else []))
    return out


# ---------------------------------------------------------------------------
# h_p^- over the integers: no CRT and no row reduction of Maillet's matrix

def _cyclic_mul(a, b, n):
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % n] += x * y
    return out


def charsum_hp_minus(p):
    """h_p^- = (-1)^((p-1)/2) * prod_{a odd} f(zeta^a) / (2p)^((p-3)/2).

    The product of the cyclic shifts f(T^a), f(T) = sum_j (g^j mod p) T^j,
    is taken exactly modulo T^(p-1) - 1 and reduced modulo the (p-1)-th
    cyclotomic polynomial, where it must be a constant.
    """
    n = p - 1
    g = primitive_root(p)
    f = [pow(g, j, p) for j in range(n)]
    prod = None
    for a in range(1, n, 2):
        shifted = [0] * n
        for j, x in enumerate(f):
            shifted[(a * j) % n] += x
        prod = shifted if prod is None else _cyclic_mul(prod, shifted, n)
    _, r = divmod(Poly(ZZ, tuple(prod)), cyclotomic(n))
    assert r.degree <= 0, "character-sum product is not Galois-stable"
    c = int(r.constant)
    num = c if (p - 1) // 2 % 2 == 0 else -c
    den = (2 * p) ** ((p - 3) // 2)
    assert num > 0 and num % den == 0, num
    return num // den


def maillet_matrix(p):
    """(a * b^-1 mod p)_{1<=a,b<=(p-1)/2}, least positive residues."""
    h = (p - 1) // 2
    return [[a * pow(b, -1, p) % p for b in range(1, h + 1)] for a in range(1, h + 1)]


def maillet_hp_minus(p):
    """h_p^- = |det maillet_matrix(p)| / p^((p-3)/2)."""
    d = abs(fraction_det(maillet_matrix(p)))
    den = p ** ((p - 3) // 2)
    assert d and d % den == 0, d
    return d // den


# ---------------------------------------------------------------------------
# determinants by Fraction elimination and by the Leibniz formula

def fraction_det(a):
    """Determinant of a square integer matrix by Gaussian elimination over
    Fraction, with no fraction-free step: an oracle for `det_int` that
    shares none of its code."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        pk = m[k][k]
        det *= pk
        for i in range(k + 1, n):
            f = m[i][k] / pk
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    assert det.denominator == 1
    return int(det)


def leibniz_det(a, one, zero):
    """sum over permutations s of sign(s) * prod_i a[i][s(i)]; no division."""
    n = len(a)
    total = zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = one
        for i, j in enumerate(perm):
            term = term * a[i][j]
        total = total - term if inversions % 2 else total + term
    return total


# ---------------------------------------------------------------------------
# gcd over ZZ[t] through Euclid over QQ[t]

def gcd_zz_over_qq(a, b):
    """gcd over ZZ[t] via Gauss: gcd of contents times the primitive,
    positive-leading associate of the monic gcd over QQ[t]."""
    if a.is_zero:
        return b if b.is_zero or b.leading > 0 else -b
    if b.is_zero:
        return a if a.leading > 0 else -a
    c = gcd(a.content(), b.content())
    g = poly_gcd(a.to_ring(QQ), b.to_ring(QQ))
    den = lcm(*(q.denominator for q in g.coeffs))
    return Poly(ZZ, [int(q * den) for q in g.coeffs]).primitive().scale(c)


# ---------------------------------------------------------------------------
# minor gcd, one Leibniz sum per minor

def minor_gcd_oracle(mat, size):
    """gcd over ZZ[t] (content included, positive leading coefficient) of
    every size x size minor of a LaurentMatrix over ZZ: each row is
    cleared into ZZ[t] by the power of t that brings its least valuation to
    0, each minor is the Leibniz sum (`leibniz_det`) of the cleared Poly
    rows, and its t-power is stripped before `gcd_zz_over_qq`."""
    if size > mat.nrows or size > mat.ncols:
        return Poly.zero(ZZ)
    poly_rows = []
    for row in mat.entries:
        v = min((e.val for e in row if not e.is_zero), default=0)
        poly_rows.append([Poly(ZZ, [0] * (e.val - v) + list(e.body.coeffs))
                          for e in row])
    one, zero = Poly.one(ZZ), Poly.zero(ZZ)
    g = zero
    for rsel in combinations(range(mat.nrows), size):
        for csel in combinations(range(mat.ncols), size):
            d = leibniz_det([[poly_rows[i][j] for j in csel] for i in rsel],
                            one, zero)
            if d:
                g = gcd_zz_over_qq(g, Poly(ZZ, d.coeffs[d.low_order():]))
    return g


# ---------------------------------------------------------------------------
# Smith normal form by Euclid over kappa[t] on Poly entries

def smith_oracle(rows):
    """(monic invariant factors, rank) of a matrix of Poly over a field,
    with every step a Poly division over the field: the same pivot rule
    (least degree, then lowest (row, col)) and diagonal read-off as the
    library's Smith core, without its fraction-free coefficient lists."""
    D = [list(row) for row in rows]
    diag = []
    while True:
        nonzero = [(e.degree, i, j) for i, row in enumerate(D)
                   for j, e in enumerate(row) if e]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        D[0], D[pi] = D[pi], D[0]
        for row in D:
            row[0], row[pj] = row[pj], row[0]
        dirty = True
        while dirty:
            dirty = False
            for i in range(1, len(D)):
                if not D[i][0]:
                    continue
                q = divmod(D[i][0], D[0][0])[0]
                if q:
                    D[i] = [a - q * b for a, b in zip(D[i], D[0])]
                if D[i][0]:
                    D[0], D[i] = D[i], D[0]
                    dirty = True
            if dirty:
                continue
            for j in range(1, len(D[0])):
                if not D[0][j]:
                    continue
                D[0][j] = divmod(D[0][j], D[0][0])[1]
                if D[0][j]:
                    for row in D:
                        row[0], row[j] = row[j], row[0]
                    dirty = True
                    break
        diag.append(D[0][0])
        D = [row[1:] for row in D[1:]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if divmod(diag[j], diag[i])[1]:
                g = poly_gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] * diag[j] // g
        diag[i] = diag[i].monic()
    return diag, len(diag)


# ---------------------------------------------------------------------------
# brute-force matrix order

def brute_order(a, cap=2000):
    n = len(a)
    acc = mat_identity(n)
    for m in range(1, cap + 1):
        acc = mat_mul(acc, a)
        if acc == mat_identity(n):
            return m
    return None

def brute_order_prime_to(a, k, cap=2000):
    n = len(a)
    acc = mat_identity(n)
    for m in range(1, cap + 1):
        acc = mat_mul(acc, a)
        if acc == mat_identity(n) and gcd(m, k) == 1:
            return m
    return None

def brute_automorphism_order(free, orders, torsion, mixing, cap=5000):
    """Least l >= 1 with phi^l = id for phi = [[free, 0], [mixing, torsion]]
    on Z^r + sum Z/d_i (rows of the torsion part read mod d_i), by powering
    the block matrix one factor at a time."""
    r = len(free)
    phi = ([row + [0] * len(orders) for row in free]
           + [m + t for m, t in zip(mixing, torsion)])

    def reduce(a):
        return a[:r] + [[x % d for x in row] for d, row in zip(orders, a[r:])]

    ident = reduce(mat_identity(len(phi)))
    acc = ident
    for l in range(1, cap + 1):
        acc = reduce(mat_mul(acc, phi))
        if acc == ident:
            return l
    return None


# ---------------------------------------------------------------------------
# Laurent matrix product on Poly arithmetic

def laurent_mat_mul(a, b):
    """The product a * b of two LaurentMatrix over ZZ.  Each entry is a
    sum of terms t^w * p, w the sum of the two factors' valuations and p
    the `Poly` product of their bodies: the Polys t^(w - v) * p are added,
    v the least w, and the entry is t^v times that sum."""
    if a.ncols != b.nrows:
        raise ValueError("matrix shape mismatch in multiplication")
    rows = []
    for arow in a.entries:
        row = []
        for j in range(b.ncols):
            terms = [(x.val + y.val, x.body * y.body)
                     for x, y in zip(arow, (brow[j] for brow in b.entries))
                     if not (x.is_zero or y.is_zero)]
            v = min((w for w, _ in terms), default=0)
            acc = Poly.zero(ZZ)
            for w, p in terms:
                acc = acc + Poly(ZZ, (0,) * (w - v) + p.coeffs)
            row.append(LaurentPoly(ZZ, v, acc))
        rows.append(row)
    return LaurentMatrix(ZZ, a.nrows, b.ncols, rows)


# ---------------------------------------------------------------------------
# random generators

def rand_unimodular_int(n, rng, steps=6):
    """Random unimodular integer matrix P together with its inverse."""
    m, minv = mat_identity(n), mat_identity(n)
    if n < 2:
        return m, minv
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        # (row_i += c row_j) on the left is undone by
        # (col_j -= c col_i) on the right
        for row in minv:
            row[j] -= c * row[i]
    return m, minv

def rand_unimodular_laurent(n, rng, steps=4):
    """Random unimodular Laurent matrix over ZZ with its exact inverse."""
    u = uinv = LaurentMatrix(ZZ, n, n, mat_identity(n))
    lams = [(0, 1), (0, -1), (1, 1), (-1, 1), (1, -1)]  # c * t^k as (k, c)
    if n < 2:
        return u, uinv
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        k, c = rng.choice(lams)
        u = laurent_mat_mul(_elementary(n, i, j, k, c), u)
        uinv = laurent_mat_mul(uinv, _elementary(n, i, j, k, -c))
    return u, uinv

def _elementary(n, i, j, k, c):
    """The identity with c * t^k at (i, j), i != j."""
    rows = mat_identity(n)
    rows[i][j] = LaurentPoly(ZZ, k, [c])
    return LaurentMatrix(ZZ, n, n, rows)


def random_chain_endo(rng, max_degrees=3, max_h=2, max_acyclic=1):
    """Random finite free ZZ-complex with a commuting endomorphism.

    Built as (zero-boundary summands with prescribed monodromy) plus
    (acyclic identity pairs), then conjugated degreewise by random
    unimodular integer matrices.  Returns (ranks, boundaries, f, hom)
    where hom[j] is the induced matrix on H_j(F; QQ) by construction.
    """
    ndeg = rng.randint(1, max_degrees)
    h = [rng.randint(0, max_h) for _ in range(ndeg)]
    if sum(h) == 0:
        h[rng.randrange(ndeg)] = 1
    a = [rng.randint(0, max_acyclic) for _ in range(ndeg - 1)]  # a[j]: degrees j+1, j
    hom = [[[rng.randint(-3, 3) for _ in range(h[j])] for _ in range(h[j])]
           for j in range(ndeg)]
    acyclic_f = [[[rng.randint(-2, 2) for _ in range(a[j])] for _ in range(a[j])]
                 for j in range(ndeg - 1)]
    # basis order in degree j: [H_j | upper end of pair a[j-1] | lower end of
    # pair a[j]]; pair a[j] spans degrees (j+1, j) with identity boundary
    def rank_parts(j):
        upper = a[j - 1] if j >= 1 else 0
        lower = a[j] if j < ndeg - 1 else 0
        return h[j], upper, lower
    ranks = [sum(rank_parts(j)) for j in range(ndeg)]
    boundaries = []
    for j in range(1, ndeg):
        rows = ranks[j - 1]
        cols = ranks[j]
        m = [[0] * cols for _ in range(rows)]
        hj, upper_j, _ = rank_parts(j)
        h_tgt, _, lower_tgt = rank_parts(j - 1)
        off_tgt = ranks[j - 1] - lower_tgt
        for i in range(upper_j):
            m[off_tgt + i][hj + i] = 1
        boundaries.append(m)
    f = []
    for j in range(ndeg):
        hj, upper_j, lower_j = rank_parts(j)
        n = ranks[j]
        m = [[0] * n for _ in range(n)]
        for x in range(hj):
            for y in range(hj):
                m[x][y] = hom[j][x][y]
        if upper_j:
            blk = acyclic_f[j - 1]
            for x in range(upper_j):
                for y in range(upper_j):
                    m[hj + x][hj + y] = blk[x][y]
        if lower_j:
            blk = acyclic_f[j]
            for x in range(lower_j):
                for y in range(lower_j):
                    m[hj + upper_j + x][hj + upper_j + y] = blk[x][y]
        f.append(m)
    # disguise with a degreewise unimodular change of basis
    ps, pinvs = zip(*(rand_unimodular_int(ranks[j], rng) for j in range(ndeg)))
    boundaries = [mat_mul(mat_mul(ps[j - 1], b), pinvs[j])
                  for j, b in enumerate(boundaries, start=1)]
    f = [mat_mul(mat_mul(ps[j], fj), pinvs[j]) for j, fj in enumerate(f)]
    return ranks, boundaries, f, hom
