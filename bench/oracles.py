"""Independent oracles for checking cyclocover's answers.

Nothing here imports cyclocover: each check is computed from first
principles on plain Python ints and Fractions, by methods unrelated to
the library's own (Leibniz determinants instead of Bareiss, Gaussian
rank instead of Smith forms, brute-force powering instead of
characteristic polynomials, the Bernoulli recurrence instead of
class-number formulas).

Integer polynomials are coefficient lists, lowest degree first, with no
trailing zeros; the zero polynomial is [].
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd


# ---------------------------------------------------------------------------
# rank and nullity over QQ and GF(p)

def _reduce(x, p):
    return Fraction(x) if p is None else x % p


def rank(rows, p=None):
    """Rank of an integer or rational matrix over QQ (p None) or GF(p)."""
    work = [[_reduce(x, p) for x in row] for row in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c] if p is None else pow(work[r][c], -1, p)
        for i in range(r + 1, len(work)):
            if work[i][c]:
                f = work[i][c] * inv
                work[i] = [_reduce(a - f * b, p) for a, b in zip(work[i], work[r])]
        r += 1
    return r


def nullity(rows, p=None):
    """Dimension of the right kernel of a square matrix."""
    return len(rows) - rank(rows, p) if rows else 0


def mat_mul(a, b, p=None):
    n = len(b[0]) if b else 0
    out = [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(n)]
           for row in a]
    return out if p is None else [[x % p for x in row] for row in out]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_pow(a, e, p=None):
    """a**e for e >= 0 by repeated squaring."""
    result = identity(len(a))
    base = [row[:] for row in a]
    while e:
        if e & 1:
            result = mat_mul(result, base, p)
        base = mat_mul(base, base, p)
        e >>= 1
    return result


def is_identity(a, p=None):
    return all(_reduce(x - (i == j), p) == 0
               for i, row in enumerate(a) for j, x in enumerate(row))


def cover_dims(blocks, q, p=None):
    """dim H_j(X_q; kappa) for the mapping torus of f with f_* = blocks[j].

    The q-fold cyclic cover of a mapping torus is the mapping torus of
    f**q, so the Wang sequence splits into coker(M_j**q - 1) and
    ker(M_{j-1}**q - 1); over a field both have dimension nullity.
    The torus has one more degree than the fibre.
    """
    null = []
    for m in blocks:
        mq = mat_pow(m, q, p)
        null.append(nullity([[x - (i == j) for j, x in enumerate(row)]
                             for i, row in enumerate(mq)], p))
    null.append(0)
    return [null[j] + (null[j - 1] if j else 0) for j in range(len(null))]


def order_prime_to(a, k, cap):
    """Least m in 1..cap with a**m = 1 and gcd(m, k) = 1, or None."""
    acc = [row[:] for row in a]
    for m in range(1, cap + 1):
        if gcd(m, k) == 1 and is_identity(acc):
            return m
        acc = mat_mul(acc, a)
    return None


def automorphism_order(free, orders, torsion, mixing, cap):
    """Order of (u, v) -> (F u, T v + X u) on Z^r + sum Z/d_i, by powering.

    Row i of the torsion part is read modulo orders[i].
    """
    r, s = len(free), len(orders)
    n = r + s
    # one block matrix [[F, 0], [X, T]] acting on (u, v)
    big = [[0] * n for _ in range(n)]
    for i in range(r):
        big[i][:r] = free[i]
    for i in range(s):
        big[r + i][:r] = mixing[i]
        big[r + i][r:] = torsion[i]
    acc = [row[:] for row in big]
    for m in range(1, cap + 1):
        acc = [row if i < r else [x % orders[i - r] for x in row]
               for i, row in enumerate(acc)]
        ok = all((acc[i][j] - (i == j)) == 0 for i in range(r) for j in range(n))
        ok = ok and all((acc[r + i][j] - (r + i == j)) % orders[i] == 0
                        for i in range(s) for j in range(n))
        if ok:
            return m
        acc = mat_mul(acc, big)
    return None


# ---------------------------------------------------------------------------
# integer polynomials

def trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def padd(f, g):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                 for i in range(n)])


def pneg(f):
    return [-c for c in f]


def pmul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def content(f):
    c = 0
    for x in f:
        c = gcd(c, x)
    return c


def strip_t(f):
    """Drop the power of t dividing f (a unit in ZZ[t, 1/t])."""
    k = 0
    while k < len(f) and f[k] == 0:
        k += 1
    return list(f[k:])


def normalize(f):
    """Associate of f up to +-t**k: no t-power factor, positive leading."""
    f = strip_t(trim(f))
    if f and f[-1] < 0:
        f = pneg(f)
    return f


def primitive(f):
    """f divided by its content, up to +-t**k."""
    f = normalize(f)
    c = content(f)
    return [x // c for x in f] if c else []


def _prem(f, g):
    """Pseudo-remainder of f by g over ZZ (lc(g)**k * f mod g)."""
    f = trim(f)
    dg, lg = len(g) - 1, g[-1]
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        lf = f[-1]
        f = padd([c * lg for c in f], pneg([0] * shift + [c * lf for c in g]))
    return f


def pgcd(f, g):
    """gcd over ZZ[t], content included, normalized (positive leading)."""
    if not f:
        return normalize(g)
    if not g:
        return normalize(f)
    c = gcd(content(f), content(g))
    a, b = primitive(f), primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, (primitive(r) if r else [])
    return [c * x for x in normalize(a)]


def det(m):
    """Determinant of a small square matrix of integer polynomials (Leibniz)."""
    n = len(m)
    total = []
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = [sign]
        for i in range(n):
            term = pmul(term, m[i][perm[i]])
            if not term:
                break
        total = padd(total, term)
    return total


def maximal_minor_gcd(rows):
    """gcd over ZZ[t] of all g x g minors of a g x r polynomial matrix."""
    g = len(rows)
    r = len(rows[0]) if rows else 0
    out = []
    for cols in combinations(range(r), g):
        out = pgcd(out, det([[row[c] for c in cols] for row in rows]))
        if out == [1]:
            break
    return out


def fingen_principal(f):
    """Closed form: coker(f) over ZZ[t, 1/t] is finitely generated over ZZ
    iff f has content 1 and its t-free part has leading and constant
    coefficients +-1.  Returns (answer, rank over ZZ when finite)."""
    f = strip_t(trim(f))
    if not f:
        return False, None
    if content(f) != 1 or abs(f[0]) != 1 or abs(f[-1]) != 1:
        return False, None
    return True, len(f) - 1


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent: coefficient}

def laurent_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def laurent_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def laurent_mat_mul(a, b):
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        orow = []
        for j in range(n):
            acc = {}
            for k, x in enumerate(row):
                acc = laurent_add(acc, laurent_mul(x, b[k][j]))
            orow.append(acc)
        out.append(orow)
    return out


def mapping_torus(ranks, bnds, f):
    """Cone of (t - f) as a list of Laurent boundary matrices.

    Degree j of the torus is C_j + C_{j-1} of the fibre, with boundary
    [[d_j, t - f_{j-1}], [0, -d_{j-1}]].
    """
    top = len(ranks) - 1

    def rk(j):
        return ranks[j] if 0 <= j <= top else 0

    out_ranks = [rk(j) + rk(j - 1) for j in range(top + 2)]
    mats = []
    for j in range(1, top + 2):
        m = [[{} for _ in range(out_ranks[j])] for _ in range(out_ranks[j - 1])]
        if j <= top:
            for a in range(rk(j - 1)):
                for b in range(rk(j)):
                    if bnds[j - 1][a][b]:
                        m[a][b] = {0: bnds[j - 1][a][b]}
        for a in range(rk(j - 1)):
            for b in range(rk(j - 1)):
                e = {0: -f[j - 1][a][b]} if f[j - 1][a][b] else {}
                if a == b:
                    e = laurent_add(e, {1: 1})
                m[a][rk(j) + b] = e
        if j >= 2:
            for a in range(rk(j - 2)):
                for b in range(rk(j - 1)):
                    if bnds[j - 2][a][b]:
                        m[rk(j - 1) + a][rk(j) + b] = {0: -bnds[j - 2][a][b]}
        mats.append(m)
    return out_ranks, mats


# ---------------------------------------------------------------------------
# Bernoulli numbers and Kummer's criterion

def bernoulli(n):
    """B_0 .. B_n as Fractions (B_1 = -1/2), from sum_k C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        if m > 1 and m % 2:
            b.append(Fraction(0))
            continue
        acc = sum(comb(m + 1, k) * b[k] for k in range(m))
        b.append(-acc / (m + 1))
    return b


def irregular(p, bern):
    """Kummer: p is irregular iff p divides a numerator of B_2 .. B_{p-3}."""
    return any(bern[k].numerator % p == 0 for k in range(2, p - 2, 2))


def odd_part(n):
    while n % 2 == 0:
        n //= 2
    return n


def least_odd_prime_factor(n, limit):
    """Least odd prime factor of n if it is below limit, else None."""
    m = odd_part(n)
    d = 3
    while d < limit and d * d <= m:
        if m % d == 0:
            return d
        d += 2
    if m > 1 and m < limit and m < d * d:
        return m
    return None


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
