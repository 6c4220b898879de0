"""Periodicity of monodromy: the conjugation equation and torsion lifting.

Solves B * A^k * B^{-1} = A^{+-1} for the exact order of A (the relation
is checked as a product identity, since A and B are unimodular), lifts the
free-quotient period through the torsion subgroup, and aggregates the
per-degree data of a monodromy action.
"""

from math import gcd, lcm
from operator import mul
from typing import Tuple

from .arith import factorize, order_from_multiple, power
from .errors import (InternalCheckError, PreconditionError, check_count,
                     check_sign, shown)
from .matrices import (det_int, int_mat_check, mat_identity, mat_is_identity,
                       mat_mul, mat_pow)
from .normal_forms import char_poly, cyclotomic_indices, cyclotomic_order
from .rings import (gcd_gf_coeffs, mulmod_coeffs, pseudo_divmod, strip_coeffs,
                    sub_mul_coeffs)


class RelationError(PreconditionError):
    """The claimed conjugation relation does not hold."""


def _charpoly_mod(a, p):
    """det(xI - a) over GF(p) as a coefficient list, low degree first.  a is
    brought to upper Hessenberg form h by similarity; the polynomial c_m of
    its leading m x m block then follows c_{m+1} = (x - h_mm) c_m -
    sum_{i<m} h_im h_{i+1,i} ... h_{m,m-1} c_i."""
    h = [[x % p for x in row] for row in a]
    n = len(h)
    for j in range(n - 2):
        k = j + 1
        piv = next((i for i in range(k, n) if h[i][j]), None)
        if piv is None:
            continue
        h[k], h[piv] = h[piv], h[k]
        for row in h:
            row[k], row[piv] = row[piv], row[k]
        inv = pow(h[k][j], -1, p)
        for i in range(k + 1, n):
            c = h[i][j] * inv % p
            if c:  # row i -= c row k, then column k += c column i
                h[i] = [(x - c * y) % p for x, y in zip(h[i], h[k])]
                for row in h:
                    row[k] = (row[k] + c * row[i]) % p
    polys = [[1]]
    for m in range(n):
        nxt = sub_mul_coeffs(1, [0] + polys[m], [h[m][m]], polys[m], p)
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * h[i + 1][i] % p
            if not sub:
                break
            nxt = sub_mul_coeffs(1, nxt, [h[i][m] * sub], polys[i], p)
        polys.append(nxt)
    return polys[n]


def _factor_degrees(f, p):
    """The degrees of the irreducible factors other than x - 1 of f over
    GF(p), a coefficient list with f(0) != 0, by distinct-degree
    factorization: those of degree j divide x^(p^j) - x.

    With f0 the f of degree n left once x - 1 is divided out, h = x^(p^j)
    mod f0 steps to h^p = sum h_i x^(p i) mod f0 by Berlekamp's matrix,
    whose row i is x^(p i) mod f0: one n x n product per degree, not a
    power.  Reading h modulo each later f is right, as f divides f0.  Once
    every factor of degree < j is out, an f of degree < 2j is irreducible."""
    while len(f) > 1 and sum(f) % p == 0:  # f(1) = 0
        f = pseudo_divmod(f, [p - 1, 1], p)[1]
    n = len(f) - 1
    xp = power([0, 1], p, lambda u, v: mulmod_coeffs(u, v, f, p), [1])
    rows, row = [], [1]
    for _ in range(n):
        rows.append(row + [0] * (n - len(row)))
        row = mulmod_coeffs(row, xp, f, p)
    cols = list(zip(*rows))
    degrees, h, j = [], [0, 1], 0
    while len(f) > 1:
        j += 1
        if len(f) - 1 < 2 * j:
            degrees.append(len(f) - 1)
            break
        h = strip_coeffs([sum(map(mul, h, col)) % p for col in cols])
        g = gcd_gf_coeffs(f, sub_mul_coeffs(1, h, [1], [0, 1], p), p)
        if len(g) > 1:
            degrees.append(j)
            while len(g) > 1:  # take every factor of degree j out of f
                f = pseudo_divmod(f, g, p)[1]
                g = gcd_gf_coeffs(f, g, p)
    return degrees


def _order_multiple(orders, block, factors):
    """A multiple of the order of the torsion block, T = sum Z/d_i, and a
    set holding its primes; `factors` is d_s's.

    On the ell-part of T, of exponent ell^a, the block acts on T/ell T by M:
    its rows and columns at the n orders d_i divisible by ell, mod ell.
    M = s u with s semisimple and u unipotent, commuting.  u^(ell^t) = I
    for ell^t >= n, t the bit length of n - 1; the order of s is the lcm of
    those of its eigenvalues, which divide ell^j - 1 for an eigenvalue of
    degree j over GF(ell) and are 1 for the eigenvalue 1.  A power of the
    action that is I on T/ell T is 1 + psi with psi(T) in ell T; its ell-th
    power is 1 + psi' with psi'(T) in ell^2 T, so ell^(a-1) more is the
    identity.  Only the ell^j - 1 for the degrees j that M has are factored."""
    mult, primes = 1, set(factors)
    for ell, a in factors.items():
        idx = [i for i, d in enumerate(orders) if d % ell == 0]
        mult = lcm(mult, ell ** ((len(idx) - 1).bit_length() + a - 1))
        sub = [[block[i][j] for j in idx] for i in idx]
        for j in _factor_degrees(_charpoly_mod(sub, ell), ell):
            mult = lcm(mult, ell ** j - 1)
            primes.update(factorize(ell ** j - 1))
    return mult, primes


class FgAbelianAutomorphism:
    """Automorphism of Z^r + sum Z/d_i in block-triangular form.

    free_block acts on Z^r, torsion_block on the torsion part (entries of
    row i read modulo d_i), mixing_block records the component Z^r -> T.
    The constructor checks the blocks and reduces row i modulo d_i >= 2;
    `compose` and `power` build on checked blocks without checking again.
    Two automorphisms are equal when their four blocks are."""

    def __init__(self, free_block, torsion_orders=None, torsion_block=None,
                 mixing_block=None):
        self.free_block = free_block
        self.torsion_orders = [] if torsion_orders is None else torsion_orders
        self.torsion_block = [] if torsion_block is None else torsion_block
        self.mixing_block = [] if mixing_block is None else mixing_block
        d = self.torsion_orders
        r, s = len(self.free_block), len(d)
        int_mat_check("free block", self.free_block, r, r)
        for x in d:
            check_count("a torsion order", x, 2)
        # orders >= 2 in a divisibility chain are sorted
        if any(d[i] % d[i - 1] for i in range(1, s)):
            raise PreconditionError("torsion orders must form a divisibility chain")
        int_mat_check("torsion block", self.torsion_block, s, s)
        int_mat_check("mixing block", self.mixing_block, s, r)
        if r and det_int(self.free_block) not in (1, -1):
            raise PreconditionError("free block is not invertible over ZZ")
        # well-definedness: column j has order d_j, so T[i][j]*d_j = 0 mod d_i
        if any(x * d[j] % d[i] for i, row in enumerate(self.torsion_block)
               for j, x in enumerate(row)):
            raise PreconditionError("torsion block does not preserve orders")
        # invertibility on torsion: the mod-p reduction on T/pT is invertible
        # for each prime p dividing the exponent
        self._factors = factorize(d[-1]) if s else {}
        for p in self._factors:
            idx = [i for i in range(s) if d[i] % p == 0]
            sub = [[self.torsion_block[i][j] % p for j in idx] for i in idx]
            if det_int(sub) % p == 0:
                raise PreconditionError(f"torsion block is not invertible (mod {p})")
        self.torsion_block = self._reduce_rows(self.torsion_block)
        self.mixing_block = self._reduce_rows(self.mixing_block)

    def _blocks(self):
        return (self.free_block, self.torsion_orders, self.torsion_block,
                self.mixing_block)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._blocks() == other._blocks()

    __hash__ = None  # the blocks are lists

    def __repr__(self):
        return ("FgAbelianAutomorphism(free_block={!r}, torsion_orders={!r}, "
                "torsion_block={!r}, mixing_block={!r})".format(*self._blocks()))

    def _reduce_rows(self, mat):
        return [[x % self.torsion_orders[i] for x in row]
                for i, row in enumerate(mat)]

    def _checked(self, free, torsion, mixing):
        """Same group, blocks made from checked ones: reduced, not rechecked."""
        phi = object.__new__(type(self))
        phi.__dict__.update(self.__dict__, free_block=free)
        phi.torsion_block, phi.mixing_block = map(self._reduce_rows, (torsion, mixing))
        return phi

    @property
    def free_rank(self):
        return len(self.free_block)

    def compose(self, other):
        """self after other."""
        if (self.free_rank != other.free_rank
                or self.torsion_orders != other.torsion_orders):
            raise PreconditionError("automorphisms of different groups")
        mix = [[a + b for a, b in zip(r1, r2)] for r1, r2 in
               zip(mat_mul(self.mixing_block, other.free_block),
                   mat_mul(self.torsion_block, other.mixing_block))]
        return self._checked(mat_mul(self.free_block, other.free_block),
                             mat_mul(self.torsion_block, other.torsion_block), mix)

    def power(self, e):
        if e:
            return power(self, e, FgAbelianAutomorphism.compose, None)
        r, s = self.free_rank, len(self.torsion_orders)
        return self._checked(mat_identity(r), mat_identity(s), [[0] * r] * s)

    def is_identity(self):
        # rows are reduced modulo d_i >= 2, so the identity's blocks are I, I, 0
        return (mat_is_identity(self.free_block) and mat_is_identity(self.torsion_block)
                and not any(map(any, self.mixing_block)))

    def torsion_order(self):
        """Multiplicative order of the action on the torsion subgroup T: the
        least divisor of `_order_multiple` at which the torsion block's power
        is I."""
        probe = self._checked([], self.torsion_block, [[] for _ in self.torsion_block])
        multiple, primes = _order_multiple(self.torsion_orders, self.torsion_block,
                                           self._factors)
        return order_from_multiple(multiple, primes,
                                   lambda e: probe.power(e).is_identity())


def _check_relation_input(r, b, sign):
    """B an r x r integer matrix and sign +-1, or PreconditionError."""
    int_mat_check("B", b, r, r)
    check_sign(sign)


def solve_prop_matrix(a, b, k, sign):
    """Minimal m with A^m = I and gcd(m, k) = 1, given B A^k B^{-1} = A^sign.

    The relation is verified exactly before m is returned; a failure is a
    precondition error, reached without powering when some eigenvalue of
    A is not a root of unity.  An A of infinite order despite a valid
    relation would contradict the theory and raises an internal error.
    """
    int_mat_check("A", a, len(a), len(a))
    _check_relation_input(len(a), b, sign)
    check_count("k", k, 2)
    return _solve_relation(a, b, k, sign)


def _solve_relation(a, b, k, sign):
    """`solve_prop_matrix` on A, B, k and sign whose shapes and values are
    already checked."""
    # the constant term of det(tI - A) is (-1)^n det A
    f = char_poly(a)
    if f.constant not in (1, -1):
        raise RelationError("A must be invertible over ZZ")
    if det_int(b) not in (1, -1):
        raise RelationError("B must be invertible over ZZ")
    # the relation makes A^(k^2) similar to A, so lambda -> lambda^(k^2)
    # permutes the eigenvalues of A and each is a root of unity.  Check
    # that before powering: otherwise the entries of A^k grow linearly in k.
    indices = cyclotomic_indices(f.coeffs)
    if indices is None:
        raise RelationError("B A^k B^-1 = A^sign does not hold")
    # A^m = I once `cyclotomic_order` returns m, so A^k = A^(k mod m)
    m = cyclotomic_order(a, indices)
    # B is invertible, so the relation reads B A^k = A B for sign +1 and
    # A B A^k = B for sign -1
    bak = mat_mul(b, mat_pow(a, k if m is None else k % m))
    if not (bak == mat_mul(a, b) if sign == 1 else mat_mul(a, bak) == b):
        raise RelationError("B A^k B^-1 = A^sign does not hold")
    if m is None:
        raise InternalCheckError("A has infinite order despite the relation")
    if gcd(m, k) != 1:
        raise InternalCheckError(f"order {m} of A is not prime to k={k}")
    return m


def full_order(phi: FgAbelianAutomorphism, m_free: int) -> int:
    """Smallest l = lcm(m_free, s) * j with phi^l = id.

    Requires phi^m_free to be the identity on the free quotient; s is the
    order on the torsion part.  phi^lcm(m_free, s) is then the identity on
    the free quotient and on the torsion, so it is I + N with N its mixing
    block and N^2 = 0; its j-th power has mixing block j * N.  Row i of
    j * N vanishes modulo d_i iff d_i / gcd(d_i, row i of N) divides j.
    """
    check_count("m_free", m_free, 1)
    if phi.free_rank and not mat_is_identity(mat_pow(phi.free_block, m_free)):
        raise RelationError("phi^m_free is not the identity on the free quotient")
    return _full_order(phi, m_free)


def _full_order(phi, m_free):
    """`full_order` past its check that phi^m_free is I on the free part."""
    base = lcm(m_free, phi.torsion_order())
    mixing = phi.power(base).mixing_block
    j = lcm(*(d // gcd(d, *row) for d, row in zip(phi.torsion_orders, mixing)))
    return base * j


def _in_degree(j, fn, *args):
    """fn(*args), with `degree j: ` put before the message of a
    PreconditionError it raises, whose type is kept."""
    try:
        return fn(*args)
    except PreconditionError as exc:
        raise type(exc)(f"degree {j}: {exc}") from exc


def cor_period_driver(monodromy, k, conj_witness) -> Tuple[int, int]:
    """Aggregate (m, l) over all degrees of a monodromy action.

    `monodromy` is a list of FgAbelianAutomorphism per degree;
    `conj_witness` a parallel list of (B, sign) acting on the free quotients.
    Returns m = lcm of the per-degree orders on the free quotients (prime
    to k) and l with the full action trivial, both verified by powering.
    k, the type of every monodromy entry and every witness in every
    degree are checked before any work.
    """
    check_count("k", k, 2)
    if len(monodromy) != len(conj_witness):
        raise PreconditionError("need one conjugation witness per degree")
    for j, (phi, witness) in enumerate(zip(monodromy, conj_witness)):
        if not isinstance(phi, FgAbelianAutomorphism):
            raise PreconditionError(
                f"degree {j}: monodromy {shown(phi)} is not an FgAbelianAutomorphism")
        if type(witness) not in (list, tuple) or len(witness) != 2:
            raise PreconditionError(f"degree {j}: conjugation witness "
                                    f"{shown(witness)} is not a (B, sign) pair")
        _in_degree(j, _check_relation_input, phi.free_rank, *witness)
    m = 1
    for j, (phi, (bmat, sign)) in enumerate(zip(monodromy, conj_witness)):
        if phi.free_rank:
            m = lcm(m, _in_degree(j, _solve_relation, phi.free_block, bmat, k, sign))
    if gcd(m, k) != 1:
        raise InternalCheckError(f"aggregated m={m} is not prime to k={k}")
    l = lcm(*(_full_order(phi, m) for phi in monodromy))
    for j, phi in enumerate(monodromy):
        if not phi.power(l).is_identity():
            raise InternalCheckError(f"degree {j}: phi^{l} is not the identity")
    return m, l
