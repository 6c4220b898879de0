"""Periodicity of monodromy: the conjugation equation and torsion lifting.

Solves B * A^k * B^{-1} = A^{+-1} for the exact order of A (the relation
is checked as a product identity, since A and B are unimodular), lifts the
free-quotient period through the torsion subgroup, and aggregates the
per-degree data of a monodromy action.
"""

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import List, Tuple

from .arith import factorize
from .errors import InternalCheckError, PreconditionError
from .matrices import (det_int, int_mat_check, mat_identity, mat_is_identity,
                       mat_mul, mat_pow)
from .normal_forms import char_poly, cyclotomic_indices, finite_order


class RelationError(PreconditionError):
    """The claimed conjugation relation does not hold."""


_TORSION_ORDER_CEILING = 10 ** 6


@dataclass
class FgAbelianAutomorphism:
    """Automorphism of Z^r + sum Z/d_i in block-triangular form.

    free_block acts on Z^r, torsion_block on the torsion part (entries of
    row i read modulo d_i), mixing_block records the component Z^r -> T.
    """
    free_block: List[List[int]]
    torsion_orders: List[int] = field(default_factory=list)
    torsion_block: List[List[int]] = field(default_factory=list)
    mixing_block: List[List[int]] = field(default_factory=list)

    def __post_init__(self):
        int_mat_check(self.free_block, square=True)
        r = len(self.free_block)
        s = len(self.torsion_orders)
        d = self.torsion_orders
        if sorted(d) != d or any(x < 2 for x in d):
            raise PreconditionError("torsion orders must be >= 2 and sorted")
        for i in range(1, s):
            if d[i] % d[i - 1]:
                raise PreconditionError("torsion orders must form a divisibility chain")
        if len(self.torsion_block) != s or any(len(row) != s for row in self.torsion_block):
            raise PreconditionError("torsion block shape mismatch")
        if len(self.mixing_block) != s or any(len(row) != r for row in self.mixing_block):
            raise PreconditionError("mixing block shape mismatch")
        if r and det_int(self.free_block) not in (1, -1):
            raise PreconditionError("free block is not invertible over ZZ")
        # well-definedness: column j has order d_j, so T[i][j]*d_j = 0 mod d_i
        for i in range(s):
            for j in range(s):
                if (self.torsion_block[i][j] * d[j]) % d[i]:
                    raise PreconditionError("torsion block does not preserve orders")
        # invertibility on torsion: the mod-p reduction on T/pT is invertible
        # for each prime p dividing the exponent
        if s:
            for p in factorize(d[-1]):
                idx = [i for i in range(s) if d[i] % p == 0]
                sub = [[self.torsion_block[i][j] % p for j in idx] for i in idx]
                if det_int(sub) % p == 0:
                    raise PreconditionError(f"torsion block is not invertible (mod {p})")
        self.torsion_block = self._reduce_rows(self.torsion_block)
        self.mixing_block = self._reduce_rows(self.mixing_block)

    def _reduce_rows(self, mat):
        return [[x % self.torsion_orders[i] for x in row]
                for i, row in enumerate(mat)]

    @classmethod
    def identity(cls, r, torsion_orders=()):
        d = list(torsion_orders)
        s = len(d)
        return cls(mat_identity(r), d, mat_identity(s),
                   [[0] * r for _ in range(s)])

    @property
    def free_rank(self):
        return len(self.free_block)

    def compose(self, other):
        """self after other."""
        if (self.free_rank != other.free_rank
                or self.torsion_orders != other.torsion_orders):
            raise ValueError("automorphisms of different groups")
        free = mat_mul(self.free_block, other.free_block)
        s = len(self.torsion_orders)
        tor = mat_mul(self.torsion_block, other.torsion_block) if s else []
        if s:
            mix1 = mat_mul(self.mixing_block, other.free_block)
            mix2 = mat_mul(self.torsion_block, other.mixing_block)
            mix = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(mix1, mix2)]
        else:
            mix = []
        return FgAbelianAutomorphism(free, list(self.torsion_orders), tor, mix)

    def power(self, e):
        if e < 0:
            raise ValueError("negative powers are not needed here")
        result = FgAbelianAutomorphism.identity(self.free_rank, self.torsion_orders)
        base = self
        while e:
            if e & 1:
                result = result.compose(base)
            base = base.compose(base)
            e >>= 1
        return result

    def is_identity(self):
        if not mat_is_identity(self.free_block):
            return False
        d = self.torsion_orders
        for i, row in enumerate(self.torsion_block):
            for j, x in enumerate(row):
                if (x - (1 if i == j else 0)) % d[i]:
                    return False
        for i, row in enumerate(self.mixing_block):
            if any(x % d[i] for x in row):
                return False
        return True

    def torsion_order(self):
        """Multiplicative order of the action on the torsion subgroup."""
        if not self.torsion_orders:
            return 1
        probe = FgAbelianAutomorphism(
            mat_identity(0), list(self.torsion_orders),
            [row[:] for row in self.torsion_block],
            [[] for _ in self.torsion_orders])
        acc = probe
        for n in range(1, _TORSION_ORDER_CEILING + 1):
            if acc.is_identity():
                return n
            acc = acc.compose(probe)
        raise PreconditionError(
            f"torsion order exceeds the search bound {_TORSION_ORDER_CEILING}")


def solve_prop_matrix(a, b, k, sign):
    """Minimal m with A^m = I and gcd(m, k) = 1, given B A^k B^{-1} = A^sign.

    The relation is verified exactly before m is returned; a failure is a
    precondition error, reached without powering when some eigenvalue of
    A is not a root of unity.  An A of infinite order despite a valid
    relation would contradict the theory and raises an internal error.
    """
    int_mat_check(a, square=True)
    int_mat_check(b, square=True)
    if len(a) != len(b):
        raise PreconditionError("A and B must have the same size")
    if not isinstance(k, int) or k <= 1:
        raise PreconditionError("k must be an integer > 1")
    if sign not in (1, -1):
        raise PreconditionError("sign must be +1 or -1")
    if det_int(a) not in (1, -1):
        raise RelationError("A must be invertible over ZZ")
    if det_int(b) not in (1, -1):
        raise RelationError("B must be invertible over ZZ")
    m = finite_order(a)
    # the relation makes A^(k^2) similar to A, so lambda -> lambda^(k^2)
    # permutes the eigenvalues of A and each is a root of unity.  Check
    # that before powering: otherwise the entries of A^k grow linearly in k.
    if m is None and cyclotomic_indices(char_poly(a)) is None:
        raise RelationError("B A^k B^-1 = A^sign does not hold")
    # B is invertible, so the relation reads B A^k = A B for sign +1 and
    # A B A^k = B for sign -1
    bak = mat_mul(b, mat_pow(a, k))
    if sign == 1:
        holds = bak == mat_mul(a, b)
    else:
        holds = mat_mul(a, bak) == b
    if not holds:
        raise RelationError("B A^k B^-1 = A^sign does not hold")
    if m is None:
        raise InternalCheckError("A has infinite order despite the relation")
    if gcd(m, k) != 1:
        raise InternalCheckError(f"order {m} of A is not prime to k={k}")
    if not mat_is_identity(mat_pow(a, m)):
        raise InternalCheckError("powering verification failed")
    return m


def full_order(phi: FgAbelianAutomorphism, m_free: int) -> int:
    """Smallest l = lcm(m_free, s) * j with phi^l = id.

    Requires phi^m_free to be the identity on the free quotient; s is the
    order on the torsion part.  phi^lcm(m_free, s) is then the identity on
    the free quotient and on the torsion, so it is I + N with N its mixing
    block and N^2 = 0; its j-th power has mixing block j * N.  Row i of
    j * N vanishes modulo d_i iff d_i / gcd(d_i, row i of N) divides j.
    """
    if m_free < 1:
        raise PreconditionError("m_free must be positive")
    if phi.free_rank and not mat_is_identity(mat_pow(phi.free_block, m_free)):
        raise RelationError("phi^m_free is not the identity on the free quotient")
    base = lcm(m_free, phi.torsion_order())
    mixing = phi.power(base).mixing_block
    j = lcm(*(d // gcd(d, *row) for d, row in zip(phi.torsion_orders, mixing)))
    return base * j


def cor_period_driver(monodromy, k, conj_witness) -> Tuple[int, int]:
    """Aggregate (m, l) over all degrees of a monodromy action.

    `monodromy` is a list of FgAbelianAutomorphism per degree;
    `conj_witness` a parallel list of (B, sign) acting on the free quotients.
    Returns m = lcm of the per-degree orders on the free quotients (prime
    to k) and l with the full action trivial, both verified by powering.
    """
    if len(monodromy) != len(conj_witness):
        raise PreconditionError("need one conjugation witness per degree")
    m = 1
    for j, (phi, (bmat, sign)) in enumerate(zip(monodromy, conj_witness)):
        if phi.free_rank == 0:
            continue
        try:
            mj = solve_prop_matrix(phi.free_block, bmat, k, sign)
        except PreconditionError as exc:
            raise type(exc)(f"degree {j}: {exc}") from exc
        m = lcm(m, mj)
    if gcd(m, k) != 1:
        raise InternalCheckError(f"aggregated m={m} is not prime to k={k}")
    l = 1
    for j, phi in enumerate(monodromy):
        try:
            lj = full_order(phi, m)
        except RelationError as exc:
            raise RelationError(f"degree {j}: {exc}") from exc
        l = lcm(l, lj)
    for j, phi in enumerate(monodromy):
        if not phi.power(l).is_identity():
            raise InternalCheckError(f"degree {j}: phi^{l} is not the identity")
    return m, l
