"""Finitely presented modules over ZZ[t, 1/t] and the finite-generation test.

A module is the cokernel of a Laurent matrix over ZZ (rows = generators,
columns = relations).  Finite generation over ZZ is decided by the
Fitting ideal alone: with g the gcd over ZZ[t] of the maximal minors, the
module is finitely generated over ZZ iff g != 0, content(g) = 1 and the
primitive part of g has leading and constant coefficient +-1.  By Gauss's
lemma these say the QQ-cokernel is finite dimensional with t and 1/t
integral, and that no residue field F_p sees a free part.  A "no" at the
generic point names monic(prim g), the characteristic polynomial of t on
M tensor QQ.  Only property1_check at a prime P != 0 runs a Smith form,
as reduction mod p need not preserve the gcd.
"""

from typing import NamedTuple, Optional

from .arith import factorize
from .errors import PreconditionError, is_count, shown
from .matrices import LaurentMatrix, laurent_minor_gcd
from .normal_forms import laurent_cokernel
from .rings import GF, LaurentPoly, Poly, QQ, ZZ, monic_coeffs


class FreeCokernelError(PreconditionError):
    """The QQ-cokernel has positive free rank, so no finite prime set applies."""


INFINITE_DIMENSION = "infinite dimension"
T_NOT_INTEGRAL = "non-integral eigenvalue of t"
TINV_NOT_INTEGRAL = "non-integral eigenvalue of t^-1"


class ModulePresentation:
    """coker of `relations`: generators g, relation matrix g x r over ZZ."""

    __slots__ = ("generators", "relations")

    def __init__(self, generators: int, relations: LaurentMatrix):
        if not is_count(generators):
            raise PreconditionError(f"bad generator count {shown(generators)}")
        if not isinstance(relations, LaurentMatrix):
            raise PreconditionError("relations is not a LaurentMatrix")
        if relations.nrows != generators:
            raise PreconditionError("relation matrix must have one row per generator")
        self.generators = generators
        self.relations = relations

    @classmethod
    def principal(cls, f):
        """coker(f) on one generator; f a LaurentPoly or Poly over ZZ."""
        if isinstance(f, Poly):
            f = LaurentPoly.from_poly(f)
        return cls(1, LaurentMatrix(ZZ, 1, 1, [[f]]))

    @classmethod
    def free(cls, rank):
        return cls(rank, LaurentMatrix.zero(ZZ, rank, 0))

    def __repr__(self):
        return (f"ModulePresentation({self.generators} generators, "
                f"{self.relations.ncols} relations)")


class Property1Result(NamedTuple):
    finite_dim: bool
    t_integral: bool
    tinv_integral: bool
    dim: Optional[int]

    def holds(self):
        return self.finite_dim and self.t_integral and self.tinv_integral


class FinGenWitness(NamedTuple):
    prime: int              # 0 for the generic point (kappa = QQ)
    kind: str
    factor: Optional[Poly]  # characteristic polynomial of t on M tensor QQ,
                            # when t or 1/t is not integral


class FinGenVerdict(NamedTuple):
    answer: bool
    witness: Optional[FinGenWitness]
    underlying_rank: Optional[int]
    relevant_primes: tuple


def _residue_field(P):
    if P == 0:
        return QQ
    return GF(P)


def minor_gcd(M: ModulePresentation) -> Poly:
    """gcd over ZZ[t] (content included) of the maximal g x g minors."""
    return laurent_minor_gcd(M.relations, M.generators)


def order_ideal(M: ModulePresentation) -> Poly:
    """Canonical generator of the order ideal of the QQ[t,1/t]-torsion part.

    Zero when the QQ-cokernel has positive free rank.  The canonical
    associate is primitive with positive leading and nonzero constant term;
    the integer content of the minor gcd is deliberately not part of it
    (it is recovered by relevant_primes).
    """
    return minor_gcd(M).primitive()


def base_change_residue(M: ModulePresentation, P):
    """Invariant factors and free rank of kappa(P) tensor M over kappa[t,1/t]."""
    return laurent_cokernel(M.relations, _residue_field(P))


def property1_check(M: ModulePresentation, P) -> Property1Result:
    """Finite dimensionality plus integrality of the t and 1/t eigenvalues.

    At the generic point all of it is read off the minor gcd g: the
    dimension is deg g, t is integral iff lc(prim g) = 1, and 1/t also iff
    const(prim g) = +-1.
    """
    if P == 0:
        g = minor_gcd(M)
        if g.is_zero:
            return Property1Result(False, False, False, None)
        prim = g.primitive()
        t_ok = prim.leading == 1
        return Property1Result(True, t_ok, t_ok and prim.constant in (1, -1),
                               g.degree)
    factors, free_rank = base_change_residue(M, P)
    if free_rank > 0:
        return Property1Result(False, False, False, None)
    # every element algebraic over F_p is integral over F_p
    return Property1Result(True, True, True, sum(f.degree for f in factors))


def _bad_primes(g: Poly):
    """Sorted primes dividing content(g) * lc(prim g) * const(prim g), g != 0."""
    prim = g.primitive()
    bad = g.content() * abs(prim.leading) * abs(prim.constant)
    return sorted(factorize(bad)) if bad > 1 else []


def relevant_primes(M: ModulePresentation):
    """Finite prime set outside of which the residue dimension is stable.

    Primes dividing the content of the maximal-minor gcd (where the
    residue rank drops) or the leading/trailing coefficients of the
    canonical order ideal (where the residue dimension jumps).
    """
    g = minor_gcd(M)
    if g.is_zero:
        raise FreeCokernelError("QQ-cokernel has positive free rank")
    return _bad_primes(g)


def finitely_generated_over_Z(M: ModulePresentation) -> FinGenVerdict:
    """Decide whether coker(relations) is finitely generated over ZZ.

    Reads the verdict and its witness off the maximal-minor gcd g (the
    Fitting ideal).
    """
    g = minor_gcd(M)
    if g.is_zero:
        return FinGenVerdict(False,
                             FinGenWitness(0, INFINITE_DIMENSION, None),
                             None, ())
    prim = g.primitive()
    if prim.leading != 1 or prim.constant not in (1, -1):
        kind = T_NOT_INTEGRAL if prim.leading != 1 else TINV_NOT_INTEGRAL
        factor = Poly(QQ, monic_coeffs(prim.coeffs, 0))
        return FinGenVerdict(False, FinGenWitness(0, kind, factor), None, ())
    # both ends of prim are units, so these are the primes of the content
    primes = tuple(_bad_primes(g))
    if primes:
        return FinGenVerdict(False,
                             FinGenWitness(primes[0], INFINITE_DIMENSION, None),
                             None, primes)
    rank = g.degree if M.relations.ncols == M.generators else None
    return FinGenVerdict(True, None, rank, ())
