"""Exact algebra for infinite cyclic covers.

Decides finite generation of ZZ[t,1/t]-module presentations over ZZ,
computes homology of cyclic covers of twisted chain complexes, solves the
integer-matrix conjugation-periodicity equation, and evaluates the
cyclotomic class-number gate.
"""

__version__ = "0.1.0"

from .errors import InternalCheckError, PreconditionError
from .rings import GF, LaurentPoly, Poly, QQ, ZZ, cyclotomic
from .matrices import LaurentMatrix
from .normal_forms import char_poly, finite_order, laurent_cokernel
from .modules import (FinGenVerdict, FinGenWitness, ModulePresentation,
                      base_change_residue, finitely_generated_over_Z,
                      order_ideal, property1_check, relevant_primes)
from .covers import (SelfCoverWitness, TwistedChainComplex,
                     cover_homology_field, dimension_bound_check,
                     infinite_cover_homology_field, mapping_torus_complex,
                     verify_self_cover_relation, wang_dimensions)
from .periodicity import (FgAbelianAutomorphism, cor_period_driver,
                          full_order, solve_prop_matrix)
from .classnumbers import (ClassGateReport, gate_theorem_CD, hp_minus,
                           load_hplus_table, odd_prime_factor)
