"""Exact algebra for infinite cyclic covers.

Decides finite generation of ZZ[t,1/t]-module presentations over ZZ,
computes homology of cyclic covers of twisted chain complexes, solves the
integer-matrix conjugation-periodicity equation, and evaluates the
cyclotomic class-number gate.

Each exported name, and each submodule, is imported on first access
(PEP 562), so a process loads only the layers it uses.
"""

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "InternalCheckError": "errors", "PreconditionError": "errors",
    "GF": "rings", "LaurentPoly": "rings", "Poly": "rings", "QQ": "rings",
    "ZZ": "rings", "cyclotomic": "rings",
    "LaurentMatrix": "matrices",
    "char_poly": "normal_forms", "finite_order": "normal_forms",
    "laurent_cokernel": "normal_forms",
    "FinGenVerdict": "modules", "FinGenWitness": "modules",
    "ModulePresentation": "modules", "base_change_residue": "modules",
    "finitely_generated_over_Z": "modules", "order_ideal": "modules",
    "property1_check": "modules", "relevant_primes": "modules",
    "SelfCoverWitness": "covers", "TwistedChainComplex": "covers",
    "cover_homology_field": "covers", "dimension_bound_check": "covers",
    "infinite_cover_homology_field": "covers",
    "mapping_torus_complex": "covers", "verify_self_cover_relation": "covers",
    "wang_dimensions": "covers",
    "FgAbelianAutomorphism": "periodicity", "cor_period_driver": "periodicity",
    "full_order": "periodicity", "solve_prop_matrix": "periodicity",
    "ClassGateReport": "classnumbers", "gate_theorem_CD": "classnumbers",
    "hp_minus": "classnumbers", "load_hplus_table": "classnumbers",
    "odd_prime_factor": "classnumbers",
}

_SUBMODULES = ("arith", "classnumbers", "cli", "covers", "errors", "matrices",
               "modules", "normal_forms", "periodicity", "rings", "serialize")

__all__ = [*_EXPORTS, *_SUBMODULES]


def __getattr__(name):
    if name in _EXPORTS:
        module = _EXPORTS[name]
    elif name in _SUBMODULES:
        module = None
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    sub = importlib.import_module(f"{__name__}.{module or name}")
    return sub if module is None else getattr(sub, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
