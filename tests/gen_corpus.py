"""Regenerate the bundled corpus fixtures from the current implementation.

Run after an intentional behavior change, then re-verify the expected
values against the hand-derived oracles in the test suite.

    python3 tests/gen_corpus.py
"""

import json
import os

from cyclocover.cli import compute
from cyclocover.covers import TwistedChainComplex, mapping_torus_complex
from cyclocover.matrices import LaurentMatrix
from cyclocover.rings import LaurentPoly, Poly, ZZ
from cyclocover.serialize import complex_to_json

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "cyclocover",
                   "data", "corpus")


def lp(val, coeffs):
    return {"val": val, "coeffs": [str(c) for c in coeffs]}


def principal(coeffs):
    return {"generators": 1,
            "relations": {"rows": 1, "cols": 1, "entries": [[lp(0, coeffs)]]}}


def build_cases():
    trefoil = complex_to_json(
        mapping_torus_complex([1, 2], [[[0, 0]]], [[[1]], [[1, -1], [1, 0]]]))
    circle = complex_to_json(mapping_torus_complex([1], [], [[[1]]]))
    tm1 = LaurentPoly.from_poly(Poly(ZZ, (-1, 1)))
    grow = complex_to_json(
        TwistedChainComplex([1, 2], [LaurentMatrix(ZZ, 1, 2, [[tm1, tm1]])]))
    anosov = complex_to_json(
        mapping_torus_complex([1, 2], [[[0, 0]]], [[[1]], [[2, 1], [1, 1]]]))
    uni = complex_to_json(
        mapping_torus_complex([1, 2], [[[0, 0]]], [[[1]], [[1, 1], [0, 1]]]))
    diag = {"generators": 2, "relations": {"rows": 2, "cols": 2, "entries":
            [[lp(0, [-1, 1]), lp(0, [])], [lp(0, []), lp(0, [-1, 1])]]}}
    circle_input = {"ranks": [1], "boundaries_F": [], "f": [[["1"]]]}
    trefoil_input = {"ranks": [1, 2], "boundaries_F": [[["0", "0"]]],
                     "f": [[["1"]], [["1", "-1"], ["1", "0"]]]}
    return {
        "fingen_fibered_unknot": ("fingen", {"module": principal([-1, 1])}),
        "fingen_fibered_figure_eight": ("fingen", {"module": principal([1, -3, 1])}),
        "fingen_fibered_trefoil": ("fingen", {"module": principal([1, -1, 1])}),
        "fingen_nonfibered_2t_minus_1": ("fingen", {"module": principal([-1, 2])}),
        "fingen_nonfibered_t_minus_2": ("fingen", {"module": principal([-2, 1])}),
        "fingen_nonfibered_3t2_t_3": ("fingen", {"module": principal([3, -1, 3])}),
        "fingen_residue_coker_3": ("fingen", {"module": {
            "generators": 1, "relations": {"rows": 1, "cols": 1,
                                           "entries": [[lp(0, [3])]]}}}),
        "order_ideal_trefoil": ("order-ideal", {"module": principal([1, -1, 1])}),
        "order_ideal_diag_t_minus_1": ("order-ideal", {"module": diag}),
        "mapping_torus_circle": ("mapping-torus", {"f": circle_input}),
        "mapping_torus_trefoil": ("mapping-torus", {"f": trefoil_input}),
        "cover_homology_trefoil_q6": ("cover-homology",
                                      {"complex": trefoil, "kappa": "Q", "q": 6}),
        "cover_homology_circle_q3": ("cover-homology",
                                     {"complex": circle, "kappa": "Q", "q": 3}),
        "wang_trefoil_q6": ("wang", {"complex": trefoil, "kappa": "Q", "q": 6}),
        "wang_trefoil_q5": ("wang", {"complex": trefoil, "kappa": "Q", "q": 5}),
        "wang_trefoil_f5_q6": ("wang", {"complex": trefoil, "kappa": "Fp:5", "q": 6}),
        # t^2 - 3t + 1 has no root of unity; over QQ its gcd with t^q - 1
        # is read from cyclotomic divisors, so q = 10^18 costs no powering
        "wang_anosov_q1e18": ("wang", {"complex": anosov, "kappa": "Q", "q": 10**18}),
        "selfcover_trefoil_k5": ("verify-selfcover",
                                 {"complex": trefoil, "k": 5, "sign": 1,
                                  "hbar": [[["1"]], [["1", "1"], ["0", "-1"]], []]}),
        "dimension_bound_trefoil": ("dimension-bound",
                                    {"complex": trefoil, "kappa": "Q", "q": [6, 36]}),
        "dimension_bound_growing": ("dimension-bound",
                                    {"complex": grow, "kappa": "Q", "q": [2, 4, 8]}),
        "dimension_bound_unipotent": ("dimension-bound",
                                      {"complex": uni, "kappa": "Q", "q": [2, 4, 8]}),
        "prop_matrix_rotation_k3": ("prop-matrix",
                                    {"a": [["0", "-1"], ["1", "0"]],
                                     "b": [["1", "0"], ["0", "1"]],
                                     "k": 3, "sign": -1}),
        "periodicity_trefoil_k5": ("periodicity", {
            "monodromy": [
                {"free": [["1"]], "torsion_orders": [], "torsion": [], "mixing": []},
                {"free": [["1", "-1"], ["1", "0"]], "torsion_orders": [],
                 "torsion": [], "mixing": []}],
            "k": 5,
            "witness": [{"b": [["1"]], "sign": 1},
                        {"b": [["1", "0"], ["1", "-1"]], "sign": 1}]}),
        # free part -1 and torsion part of order 2 on Z/2 + Z/4; the nonzero
        # mixing row doubles the period to 4
        "periodicity_z2_z4_mixing": ("periodicity", {
            "monodromy": [
                {"free": [["-1"]], "torsion_orders": ["2", "4"],
                 "torsion": [["1", "0"], ["2", "3"]], "mixing": [["0"], ["1"]]}],
            "k": 3,
            "witness": [{"b": [["1"]], "sign": 1}]}),
        # 2 is a primitive root modulo the prime 1000003
        "periodicity_z1000003": ("periodicity", {
            "monodromy": [
                {"free": [], "torsion_orders": ["1000003"], "torsion": [["2"]],
                 "mixing": [[]]}],
            "k": 5,
            "witness": [{"b": [], "sign": 1}]}),
        "hp_minus_23": ("hp-minus", {"p": 23}),
        "hp_minus_37": ("hp-minus", {"p": 37}),
        "gate_p3_false": ("gate", {"p": 3, "fixture": "default"}),
        "gate_p191_true": ("gate", {"p": 191, "fixture": "default"}),
        "gate_p199_unknown": ("gate", {"p": 199, "fixture": "default"}),
    }


def main():
    os.makedirs(OUT, exist_ok=True)
    for name, (sc, params) in sorted(build_cases().items()):
        expected = compute(sc, params)
        with open(os.path.join(OUT, name + ".json"), "w") as fh:
            json.dump({"subcommand": sc, "params": params, "expected": expected},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(name)


if __name__ == "__main__":
    main()
