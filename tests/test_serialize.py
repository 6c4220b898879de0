"""JSON wire format round-trips and validation."""

import hashlib
import os
import pathlib
import random
import subprocess
import sys

import pytest

from cyclocover.errors import PreconditionError, shown
from cyclocover.rings import GF, LaurentPoly, Poly, QQ, ZZ
from cyclocover.serialize import (canonical_dumps, complex_to_json,
                                  input_digest, laurent_to_json, matrix_to_json,
                                  parse_complex, parse_fibre, parse_int,
                                  parse_int_list, parse_int_matrix, parse_kappa,
                                  parse_laurent, parse_matrix, parse_monodromy,
                                  parse_presentation, parse_rational_matrices,
                                  parse_rational_matrix, parse_scalar,
                                  parse_witnesses)

from helpers import rand_unimodular_laurent


class TestScalars:
    def test_fractions_and_ints(self):
        # scalars go on the wire through str: a Fraction prints "n/d", and
        # QQ holds an integral value as an int, which prints "n"
        from fractions import Fraction
        assert laurent_to_json(Poly(QQ, [Fraction(-1, 2), 1]))["coeffs"] == ["-1/2", "1"]
        assert laurent_to_json(Poly(QQ, [Fraction(3, 1), Fraction(1, 3)]))["coeffs"] \
            == ["3", "1/3"]
        assert laurent_to_json(Poly(ZZ, [7]))["coeffs"] == ["7"]

    def test_parse_int(self):
        assert parse_int("12") == 12
        assert parse_int(-3) == -3
        assert parse_int("+007") == 7 and parse_int("-0") == 0
        # an int or an optional sign and ASCII digits, as in parse_scalar;
        # int() alone accepted the blanks, the underscore and the
        # Arabic-Indic digits
        for bad in (True, "x", 1.5, None, " 7 ", "1_000", "٢٣", "", "+",
                    "+-3", "0x10", "9" * 5000):
            with pytest.raises(PreconditionError, match="^bad integer"):
                parse_int(bad)

    def test_parse_scalar_table(self):
        # integer strings take int() and the rest Fraction(); both accept and
        # reject exactly what Fraction() alone does on this Python, with the
        # same message, both echoed as `shown` cuts them (Python 3.10's
        # Fraction() rejects "1_000")
        from fractions import Fraction

        def via_fraction(ring, raw):
            try:
                return ring.coerce(Fraction(raw))
            except (ValueError, ZeroDivisionError) as exc:
                return f"bad coefficient {shown(raw)}: {shown(exc, str)}"

        def parsed(ring, raw):
            try:
                return parse_scalar(ring, raw)
            except PreconditionError as exc:
                return str(exc)

        table = [("1_000", ZZ, None), (" 3 ", ZZ, 3), ("+3", ZZ, 3),
                 ("-3", GF(5), 2), ("007", QQ, 7), ("3.0", ZZ, 3),
                 ("6/2", ZZ, 3), ("1/2", QQ, Fraction(1, 2)),
                 ("1/2", ZZ, "bad"), ("0x10", ZZ, "bad"), ("", QQ, "bad"),
                 ("+-3", ZZ, "bad"), ("١٢", ZZ, None), ("9" * 5000, ZZ, None)]
        for raw, ring, want in table:
            got = parsed(ring, raw)
            assert got == via_fraction(ring, raw), (raw, ring)
            if want == "bad":
                assert isinstance(got, str) and got.startswith("bad coefficient")
            elif want is not None:
                assert got == want and type(got) is type(want), (raw, ring)
        for raw in (True, False, 1.5, None):
            with pytest.raises(PreconditionError):
                parse_scalar(ZZ, raw)

    def test_parse_rational_matrix(self):
        from fractions import Fraction
        m = parse_rational_matrix([["1/2", 3], ["-2", "0"]])
        assert m[0][0] == Fraction(1, 2) and m[1][0] == -2
        with pytest.raises(PreconditionError):
            parse_rational_matrix([["1/0"]])


class TestLaurentRoundTrip:
    def test_example(self):
        f = LaurentPoly(ZZ, -2, Poly(ZZ, (3, 0, -1)))
        assert parse_laurent(laurent_to_json(f)) == f

    def test_random(self):
        rng = random.Random(5)
        for _ in range(40):
            f = LaurentPoly(ZZ, rng.randint(-3, 3),
                            Poly(ZZ, [rng.randint(-9, 9) for _ in range(4)]))
            assert parse_laurent(laurent_to_json(f)) == f

    def test_rejects_junk(self):
        for bad in ("t+1", {"val": "0", "coeffs": []},
                    {"val": 0, "coeffs": "1"}, {"val": 0, "extra": 1}):
            with pytest.raises(PreconditionError):
                parse_laurent(bad)
        # LaurentPoly checks the valuation, for the wire as for the library
        for val in ("0", True, 1.5):
            with pytest.raises(PreconditionError, match="bad valuation"):
                parse_laurent({"val": val, "coeffs": [1]})


class TestMatrixRoundTrip:
    def test_random_unimodular(self):
        rng = random.Random(13)
        for _ in range(10):
            u, _ = rand_unimodular_laurent(3, rng)
            assert parse_matrix(matrix_to_json(u)) == u

    def test_shape_validation(self):
        with pytest.raises(PreconditionError, match="rows"):
            parse_matrix({"rows": 2, "cols": 1,
                          "entries": [[{"val": 0, "coeffs": []}]]})
        with pytest.raises(PreconditionError, match="missing"):
            parse_matrix({"rows": 1, "cols": 1})

    def test_int_matrix(self):
        assert parse_int_matrix([["1", "-2"], [3, 0]]) == [[1, -2], [3, 0]]
        with pytest.raises(PreconditionError):
            parse_int_matrix([[1], "nope"])


class TestCompositeRoundTrip:
    def test_presentation(self):
        from cyclocover.modules import ModulePresentation
        m = ModulePresentation.principal(Poly(ZZ, (1, -1, 1)))
        back = parse_presentation({"generators": m.generators,
                                   "relations": matrix_to_json(m.relations)})
        assert back.generators == 1 and back.relations == m.relations

    def test_presentation_validation(self):
        with pytest.raises(PreconditionError):
            parse_presentation({"generators": -1, "relations": {}})
        with pytest.raises(PreconditionError):
            parse_presentation({"generators": 1})
        # the count is ModulePresentation's to check
        one = {"rows": 1, "cols": 1, "entries": [[{"coeffs": ["1"]}]]}
        for g in (True, 1.0, "1"):
            with pytest.raises(PreconditionError,
                               match=f"^bad generator count {g!r}$"):
                parse_presentation({"generators": g, "relations": one})

    def test_complex(self):
        from cyclocover.covers import mapping_torus_complex
        x = mapping_torus_complex([1, 2], [[[0, 0]]],
                                  [[[1]], [[1, -1], [1, 0]]])
        back = parse_complex(complex_to_json(x))
        assert back.ranks == x.ranks and back.boundaries == x.boundaries

    def test_complex_revalidates(self):
        # a tampered boundary with nonzero composition is rejected
        from cyclocover.covers import mapping_torus_complex
        x = mapping_torus_complex([1, 1], [[[0]]], [[[1]], [[1]]])
        obj = complex_to_json(x)
        obj["boundaries"][0]["entries"][0][0] = {"val": 0, "coeffs": ["1"]}
        obj["boundaries"][1]["entries"][0][0] = {"val": 0, "coeffs": ["1"]}
        with pytest.raises(PreconditionError):
            parse_complex(obj)


class TestReaders:
    def test_kappa(self):
        assert parse_kappa("Q") is QQ
        assert parse_kappa("Fp:5") == GF(5)
        for bad in ("q", "Fp:4", "Fp:", None, ["Q"]):
            with pytest.raises(PreconditionError):
                parse_kappa(bad)

    def test_int_list(self):
        assert parse_int_list(["2", 3]) == [2, 3]
        for bad in ([], "2,3", None, {"2": 3}):
            with pytest.raises(PreconditionError, match="nonempty list"):
                parse_int_list(bad)
        with pytest.raises(PreconditionError, match="bad integer"):
            parse_int_list(["2", "x"])

    def test_fibre(self):
        ranks, bnds, f = parse_fibre({"ranks": [1, 1], "boundaries_F": [[["0"]]],
                                      "f": [[["1"]], [["-1"]]]})
        assert (ranks, bnds, f) == ([1, 1], [[[0]]], [[[1]], [[-1]]])

    def test_monodromy_defaults(self):
        phi, = parse_monodromy([{"free": [["1", "-1"], ["1", "0"]]}])
        assert phi.free_block == [[1, -1], [1, 0]]
        assert phi.torsion_orders == phi.torsion_block == phi.mixing_block == []

    def test_witnesses(self):
        assert parse_witnesses([{"b": [["1"]], "sign": "-1"}]) == [([[1]], -1)]

    def test_rational_matrices(self):
        from fractions import Fraction
        assert parse_rational_matrices([[["1/2"]], []]) == [[[Fraction(1, 2)]], []]

    # one message for every object with required keys, and for every list
    @pytest.mark.parametrize("read, obj, message", [
        (parse_matrix, {"rows": 1, "cols": 1}, "matrix is missing field 'entries'"),
        (parse_presentation, {"relations": {}},
         "module presentation is missing field 'generators'"),
        (parse_complex, {"ranks": [1]}, "chain complex is missing field 'boundaries'"),
        (parse_fibre, {"ranks": [1], "f": []},
         "mapping-torus input is missing field 'boundaries_F'"),
        (parse_monodromy, [{"torsion": []}], "automorphism is missing field 'free'"),
        (parse_witnesses, [{"b": []}], "conjugation witness is missing field 'sign'"),
        (parse_fibre, "x", "bad mapping-torus input 'x'"),
        (parse_witnesses, [5], "bad conjugation witness 5"),
        (parse_monodromy, {"free": []}, "monodromy must be a list"),
        (parse_monodromy, [{"free": [], "torsion_orders": "3"}],
         "torsion_orders must be a list"),
        (parse_witnesses, None, "witness must be a list"),
        (parse_rational_matrices, [["1"]], "bad rational matrix ['1']"),
        (parse_rational_matrices, "x", "hbar must be a list"),
        (parse_complex, {"ranks": [1], "boundaries": {}}, "boundaries must be a list"),
        (parse_fibre, {"ranks": [1], "boundaries_F": [], "f": None},
         "f must be a list"),
        (parse_laurent, {"coeffs": "1"}, "coeffs must be a list"),
    ])
    def test_refusals(self, read, obj, message):
        with pytest.raises(PreconditionError) as info:
            read(obj)
        assert str(info.value).startswith(message)

    # an unknown key in every object `_fields` reads, a misspelled
    # optional key included: it used to read as absent
    @pytest.mark.parametrize("read, obj, message", [
        (parse_matrix, {"rows": 0, "cols": 0, "entries": [], "row": 1},
         "matrix has unknown fields ['row']"),
        (parse_presentation, {"generators": 1, "relations": {}, "x": 0},
         "module presentation has unknown fields ['x']"),
        (parse_complex, {"ranks": [1], "boundaries": [], "q": 2, "t": 1},
         "chain complex has unknown fields ['q', 't']"),
        (parse_fibre, {"ranks": [1], "boundaries_F": [], "f": [[["1"]]],
                       "boundaries": []},
         "mapping-torus input has unknown fields ['boundaries']"),
        (parse_monodromy, [{"free": [["1"]], "torsion_order": ["3"]}],
         "automorphism has unknown fields ['torsion_order']"),
        (parse_witnesses, [{"b": [["1"]], "sign": 1, "k": 2}],
         "conjugation witness has unknown fields ['k']"),
    ])
    def test_unknown_fields_refused(self, read, obj, message):
        with pytest.raises(PreconditionError) as info:
            read(obj)
        assert str(info.value) == message

    def test_optional_fields_still_read(self):
        phi, = parse_monodromy([{"free": [], "torsion_orders": ["3"],
                                 "torsion": [["2"]], "mixing": [[]]}])
        assert (phi.torsion_orders, phi.torsion_block) == ([3], [[2]])


def parse_qq_scalar(raw):
    return parse_scalar(QQ, raw)


def reader_ids(x):
    return getattr(x, "__name__", str(x))


class TestEchoedValues:
    """A message echoes at most the first 200 characters of a refused value
    (and of the exception text that echoes it), so it stays under 1 KB."""

    HUGE = [0] * 100000
    LONG = "x" * 100000

    @pytest.mark.parametrize("read, obj", [
        (parse_fibre, HUGE),                                       # _fields
        (parse_rational_matrices, {"x": HUGE}),                    # _list
        (parse_int_matrix, HUGE),                                  # _matrix
        (parse_complex, {"ranks": HUGE + [None], "boundaries": []}),
        (parse_laurent, {"coeffs": HUGE, "x": 1}),
        (parse_laurent, {"coeffs": LONG}),
        (parse_matrix, {"rows": HUGE, "cols": 1, "entries": []}),
        (parse_int, LONG),
        (parse_int_list, LONG),
        (parse_kappa, LONG),
        (parse_qq_scalar, LONG),
        (parse_monodromy, [dict.fromkeys(map(str, range(100000)))]),
    ], ids=lambda x: getattr(x, "__name__", "value"))
    def test_message_is_bounded(self, read, obj):
        with pytest.raises(PreconditionError) as info:
            read(obj)
        assert len(str(info.value)) < 1024

    def test_cut(self):
        assert shown("x" * 198) == repr("x" * 198)
        assert shown("x" * 199) == repr("x" * 199)[:200] + "..."
        assert shown(ValueError("y" * 500), str) == "y" * 200 + "..."

    @pytest.mark.parametrize("read, obj, message", [
        (parse_fibre, "x", "bad mapping-torus input 'x'"),
        (parse_int, [1], "bad integer [1]"),
        (parse_rational_matrices, [["1"]], "bad rational matrix ['1']"),
        (parse_laurent, {"coeffs": "1"}, "coeffs must be a list, got '1'"),
        (parse_complex, {"ranks": [-1], "boundaries": []}, "bad rank list [-1]"),
        (parse_complex, {"ranks": [1], "boundaries": 1},
         "boundaries must be a list, got 1")], ids=reader_ids)
    def test_short_values_are_echoed_whole(self, read, obj, message):
        with pytest.raises(PreconditionError) as info:
            read(obj)
        assert str(info.value) == message



def _library_refusals():
    """(name, call) for each library refusal that echoes the value it
    refuses, every one given a value whose repr runs to 300,000 characters."""
    from cyclocover.covers import (TwistedChainComplex, mapping_torus_complex)
    from cyclocover.matrices import LaurentMatrix
    from cyclocover.modules import ModulePresentation
    from cyclocover.periodicity import (FgAbelianAutomorphism, cor_period_driver,
                                        solve_prop_matrix)
    huge = [0] * 100000
    return [
        ("mapping_torus_complex", lambda: mapping_torus_complex(huge + [-1], [], [])),
        ("TwistedChainComplex", lambda: TwistedChainComplex(huge + [-1], [])),
        ("check_count", lambda: solve_prop_matrix([[1]], [[1]], huge, 1)),
        ("check_sign", lambda: solve_prop_matrix([[1]], [[1]], 2, huge)),
        ("LaurentMatrix", lambda: LaurentMatrix(ZZ, huge, 1, [])),
        ("ModulePresentation",
         lambda: ModulePresentation(huge, LaurentMatrix(ZZ, 0, 0, []))),
        ("monodromy", lambda: cor_period_driver([huge], 2, [([], 1)])),
        ("witness", lambda: cor_period_driver([FgAbelianAutomorphism([])], 2, [huge])),
    ]


class TestLibraryEchoedValues:
    """A library refusal outside the wire readers cuts the value it echoes
    with the same `errors.shown`."""

    @pytest.mark.parametrize("name, call", _library_refusals(),
                             ids=[name for name, _ in _library_refusals()])
    def test_message_is_bounded(self, name, call):
        with pytest.raises(PreconditionError) as info:
            call()
        assert len(str(info.value)) < 1024
        assert "..." in str(info.value)

    def test_short_values_are_echoed_whole(self):
        from cyclocover.covers import mapping_torus_complex
        from cyclocover.errors import check_count, check_sign
        for call, message in [
                (lambda: mapping_torus_complex([-1], [], []), "bad rank list [-1]"),
                (lambda: check_count("q", 0, 1), "q must be an int >= 1, not 0"),
                (lambda: check_sign(2), "sign must be +1 or -1, not 2")]:
            with pytest.raises(PreconditionError) as info:
                call()
            assert str(info.value) == message


class TestCanonical:
    def test_key_order_independent(self):
        assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})
        assert canonical_dumps({"a": 2, "b": 1}) == '{"a":2,"b":1}'

    def test_digest_stable(self):
        d1 = input_digest({"x": [1, 2], "y": "z"})
        d2 = input_digest({"y": "z", "x": [1, 2]})
        assert d1 == d2 and len(d1) == 64
        assert input_digest({"x": [1, 2]}) != d1

    def test_digest_value(self):
        # [DERIVED] SHA-256 of the canonical text '{"x":[1,2]}'
        expected = "036b898f9248c0e83d645e262473d1d93b3085400b881ff658928b81ca06de91"
        assert hashlib.sha256(b'{"x":[1,2]}').hexdigest() == expected
        assert input_digest({"x": [1, 2]}) == expected

    def test_cli_import_leaves_hashlib_unloaded(self):
        # hashlib loads OpenSSL, several MB of resident memory, so only
        # input_digest may import it
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = ("import sys, cyclocover.cli\n"
                "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
                "from cyclocover.serialize import input_digest\n"
                "print(input_digest({'x': [1, 2]}))\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout.split()
        assert out == ["[]", input_digest({"x": [1, 2]})]
