"""Command-line interface: exit codes, report shape, determinism, corpus."""

import argparse
import copy
import hashlib
import json
import os
import random
import time
import tracemalloc

import pytest

from cyclocover import __version__, cli, modules
from cyclocover.arith import primitive_root
from cyclocover.cli import default_corpus_path, run
from cyclocover.errors import PreconditionError
from cyclocover.modules import finitely_generated_over_Z
from cyclocover.serialize import parse_presentation

from helpers import brute_automorphism_order, brute_order


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def corpus_case(name):
    with open(os.path.join(default_corpus_path(), name)) as fh:
        return json.load(fh)


def corpus_params(name):
    return corpus_case(name)["params"]


# [t-1, t-1]: H_0 = coker(t-1), H_1 free of rank 1
GROWING = json.dumps(corpus_params("dimension_bound_growing.json")["complex"])

TREFOIL = json.dumps(corpus_params("wang_trefoil_q6.json")["complex"])
HBAR = json.dumps([[["1"]], [["1", "1"], ["0", "-1"]], []])
I2 = json.dumps([["1", "0"], ["0", "1"]])
ROT4 = json.dumps([["0", "-1"], ["1", "0"]])
ONE = {"rows": 1, "cols": 1, "entries": [[{"val": 0, "coeffs": ["1"]}]]}

PRINCIPAL_TREFOIL = json.dumps({
    "generators": 1,
    "relations": {"rows": 1, "cols": 1,
                  "entries": [[{"val": 0, "coeffs": ["1", "-1", "1"]}]]}})


class TestReports:
    def test_fingen_report_shape(self, capsys):
        code, rep = invoke(capsys, "fingen", "--module", PRINCIPAL_TREFOIL)
        assert code == 0
        assert set(rep) == {"subcommand", "input_digest", "result",
                            "warnings", "version"}
        assert rep["subcommand"] == "fingen"
        assert rep["version"] == __version__
        assert rep["warnings"] == []
        assert len(rep["input_digest"]) == 64
        assert rep["result"]["answer"] == "yes"
        assert rep["result"]["underlying_rank"] == "2"

    def test_fingen_no_with_witness(self, capsys):
        mod = json.dumps({
            "generators": 1,
            "relations": {"rows": 1, "cols": 1,
                          "entries": [[{"val": 0, "coeffs": ["-1", "2"]}]]}})
        code, rep = invoke(capsys, "fingen", "--module", mod)
        assert code == 0
        assert rep["result"]["answer"] == "no"
        assert rep["result"]["witness"]["kind"] == "non-integral eigenvalue of t"
        assert rep["result"]["witness"]["prime"] == "0"

    def test_determinism(self, capsys):
        run(["fingen", "--module", PRINCIPAL_TREFOIL])
        first = capsys.readouterr().out
        run(["fingen", "--module", PRINCIPAL_TREFOIL])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, rep = invoke(capsys, "order-ideal", "--module",
                           PRINCIPAL_TREFOIL, "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == rep
        assert rep["result"]["order_ideal"]["coeffs"] == ["1", "-1", "1"]

    def test_at_file_argument(self, capsys, tmp_path):
        f = tmp_path / "mod.json"
        f.write_text(PRINCIPAL_TREFOIL)
        code, rep = invoke(capsys, "fingen", "--module", "@" + str(f))
        assert code == 0 and rep["result"]["answer"] == "yes"

    def test_big_integers_as_strings(self, capsys):
        code, rep = invoke(capsys, "hp-minus", "--p", "191")
        assert code == 0
        assert rep["result"]["h_minus"] == "165008365487223656458987611326929859"
        assert rep["result"]["odd_prime_factor"] == "11"


class TestExitCodes:
    def test_precondition_bad_json(self, capsys):
        code, rep = invoke(capsys, "fingen", "--module", "{not json")
        assert code == 2
        assert rep["error"]["kind"] == "precondition"
        assert rep["error"]["message"]

    def test_precondition_missing_at_file(self, capsys):
        code, rep = invoke(capsys, "fingen", "--module", "@/no/such/file")
        assert code == 2 and "cannot read" in rep["error"]["message"]

    def test_precondition_bad_prime(self, capsys):
        code, rep = invoke(capsys, "hp-minus", "--p", "15")
        assert code == 2

    def test_precondition_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("CCK_PRIME_BOUND", "20")
        code, rep = invoke(capsys, "hp-minus", "--p", "23")
        assert code == 2 and "bound" in rep["error"]["message"]

    def test_precondition_bad_kappa(self, capsys):
        cx = json.dumps({"ranks": [1], "boundaries": []})
        code, rep = invoke(capsys, "wang", "--complex", cx,
                           "--kappa", "Fp:4", "--q", "2")
        assert code == 2

    def test_precondition_relation_failure(self, capsys):
        a = json.dumps([["0", "-1"], ["1", "0"]])
        i2 = json.dumps([["1", "0"], ["0", "1"]])
        code, rep = invoke(capsys, "prop-matrix", "--a", a, "--b", i2,
                           "--k", "3", "--sign", "1")
        assert code == 2 and "does not hold" in rep["error"]["message"]

    def test_t_action_limit_exit_2(self, capsys):
        # the free H_1 of the growing complex makes the t-action (q+1)x(q+1)
        code, rep = invoke(capsys, "cover-homology", "--complex", GROWING,
                           "--kappa", "Q", "--q", str(10**18))
        assert code == 2 and rep["error"]["kind"] == "precondition"
        assert "2048" in rep["error"]["message"]

    def test_internal_check_exit_3(self, capsys, monkeypatch):
        # a failing cross-check cannot be produced by valid inputs (that is
        # the point of the check), so inject one to exercise the exit path;
        # the CLI imports the layer's function when the subcommand runs
        from cyclocover import classnumbers
        from cyclocover.errors import InternalCheckError

        def boom(*args, **kwargs):
            raise InternalCheckError("methods disagree")

        monkeypatch.setattr(classnumbers, "hp_minus", boom)
        code, rep = invoke(capsys, "hp-minus", "--p", "23")
        assert code == 3
        assert rep["error"]["kind"] == "internal-check"
        assert rep["error"]["message"] == "methods disagree"

    def test_runtime_error_exit_3(self, capsys, monkeypatch):
        # 100003 * 100019 has no factor below the trial-division limit, so
        # odd_prime_factor falls through to Pollard rho; make that give up
        from cyclocover import arith, classnumbers

        def give_up(n):
            raise RuntimeError(f"pollard rho failed on {n}")

        monkeypatch.setattr(classnumbers, "hp_minus", lambda p: 100003 * 100019)
        monkeypatch.setattr(arith, "_pollard_rho", give_up)
        code, rep = invoke(capsys, "hp-minus", "--p", "23")
        assert code == 3
        assert rep["error"]["kind"] == "internal-check"
        assert rep["error"]["message"] == \
            "RuntimeError: pollard rho failed on 10002200057"

    def test_failed_rank_check_exit_3(self, capsys, monkeypatch):
        # a cokernel that reports too small a free rank makes the boundary
        # ranks add up to more than the rank of a chain group
        from cyclocover import covers

        real = covers.laurent_cokernel

        def short_free_rank(mat, field):
            factors, _ = real(mat, field)
            return factors, 0

        spec = json.dumps({"ranks": [1, 2], "boundaries_F": [[["0", "0"]]],
                           "f": [[["1"]], [["1", "-1"], ["1", "0"]]]})
        _, rep = invoke(capsys, "mapping-torus", "--f", spec)
        cx = json.dumps(rep["result"]["complex"])
        monkeypatch.setattr(covers, "laurent_cokernel", short_free_rank)
        code, rep = invoke(capsys, "wang", "--complex", cx, "--kappa", "Q",
                           "--q", "6")
        assert code == 3
        assert rep["error"] == {"kind": "internal-check",
                                "message": "rk d_1 + rk d_2 = 1 + 3 exceeds "
                                           "rank 3 of C_1"}

    def test_unknown_subcommand_argparse(self, capsys):
        with pytest.raises(SystemExit):
            run(["frobnicate"])


WANG_USAGE = ("usage: cyclocover wang [-h] --complex COMPLEX --kappa KAPPA "
              "--q Q [--out OUT]\n")
WANG_MISSING = (WANG_USAGE + "cyclocover wang: error: the following arguments "
                "are required: --complex, --kappa, --q\n")


class TestUsageErrors:
    """What argparse itself answers, before any request runs: stdout,
    stderr and the exit code."""

    @pytest.fixture(autouse=True)
    def _fixed_width(self, monkeypatch):
        # argparse wraps usage lines at the terminal width
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def argparse_exit(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            run(list(argv))
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("argv", [["wang"], ["wang", "--bogus", "x"],
                                      ["wang", "--version"]])
    def test_subcommand_missing_flags(self, capsys, argv):
        assert self.argparse_exit(capsys, *argv) == (2, "", WANG_MISSING)

    @pytest.mark.parametrize("argv, message", [
        (["frobnicate"], "argument subcommand: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: subcommand\n")])
    def test_no_known_subcommand_gets_the_top_level_usage(self, capsys, argv,
                                                           message):
        # the list of choices is left out: its quoting differs between
        # Python versions
        code, out, err = self.argparse_exit(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: cyclocover [-h] [--version]\n")
        assert "\ncyclocover: error: " + message in err

    def test_version(self, capsys):
        assert self.argparse_exit(capsys, "--version") == (0, __version__ + "\n", "")

    def test_subcommand_help(self, capsys):
        assert self.argparse_exit(capsys, "wang", "-h") == (0, (
            WANG_USAGE + "\n"
            "options:\n"
            "  -h, --help         show this help message and exit\n"
            "  --complex COMPLEX\n"
            "  --kappa KAPPA\n"
            "  --q Q\n"
            "  --out OUT\n"), "")

    def test_unknown_flag_after_every_required_one(self, capsys):
        # the subcommand's own parser reports it, with its own usage line
        code, out, err = self.argparse_exit(
            capsys, "wang", "--complex", TREFOIL, "--kappa", "Q", "--q", "6",
            "--bogus", "x")
        assert (code, out) == (2, "")
        assert err == (WANG_USAGE + "cyclocover wang: error: unrecognized "
                       "arguments: --bogus x\n")

    def test_abbreviated_flag(self, capsys):
        args = ["--kappa", "Q", "--q", "6"]
        assert run(["wang", "--comp", TREFOIL] + args) == 0
        abbreviated = capsys.readouterr()
        assert run(["wang", "--complex", TREFOIL] + args) == 0
        assert capsys.readouterr() == abbreviated
        assert json.loads(abbreviated.out)["result"]["dims"]
        assert abbreviated.err == ""


# Z/3 under 2, with no free part
TORSION_ONLY = json.dumps([{"free": [], "torsion_orders": ["3"],
                            "torsion": [["2"]], "mixing": [[]]}])

# one bad input per validated field: (argv, fragment of the message)
BAD_INPUTS = {
    "prop-matrix ragged": (
        ["prop-matrix", "--a", '[["1", "0"], ["1"]]', "--b", I2,
         "--k", "3", "--sign", "1"], "A is not 2x2"),
    "prop-matrix sizes differ": (
        ["prop-matrix", "--a", ROT4, "--b", '[["1"]]', "--k", "3",
         "--sign", "-1"], "B is not 2x2"),
    "prop-matrix relation fails": (
        ["prop-matrix", "--a", ROT4, "--b", I2, "--k", "3", "--sign", "1"],
        "does not hold"),
    "mapping-torus boundary count": (
        ["mapping-torus", "--f", json.dumps(
            {"ranks": [1, 1], "boundaries_F": [], "f": [[["1"]], [["1"]]]})],
        "one boundary per"),
    "mapping-torus boundary shape": (
        ["mapping-torus", "--f", json.dumps(
            {"ranks": [1, 1], "boundaries_F": [[["0", "0"]]],
             "f": [[["1"]], [["1"]]]})], "boundary 1 is not 1x1"),
    "periodicity torsion_orders": (
        ["periodicity", "--monodromy", '[{"free": [], "torsion_orders": 5}]',
         "--k", "5", "--witness", '[{"b": [], "sign": 1}]'], "torsion_orders"),
    # k is checked once, in no degree; a degree of free rank 0 checks its
    # witness like any other
    "periodicity torsion-only k": (
        ["periodicity", "--monodromy", TORSION_ONLY, "--k", "-7",
         "--witness", '[{"b": [], "sign": 1}]'], "k must be"),
    "periodicity no degrees k": (
        ["periodicity", "--monodromy", "[]", "--k", "1", "--witness", "[]"],
        "k must be"),
    "periodicity torsion-only witness": (
        ["periodicity", "--monodromy", TORSION_ONLY, "--k", "5", "--witness",
         '[{"b": [["7", "1"], ["2", "9"]], "sign": 7}]'], "degree 0: B is not 0x0"),
    "periodicity torsion-only sign": (
        ["periodicity", "--monodromy", TORSION_ONLY, "--k", "5",
         "--witness", '[{"b": [], "sign": 7}]'], "degree 0: sign must be"),
    "cover-homology q": (
        ["cover-homology", "--complex", TREFOIL, "--kappa", "Q", "--q", "0"],
        "q must be"),
    "wang q": (
        ["wang", "--complex", TREFOIL, "--kappa", "Q", "--q", "0"], "q must be"),
    "dimension-bound q": (
        ["dimension-bound", "--complex", TREFOIL, "--kappa", "Q", "--q", "2,0"],
        "q must be"),
    "verify-selfcover k": (
        ["verify-selfcover", "--complex", TREFOIL, "--k", "1", "--sign", "1",
         "--hbar", HBAR], "k must be"),
    "verify-selfcover sign": (
        ["verify-selfcover", "--complex", TREFOIL, "--k", "5", "--sign", "2",
         "--hbar", HBAR], "sign must be"),
    "verify-selfcover hbar shape": (
        ["verify-selfcover", "--complex", TREFOIL, "--k", "5", "--sign", "1",
         "--hbar", '[[["1"]], [["1", "0"]], []]'], "not 2x2"),
    "verify-selfcover singular rational hbar": (
        ["verify-selfcover", "--complex", TREFOIL, "--k", "5", "--sign", "1",
         "--hbar", '[[["1"]], [["1/2", "1"], ["1", "2"]], []]'],
        "hbar block 1 is not invertible"),
    "fingen generators": (
        ["fingen", "--module", json.dumps({"generators": 2, "relations": ONE})],
        "one row per generator"),
    "wang d d != 0": (
        ["wang", "--complex", json.dumps({"ranks": [1, 1, 1],
                                          "boundaries": [ONE, ONE]}),
         "--kappa", "Q", "--q", "2"], "composition"),
    "wang free homology": (
        ["wang", "--complex", GROWING, "--kappa", "Q", "--q", "2"], "free rank"),
    # a wire integer is an optional sign and ASCII digits, in Fp:<p> too;
    # int() alone read these Arabic-Indic digits as 23 and 5
    "hp-minus non-ASCII digits": (["hp-minus", "--p", "٢٣"], "bad integer"),
    "wang kappa non-ASCII digits": (
        ["wang", "--complex", TREFOIL, "--kappa", "Fp:٥", "--q", "2"],
        "bad integer"),
}


def laurent_row_module(vals):
    """fingen --module: one generator, one relation per valuation, each
    the monomial t^val."""
    return json.dumps({"generators": 1, "relations": {
        "rows": 1, "cols": len(vals),
        "entries": [[{"val": v, "coeffs": ["1"]} for v in vals]]}})


def column_complex(vals):
    """A complex with one boundary, a column of monomials t^val."""
    return json.dumps({"ranks": [len(vals), 1], "boundaries": [{
        "rows": len(vals), "cols": 1,
        "entries": [[{"val": v, "coeffs": ["1"]}] for v in vals]}]})


# refused in serialize before any matrix is cleared or any complex built
OVERSIZED_INPUTS = {
    "fingen valuation 10^30": (
        ["fingen", "--module", laurent_row_module([0, 10**30])],
        "matrix entries span degree 10" + "0" * 29),
    "fingen valuation spread 10^6": (
        ["fingen", "--module", laurent_row_module([-10**6, 0])],
        "matrix entries span degree 1000000, above the limit 2048"),
    "order-ideal valuation spread 2049": (
        ["order-ideal", "--module", laurent_row_module([0, 2049])],
        "span degree 2049"),
    "cover-homology column spread": (
        ["cover-homology", "--complex", column_complex([0, 10**6]),
         "--kappa", "Q", "--q", "2"],
        "matrix entries span degree 1000000"),
    "fingen 0 x 10^6 relations": (
        ["fingen", "--module", json.dumps({"generators": 0, "relations": {
            "rows": 0, "cols": 10**6, "entries": []}})],
        "matrix shape 0x1000000 is above the limit 2048"),
    "wang rank 2000000": (
        ["wang", "--complex", '{"ranks": [2000000], "boundaries": []}',
         "--kappa", "Q", "--q", "2"],
        "rank 2000000 is above the limit 2048"),
    "mapping-torus rank 2049": (
        ["mapping-torus", "--f", json.dumps(
            {"ranks": [2049], "boundaries_F": [], "f": [[]]})],
        "rank 2049 is above the limit 2048"),
}


class TestInputBoundary:
    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_bad_input_exit_2(self, capsys, case):
        argv, fragment = BAD_INPUTS[case]
        code, rep = invoke(capsys, *argv)
        assert code == 2 and rep["error"]["kind"] == "precondition"
        assert fragment in rep["error"]["message"]

    @pytest.mark.parametrize("case", list(OVERSIZED_INPUTS))
    def test_oversized_input_refused_up_front(self, capsys, case):
        argv, fragment = OVERSIZED_INPUTS[case]
        start = time.perf_counter()
        code, rep = invoke(capsys, *argv)
        assert time.perf_counter() - start < 0.1
        assert code == 2 and rep["error"]["kind"] == "precondition"
        assert fragment in rep["error"]["message"]

    def test_cleared_degree_at_the_limit_is_accepted(self, capsys):
        code, rep = invoke(capsys, "fingen", "--module",
                           laurent_row_module([-2048, 0]))
        assert code == 0 and rep["result"]["answer"] == "yes"

    def test_widest_accepted_presentation_stops_at_first_unit_minor(self):
        # 2 generators x 2048 relations, the widest shape the limits accept;
        # the first maximal minor is 1, so the gcd is 1 before the other
        # C(2048, 2) column pairs are ever formed
        rng = random.Random(1)
        entries = [[{"val": 0, "coeffs": ["1" if i == j else "0"]} if j < 2
                    else {"val": rng.randint(0, 1),
                          "coeffs": [str(rng.randint(-3, 3)) for _ in range(3)]}
                    for j in range(2048)] for i in range(2)]
        M = parse_presentation({"generators": 2, "relations": {
            "rows": 2, "cols": 2048, "entries": entries}})
        tracemalloc.start()
        try:
            start = time.perf_counter()
            verdict = finitely_generated_over_Z(M)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.answer and verdict.relevant_primes == ()
        assert elapsed < 0.5 and peak < 4_000_000

    def test_corpus_case_missing_parameter_exit_2(self, capsys, tmp_path):
        case = {"subcommand": "wang", "params": {"complex": json.loads(TREFOIL),
                                                 "kappa": "Q"},
                "expected": {}}
        (tmp_path / "no_q.json").write_text(json.dumps(case))
        code, rep = invoke(capsys, "corpus", "--path", str(tmp_path))
        assert code == 2 and rep["error"]["kind"] == "precondition"
        assert "missing parameters ['q']" in rep["error"]["message"]

    @pytest.mark.parametrize("k", [3 * 10**6, 10**18 + 1])
    def test_prop_matrix_hyperbolic_refused_before_powering(self, capsys, k):
        # an eigenvalue that is not a root of unity rules the relation out
        # before A^k, whose entries grow linearly in k, is formed
        start = time.perf_counter()
        code, rep = invoke(capsys, "prop-matrix", "--a", '[["2", "1"], ["1", "1"]]',
                           "--b", I2, "--k", str(k), "--sign", "1")
        assert time.perf_counter() - start < 0.1
        assert code == 2 and rep["error"]["kind"] == "precondition"
        assert rep["error"]["message"] == "B A^k B^-1 = A^sign does not hold"

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        bad = str(tmp_path / "no" / "such" / "x.json")
        code = run(["hp-minus", "--p", "23", "--out", bad])
        out = capsys.readouterr().out
        # exactly one JSON object, the error, and nothing else
        assert code == 2 and out.count("\n") == 1
        rep = json.loads(out)
        assert rep["error"]["kind"] == "precondition"
        assert "cannot write" in rep["error"]["message"] and bad in rep["error"]["message"]
        assert not os.path.exists(bad)

    @pytest.mark.parametrize("exc", [ValueError, KeyError, TypeError,
                                     ZeroDivisionError, IndexError])
    def test_other_exceptions_exit_3(self, capsys, monkeypatch, exc):
        # a bug in a library routine is not bad input, whatever its type
        def boom(*args):
            raise exc("injected")

        monkeypatch.setattr(modules, "finitely_generated_over_Z", boom)
        code, rep = invoke(capsys, "fingen", "--module", PRINCIPAL_TREFOIL)
        assert code == 3 and rep["error"]["kind"] == "internal-check"
        assert rep["error"]["message"].startswith(exc.__name__ + ": ")


class TestUnknownKeys:
    def test_unknown_parameter_refused(self):
        with pytest.raises(PreconditionError,
                           match=r"^hp-minus has unknown parameters \['bogus'\]$"):
            cli.compute("hp-minus", {"p": 23, "bogus": 1})

    def test_misspelled_optional_key_refused(self, capsys):
        # "torsion_order" used to read as a torsion-free automorphism
        mono = json.dumps([{"free": [["1"]], "torsion_order": ["3"]}])
        wit = json.dumps([{"b": [["1"]], "sign": 1}])
        code, rep = invoke(capsys, "periodicity", "--monodromy", mono,
                           "--k", "2", "--witness", wit)
        assert code == 2
        assert rep["error"]["message"] == \
            "automorphism has unknown fields ['torsion_order']"

    def test_refused_value_echoed_in_part(self):
        with pytest.raises(PreconditionError) as info:
            cli.compute("mapping-torus", {"f": [0] * 100000})
        assert len(str(info.value)) < 1024
        with pytest.raises(PreconditionError) as info:
            cli.compute("x" * 100000, {})
        assert len(str(info.value)) < 1024


WRONG_TYPES = [None, True, 1.5, "x", [], {}, [None], [[None]], -1, "0"]

# the substitutions of the sweep below that leave a valid request:
# (subcommand, where, repr of the value)
VALID_SUBSTITUTIONS = {
    ("mapping-torus", ("f", "boundaries_F"), "[]"),
    ("periodicity", ("monodromy", "mixing"), "[]"),
    ("periodicity", ("monodromy", "torsion"), "[]"),
    ("periodicity", ("monodromy", "torsion_orders"), "[]"),
    ("periodicity", ("witness", "sign"), "-1"),
    ("prop-matrix", ("sign",), "-1"),
    ("verify-selfcover", ("sign",), "-1"),
}


def wrong_type_requests(params):
    """(where, value, params) with one parameter, or one key of an object
    parameter or of the first object of a list parameter, set to each of
    WRONG_TYPES."""
    for flag, value in params.items():
        obj = value[0] if isinstance(value, list) and value else value
        keys = list(obj) if isinstance(obj, dict) else []
        for where in [(flag,)] + [(flag, key) for key in keys]:
            for bad in WRONG_TYPES:
                changed = copy.deepcopy(params)
                if len(where) == 1:
                    changed[flag] = bad
                else:
                    target = changed[flag]
                    target = target[0] if isinstance(target, list) else target
                    target[where[1]] = bad
                yield where, bad, changed


@pytest.mark.parametrize("subcommand", list(cli._COMMANDS))
def test_wrong_types_raise_precondition_error_only(subcommand):
    # every parameter goes through its serialize reader: a wrong type is
    # bad input (exit 2), never a TypeError or the like (exit 3)
    name = min(n for n in os.listdir(default_corpus_path())
               if n.endswith(".json") and corpus_case(n)["subcommand"] == subcommand)
    valid = set()
    for where, bad, params in wrong_type_requests(corpus_params(name)):
        try:
            cli.compute(subcommand, params)
        except PreconditionError:
            continue
        valid.add((subcommand, where, repr(bad)))
    assert valid == {v for v in VALID_SUBSTITUTIONS if v[0] == subcommand}


class TestSubcommands:
    def test_mapping_torus(self, capsys):
        spec = json.dumps({"ranks": [1], "boundaries_F": [], "f": [[["2"]]]})
        code, rep = invoke(capsys, "mapping-torus", "--f", spec)
        assert code == 0
        assert rep["result"]["complex"]["ranks"] == [1, 1]

    def test_wang_and_cover_agree(self, capsys):
        spec = json.dumps({"ranks": [1, 2], "boundaries_F": [[["0", "0"]]],
                           "f": [[["1"]], [["1", "-1"], ["1", "0"]]]})
        code, rep = invoke(capsys, "mapping-torus", "--f", spec)
        cx = json.dumps(rep["result"]["complex"])
        code, wang = invoke(capsys, "wang", "--complex", cx,
                            "--kappa", "Q", "--q", "6")
        assert code == 0 and wang["result"]["dims"] == [1, 3, 2]
        code, direct = invoke(capsys, "cover-homology", "--complex", cx,
                              "--kappa", "Q", "--q", "6")
        assert code == 0
        assert [d["dim"] for d in direct["result"]["degrees"]] == [1, 3, 2]

    def test_dimension_bound_multi_q(self, capsys):
        spec = json.dumps({"ranks": [1], "boundaries_F": [], "f": [[["1"]]]})
        _, rep = invoke(capsys, "mapping-torus", "--f", spec)
        cx = json.dumps(rep["result"]["complex"])
        code, rep = invoke(capsys, "dimension-bound", "--complex", cx,
                           "--kappa", "Q", "--q", "2,3,4")
        assert code == 0 and rep["result"]["ok"] is True
        assert [e["q"] for e in rep["result"]["per_q"]] == [2, 3, 4]

    def test_dimension_bound_one_infinite_cover(self, capsys, monkeypatch):
        from cyclocover import covers
        spec = json.dumps({"ranks": [1, 2], "boundaries_F": [[["0", "0"]]],
                           "f": [[["1"]], [["1", "-1"], ["1", "0"]]]})
        _, rep = invoke(capsys, "mapping-torus", "--f", spec)
        cx = json.dumps(rep["result"]["complex"])
        calls = []
        real = covers.infinite_cover_homology_field
        monkeypatch.setattr(covers, "infinite_cover_homology_field",
                            lambda *a: calls.append(a) or real(*a))
        code, rep = invoke(capsys, "dimension-bound", "--complex", cx,
                           "--kappa", "Q", "--q", "5,6")
        assert code == 0 and len(calls) == 1
        assert [e["dims"] for e in rep["result"]["per_q"]] == [[1, 1, 0], [1, 3, 2]]
        code, rep = invoke(capsys, "dimension-bound", "--complex", cx,
                           "--kappa", "Q", "--q", "5,0")
        assert code == 2 and len(calls) == 1

    def test_dimension_bound_free_part_at_huge_q(self, capsys):
        # the free H_1 adds q to the dimension without building t^q - 1
        start = time.perf_counter()
        code, rep = invoke(capsys, "dimension-bound", "--complex", GROWING,
                           "--kappa", "Q", "--q", str(10**18))
        assert time.perf_counter() - start < 0.1
        assert code == 0 and rep["result"]["ok"] is False
        assert rep["result"]["per_q"][0]["dims"] == [1, 10**18 + 1]

    def test_gate_default_fixture(self, capsys):
        code, rep = invoke(capsys, "gate", "--p", "191")
        assert code == 0 and rep["result"]["gate"] is True
        code, rep = invoke(capsys, "gate", "--p", "199")
        assert code == 0 and rep["result"]["gate"] == "unknown"

    def test_gate_digest_names_the_default_fixture(self, capsys):
        # the digest must not depend on where the package is installed
        want = hashlib.sha256(b'{"fixture":"default","p":23}').hexdigest()
        _, implicit = invoke(capsys, "gate", "--p", "23")
        _, explicit = invoke(capsys, "gate", "--p", "23", "--fixture", "default")
        assert implicit["input_digest"] == explicit["input_digest"] == want

    def test_gate_warns_on_heuristic_entry(self, capsys, tmp_path):
        code, rep = invoke(capsys, "gate", "--p", "191")
        assert code == 0
        [warning] = rep["warnings"]
        assert "191" in warning and "Schoof 2003 table" in warning
        code, rep = invoke(capsys, "gate", "--p", "199")
        assert code == 0 and rep["warnings"] == []
        f = tmp_path / "hplus.csv"
        f.write_text("p,hplus_factors,source,heuristic\n23,,proved,false\n")
        code, rep = invoke(capsys, "gate", "--p", "23", "--fixture", str(f))
        assert code == 0 and rep["warnings"] == []

    def test_periodicity(self, capsys):
        mono = json.dumps([{"free": [["1", "-1"], ["1", "0"]],
                            "torsion_orders": [], "torsion": [], "mixing": []}])
        wit = json.dumps([{"b": [["1", "0"], ["1", "-1"]], "sign": 1}])
        code, rep = invoke(capsys, "periodicity", "--monodromy", mono,
                           "--k", "5", "--witness", wit)
        assert code == 0
        assert rep["result"] == {"m": "6", "l": "6"}


class TestCorpus:
    def test_bundled_corpus_passes(self, capsys):
        code, rep = invoke(capsys, "corpus")
        assert code == 0
        assert rep["result"]["failed"] == 0
        assert rep["result"]["total"] >= 25

    def test_periodicity_cases_match_the_oracles(self):
        case = corpus_case("periodicity_z2_z4_mixing.json")
        phi, = case["params"]["monodromy"]
        free, orders, torsion, mixing = (
            [[int(x) for x in row] for row in phi["free"]],
            [int(d) for d in phi["torsion_orders"]],
            [[int(x) for x in row] for row in phi["torsion"]],
            [[int(x) for x in row] for row in phi["mixing"]])
        assert case["expected"] == {
            "m": str(brute_order(free)),
            "l": str(brute_automorphism_order(free, orders, torsion, mixing))}
        assert case["expected"] == {"m": "2", "l": "4"}
        # 2 generates the units modulo the prime p, so its order is p - 1
        case = corpus_case("periodicity_z1000003.json")
        phi, = case["params"]["monodromy"]
        p = int(phi["torsion_orders"][0])
        assert phi["torsion"] == [[str(primitive_root(p))]]
        assert case["expected"] == {"m": "1", "l": str(p - 1)}

    def test_corpus_digest_names_the_default_path(self, capsys):
        # as for gate's fixture, the digest must not depend on where the
        # package is installed
        want = hashlib.sha256(b'{"path":"default"}').hexdigest()
        _, rep = invoke(capsys, "corpus")
        assert rep["input_digest"] == want

    def test_corpus_deterministic(self, capsys):
        run(["corpus"])
        first = capsys.readouterr().out
        run(["corpus"])
        assert capsys.readouterr().out == first

    def test_corpus_mismatch_exit_1(self, capsys, tmp_path):
        case = corpus_case("hp_minus_23.json")
        case["expected"]["h_minus"] = "999"
        (tmp_path / "bad.json").write_text(json.dumps(case))
        code, rep = invoke(capsys, "corpus", "--path", str(tmp_path))
        assert code == 1
        entry = rep["result"]["cases"][0]
        assert entry["ok"] is False
        assert "expected" in entry and "actual" in entry

    def test_corrupted_case_exit_2(self, capsys, tmp_path):
        (tmp_path / "broken.json").write_text("{oops")
        code, rep = invoke(capsys, "corpus", "--path", str(tmp_path))
        assert code == 2 and "corrupted" in rep["error"]["message"]

    def test_missing_dir_exit_2(self, capsys):
        code, rep = invoke(capsys, "corpus", "--path", "/no/such/dir")
        assert code == 2

    def test_corpus_files_match_the_generator(self):
        # tests/gen_corpus.py never deletes a case it no longer builds
        from gen_corpus import build_cases
        names = {n[:-len(".json")] for n in os.listdir(default_corpus_path())
                 if n.endswith(".json")}
        assert names == set(build_cases())


class TestCommandTable:
    def test_parser_lists_exactly_the_table(self):
        parser, subparsers = cli._parser()
        assert cli._parser()[0] is parser
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli._COMMANDS) + ["corpus"]
        # run hands argv to the very parsers the top-level one lists
        assert subparsers == sub.choices

    def test_every_command_has_a_corpus_case(self):
        covered = {corpus_case(n)["subcommand"]
                   for n in os.listdir(default_corpus_path()) if n.endswith(".json")}
        assert set(cli._COMMANDS) <= covered
