"""First class-number factors h_p^- and the odd-factor gate.

[DERIVED] h_p^- values are from the standard published table of minus
class numbers for small p (e.g. Washington, Introduction to Cyclotomic
Fields, Tables); the implementation additionally cross-checks two
independent methods internally.  Both are also checked against the exact
integer routes in `helpers`: the cyclic product of character-sum
polynomials and Maillet's full determinant.
"""

import json
import math
import os

import pytest

from cyclocover import arith, classnumbers, cli
from cyclocover.arith import factorize, is_prime
from cyclocover.classnumbers import (ClassGateReport, DEFAULT_PRIME_BOUND,
                                     HplusRecord, default_fixture_path,
                                     gate_theorem_CD, hp_minus,
                                     load_hplus_table, odd_prime_factor,
                                     prime_bound)
from cyclocover.errors import InternalCheckError, PreconditionError
from cyclocover.matrices import det_int
from helpers import (charsum_hp_minus, fraction_det, maillet_hp_minus,
                     maillet_matrix)

ODD_PRIMES_TO_101 = [p for p in range(3, 102, 2) if is_prime(p)]
ODD_PRIMES_103_TO_211 = [p for p in range(103, 212, 2) if is_prime(p)]


KNOWN_H_MINUS = {
    3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1,
    23: 3, 29: 8, 31: 9, 37: 37, 41: 121, 43: 211, 47: 695,
    53: 4889, 59: 41241, 61: 76301, 67: 853513, 71: 3882809,
}


class TestHpMinus:
    @pytest.mark.parametrize("p,h", sorted(KNOWN_H_MINUS.items()))
    def test_published_values(self, p, h):
        assert hp_minus(p) == h

    def test_bound_enforced(self, monkeypatch):
        monkeypatch.delenv("CCK_PRIME_BOUND", raising=False)
        assert prime_bound() == 211
        with pytest.raises(PreconditionError, match="bound"):
            hp_minus(223)

    def test_composite_rejected(self):
        with pytest.raises(PreconditionError):
            hp_minus(15)

    def test_even_and_small_rejected(self):
        with pytest.raises(PreconditionError):
            hp_minus(2)
        with pytest.raises(PreconditionError):
            hp_minus(1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CCK_PRIME_BOUND", "30")
        assert prime_bound() == 30
        with pytest.raises(PreconditionError, match="bound"):
            hp_minus(31)
        monkeypatch.setenv("CCK_PRIME_BOUND", "abc")
        with pytest.raises(PreconditionError):
            prime_bound()
        monkeypatch.setenv("CCK_PRIME_BOUND", "2")
        with pytest.raises(PreconditionError):
            prime_bound()
        monkeypatch.delenv("CCK_PRIME_BOUND")
        assert prime_bound() == DEFAULT_PRIME_BOUND


class TestAgainstOracles:
    @pytest.mark.parametrize("p", ODD_PRIMES_TO_101)
    def test_both_integer_routes(self, p):
        h = hp_minus(p)
        assert h == charsum_hp_minus(p)
        assert h == maillet_hp_minus(p)

    @pytest.mark.parametrize("p", ODD_PRIMES_103_TO_211)
    def test_cross_check_up_to_the_default_bound(self, p, monkeypatch):
        # the two internal methods agree, or hp_minus raises
        # InternalCheckError, at the benchmark's sizes
        monkeypatch.delenv("CCK_PRIME_BOUND", raising=False)
        h = hp_minus(p)
        assert type(h) is int and h > 0

    def test_maillet_det_int_with_column_swaps(self):
        # at p = 103 the block search of det_int swaps columns (14 times on
        # the 50 x 50 core) and two-step updates follow the unit steps; the
        # signed determinant must still be the Fraction elimination's
        a = classnumbers._maillet_core(103)
        assert det_int(a) == fraction_det(a)

    @pytest.mark.parametrize("p", [p for p in ODD_PRIMES_TO_101 if p <= 61])
    def test_maillet_reduction(self, p):
        full = abs(fraction_det(maillet_matrix(p)))
        core = abs(fraction_det(classnumbers._maillet_core(p)))
        assert full == p ** ((p - 3) // 2) * core

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_101)
    def test_maillet_rows_are_floor_differences(self, p):
        # entry (a, b) of the core, a, b >= 2, is
        # floor(a r_b / p) - floor((a-1) r_b / p), each 0 or 1, for
        # r_b = b^-1 mod p; the dropped column b = 1 is (1, 0, ..., 0)
        h = (p - 1) // 2
        r = [pow(b, -1, p) for b in range(1, h + 1)]
        full = [r] + [[a * x // p - (a - 1) * x // p for x in r]
                      for a in range(2, h + 1)]
        assert [row[0] for row in full] == [1] + [0] * (h - 1)
        got = classnumbers._maillet_core(p)
        assert got == [row[1:] for row in full[1:]]
        assert all(type(x) is int for row in got for x in row)
        assert all(x in (0, 1) for row in got for x in row)


def _record_residues(monkeypatch, tamper=None):
    """Record every (f, s, modulus) the character sum uses; optionally
    replace its residue v by tamper(v, modulus)."""
    real = classnumbers._paired_charsum_residue
    seen = []

    def recording(f, s, modulus):
        v = real(f, s, modulus)
        if tamper is not None:
            v = tamper(v, modulus) % modulus
        seen.append((list(f), s, modulus))
        return v

    monkeypatch.setattr(classnumbers, "_paired_charsum_residue", recording)
    return seen


def _cyclotomic_value(n, x):
    """Phi_n(x) as prod_{d | n} (x^d - 1)^mu(n/d), by integer arithmetic."""
    num = den = 1
    for d in range(1, n + 1):
        if n % d:
            continue
        e = factorize(n // d)
        if any(k > 1 for k in e.values()):
            continue
        if len(e) % 2:
            den *= x ** d - 1
        else:
            num *= x ** d - 1
    assert num % den == 0
    return num // den


def _add_one(v, modulus):
    return v + 1


class TestCharsumModuli:
    @pytest.mark.parametrize("p", [3, 5, 23, 61, 191, 211])
    def test_moduli_and_roots(self, p, monkeypatch):
        # one modulus M = Phi_{p-1}(2^s), with 32 bits of headroom over
        # twice the Parseval bound ceil(sqrt(S^m)), S = sum_j f_j^2; 2^s,
        # the image of zeta, has exact order p - 1 modulo M
        seen = _record_residues(monkeypatch)
        hp_minus(p)
        n = p - 1
        [(f, s, modulus)] = seen
        assert len(f) == n // 2
        square_bound = sum(x * x for x in f) ** (n // 2)
        bound = math.isqrt(square_bound)
        bound += bound * bound < square_bound
        assert modulus == _cyclotomic_value(n, 2 ** s)
        assert modulus > 2 ** 33 * bound
        assert pow(2, s * n, modulus) == 1
        for q in factorize(n):
            assert pow(2, s * n // q, modulus) != 1

    @pytest.mark.parametrize("p", [23, 59])
    def test_tampered_residue_is_caught(self, p, monkeypatch):
        _record_residues(monkeypatch, tamper=_add_one)
        with pytest.raises(InternalCheckError):
            hp_minus(p)

    @pytest.mark.parametrize("p", [23, 59])
    def test_residue_outside_bound_is_caught(self, p, monkeypatch):
        _record_residues(monkeypatch, tamper=lambda v, m: v + m // 3)
        with pytest.raises(InternalCheckError, match=r"Parseval bound"):
            hp_minus(p)

    def test_tampered_residue_exits_3(self, monkeypatch, capsys):
        _record_residues(monkeypatch, tamper=_add_one)
        code = cli.run(["hp-minus", "--p", "23"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 3
        assert rep["error"]["kind"] == "internal-check"

    @pytest.mark.parametrize("p", [23, 191])
    def test_no_modulus_search(self, p, monkeypatch):
        # the only primality tests left are primitive_root's checks of p
        # and of the prime factors of p - 1; no candidate modulus is tested
        allowed = {p} | set(factorize(p - 1))
        tested = []

        def counting(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(arith, "is_prime", counting)
        monkeypatch.setattr(classnumbers, "is_prime", counting)
        classnumbers._hp_minus_charsum(p)
        assert set(tested) <= allowed


class TestOddPrimeFactor:
    def test_basics(self):
        assert odd_prime_factor(1) is None
        assert odd_prime_factor(8) is None
        assert odd_prime_factor(12) == 3
        assert odd_prime_factor(35) == 5
        assert odd_prime_factor(853513) == 67  # 853513 = 67 * 12739
        assert odd_prime_factor(1000003) == 1000003  # prime

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            odd_prime_factor(0)
        with pytest.raises(PreconditionError):
            odd_prime_factor(-3)
        # bools are not counts, as everywhere else
        for b in (True, False):
            with pytest.raises(PreconditionError):
                odd_prime_factor(b)


class TestFixture:
    def test_default_table_loads(self):
        table = load_hplus_table(default_fixture_path())
        assert 3 in table and 191 in table
        assert 199 not in table
        assert table[191].odd_factor() == 11
        assert table[3].odd_factor() is None

    def test_missing_file(self):
        with pytest.raises(PreconditionError, match="cannot read"):
            load_hplus_table("/nonexistent/hplus.csv")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        assert load_hplus_table(str(f)) == {}

    def test_bad_header(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("p,factors\n")
        with pytest.raises(PreconditionError, match=":1:"):
            load_hplus_table(str(f))

    HEADER = "p,hplus_factors,source,heuristic\n"

    def test_line_numbered_errors(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text(self.HEADER + "15,,src,true\n")
        with pytest.raises(PreconditionError, match="t.csv:2: 15 is not prime"):
            load_hplus_table(str(f))
        f.write_text(self.HEADER + "5,,src,true\n5,,src,true\n")
        with pytest.raises(PreconditionError, match=":3: duplicate"):
            load_hplus_table(str(f))
        f.write_text(self.HEADER + "5,4,src,true\n")
        with pytest.raises(PreconditionError, match="factor 4 is not prime"):
            load_hplus_table(str(f))
        f.write_text(self.HEADER + "5,,src,maybe\n")
        with pytest.raises(PreconditionError, match="heuristic"):
            load_hplus_table(str(f))
        f.write_text(self.HEADER + "5,,src\n")
        with pytest.raises(PreconditionError, match="4 fields"):
            load_hplus_table(str(f))

    def test_path_like_accepted(self):
        import pathlib
        table = load_hplus_table(pathlib.Path(default_fixture_path()))
        assert table == load_hplus_table(default_fixture_path())

    def test_file_descriptor_refused_and_left_open(self):
        # open() takes an int as a file descriptor, reads it and closes it
        r, w = os.pipe()
        os.write(w, self.HEADER.encode())
        os.close(w)
        try:
            with pytest.raises(PreconditionError, match="str or os.PathLike"):
                load_hplus_table(r)
            os.fstat(r)
            assert os.read(r, 100) == self.HEADER.encode()
        finally:
            os.close(r)

    def test_other_path_types_refused(self):
        for bad in (None, 1.5, b"hplus.csv", ["hplus.csv"]):
            with pytest.raises(PreconditionError, match="str or os.PathLike"):
                load_hplus_table(bad)

    def test_factor_list_parsing(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text(self.HEADER + "163,2;2,src,false\n191,11,src,true\n5,,s,true\n")
        table = load_hplus_table(str(f))
        assert table[163].factors == [2, 2]
        assert table[163].odd_factor() is None
        assert table[191].factors == [11]
        assert table[5].factors == []
        assert table[163].heuristic is False


class TestGate:
    def test_p3_false(self):
        table = load_hplus_table(default_fixture_path())
        rep = gate_theorem_CD(3, table)
        assert isinstance(rep, ClassGateReport)
        assert rep.gate is False
        assert rep.h_minus == 1 and rep.h_minus_odd_factor is None

    def test_p23_needs_plus_side(self):
        # h_23^- = 3 is odd, but the fixture records h_23^+ = 1
        table = load_hplus_table(default_fixture_path())
        rep = gate_theorem_CD(23, table)
        assert rep.h_minus_odd_factor == 3 and rep.gate is False

    def test_p191_true(self):
        table = load_hplus_table(default_fixture_path())
        rep = gate_theorem_CD(191, table)
        assert rep.gate is True
        assert rep.h_minus_odd_factor is not None
        assert rep.h_plus_odd_factor == 11
        assert rep.h_minus % rep.h_minus_odd_factor == 0

    def test_p199_unknown(self):
        table = load_hplus_table(default_fixture_path())
        rep = gate_theorem_CD(199, table)
        assert rep.gate is None and rep.h_plus_entry is None

    def test_custom_fixture(self):
        rep = gate_theorem_CD(23, {23: HplusRecord(23, [3], "made up", True)})
        assert rep.gate is True

    @pytest.mark.parametrize("fixture", [None, [], [(23, None)]])
    def test_fixture_not_a_dict_refused_before_hp_minus(self, monkeypatch,
                                                         fixture):
        calls = []
        monkeypatch.setattr(classnumbers, "hp_minus", calls.append)
        with pytest.raises(PreconditionError, match="fixture must be a dict"):
            gate_theorem_CD(23, fixture)
        assert calls == []

    def test_env_bound_applies(self, monkeypatch):
        monkeypatch.setenv("CCK_PRIME_BOUND", "20")
        with pytest.raises(PreconditionError, match="bound"):
            gate_theorem_CD(23, {})


def test_h191_runtime_and_value():
    # the headline computation: both methods agree and the odd part is there
    h = hp_minus(191)
    assert h == 165008365487223656458987611326929859
    assert odd_prime_factor(h) == 11
