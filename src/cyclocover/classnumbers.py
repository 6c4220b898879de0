"""The first factor h_p^- of the cyclotomic class number and the odd-factor gate.

h_p^- is computed twice and the two values are cross-checked:

- Character sums.  h_p^- = (-1)^((p-1)/2) * prod_{a odd} f(zeta^a) /
  (2p)^((p-3)/2), where zeta is a primitive (p-1)-th root of unity and
  f(zeta^a) is the character sum of the a-th odd character.  The
  product is a rational integer c with |c| <= B = (p(p-1)/2)^((p-1)/2).
  It is evaluated modulo the one integer M = Phi_{p-1}(2^s), with zeta
  sent to 2^s, and s chosen so that M > 2^33 * B; the symmetric residue
  must then lie in [-B, B], which leaves 32 bits of headroom over 2B.
  The sign, positivity and (2p)^((p-3)/2)-divisibility of c are
  checked.
- Maillet's determinant.  Subtracting a times the first row from row a
  of (a * b^-1 mod p)_{1<=a,b<=(p-1)/2} leaves -p * floor(a * b^-1 / p)
  (Carlitz and Olson, 1955), so h_p^- = |det| of the matrix with first
  row r_b = b^-1 mod p and rows floor(a * r_b / p) for a >= 2.  Row 2,
  floor(2 * r_b / p), is already 0/1, and row a minus row a-1 for a >= 3
  is too, without changing |det|: for every a >= 2 the entry is
  floor(a * r_b / p) - floor((a-1) * r_b / p) = [a * r_b mod p < r_b].
  That 0/1 matrix is the one `det_int` reduces.  Its search for a +-1
  pivot anywhere in the remaining block makes 43 of the 104 elimination
  steps at p = 211 unit steps, with no multiplication by the pivot and no
  division; the rest are Bareiss steps.  A zero determinant fails the
  check.

h_p^+ is not computable here; it is shipped as a fixture table of
published (heuristic) factorizations.
"""

import csv
import io
import os
from operator import itemgetter, mul
from typing import Dict, List, NamedTuple, Optional

from .arith import is_prime, primitive_root, smallest_odd_prime_factor
from .errors import InternalCheckError, PreconditionError, check_count
from .matrices import det_int, kronecker_eval
from .rings import cyclotomic

DEFAULT_PRIME_BOUND = 211


def prime_bound():
    raw = os.environ.get("CCK_PRIME_BOUND")
    if raw is None:
        return DEFAULT_PRIME_BOUND
    try:
        b = int(raw)
    except ValueError:
        raise PreconditionError(f"CCK_PRIME_BOUND is not an integer: {raw!r}")
    if b < 3:
        raise PreconditionError(f"CCK_PRIME_BOUND must be >= 3, got {b}")
    return b


def _check_p(p):
    bound = prime_bound()
    if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_prime(p):
        raise PreconditionError(f"p must be an odd prime, got {p}")
    if p > bound:
        raise PreconditionError(f"p={p} exceeds the configured bound {bound}")


def _odd_character_pickers(n):
    """Per odd a < n, a getter taking (zeta^i)_{i<n} to (zeta^(a*j))_{j<n/2}.

    A trailing index 0 keeps the result a tuple when n/2 == 1 (p = 3);
    sum(map(mul, f, ...)) stops at the n/2 entries of f before it.
    """
    return [itemgetter(*[a * j % n for j in range(n // 2)], 0)
            for a in range(1, n, 2)]


def _charsum_residue(f, pickers, s, modulus):
    """prod_{a odd} sum_j f[j] * 2^(s*a*j) modulo modulus."""
    n = 2 * len(f)
    powers = [1] * n
    for i in range(1, n):
        powers[i] = (powers[i - 1] << s) % modulus
    v = 1
    for pick in pickers:
        v = v * sum(map(mul, f, pick(powers))) % modulus
    return v


def _hp_minus_charsum(p):
    """h_p^- from the product of the odd character sums, modulo Phi_{p-1}(2^s).

    With f_j = g^j mod p for a primitive root g, the value c =
    prod_{a odd} f(zeta^a) is a rational integer, and |f(zeta^a)| <=
    sum_j f_j bounds it by B = (p(p-1)/2)^((p-1)/2).  Since g^m = -1 mod p
    and zeta^(a*m) = -1 for m = (p-1)/2 and odd a, f(zeta^a) equals
    sum_{j<m} (2 f_j - p) zeta^(a*j).  The map zeta -> 2^s is a ring
    homomorphism Z[zeta] -> Z/M for M = Phi_{p-1}(2^s), so c is known
    modulo M, and s is chosen so that M >= (2^s - 1)^phi(p-1) exceeds
    2^33 * B.  The symmetric residue must lie in [-B, B]: with 32 bits of
    headroom over 2B, a wrong residue passes with probability <= 2^-32.
    """
    n = p - 1
    m = n // 2
    g = primitive_root(p)
    f = [2 * pow(g, j, p) - p for j in range(m)]
    bound = (p * m) ** m
    target = bound << 33
    phi = cyclotomic(n)
    s = -(-target.bit_length() // phi.degree) + 1
    modulus = kronecker_eval(phi.coeffs, s)
    if modulus <= target:
        raise InternalCheckError(
            f"Phi_{n}(2^{s}) does not exceed 2^33 times the bound")
    c = _charsum_residue(f, _odd_character_pickers(n), s, modulus)
    if c > modulus // 2:
        c -= modulus
    if abs(c) > bound:
        raise InternalCheckError(
            "character-sum residue lies outside [-B, B]")
    num = c if m % 2 == 0 else -c
    den = (2 * p) ** (m - 1)
    if num <= 0 or num % den:
        raise InternalCheckError(
            f"character-sum value {num} is not a positive multiple of (2p)^((p-3)/2)")
    return num // den


def _maillet_reduced(p):
    """Maillet's matrix with the factor p^((p-3)/2) of its determinant removed.

    With r_b = b^-1 mod p in [1, p-1] for b = 1..(p-1)/2, the first row is
    r_b and row a (a >= 2) is floor(a * r_b / p) - floor((a-1) * r_b / p),
    1 when a * r_b mod p < r_b and 0 otherwise.  For a = 2 that is the
    Carlitz-Olson row floor(2 * r_b / p) itself; for a >= 3 it is row a
    minus row a-1 of the Carlitz-Olson matrix, a unimodular row operation
    that keeps |det|.  The 0/1 rows hold +-1 entries in many columns,
    which `det_int`'s block search brings to the diagonal as unit pivots
    (40 of 74 steps at p = 151, 43 of 104 at p = 211).
    """
    r = [pow(b, -1, p) for b in range(1, (p + 1) // 2)]
    return [r] + [[1 if a * x % p < x else 0 for x in r]
                  for a in range(2, len(r) + 1)]


def _hp_minus_maillet(p):
    """h_p^- as |det| of the p-reduced Maillet matrix (Carlitz-Olson)."""
    d = abs(det_int(_maillet_reduced(p)))
    if d == 0:
        raise InternalCheckError("reduced Maillet determinant is zero")
    return d


def hp_minus(p):
    """First factor of the class number of Z[zeta_p], cross-checked, for
    an odd prime p up to `prime_bound()`."""
    _check_p(p)
    h1 = _hp_minus_charsum(p)
    h2 = _hp_minus_maillet(p)
    if h1 != h2:
        raise InternalCheckError(
            f"h_{p}^- methods disagree: character sum {h1}, Maillet {h2}")
    return h1


def odd_prime_factor(n) -> Optional[int]:
    """Smallest odd prime dividing n, or None when n is a power of 2."""
    check_count("n", n, 1)
    return smallest_odd_prime_factor(n)


class HplusRecord(NamedTuple):
    p: int
    factors: List[int]
    source: str
    heuristic: bool

    def odd_factor(self) -> Optional[int]:
        odd = [q for q in self.factors if q % 2]
        return min(odd) if odd else None


def default_fixture_path():
    from importlib import resources  # at module level it loads inspect (3.12+)
    return str(resources.files("cyclocover").joinpath("data/hplus.csv"))


def load_hplus_table(path) -> Dict[int, HplusRecord]:
    """Parse the h_p^+ fixture CSV: p,hplus_factors,source,heuristic."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read fixture {path}: {exc}")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        return {}
    if [h.strip() for h in header] != ["p", "hplus_factors", "source", "heuristic"]:
        raise PreconditionError(f"{path}:1: bad header {header!r}")
    table = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise PreconditionError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        p_raw, factors_raw, source, heur_raw = (f.strip() for f in row)
        try:
            p = int(p_raw)
        except ValueError:
            raise PreconditionError(f"{path}:{lineno}: bad prime {p_raw!r}")
        if not is_prime(p):
            raise PreconditionError(f"{path}:{lineno}: {p} is not prime")
        if p in table:
            raise PreconditionError(f"{path}:{lineno}: duplicate entry for p={p}")
        factors = []
        for tok in factors_raw.split(";"):
            tok = tok.strip()
            if not tok:
                continue
            try:
                q = int(tok)
            except ValueError:
                raise PreconditionError(f"{path}:{lineno}: bad factor {tok!r}")
            if q < 2 or not is_prime(q):
                raise PreconditionError(f"{path}:{lineno}: factor {q} is not prime")
            factors.append(q)
        if heur_raw.lower() in ("true", "1", "yes"):
            heuristic = True
        elif heur_raw.lower() in ("false", "0", "no"):
            heuristic = False
        else:
            raise PreconditionError(f"{path}:{lineno}: bad heuristic flag {heur_raw!r}")
        table[p] = HplusRecord(p, factors, source, heuristic)
    return table


class ClassGateReport(NamedTuple):
    p: int
    h_minus: int
    h_minus_odd_factor: Optional[int]
    h_plus_entry: Optional[HplusRecord]
    h_plus_odd_factor: Optional[int]
    gate: Optional[bool]            # None when p is absent from the fixture


def gate_theorem_CD(p, fixture) -> ClassGateReport:
    """Do both h_p^- and (per the fixture) h_p^+ have odd prime factors?"""
    h = hp_minus(p)
    minus_odd = odd_prime_factor(h)
    entry = fixture.get(p)
    if entry is None:
        return ClassGateReport(p, h, minus_odd, None, None, None)
    plus_odd = entry.odd_factor()
    gate = minus_odd is not None and plus_odd is not None
    return ClassGateReport(p, h, minus_odd, entry, plus_odd, gate)
