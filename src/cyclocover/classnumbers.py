"""The first factor h_p^- of the cyclotomic class number and the odd-factor gate.

h_p^- is computed twice and the two values are cross-checked:

- Character sums.  h_p^- = (-1)^((p-1)/2) * prod_{a odd} f(zeta^a) /
  (2p)^((p-3)/2), where zeta is a primitive (p-1)-th root of unity and
  f(zeta^a) = F(zeta^a) is the character sum of the a-th odd character,
  F(x) = sum_{j<m} f_j x^j with m = (p-1)/2 and f_j = 2 (g^j mod p) - p
  for a primitive root g.  The product is a rational integer c, and
  Parseval over the m odd characters with the AM-GM inequality gives
  c^2 <= S^m for S = sum_j f_j^2.  It is evaluated
  modulo the one integer M = Phi_{p-1}(2^s), with zeta sent to 2^s, and
  s chosen so that M > 2^33 * ceil(sqrt(S^m)); the symmetric residue
  must then satisfy c^2 <= S^m, which leaves 32 bits of headroom.  Each
  odd a is paired with p-1-a: F(zeta^a) * F(zeta^-a) is
  R_0 + sum_{d>=1} R_d (zeta^(a*d) + zeta^(-a*d)) for the autocorrelation
  R_d = sum_j f_j f_{j+d}, computed once, and a = m (m odd) gives F(-1).
  The sign, positivity and (2p)^((p-3)/2)-divisibility of c are
  checked.
- Maillet's determinant.  Subtracting a times the first row from row a
  of (a * b^-1 mod p)_{1<=a,b<=(p-1)/2} leaves -p * floor(a * b^-1 / p)
  (Carlitz and Olson, 1955), so h_p^- = |det| of the matrix with first
  row r_b = b^-1 mod p and rows floor(a * r_b / p) for a >= 2.  Row 2,
  floor(2 * r_b / p), is already 0/1, and row a minus row a-1 for a >= 3
  is too, without changing |det|: for every a >= 2 the entry is
  floor(a * r_b / p) - floor((a-1) * r_b / p) = [a * r_b mod p < r_b].
  Column b = 1 of that matrix is (1, 0, ..., 0), so its determinant is
  the one of the 0/1 core, rows and columns a, b in [2, m], which is
  what `det_int` reduces.  Its search for a +-1 pivot anywhere in the
  remaining block makes 42 of the 103 elimination steps at p = 211 unit
  steps, with no multiplication by the pivot and no division; the rest
  are Bareiss steps, two columns at a time while 6 or more rows are
  left.  A zero determinant fails the check.

h_p^+ is not computable here; it is shipped as a fixture table of
published (heuristic) factorizations.
"""

import csv
import io
import os
from math import isqrt
from operator import mul
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


def _paired_charsum_residue(f, s, modulus):
    """prod_{a odd} F(zeta^a) modulo modulus, for F(x) = sum_j f[j] x^j
    and zeta sent to 2^s.

    The odd a < n = 2 * len(f) pair off as a and n - a, and with the
    autocorrelation R_d = sum_j f[j] * f[j+d],
    F(zeta^a) * F(zeta^-a) = R_0 + sum_{d>=1} R_d * (zeta^(a*d) + zeta^(-a*d)).
    When m = len(f) is odd, a = m pairs with itself: zeta^m = -1, so it
    contributes F(-1) = sum_j (-1)^j f[j].
    """
    m = len(f)
    n = 2 * m
    powers = [1] * n
    for i in range(1, n):
        powers[i] = (powers[i - 1] << s) % modulus
    # w[i] is the image of zeta^i + zeta^-i
    w = [x + y for x, y in zip(powers, [1] + powers[:0:-1])]
    r = [sum(map(mul, f, f[d:])) for d in range(1, m)]
    r0 = sum(x * x for x in f)
    v = sum(f[0::2]) - sum(f[1::2]) if m % 2 else 1
    for a in range(1, m, 2):
        pair = r0 + sum(map(mul, r, [w[a * d % n] for d in range(1, m)]))
        v = v * pair % modulus
    return v


def _hp_minus_charsum(p):
    """h_p^- from the product of the odd character sums, modulo Phi_{p-1}(2^s).

    With f_j = g^j mod p for a primitive root g, the value c =
    prod_{a odd} f(zeta^a) is a rational integer.  Since g^m = -1 mod p
    and zeta^(a*m) = -1 for m = (p-1)/2 and odd a, f(zeta^a) equals
    F(zeta^a) for F(x) = sum_{j<m} (2 f_j - p) x^j.  Parseval over the m
    odd a gives sum_a |F(zeta^a)|^2 = m * S for S = sum_j (2 f_j - p)^2,
    so by the AM-GM inequality c^2 <= S^m.  The map zeta -> 2^s is a ring
    homomorphism Z[zeta] -> Z/M for M = Phi_{p-1}(2^s), so c is known
    modulo M, and s is chosen so that M >= (2^s - 1)^phi(p-1) exceeds
    2^33 * ceil(sqrt(S^m)).  The symmetric residue c must satisfy
    c^2 <= S^m: with 32 bits of headroom over twice the bound, a wrong
    residue passes with probability <= 2^-32.
    """
    n = p - 1
    m = n // 2
    g = primitive_root(p)
    f = [2 * pow(g, j, p) - p for j in range(m)]
    square_bound = sum(x * x for x in f) ** m
    target = (isqrt(square_bound - 1) + 1) << 33  # 2^33 * ceil(sqrt(S^m))
    phi = cyclotomic(n)
    s = -(-target.bit_length() // phi.degree) + 1
    modulus = kronecker_eval(phi.coeffs, s)
    if modulus <= target:
        raise InternalCheckError(
            f"Phi_{n}(2^{s}) does not exceed 2^33 times the bound")
    c = _paired_charsum_residue(f, s, modulus)
    if c > modulus // 2:
        c -= modulus
    if c * c > square_bound:
        raise InternalCheckError(
            "character-sum residue c breaks the Parseval bound c^2 <= S^m")
    num = c if m % 2 == 0 else -c
    den = (2 * p) ** (m - 1)
    if num <= 0 or num % den:
        raise InternalCheckError(
            f"character-sum value {num} is not a positive multiple of (2p)^((p-3)/2)")
    return num // den


def _maillet_core(p):
    """Maillet's matrix with the factor p^((p-3)/2) of its determinant
    removed, and then its first row and column: a 0/1 matrix.

    With r_b = b^-1 mod p in [1, p-1], row a (a >= 2) of the p-reduced
    matrix is floor(a * r_b / p) - floor((a-1) * r_b / p), 1 when
    a * r_b mod p < r_b and 0 otherwise, under the first row r_b.  For
    a = 2 that is the Carlitz-Olson row floor(2 * r_b / p) itself; for
    a >= 3 it is row a minus row a-1 of the Carlitz-Olson matrix, a
    unimodular row operation that keeps |det|.  Column b = 1 is
    (1, 0, ..., 0), since r_1 = 1 and a mod p >= 1, so expanding along it
    leaves the rows and columns a, b in [2, (p-1)/2] with the same
    determinant.  Their +-1 entries `det_int`'s block search brings to the
    diagonal as unit pivots.
    """
    r = [pow(b, -1, p) for b in range(2, (p + 1) // 2)]
    return [[1 if a * x % p < x else 0 for x in r]
            for a in range(2, len(r) + 2)]


def _hp_minus_maillet(p):
    """h_p^- as |det| of the 0/1 core of the p-reduced Maillet matrix
    (Carlitz-Olson)."""
    d = abs(det_int(_maillet_core(p)))
    if d == 0:
        raise InternalCheckError("Maillet core determinant is zero")
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
    """Parse the h_p^+ fixture CSV: p,hplus_factors,source,heuristic.
    `path` must be a str or an os.PathLike: open() would take an int (a
    bool included) as a file descriptor, read it and close it."""
    if not isinstance(path, (str, os.PathLike)):
        raise PreconditionError(f"fixture path must be a str or os.PathLike, "
                                f"not {path!r}")
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
    """Do both h_p^- and (per the fixture, a dict p -> HplusRecord as
    `load_hplus_table` returns) h_p^+ have odd prime factors?"""
    if not isinstance(fixture, dict):
        raise PreconditionError(f"fixture must be a dict, not {fixture!r}")
    h = hp_minus(p)
    minus_odd = odd_prime_factor(h)
    entry = fixture.get(p)
    if entry is None:
        return ClassGateReport(p, h, minus_odd, None, None, None)
    plus_odd = entry.odd_factor()
    gate = minus_odd is not None and plus_odd is not None
    return ClassGateReport(p, h, minus_odd, entry, plus_odd, gate)
