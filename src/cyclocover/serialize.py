"""JSON wire formats.

Laurent polynomial: {"val": i, "coeffs": ["c0", "c1", ...]} with exact
coefficients as decimal strings ("a/b" for rationals, which are written
out but read only over ZZ, as Laurent matrices are).  Matrix:
{"rows": r, "cols": c, "entries": [[<laurent>, ...], ...]}.  Integer
matrices are plain nested lists of decimal strings.

Every wire input has one `parse_*` reader here, which returns what the
library takes or raises `PreconditionError`, on an unknown key as well.
`parse_presentation`, `parse_complex` and `parse_monodromy` import the
classes they build, and `canonical_dumps` imports json, so a request
that reads none of them loads none of `modules`, `covers` and `periodicity`.
"""

from fractions import Fraction

from .errors import PreconditionError, is_count, shown
from .matrices import LaurentMatrix
from .rings import GF, LaurentPoly, Poly, QQ, ZZ

# the largest chain-complex rank or matrix dimension a wire input may ask
# for, and the largest degree the entries of one matrix may span (which
# bounds every row and column once cleared by a power of t).  Memory and
# time grow with both, a 0 x n matrix costing n without n entries, so a
# larger value is refused before anything is built
_RANK_LIMIT = 2048
_CLEARED_DEGREE_LIMIT = 2048


def _fields(obj, what, keys, optional=()):
    """The values of the required keys of the JSON object obj, in order; a
    key neither in `keys` nor `optional` is refused, not read as absent."""
    if not isinstance(obj, dict):
        raise PreconditionError(f"bad {what} {shown(obj)}")
    unknown = [k for k in obj if k not in keys and k not in optional]
    if unknown:
        raise PreconditionError(f"{what} has unknown fields {shown(unknown)}")
    try:
        return list(map(obj.__getitem__, keys))
    except KeyError as exc:
        raise PreconditionError(f"{what} is missing field {exc}")


def _list(obj, read, what):
    """read applied to each item of the JSON list obj."""
    if not isinstance(obj, list):
        raise PreconditionError(f"{what} must be a list, got {shown(obj)}")
    return list(map(read, obj))


def _matrix(obj, read, what):
    """read applied to each entry of obj, a JSON list of lists."""
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        raise PreconditionError(f"bad {what} {shown(obj)}")
    return [[read(x) for x in row] for row in obj]


def scalar_str(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _is_decimal(raw):
    """Whether the str raw is an optional sign and ASCII digits: what int()
    and Fraction() read alike on every Python."""
    digits = raw[1:] if raw[:1] in ("+", "-") else raw
    return digits.isascii() and digits.isdigit()


def parse_scalar(ring, raw):
    if type(raw) is int:
        return ring.coerce(raw)
    if isinstance(raw, str):
        # anything but a decimal integer goes through Fraction()
        try:
            return ring.coerce(int(raw) if _is_decimal(raw) else Fraction(raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"bad coefficient {shown(raw)}: {shown(exc, str)}")
    raise PreconditionError(f"bad coefficient {shown(raw)}")


def laurent_to_json(f):
    if isinstance(f, Poly):
        f = LaurentPoly.from_poly(f)
    return {"val": f.val, "coeffs": [scalar_str(c) for c in f.body.coeffs]}


def parse_laurent(obj) -> LaurentPoly:
    if not isinstance(obj, dict) or set(obj) - {"val", "coeffs"}:
        raise PreconditionError(f"bad Laurent polynomial {shown(obj)}")
    coeffs = obj.get("coeffs", [])
    if not isinstance(coeffs, list):
        raise PreconditionError(f"coeffs must be a list, got {shown(coeffs)}")
    # LaurentPoly checks the valuation; inline, not _list: one call per entry
    return LaurentPoly(ZZ, obj.get("val", 0), [parse_scalar(ZZ, c) for c in coeffs])


def matrix_to_json(m: LaurentMatrix):
    return {"rows": m.nrows, "cols": m.ncols,
            "entries": [[laurent_to_json(e) for e in row] for row in m.entries]}


def parse_matrix(obj) -> LaurentMatrix:
    rows, cols, entries = _fields(obj, "matrix", ("rows", "cols", "entries"))
    if not (is_count(rows) and is_count(cols)):
        raise PreconditionError(f"bad matrix shape {shown(rows)}x{shown(cols)}")
    if max(rows, cols) > _RANK_LIMIT:
        raise PreconditionError(
            f"matrix shape {rows}x{cols} is above the limit {_RANK_LIMIT}")
    if not isinstance(entries, list) or len(entries) != rows:
        raise PreconditionError("matrix entries do not match declared rows")
    grid = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise PreconditionError("matrix entries do not match declared cols")
        grid.append([parse_laurent(e) for e in row])
    # the span of the whole matrix bounds that of every row and column
    span = _span([e for line in grid for e in line])
    if span > _CLEARED_DEGREE_LIMIT:
        raise PreconditionError(f"matrix entries span degree {span}, above "
                                f"the limit {_CLEARED_DEGREE_LIMIT}")
    return LaurentMatrix(ZZ, rows, cols, grid)


def _span(entries):
    """max(val + deg) - min(val) over the nonzero Laurent entries (0 if
    none): the degree they span once cleared by a power of t."""
    nonzero = [e for e in entries if e.body.coeffs]
    return (max(e.val + len(e.body.coeffs) for e in nonzero) - 1
            - min(e.val for e in nonzero)) if nonzero else 0


def parse_int_matrix(obj):
    return _matrix(obj, parse_int, "integer matrix")


def parse_int(raw):
    """An int, bools excluded, or a str that `_is_decimal` accepts."""
    if type(raw) is int:
        return raw
    if isinstance(raw, str) and _is_decimal(raw):
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    raise PreconditionError(f"bad integer {shown(raw)}")


def parse_int_list(obj):
    """A nonempty list of `parse_int` integers."""
    if not isinstance(obj, list) or not obj:
        raise PreconditionError(f"expected a nonempty list of integers, got {shown(obj)}")
    return [parse_int(x) for x in obj]


def parse_kappa(raw):
    """The coefficient field: "Q", or "Fp:<p>" for GF(p)."""
    if raw == "Q":
        return QQ
    if isinstance(raw, str) and raw.startswith("Fp:"):
        return GF(parse_int(raw[3:]))
    raise PreconditionError(f"kappa must be 'Q' or 'Fp:<p>', got {shown(raw)}")


def parse_rational_matrix(obj):
    return _matrix(obj, lambda x: parse_scalar(QQ, x), "rational matrix")


def parse_rational_matrices(obj):
    """hbar: one rational matrix per degree."""
    return _list(obj, parse_rational_matrix, "hbar")


def parse_ranks(ranks):
    if not isinstance(ranks, list) or not all(map(is_count, ranks)):
        raise PreconditionError(f"bad rank list {shown(ranks)}")
    if max(ranks, default=0) > _RANK_LIMIT:
        raise PreconditionError(
            f"rank {max(ranks)} is above the limit {_RANK_LIMIT}")
    return ranks


def parse_presentation(obj):
    from .modules import ModulePresentation
    g, rel = _fields(obj, "module presentation", ("generators", "relations"))
    # ModulePresentation checks the generator count
    return ModulePresentation(g, parse_matrix(rel))


def complex_to_json(x):
    return {"ranks": list(x.ranks),
            "boundaries": [matrix_to_json(b) for b in x.boundaries]}


def parse_complex(obj):
    from .covers import TwistedChainComplex
    ranks, bnds = _fields(obj, "chain complex", ("ranks", "boundaries"))
    return TwistedChainComplex(parse_ranks(ranks),
                               _list(bnds, parse_matrix, "boundaries"))


def parse_fibre(obj):
    """The mapping-torus input {"ranks", "boundaries_F", "f"}: the fibre
    complex F and its endomorphism f, as (ranks, boundaries, f)."""
    ranks, bnds, f = _fields(obj, "mapping-torus input", ("ranks", "boundaries_F", "f"))
    return (parse_ranks(ranks), _list(bnds, parse_int_matrix, "boundaries_F"),
            _list(f, parse_int_matrix, "f"))


def parse_monodromy(obj):
    """A list of automorphisms {"free", "torsion_orders", "torsion",
    "mixing"}, one per degree; all but "free" default to []."""
    from .periodicity import FgAbelianAutomorphism

    def automorphism(o):
        free, = _fields(o, "automorphism", ("free",),
                        ("torsion_orders", "torsion", "mixing"))
        return FgAbelianAutomorphism(
            parse_int_matrix(free),
            _list(o.get("torsion_orders", []), parse_int, "torsion_orders"),
            parse_int_matrix(o.get("torsion", [])),
            parse_int_matrix(o.get("mixing", [])))
    return _list(obj, automorphism, "monodromy")


def parse_witnesses(obj):
    """A list of conjugation witnesses {"b", "sign"}, one per degree, as
    (B, sign) pairs."""
    def witness(o):
        b, sign = _fields(o, "conjugation witness", ("b", "sign"))
        return parse_int_matrix(b), parse_int(sign)
    return _list(obj, witness, "witness")


def canonical_dumps(obj) -> str:
    import json
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def input_digest(obj) -> str:
    # hashlib loads OpenSSL (several MB of RSS); only digests need it
    import hashlib
    return hashlib.sha256(canonical_dumps(obj).encode("ascii")).hexdigest()
