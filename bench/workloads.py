"""Seeded inputs, operations and output checks for each workload.

`build(name, seed, lib)` returns the list of operations of one round.
Each operation calls the library through its module object at call
time, so that a tracer which rebinds module attributes sees the call.
Expected values come from `oracles`, which never imports cyclocover;
the library is only used to construct the inputs it is asked about.
"""

import csv
import io
import json
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd, lcm

import oracles as O

# A dense 5x9 presentation with degree-2 entries: over QQ[t] the Smith
# form in laurent_cokernel does not finish within minutes, so this one
# operation runs under a time budget and is counted as failed when the
# budget runs out.  Its input does not depend on the seed.
BUDGET_SECONDS = 2.0
BUDGET_SHAPE = (5, 9)

PUBLISHED_HP_MINUS = {23: 3, 29: 8, 31: 9, 37: 37, 41: 121, 43: 211, 47: 695}


class Op:
    """One timed call plus the check of its result.

    `call()` returns the raw result, `plain(result)` turns it into plain
    hashable data, and `verify(plain)` returns True when it is correct.
    Operations sharing `ref` ask the same question; the first verified
    answer is kept there and every later answer must equal it.
    """

    __slots__ = ("label", "call", "plain", "verify", "budget", "ref")

    def __init__(self, label, call, plain, verify, budget=None, ref=None):
        self.label = label
        self.call = call
        self.plain = plain
        self.verify = verify
        self.budget = budget
        self.ref = ref if ref is not None else [None]

    def check(self, result):
        data = self.plain(result)
        if self.ref[0] is None:
            if not self.verify(data):
                return False
            self.ref[0] = data
            return True
        return data == self.ref[0]


def scalar(x):
    """Field element as an int (GF(p)) or Fraction (QQ)."""
    if isinstance(x, (int, Fraction)):
        return x
    return int(x.v)


def poly_ints(f):
    return [int(c) for c in f.coeffs]


# ---------------------------------------------------------------------------
# shared generators

FINITE_ORDER_BLOCKS = {   # companion matrices of cyclotomic polynomials
    1: [[1]], 2: [[-1]], 3: [[0, -1], [1, -1]], 4: [[0, -1], [1, 0]],
    6: [[0, -1], [1, 1]],
}


def unimodular(n, rng, steps):
    """Random unimodular integer matrix together with its inverse."""
    u, uinv = O.identity(n), O.identity(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        # inverse of (row_i += c row_j) applied on the left is
        # (col_j -= c col_i) applied on the right
        for row in uinv:
            row[j] -= c * row[i]
    return u, uinv


def conjugate(m, rng, steps=4):
    p, pinv = unimodular(len(m), rng, steps)
    return O.mat_mul(O.mat_mul(p, m), pinv)


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


def finite_order_matrix(rng, size):
    """Conjugated block sum of cyclotomic companions; returns (A, order)."""
    blocks, order, left = [], 1, size
    while left:
        d = rng.choice([d for d, b in FINITE_ORDER_BLOCKS.items() if len(b) <= left])
        blocks.append(FINITE_ORDER_BLOCKS[d])
        order = lcm(order, d)
        left -= len(FINITE_ORDER_BLOCKS[d])
    return conjugate(block_diag(blocks), rng), order


def random_fibre(rng, h, monodromy):
    """Integer chain complex F with a chain map f and f_* known on H(F).

    F has zero-boundary summands of ranks h[j] carrying the blocks
    `monodromy[j]`, plus one acyclic pair Z -> Z (identity boundary)
    between degrees 1 and 0, so H_j(F; ZZ) = Z^h[j] and f_* = monodromy[j]
    over every field.  Each degree is disguised by a unimodular change
    of basis.  Returns (ranks, boundaries, f).
    """
    ranks = [h[0] + 1, h[1] + 1]
    d1 = [[0] * ranks[1] for _ in range(ranks[0])]
    d1[h[0]][h[1]] = 1
    pair = rng.randint(-2, 2)
    f = [block_diag([monodromy[0], [[pair]]]), block_diag([monodromy[1], [[pair]]])]
    (p0, p0inv), (p1, p1inv) = unimodular(ranks[0], rng, 4), unimodular(ranks[1], rng, 4)
    d1 = O.mat_mul(O.mat_mul(p0, d1), p1inv)
    f = [O.mat_mul(O.mat_mul(p0, f[0]), p0inv), O.mat_mul(O.mat_mul(p1, f[1]), p1inv)]
    return ranks, [d1], f


def torus_blocks(rng):
    """Monodromy blocks on H_0 (1x1) and H_1 (2x2) of a random fibre."""
    m0 = [[rng.choice((1, -1))]]
    if rng.random() < 0.25:
        m1 = conjugate([[2, 1], [1, 1]], rng)     # infinite order
    else:
        m1 = finite_order_matrix(rng, 2)[0]
    return [m0, m1]


TREFOIL = ([1, 2], [[[0, 0]]], [[[1]], [[1, -1], [1, 0]]])
TREFOIL_BLOCKS = [[[1]], [[1, -1], [1, 0]]]


def laurent_json(d):
    """{exponent: int} as the wire format {"val", "coeffs"}."""
    if not d:
        return {"val": 0, "coeffs": []}
    lo, hi = min(d), max(d)
    return {"val": lo, "coeffs": [str(d.get(k, 0)) for k in range(lo, hi + 1)]}


def laurent_from_json(obj):
    return {obj["val"] + i: int(c) for i, c in enumerate(obj["coeffs"]) if int(c)}


def complex_json(ranks, mats):
    return {"ranks": ranks,
            "boundaries": [{"rows": len(m), "cols": len(m[0]) if m else ranks[j + 1],
                            "entries": [[laurent_json(e) for e in row] for row in m]}
                           for j, m in enumerate(mats)]}


# ---------------------------------------------------------------------------
# cover_growth

def _matrix_plain(res):
    return tuple((d, tuple(tuple(scalar(e) for e in row) for row in a)) for d, a in res)


def _cover_op(covers, label, x, field, p, q, want):
    """cover_homology_field with dims `want`; every t-action must satisfy t^q = 1."""
    def verify(data):
        if [d for d, _ in data] != want:
            return False
        for dim, action in data:
            if len(action) != dim or any(len(r) != dim for r in action):
                return False
            if dim and not O.is_identity(O.mat_pow([list(r) for r in action], q, p), p):
                return False
        return True
    return Op(f"cover_homology_field/{label}/{field}/q={q}",
              lambda: covers.cover_homology_field(x, field, q), _matrix_plain, verify)


def _bound_op(covers, label, x, field, iterates, dims_of):
    want = all(d <= r for q in iterates for d, r in zip(dims_of(q), x.ranks))
    return Op(f"dimension_bound_check/{label}/{field}",
              lambda: covers.dimension_bound_check(x, field, iterates), bool,
              lambda ok: ok is want)


# The trefoil sweep is the same on every seed, so it anchors the timing;
# the seeded tori and the growing complex add variety at a smaller cost.
SMALL_PRIME = 5
TREFOIL_Q = {"QQ": (5, 10, 15, 20, 25, 30), "GF": (10, 20, 30, 40)}
TORUS_Q = (4, 8)
WANG_Q = (7, 24, 40)
GROWING_Q = (10, 20)


def build_cover_growth(rng, lib):
    covers, rings, matrices = lib.covers, lib.rings, lib.matrices
    fields = ((rings.QQ, None, "QQ"), (rings.GF(SMALL_PRIME), SMALL_PRIME, "GF"))
    tori = [("trefoil", covers.mapping_torus_complex(*TREFOIL), TREFOIL_BLOCKS)]
    for i in range(2):
        blocks = torus_blocks(rng)
        tori.append((f"torus{i}", covers.mapping_torus_complex(*random_fibre(rng, [1, 2], blocks)),
                     blocks))
    tm1 = rings.LaurentPoly.from_poly(rings.Poly(rings.ZZ, (-1, 1)))
    grow = covers.TwistedChainComplex(
        [1, 2], [matrices.LaurentMatrix(rings.ZZ, 1, 2, [[tm1, tm1]])])

    ops = []
    for field, p, key in fields:
        for label, x, blocks in tori:
            qs = TREFOIL_Q[key] if label == "trefoil" else TORUS_Q
            for q in qs:
                ops.append(_cover_op(covers, label, x, field, p, q, O.cover_dims(blocks, q, p)))
            for q in WANG_Q:
                ops.append(Op(f"wang_dimensions/{label}/{field}/q={q}",
                              lambda x=x, field=field, q=q: covers.wang_dimensions(x, field, q),
                              tuple, lambda d, w=tuple(O.cover_dims(blocks, q, p)): d == w))
            ops.append(_bound_op(covers, label, x, field, [3, 6],
                                 lambda q, b=blocks, p=p: O.cover_dims(b, q, p)))
        # dim H_1 of the growing complex's q-fold cover is q + 1 > rank 2
        for q in GROWING_Q:
            ops.append(_cover_op(covers, "growing", grow, field, p, q, [1, q + 1]))
        ops.append(_bound_op(covers, "growing", grow, field, [2, 3], lambda q: [1, q + 1]))
    return ops


# ---------------------------------------------------------------------------
# fingen_presentations

FIBERED = 0.75


def random_summand(rng, deg=None):
    """Integer polynomial with nonzero constant term, degree 1..3."""
    deg = deg or rng.randint(1, 3)
    f = [rng.randint(-3, 3) for _ in range(deg + 1)]
    if rng.random() < FIBERED:
        f[0], f[-1] = rng.choice((1, -1)), rng.choice((1, -1))
    else:
        kind = rng.randrange(3)
        if kind == 0:       # leading coefficient not a unit
            f[0], f[-1] = rng.choice((1, -1)), rng.choice((2, -2, 3))
        elif kind == 1:     # constant coefficient not a unit
            f[0], f[-1] = rng.choice((2, -3, 3)), rng.choice((1, -1))
        else:               # content 2
            f = [2 * rng.choice((1, -1))] + [2 * c for c in f[1:-1]] + [2]
    return f


def laurent_unimodular(n, rng, steps, constant=False):
    """Random product of elementary Laurent matrices, entries {exp: coeff}."""
    m = [[({0: 1} if i == j else {}) for j in range(n)] for i in range(n)]
    lams = ({0: 1}, {0: -1}) if constant else ({0: 1}, {0: -1}, {1: 1}, {-1: 1}, {1: -1})
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        lam = rng.choice(lams)
        m[i] = [O.laurent_add(a, O.laurent_mul(lam, b)) for a, b in zip(m[i], m[j])]
    return m


def presentation(lib, rows):
    """ModulePresentation from a grid of {exp: coeff} entries."""
    rings, matrices, modules = lib.rings, lib.matrices, lib.modules

    def entry(d):
        if not d:
            return rings.LaurentPoly.zero(rings.ZZ)
        lo, hi = min(d), max(d)
        return rings.LaurentPoly(rings.ZZ, lo, [d.get(k, 0) for k in range(lo, hi + 1)])

    g, r = len(rows), len(rows[0])
    return modules.ModulePresentation(
        g, matrices.LaurentMatrix(rings.ZZ, g, r, [[entry(e) for e in row] for row in rows]))


def disguise(rows, rng, steps, constant=False):
    """U * rows * V for random unimodular U, V of `steps` elementary steps each."""
    u = laurent_unimodular(len(rows), rng, steps, constant)
    v = laurent_unimodular(len(rows[0]), rng, steps, constant)
    return O.laurent_mat_mul(O.laurent_mat_mul(u, rows), v)


def _order_plain(f):
    return tuple(O.normalize(poly_ints(f)))


def _grid(rows):
    return [[{e: c for e, c in enumerate(f) if c} for f in row] for row in rows]


def dense_rows(rng, g, r):
    """g x r integer polynomials of degree <= 2, coefficients in [-3, 3]."""
    return [[O.trim([rng.randint(-3, 3) for _ in range(3)]) for _ in range(r)]
            for _ in range(g)]


# Sizes are kept where the cost over QQ[t] has a light tail.  Four
# disguised summands, 3 x 6 and 4 x 6 dense shapes, and t-power steps in
# the dense disguise each take seconds to minutes on some seeds (the
# Smith-form blow-up the budgeted operation stands for); 3 x 5 varies
# 2x between seeds.
# The counts put the median operation in the middle of the two-summand
# cluster and the 90th percentile inside the 4 x 5 cluster, not on a
# boundary between clusters of different cost, where seeds would move them.
SUMMANDS = (2,) * 24 + (3,) * 8
SUM_STEPS = 3
DENSE_SHAPES = ((3, 4),) * 12 + ((4, 5),) * 12
DENSE_STEPS = 2


def build_fingen(rng, lib):
    modules = lib.modules
    ops = []
    for i, k in enumerate(SUMMANDS):
        # degrees in rotation, so every seed has the same mix of sizes
        fs = [random_summand(rng, 1 + (i + j) % 3) for j in range(k)]
        diag = [[({e: c for e, c in enumerate(f) if c} if row == j else {})
                 for j, f in enumerate(fs)] for row in range(k)]
        m = presentation(lib, disguise(diag, rng, SUM_STEPS))
        verdicts = [O.fingen_principal(f) for f in fs]
        answer = all(a for a, _ in verdicts)
        rank = sum(r for _, r in verdicts) if answer else None
        order = [1]
        for f in fs:
            order = O.pmul(order, O.primitive(f))
        label = f"sum{k}:" + "*".join(",".join(map(str, f)) for f in fs)
        ops.append(Op(f"finitely_generated_over_Z/{label}",
                      lambda m=m: modules.finitely_generated_over_Z(m),
                      lambda v: (v.answer, v.underlying_rank),
                      lambda d, a=answer, r=rank: d == (a, r)))
        ops.append(Op(f"order_ideal/{label}", lambda m=m: modules.order_ideal(m),
                      _order_plain, lambda d, o=tuple(O.normalize(order)): d == o))

    for i, (g, r) in enumerate(DENSE_SHAPES):
        rows = dense_rows(rng, g, r)
        gcd = O.maximal_minor_gcd(rows)
        plain = presentation(lib, _grid(rows))
        disguised = presentation(lib, disguise(_grid(rows), rng, DENSE_STEPS, constant=True))
        same_answer = [None]      # the verdict may not depend on the presentation
        for tag, m in (("plain", plain), ("disguised", disguised)):
            ops.append(Op(f"finitely_generated_over_Z/dense{g}x{r}.{i}/{tag}",
                          lambda m=m: modules.finitely_generated_over_Z(m),
                          lambda v: v.answer,
                          lambda a, gcd=gcd: a is True if gcd == [1] else isinstance(a, bool),
                          ref=same_answer))
        # Fitt_0 is invariant, so the disguised order ideal must equal the
        # primitive part of the plain presentation's minor gcd
        ops.append(Op(f"order_ideal/dense{g}x{r}.{i}/disguised",
                      lambda m=disguised: modules.order_ideal(m), _order_plain,
                      lambda d, o=tuple(O.primitive(gcd)): d == o))

    brows = dense_rows(random.Random("fingen/budget"), *BUDGET_SHAPE)
    m = presentation(lib, _grid(brows))
    ops.append(Op(f"finitely_generated_over_Z/dense{BUDGET_SHAPE[0]}x{BUDGET_SHAPE[1]}/budget",
                  lambda: modules.finitely_generated_over_Z(m), lambda v: v.answer,
                  lambda a: a is True if O.maximal_minor_gcd(brows) == [1] else isinstance(a, bool),
                  budget=BUDGET_SECONDS))
    return ops


# ---------------------------------------------------------------------------
# classgate_primes

def read_hplus(path):
    """The h+ fixture table, parsed here rather than by the library."""
    table = {}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if row:
            table[int(row[0])] = [int(x) for x in row[1].split(";") if x.strip()]
    return table


def hp_minus_ok(p, h, bern):
    if h < 1 or (h % p == 0) != O.irregular(p, bern):
        return False
    if p <= 19 and h != 1:
        return False
    return PUBLISHED_HP_MINUS.get(p, h) == h


def odd_factor_ok(h, factor):
    """factor is the least odd prime dividing h (None when h is 2**k)."""
    if O.odd_part(h) == 1:
        return factor is None
    want = O.least_odd_prime_factor(h, 10 ** 6)
    if want is not None:
        return factor == want
    return factor is not None and factor % 2 == 1 and h % factor == 0


def build_classgate(rng, lib, bern, hplus_path):
    classnumbers = lib.classnumbers
    fixture = classnumbers.load_hplus_table(hplus_path)
    table = read_hplus(hplus_path)
    primes = [p for p in range(3, classnumbers.DEFAULT_PRIME_BOUND + 1, 2) if O.is_prime(p)]
    rng.shuffle(primes)
    ops = []
    for p in primes:
        if rng.random() < 0.5:
            ops.append(Op(f"hp_minus/{p}", lambda p=p: classnumbers.hp_minus(p), int,
                          lambda h, p=p: hp_minus_ok(p, h, bern)))
            continue

        def plain(rep):
            entry = rep.h_plus_entry
            return (rep.h_minus, rep.h_minus_odd_factor,
                    tuple(entry.factors) if entry is not None else None,
                    rep.h_plus_odd_factor, rep.gate)

        def verify(d, p=p):
            h, minus_odd, factors, plus_odd, gate = d
            if not hp_minus_ok(p, h, bern) or not odd_factor_ok(h, minus_odd):
                return False
            if p not in table:
                return factors is None and plus_odd is None and gate is None
            odd = [x for x in table[p] if x % 2]
            want_plus = min(odd) if odd else None
            return (list(factors) == table[p] and plus_odd == want_plus
                    and gate is (O.odd_part(h) > 1 and want_plus is not None))
        ops.append(Op(f"gate_theorem_CD/{p}",
                      lambda p=p: classnumbers.gate_theorem_CD(p, fixture), plain, verify))
    return ops


# ---------------------------------------------------------------------------
# cli_small

def cli_call(lib, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = lib.cli.run(argv)
    return code, buf.getvalue()


def _cli_op(lib, label, argv, check):
    def verify(data):
        code, text = data
        if code != 0:
            return False
        return check(json.loads(text)["result"])
    # the request is issued twice per round; both answers share `ref`, so
    # the second one (and every later round) must repeat the bytes exactly
    ref = [None]
    return [Op(f"cli/{label}", lambda: cli_call(lib, argv), tuple, verify, ref=ref)
            for _ in range(2)]


def principal_json(f, val):
    return {"generators": 1, "relations": {"rows": 1, "cols": 1, "entries": [[
        {"val": val, "coeffs": [str(c) for c in f]}]]}}


def _t_action_ok(degrees, q, p):
    for deg in degrees:
        a = deg["t_action"]
        if len(a) != deg["dim"] or any(len(r) != deg["dim"] for r in a):
            return False
        m = [[(int(x) if p else Fraction(x)) for x in r] for r in a]
        if deg["dim"] and not O.is_identity(O.mat_pow(m, q, p), p):
            return False
    return True


def build_cli(rng, lib):
    reqs = []
    for i in range(8):
        f = random_summand(rng)
        val = rng.randint(-1, 1)
        mod = json.dumps(principal_json(f, val))
        answer, rank = O.fingen_principal(f)
        reqs += _cli_op(lib, f"fingen/{i}", ["fingen", "--module", mod],
                        lambda r, a=answer, k=rank: (
                            r["answer"] == ("yes" if a else "no")
                            and r["underlying_rank"] == (str(k) if a else None)))
        want = O.primitive(f)
        reqs += _cli_op(lib, f"order-ideal/{i}", ["order-ideal", "--module", mod],
                        lambda r, w=want: O.normalize(
                            [int(c) for c in r["order_ideal"]["coeffs"]]) == w)

    for i in range(6):
        blocks = torus_blocks(rng)
        ranks, bnds, f = random_fibre(rng, [1, 2], blocks)
        tor_ranks, tor_mats = O.mapping_torus(ranks, bnds, f)
        spec = json.dumps({"ranks": ranks, "boundaries_F": bnds, "f": f})

        def same_complex(r, tr=tor_ranks, tm=tor_mats):
            cx = r["complex"]
            if cx["ranks"] != tr or len(cx["boundaries"]) != len(tm):
                return False
            got = [[[laurent_from_json(e) for e in row] for row in b["entries"]]
                   for b in cx["boundaries"]]
            return got == tm and all(
                all(not e for row in O.laurent_mat_mul(got[j], got[j + 1]) for e in row)
                for j in range(len(got) - 1))
        reqs += _cli_op(lib, f"mapping-torus/{i}", ["mapping-torus", "--f", spec], same_complex)

        cx = json.dumps(complex_json(tor_ranks, tor_mats))
        p = rng.choice((2, 3, 5))
        kappa, fp = (("Q", None), (f"Fp:{p}", p))[i % 2]
        q = (3, 4)[i // 2 % 2]
        reqs += _cli_op(lib, f"wang/{i}", ["wang", "--complex", cx, "--kappa", kappa, "--q", str(q)],
                        lambda r, b=blocks, q=q, fp=fp: r["dims"] == O.cover_dims(b, q, fp))
        reqs += _cli_op(lib, f"cover-homology/{i}",
                        ["cover-homology", "--complex", cx, "--kappa", kappa, "--q", str(q)],
                        lambda r, b=blocks, q=q, fp=fp: (
                            [d["dim"] for d in r["degrees"]] == O.cover_dims(b, q, fp)
                            and _t_action_ok(r["degrees"], q, fp)))

        if i < 4:
            m1, order = finite_order_matrix(rng, 2)
            sblocks = [[[1]], m1]
            ranks, bnds, f = random_fibre(rng, [1, 2], sblocks)
            sx = json.dumps(complex_json(*O.mapping_torus(ranks, bnds, f)))
            k = rng.randint(2, 13)
            sign = rng.choice((1, -1))
            hbar = json.dumps([O.identity(1), O.identity(2), []])
            # with hbar = 1 the relation reads T^(sign k) = T, i.e. M^(sign k - 1) = 1
            want = [O.is_identity(O.mat_pow(m, abs(sign * k - 1))) for m in sblocks] + [True]
            reqs += _cli_op(lib, f"verify-selfcover/{i}",
                            ["verify-selfcover", "--complex", sx, "--k", str(k),
                             f"--sign={sign}", "--hbar", hbar],
                            lambda r, w=want: r["per_degree"] == w and r["ok"] is all(w))

    for i in range(6):
        a, m = finite_order_matrix(rng, rng.randint(2, 4))
        b = O.mat_pow(a, rng.randint(1, 3))
        sign = rng.choice((1, -1))
        k = rng.randint(1, 3) * m + sign
        while k <= 1:
            k += m
        reqs += _cli_op(lib, f"prop-matrix/{i}",
                        ["prop-matrix", "--a", json.dumps(a), "--b", json.dumps(b),
                         "--k", str(k), f"--sign={sign}"],
                        lambda r, a=a, k=k: r["m"] == str(O.order_prime_to(a, k, 1000)))

    for i in range(6):
        sign = rng.choice((1, -1))
        k = 6 * rng.randint(1, 2) + sign
        mono, wit, orders, frees = [], [], [], []
        for deg in range(2):
            free = conjugate(block_diag([FINITE_ORDER_BLOCKS[rng.choice((1, 2, 3, 6))]
                                         for _ in range(deg + 1)]), rng)
            d = rng.choice((3, 4, 5))
            u = rng.choice([x for x in range(1, d) if gcd(x, d) == 1])
            mix = [[rng.randrange(d) for _ in free]]
            mono.append({"free": free, "torsion_orders": [d], "torsion": [[u]], "mixing": mix})
            wit.append({"b": O.mat_pow(free, rng.randint(1, 3)), "sign": sign})
            orders.append(O.automorphism_order(free, [d], [[u]], mix, 1000))
            frees.append(O.order_prime_to(free, k, 1000))
        m_want, l_want = lcm(*frees), lcm(*orders)
        reqs += _cli_op(lib, f"periodicity/{i}",
                        ["periodicity", "--monodromy", json.dumps(mono), "--k", str(k),
                         "--witness", json.dumps(wit)],
                        lambda r, m=m_want, l=l_want: r["m"] == str(m) and r["l"] == str(l))

    bern = O.bernoulli(59)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        reqs += _cli_op(lib, f"hp-minus/{p}", ["hp-minus", "--p", str(p)],
                        lambda r, p=p: (
                            r["p"] == p and hp_minus_ok(p, int(r["h_minus"]), bern)
                            and odd_factor_ok(int(r["h_minus"]),
                                              int(r["odd_prime_factor"])
                                              if r["odd_prime_factor"] else None)))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = ("cover_growth", "fingen_presentations", "classgate_primes", "cli_small")


def build(name, seed, lib, src):
    """Operations of one round of workload `name` for `seed`."""
    rng = random.Random(f"{name}/{seed}")
    if name == "cover_growth":
        return build_cover_growth(rng, lib)
    if name == "fingen_presentations":
        return build_fingen(rng, lib)
    if name == "classgate_primes":
        bern = O.bernoulli(lib.classnumbers.DEFAULT_PRIME_BOUND)
        return build_classgate(rng, lib, bern, os.path.join(src, "cyclocover", "data", "hplus.csv"))
    if name == "cli_small":
        return build_cli(rng, lib)
    raise ValueError(f"unknown workload {name!r}")
