"""Batch command-line front end: JSON in, deterministic JSON report out.

Exit codes: 0 success, 1 corpus mismatch, 2 PreconditionError (bad
input), 3 any other exception: a failed internal cross-check or a bug.

A subcommand imports its library layer when it runs, and argparse and
json are imported where they are used, so a request loads only what it
needs: one process per request is the intended use.
"""

import functools
import os
import sys

from . import __version__
from .errors import InternalCheckError, PreconditionError
from .rings import GF, QQ
from .serialize import (canonical_dumps, complex_to_json, input_digest,
                        laurent_to_json, parse_complex, parse_int,
                        parse_int_matrix, parse_presentation, parse_ranks,
                        parse_rational_matrix, scalar_str)

def _parse_kappa(raw):
    if raw == "Q":
        return QQ
    if isinstance(raw, str) and raw.startswith("Fp:"):
        return GF(parse_int(raw[3:]))
    raise PreconditionError(f"kappa must be 'Q' or 'Fp:<p>', got {raw!r}")


def _run_fingen(params):
    from .modules import finitely_generated_over_Z
    m = parse_presentation(params["module"])
    v = finitely_generated_over_Z(m)
    witness = None
    if v.witness is not None:
        witness = {"prime": str(v.witness.prime),
                   "kind": v.witness.kind,
                   "factor": (laurent_to_json(v.witness.factor)
                              if v.witness.factor is not None else None)}
    return {"answer": "yes" if v.answer else "no",
            "witness": witness,
            "underlying_rank": (str(v.underlying_rank)
                                if v.underlying_rank is not None else None),
            "relevant_primes": [str(p) for p in v.relevant_primes]}


def _run_order_ideal(params):
    from .modules import order_ideal
    m = parse_presentation(params["module"])
    return {"order_ideal": laurent_to_json(order_ideal(m))}


def _run_mapping_torus(params):
    from .covers import mapping_torus_complex
    spec = params["f"]
    if not isinstance(spec, dict):
        raise PreconditionError("mapping-torus input must be an object")
    for key in ("ranks", "boundaries_F", "f"):
        if key not in spec:
            raise PreconditionError(f"mapping-torus input is missing {key!r}")
        if not isinstance(spec[key], list):
            raise PreconditionError(f"mapping-torus {key!r} must be a list")
    bnds = [parse_int_matrix(b) for b in spec["boundaries_F"]]
    f = [parse_int_matrix(b) for b in spec["f"]]
    x = mapping_torus_complex(parse_ranks(spec["ranks"]), bnds, f)
    return {"complex": complex_to_json(x)}


def _run_cover_homology(params):
    from .covers import cover_homology_field
    x = parse_complex(params["complex"])
    kappa = _parse_kappa(params["kappa"])
    q = parse_int(params["q"])
    out = []
    for dim, action in cover_homology_field(x, kappa, q):
        out.append({"dim": dim,
                    "t_action": [[scalar_str(e) for e in row] for row in action]})
    return {"degrees": out}


def _run_wang(params):
    from .covers import wang_dimensions
    x = parse_complex(params["complex"])
    kappa = _parse_kappa(params["kappa"])
    q = parse_int(params["q"])
    return {"dims": wang_dimensions(x, kappa, q)}


def _run_verify_selfcover(params):
    from .covers import SelfCoverWitness, verify_self_cover_relation
    x = parse_complex(params["complex"])
    k = parse_int(params["k"])
    sign = parse_int(params["sign"])
    hbar = params["hbar"]
    if not isinstance(hbar, list):
        raise PreconditionError("hbar must be a list of matrices")
    w = SelfCoverWitness(k, sign, [parse_rational_matrix(h) for h in hbar])
    per_degree = verify_self_cover_relation(x, w)
    return {"per_degree": per_degree, "ok": all(per_degree)}


def _run_dimension_bound(params):
    from .covers import cover_dimensions
    x = parse_complex(params["complex"])
    kappa = _parse_kappa(params["kappa"])
    qs = params["q"]
    if not isinstance(qs, list) or not qs:
        raise PreconditionError("q must be a nonempty list of cover degrees")
    qs = [parse_int(raw) for raw in qs]
    per_q = []
    for q, dims in zip(qs, cover_dimensions(x, kappa, qs)):
        holds = all(d <= r for d, r in zip(dims, x.ranks))
        per_q.append({"q": q, "dims": dims, "bounds": list(x.ranks), "ok": holds})
    return {"ok": all(e["ok"] for e in per_q), "per_q": per_q}


def _run_prop_matrix(params):
    from .periodicity import solve_prop_matrix
    a = parse_int_matrix(params["a"])
    b = parse_int_matrix(params["b"])
    k = parse_int(params["k"])
    sign = parse_int(params["sign"])
    return {"m": str(solve_prop_matrix(a, b, k, sign))}


def _parse_automorphism(obj):
    from .periodicity import FgAbelianAutomorphism
    if not isinstance(obj, dict) or "free" not in obj:
        raise PreconditionError(f"bad automorphism {obj!r}")
    orders = obj.get("torsion_orders", [])
    if not isinstance(orders, list):
        raise PreconditionError(f"torsion_orders must be a list, got {orders!r}")
    return FgAbelianAutomorphism(parse_int_matrix(obj["free"]),
                                 [parse_int(d) for d in orders],
                                 parse_int_matrix(obj.get("torsion", [])),
                                 parse_int_matrix(obj.get("mixing", [])))


def _run_periodicity(params):
    from .periodicity import cor_period_driver
    mono_raw = params["monodromy"]
    wit_raw = params["witness"]
    if not isinstance(mono_raw, list) or not isinstance(wit_raw, list):
        raise PreconditionError("monodromy and witness must be lists")
    k = parse_int(params["k"])
    monodromy = [_parse_automorphism(o) for o in mono_raw]
    witness = []
    for o in wit_raw:
        if not isinstance(o, dict) or "b" not in o or "sign" not in o:
            raise PreconditionError(f"bad conjugation witness {o!r}")
        witness.append((parse_int_matrix(o["b"]), parse_int(o["sign"])))
    m, l = cor_period_driver(monodromy, k, witness)
    return {"m": str(m), "l": str(l)}


def _run_hp_minus(params):
    from .classnumbers import hp_minus, odd_prime_factor
    p = parse_int(params["p"])
    h = hp_minus(p)
    odd = odd_prime_factor(h)
    return {"p": p, "h_minus": str(h),
            "odd_prime_factor": str(odd) if odd is not None else None}


def _run_gate(params):
    from .classnumbers import (default_fixture_path, gate_theorem_CD,
                               load_hplus_table)
    p = parse_int(params["p"])
    fixture_path = params["fixture"]
    if not isinstance(fixture_path, str):
        raise PreconditionError(f"fixture must be a path, got {fixture_path!r}")
    if fixture_path == "default":
        fixture_path = default_fixture_path()
    fixture = load_hplus_table(fixture_path)
    rep = gate_theorem_CD(p, fixture)
    entry = None
    if rep.h_plus_entry is not None:
        entry = {"factors": [str(q) for q in rep.h_plus_entry.factors],
                 "source": rep.h_plus_entry.source,
                 "heuristic": rep.h_plus_entry.heuristic}
    return {"p": p,
            "h_minus": str(rep.h_minus),
            "h_minus_odd_factor": (str(rep.h_minus_odd_factor)
                                   if rep.h_minus_odd_factor is not None else None),
            "h_plus_entry": entry,
            "h_plus_odd_factor": (str(rep.h_plus_odd_factor)
                                  if rep.h_plus_odd_factor is not None else None),
            "gate": rep.gate if rep.gate is not None else "unknown"}


def _warnings(subcommand, result):
    """What a report's result rests on beyond exact computation: for
    `gate`, an h_p^+ fixture entry marked heuristic."""
    entry = result.get("h_plus_entry") if subcommand == "gate" else None
    if entry is None or not entry["heuristic"]:
        return []
    return [f"h_{result['p']}^+ fixture entry is heuristic "
            f"(source: {entry['source']})"]


def _json_arg(raw):
    """Inline JSON, or @path to read JSON from a file."""
    text = raw
    if raw.startswith("@"):
        try:
            with open(raw[1:]) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise PreconditionError(f"cannot read {raw[1:]!r}: {exc}")
    import json
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise PreconditionError(f"bad JSON argument: {exc}")


def _int_list_arg(raw):
    """Comma-separated integers."""
    return [parse_int(tok) for tok in raw.split(",")]


# One row per subcommand: name -> (runner, {flag: converter}).  Each
# converter turns the raw --flag string into the parameter of the same
# name.  Each runner imports the library functions it calls.
_COMMANDS = {
    "fingen": (_run_fingen, {"module": _json_arg}),
    "order-ideal": (_run_order_ideal, {"module": _json_arg}),
    "mapping-torus": (_run_mapping_torus, {"f": _json_arg}),
    "cover-homology": (_run_cover_homology,
                       {"complex": _json_arg, "kappa": str, "q": parse_int}),
    "wang": (_run_wang,
             {"complex": _json_arg, "kappa": str, "q": parse_int}),
    "verify-selfcover": (_run_verify_selfcover,
                         {"complex": _json_arg, "k": parse_int,
                          "sign": parse_int, "hbar": _json_arg}),
    "dimension-bound": (_run_dimension_bound,
                        {"complex": _json_arg, "kappa": str, "q": _int_list_arg}),
    "prop-matrix": (_run_prop_matrix,
                    {"a": _json_arg, "b": _json_arg, "k": parse_int,
                     "sign": parse_int}),
    "periodicity": (_run_periodicity,
                    {"monodromy": _json_arg, "k": parse_int,
                     "witness": _json_arg}),
    "hp-minus": (_run_hp_minus, {"p": parse_int}),
    "gate": (_run_gate, {"p": parse_int, "fixture": str}),
}

# flags that may be left out, with the parameter recorded when they are
_OPTIONAL_FLAGS = {"fixture": "default"}


def compute(subcommand, params):
    """Run one subcommand on already-parsed JSON parameters."""
    if not isinstance(subcommand, str) or subcommand not in _COMMANDS:
        raise PreconditionError(f"unknown subcommand {subcommand!r}")
    runner, flags = _COMMANDS[subcommand]
    missing = [flag for flag in flags
               if not isinstance(params, dict) or flag not in params]
    if missing:
        raise PreconditionError(f"{subcommand} is missing parameters {missing}")
    return runner(params)


def default_corpus_path():
    from importlib import resources
    return str(resources.files("cyclocover").joinpath("data/corpus"))


def run_corpus(path):
    """Run every case of the corpus directory `path` ("default" for the
    bundled one) and compare each result with the expected one."""
    if path == "default":
        path = default_corpus_path()
    if not os.path.isdir(path):
        raise PreconditionError(f"corpus directory {path!r} does not exist")
    import json
    names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
    cases = []
    failed = 0
    for name in names:
        full = os.path.join(path, name)
        try:
            with open(full) as fh:
                case = json.load(fh)
        except (OSError, ValueError) as exc:
            raise PreconditionError(f"corrupted corpus case {full}: {exc}")
        if (not isinstance(case, dict)
                or not {"subcommand", "params", "expected"} <= set(case)):
            raise PreconditionError(
                f"corrupted corpus case {full}: need subcommand/params/expected")
        actual = compute(case["subcommand"], case["params"])
        ok = canonical_dumps(actual) == canonical_dumps(case["expected"])
        if not ok:
            failed += 1
        entry = {"name": name, "subcommand": case["subcommand"], "ok": ok}
        if not ok:
            entry["expected"] = case["expected"]
            entry["actual"] = actual
        cases.append(entry)
    return {"cases": cases, "total": len(names),
            "passed": len(names) - failed, "failed": failed}


@functools.cache
def _parser():
    import argparse
    parser = argparse.ArgumentParser(prog="cyclocover")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument("--" + flag, required=flag not in _OPTIONAL_FLAGS,
                            default=_OPTIONAL_FLAGS.get(flag))
        sp.add_argument("--out")
    corpus = sub.add_parser("corpus")
    corpus.add_argument("--path", default="default")
    corpus.add_argument("--out")
    return parser


def _collect_params(args):
    _, flags = _COMMANDS[args.subcommand]
    return {flag: convert(getattr(args, flag)) for flag, convert in flags.items()}


def _emit(payload, out):
    text = canonical_dumps(payload) + "\n"
    sys.stdout.write(text)
    if out is not None:
        out.write(text)


def run(argv):
    args = _parser().parse_args(argv)
    out = None
    try:
        if args.out:
            # opened before any work and never reopened: when it cannot
            # be, stdout carries the one error object
            try:
                out = open(args.out, "w")
            except OSError as exc:
                raise PreconditionError(f"cannot write {args.out!r}: {exc}")
        if args.subcommand == "corpus":
            params = {"path": args.path}
            result = run_corpus(args.path)
        else:
            params = _collect_params(args)
            result = compute(args.subcommand, params)
        report = {"subcommand": args.subcommand,
                  "input_digest": input_digest(params),
                  "result": result,
                  "warnings": _warnings(args.subcommand, result),
                  "version": __version__}
        _emit(report, out)
        return 1 if args.subcommand == "corpus" and result["failed"] else 0
    except PreconditionError as exc:
        _emit({"error": {"kind": "precondition", "message": str(exc)}}, out)
        return 2
    except Exception as exc:
        # not the input's fault: a failed cross-check, a library routine
        # that gave up (e.g. Pollard rho) or a bug
        message = (str(exc) if isinstance(exc, InternalCheckError)
                   else f"{type(exc).__name__}: {exc}")
        _emit({"error": {"kind": "internal-check", "message": message}}, out)
        return 3
    finally:
        if out is not None:
            out.close()


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
