"""Batch command-line front end: JSON in, deterministic JSON report out.

Exit codes: 0 success, 1 corpus mismatch, 2 PreconditionError (bad
input), 3 any other exception: a failed internal cross-check or a bug.

One table names each subcommand's runner and each parameter's `serialize`
reader; a runner only calls the library and encodes the result, and
imports its library layer when it runs.  argparse and json are imported
where they are used, so a request loads only what it needs: one process
per request is the intended use.
"""

import functools
import os
import sys

from . import __version__
from .errors import InternalCheckError, PreconditionError, shown
from .serialize import (canonical_dumps, complex_to_json, input_digest,
                        laurent_to_json, parse_complex, parse_fibre, parse_int,
                        parse_int_list, parse_int_matrix, parse_kappa,
                        parse_monodromy, parse_presentation, parse_rational_matrices,
                        parse_witnesses)


def _opt_str(x):
    return None if x is None else str(x)


def _run_fingen(module):
    from .modules import finitely_generated_over_Z
    v = finitely_generated_over_Z(module)
    w = v.witness
    witness = None if w is None else {
        "prime": str(w.prime), "kind": w.kind,
        "factor": None if w.factor is None else laurent_to_json(w.factor)}
    return {"answer": "yes" if v.answer else "no",
            "witness": witness,
            "underlying_rank": _opt_str(v.underlying_rank),
            "relevant_primes": [str(p) for p in v.relevant_primes]}


def _run_order_ideal(module):
    from .modules import order_ideal
    return {"order_ideal": laurent_to_json(order_ideal(module))}


def _run_mapping_torus(fibre):
    from .covers import mapping_torus_complex
    return {"complex": complex_to_json(mapping_torus_complex(*fibre))}


def _run_cover_homology(x, kappa, q):
    from .covers import cover_homology_field
    return {"degrees": [
        {"dim": dim, "t_action": [[str(e) for e in row] for row in action]}
        for dim, action in cover_homology_field(x, kappa, q)]}


def _run_wang(x, kappa, q):
    from .covers import wang_dimensions
    return {"dims": wang_dimensions(x, kappa, q)}


def _run_verify_selfcover(x, k, sign, hbar):
    from .covers import SelfCoverWitness, verify_self_cover_relation
    per_degree = verify_self_cover_relation(x, SelfCoverWitness(k, sign, hbar))
    return {"per_degree": per_degree, "ok": all(per_degree)}


def _run_dimension_bound(x, kappa, qs):
    from .covers import cover_dimensions
    per_q = [{"q": q, "dims": dims, "bounds": list(x.ranks),
              "ok": all(d <= r for d, r in zip(dims, x.ranks))}
             for q, dims in zip(qs, cover_dimensions(x, kappa, qs))]
    return {"ok": all(e["ok"] for e in per_q), "per_q": per_q}


def _run_prop_matrix(a, b, k, sign):
    from .periodicity import solve_prop_matrix
    return {"m": str(solve_prop_matrix(a, b, k, sign))}


def _run_periodicity(monodromy, k, witness):
    from .periodicity import cor_period_driver
    m, l = cor_period_driver(monodromy, k, witness)
    return {"m": str(m), "l": str(l)}


def _run_hp_minus(p):
    from .classnumbers import hp_minus, odd_prime_factor
    h = hp_minus(p)
    return {"p": p, "h_minus": str(h),
            "odd_prime_factor": _opt_str(odd_prime_factor(h))}


def _run_gate(p, fixture):
    from .classnumbers import default_fixture_path, gate_theorem_CD, load_hplus_table
    if fixture == "default":
        fixture = default_fixture_path()
    rep = gate_theorem_CD(p, load_hplus_table(fixture))
    entry = rep.h_plus_entry
    if entry is not None:
        entry = {"factors": [str(q) for q in entry.factors],
                 "source": entry.source, "heuristic": entry.heuristic}
    return {"p": p, "h_minus": str(rep.h_minus),
            "h_minus_odd_factor": _opt_str(rep.h_minus_odd_factor),
            "h_plus_entry": entry,
            "h_plus_odd_factor": _opt_str(rep.h_plus_odd_factor),
            "gate": "unknown" if rep.gate is None else rep.gate}


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


def _as_given(raw):
    """The reader of the gate fixture path: `load_hplus_table` checks it."""
    return raw


# One row per subcommand: name -> (runner, {flag: reader}).  `compute`
# calls the runner on each parameter as its `serialize` reader returns it.
_COMMANDS = {
    "fingen": (_run_fingen, {"module": parse_presentation}),
    "order-ideal": (_run_order_ideal, {"module": parse_presentation}),
    "mapping-torus": (_run_mapping_torus, {"f": parse_fibre}),
    "cover-homology": (_run_cover_homology,
                       {"complex": parse_complex, "kappa": parse_kappa, "q": parse_int}),
    "wang": (_run_wang,
             {"complex": parse_complex, "kappa": parse_kappa, "q": parse_int}),
    "verify-selfcover": (_run_verify_selfcover,
                         {"complex": parse_complex, "k": parse_int,
                          "sign": parse_int, "hbar": parse_rational_matrices}),
    "dimension-bound": (_run_dimension_bound,
                        {"complex": parse_complex, "kappa": parse_kappa,
                         "q": parse_int_list}),
    "prop-matrix": (_run_prop_matrix,
                    {"a": parse_int_matrix, "b": parse_int_matrix,
                     "k": parse_int, "sign": parse_int}),
    "periodicity": (_run_periodicity,
                    {"monodromy": parse_monodromy, "k": parse_int,
                     "witness": parse_witnesses}),
    "hp-minus": (_run_hp_minus, {"p": parse_int}),
    "gate": (_run_gate, {"p": parse_int, "fixture": _as_given}),
}

# a flag's command-line text by its reader: these take the text as it is or
# as integers (comma-separated for a list), every other reader JSON or @file
_TEXT = {parse_int: parse_int, parse_kappa: str, _as_given: str,
         parse_int_list: lambda raw: parse_int_list(raw.split(","))}

# flags that may be left out, with the parameter recorded when they are
_OPTIONAL_FLAGS = {"fixture": "default"}


def compute(subcommand, params):
    """Read each decoded JSON parameter with its reader and run one subcommand."""
    if not isinstance(subcommand, str) or subcommand not in _COMMANDS:
        raise PreconditionError(f"unknown subcommand {shown(subcommand)}")
    runner, flags = _COMMANDS[subcommand]
    missing = [flag for flag in flags
               if not isinstance(params, dict) or flag not in params]
    if missing:
        raise PreconditionError(f"{subcommand} is missing parameters {missing}")
    unknown = [key for key in params if key not in flags]
    if unknown:
        raise PreconditionError(f"{subcommand} has unknown parameters {shown(unknown)}")
    return runner(*[read(params[flag]) for flag, read in flags.items()])


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
        entry = {"name": name, "subcommand": case["subcommand"], "ok": ok}
        if not ok:
            entry.update(expected=case["expected"], actual=actual)
        cases.append(entry)
    failed = sum(not entry["ok"] for entry in cases)
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
    return parser, sub.choices


def _emit(payload, out):
    text = canonical_dumps(payload) + "\n"
    sys.stdout.write(text)
    if out is not None:
        out.write(text)


def run(argv):
    parser, subparsers = _parser()
    if argv and argv[0] in subparsers:  # its own parser reads the rest of argv
        args = subparsers[argv[0]].parse_args(argv[1:])
        args.subcommand = argv[0]
    else:  # --version, -h, an empty argv or an unknown name
        args = parser.parse_args(argv)
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
            params = {flag: _TEXT.get(read, _json_arg)(getattr(args, flag))
                      for flag, read in _COMMANDS[args.subcommand][1].items()}
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
