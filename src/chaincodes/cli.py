"""Command-line front end: JSON in, JSON out.

Exit codes: 0 success, 1 domain error (bad ring, non-semisimple ambient,
missing self-dual code, ...) or internal error (a broken invariant, i.e. a
bug in this library), 2 budget or usage error.  Errors are emitted as JSON
objects {"code": ..., "message": ...} with code "domain_error",
"internal_error", "budget_exceeded", "bad_json" or "usage_error"; the last
is an --output file that cannot be opened, reported on stdout.  `enumerate` writes each
record as soon as it is computed; an error raised part-way is emitted after
the records already written.  All output is deterministic for a fixed seed:
keys are sorted and enumeration follows the canonical class order.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import codes as codes_mod
from . import distance as distance_mod
from . import duality as duality_mod
from . import kerdock as kerdock_mod
from . import oracle as oracle_mod
from .decompose import decompose
from .errors import BudgetExceeded, DomainError, InternalError
from .polys import Ambient, parse_univariate, poly_to_text
from .rings import ring_construct


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_json_options(args):
    """Replace the text of each JSON option by its value, parsed once here."""
    for name in ("ring", "exponents"):
        text = getattr(args, name, None)
        if text is not None:
            setattr(args, name, json.loads(text))


def _ambient(ring_desc, moduli):
    """The ambient of a ring descriptor and the text of its moduli."""
    ring = ring_construct(ring_desc)
    return Ambient(ring, [parse_univariate(s, ring, var=i) for i, s in enumerate(moduli)])


def _exponent_map(raw):
    """--exponents: a list of exponents in class order, or of
    [representative, exponent] pairs (a dict keyed by representative)."""
    if not isinstance(raw, list):
        raise DomainError("an exponent map must be a JSON list")
    if all(isinstance(x, int) for x in raw):
        return raw
    table = {}
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], int)):
            raise DomainError(f"exponent map entry {entry!r} is not [representative, exponent]")
        key = _rep_key(entry[0])
        if key in table:
            raise DomainError(f"class representative {entry[0]!r} appears twice")
        table[key] = entry[1]
    return table


def _rep_key(rep):
    """A class representative: a list of root labels, each an int
    (abelian ambients) or a list of int coordinates."""
    if isinstance(rep, list):
        key = tuple(tuple(x) if isinstance(x, list) else x for x in rep)
        if all(codes_mod.is_root_label(x) for x in key):
            return key
    raise DomainError(f"bad class representative {rep!r}")


def _code_from_args(args, ambient):
    if args.exponents is not None:
        exps = _exponent_map(args.exponents)
        return codes_mod.code_from_exponents(ambient, exps, seed=args.seed)
    if getattr(args, "gens", None):
        gens = [ambient.parse(s) for s in args.gens]
        return codes_mod.code_from_generators(ambient, gens, seed=args.seed)
    raise DomainError("a code needs --exponents or --gens")


def _cmd_factor(args):
    ambient = _ambient(args.ring, args.moduli)
    dec = decompose(ambient, seed=args.seed)
    names = ambient.var_names()
    out = []
    for v, lf in enumerate(dec.lifted_factorizations):
        out.append(
            {
                "modulus": poly_to_text(ambient.moduli[v], names),
                "residue_factors": [poly_to_text(g, names) for g in lf.residue_factors],
                "lifted_factors": [poly_to_text(g, names) for g in lf.factors],
            }
        )
    return {"ring": args.ring, "factorizations": out}


def _cmd_classes(args):
    ambient = _ambient(args.ring, args.moduli)
    dec = decompose(ambient, seed=args.seed)
    out = {
        "count": dec.class_count,
        "classes": [cls.to_json() for cls in dec.classes],
    }
    if args.full:
        out["class_data"] = [cd.to_json(ambient) for cd in dec.data]
    return out


def _cmd_enumerate(args):
    """One JSON line per code, yielded as soon as its distance is known."""
    ambient = _ambient(args.ring, args.moduli)
    for code in codes_mod.enumerate_codes(ambient, seed=args.seed):
        rec = code.to_json()
        if code.is_zero():
            rec["distance"] = None
        else:
            try:
                rec["distance"] = distance_mod.min_distance(code, budget=args.budget)
            except BudgetExceeded:
                rec["distance"] = None
                rec["distance_budget_exceeded"] = True
        yield _dump(rec)


def _cmd_info(args):
    ambient = _ambient(args.ring, args.moduli)
    code = _code_from_args(args, ambient)
    return code.to_json()


def _cmd_dual(args):
    ambient = _ambient(args.ring, args.moduli)
    code = _code_from_args(args, ambient)
    return duality_mod.dual(code).to_json()


def _cmd_self_dual(args):
    ambient = _ambient(args.ring, args.moduli)
    if args.exists:
        return {
            "exists": duality_mod.nontrivial_selfdual_exists(ambient, seed=args.seed),
            "t": ambient.ring.t,
        }
    if args.construct:
        code = duality_mod.build_nontrivial_selfdual(ambient, seed=args.seed)
        out = code.to_json()
        out["selfdual"] = True
        return out
    code = _code_from_args(args, ambient)
    return {"selfdual": duality_mod.is_selfdual(code)}


def _cmd_distance(args):
    ambient = _ambient(args.ring, args.moduli)
    code = _code_from_args(args, ambient)
    if args.bound:
        return {"bound": distance_mod.distance_bound(code, budget=args.budget)}
    check = distance_mod.hensel_lift_distance_check(code, budget=args.budget)
    return {
        "distance": check.distance,
        "residue_distance": check.residue_distance,
        "hensel_lift": code.is_hensel_lift(),
    }


def _cmd_kerdock_demo(args):
    if args.q != 2 or args.m not in (3, 5):
        raise DomainError("only q = 2 with m in {3, 5} is wired up at desk scale")
    return kerdock_mod.kerdock_demo(q=args.q, m=args.m)


def _oracle_ambients():
    presets = [
        ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^3-1"]),
        ({"kind": "galois", "p": 3, "t": 2, "l": 1}, ["x^2-1", "y^2-1"]),
        ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^7-1"]),
    ]
    for ring_desc, moduli in presets:
        ambient = _ambient(ring_desc, moduli)
        yield f"{ambient.ring}/" + ",".join(moduli), ambient


def _cmd_oracle_check(args):
    checks = []

    def record(name, label, ok):
        checks.append({"check": name, "ambient": label, "pass": bool(ok)})

    for label, ambient in _oracle_ambients():
        ring = ambient.ring
        dec = decompose(ambient, seed=args.seed)
        total = ring.size**ambient.n

        ssum = ambient.zero()
        comp_prod = 1
        orth = True
        for i, cd in enumerate(dec.data):
            ssum = ssum + cd.e
            comp_prod *= cd.component_size
            for cj in dec.data[i + 1 :]:
                orth = orth and (cd.e * cj.e).is_zero()
        record("idempotent-sum", label, ssum == ambient.one())
        record("idempotent-orthogonality", label, orth)
        record("component-product", label, comp_prod == total)

        ann_ok = True
        for cd in dec.data:
            ann = oracle_mod.annihilator_bruteforce(ambient, cd.h, naive=False)
            ic = oracle_mod.ideal_span(ambient, cd.ideal_generators(ambient))
            ann_ok = ann_ok and ann == ic
        record("annihilator-identity", label, ann_ok)

        if total <= oracle_mod.NAIVE_LIMIT:
            census = oracle_mod.ideal_census(ambient)
            spans = [
                oracle_mod.span_of_code(code)
                for code in codes_mod.enumerate_codes(ambient, seed=args.seed)
            ]
            ok = len(census) == len(spans) and all(
                any(c == s for c in census) for s in spans
            )
            record("ideal-census", label, ok)

        dual_ok = True
        dist_ok = True
        for code in codes_mod.enumerate_codes(ambient, seed=args.seed):
            span = oracle_mod.span_of_code(code)
            if ambient.exponents is not None:
                brute = oracle_mod.dual_bruteforce(ambient, span, naive=False)
                formula = oracle_mod.span_of_code(duality_mod.dual(code))
                dual_ok = dual_ok and formula == brute
            if not code.is_zero() and span.cardinality <= args.budget:
                d1 = distance_mod.min_distance(code, budget=args.budget)
                d2 = oracle_mod.distance_bruteforce(span, budget=args.budget)
                dist_ok = dist_ok and d1 == d2
        record("dual-formula", label, dual_ok)
        record("distance-vs-oracle", label, dist_ok)

        if ambient.exponents is not None:
            swept = any(
                duality_mod.is_selfdual(code)
                and code != duality_mod.trivial_selfdual(ambient, seed=args.seed)
                for code in codes_mod.enumerate_codes(ambient, seed=args.seed)
            )
            criterion = duality_mod.nontrivial_selfdual_exists(ambient, seed=args.seed)
            record("selfdual-criterion", label, swept == criterion)

    return {"suite": args.suite, "checks": checks, "all_pass": all(c["pass"] for c in checks)}


def _budget(text):
    """--budget: an integer >= 1, like every other malformed option a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chaincodes",
        description="Multivariate semisimple codes over finite chain rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring=True):
        if ring:
            p.add_argument("--ring", required=True, help="ring descriptor JSON")
            p.add_argument("--moduli", nargs="+", required=True, help="one univariate polynomial per variable")
        p.add_argument("--seed", type=int, default=0, help="factorization seed")
        p.add_argument("--budget", type=_budget, default=distance_mod.DEFAULT_BUDGET, help="enumeration budget")
        p.add_argument("--output", help="write JSON here instead of stdout")

    def code_args(p):
        p.add_argument("--exponents", help="JSON exponent map")
        p.add_argument("--gens", nargs="+", help="generator polynomials (text format)")

    p = sub.add_parser("factor", help="Hensel-lifted factorizations of the moduli")
    common(p)

    p = sub.add_parser("classes", help="cyclotomic classes")
    common(p)
    p.add_argument("--full", action="store_true", help="dump full per-class data")

    p = sub.add_parser("enumerate", help="stream all semisimple codes as JSON lines")
    common(p)

    p = sub.add_parser("info", help="one code from exponents or generators")
    common(p)
    code_args(p)

    p = sub.add_parser("dual", help="dual of an abelian semisimple code")
    common(p)
    code_args(p)

    p = sub.add_parser("self-dual", help="self-duality checks and construction")
    common(p)
    code_args(p)
    p.add_argument("--check", action="store_true", help="test the given code")
    p.add_argument("--exists", action="store_true", help="non-trivial self-dual existence")
    p.add_argument("--construct", action="store_true", help="build a non-trivial self-dual code")

    p = sub.add_parser("distance", help="exact distance or the product bound")
    common(p)
    code_args(p)
    p.add_argument("--exact", action="store_true", help="exact distance (default)")
    p.add_argument("--bound", action="store_true", help="product lower bound")

    p = sub.add_parser("oracle-check", help="run the brute-force cross-validation battery")
    common(p, ring=False)
    p.add_argument("--suite", default="all", choices=["all"])

    p = sub.add_parser("kerdock-demo", help="trace-code / Kerdock reproduction")
    common(p, ring=False)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--m", type=int, default=3)

    return parser


@functools.cache
def _parser():
    """The parser, built once per process; it holds no `_cmd_*` function,
    so a command rebound after the first request still runs."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.output:
        try:
            out = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            sys.stdout.write(_dump({"code": "usage_error", "message": str(exc)}) + "\n")
            return 2
        with out:
            return _run(args, out)
    return _run(args, sys.stdout)


def _run(args, out):
    """Run the command, writing its JSON (or its error object) to ``out``."""
    try:
        _parse_json_options(args)
    except (RecursionError, json.JSONDecodeError) as exc:
        # malformed text or nesting too deep for the parser
        out.write(_dump({"code": "bad_json", "message": str(exc)}) + "\n")
        return 2
    except ValueError:
        # an integer past Python's int-from-text digit limit
        message = f"an integer has more than {sys.get_int_max_str_digits()} digits"
        out.write(_dump({"code": "bad_json", "message": message}) + "\n")
        return 2
    try:
        result = globals()["_cmd_" + args.command.replace("-", "_")](args)
        for line in [_dump(result)] if isinstance(result, dict) else result:
            out.write(line + "\n")
    except BudgetExceeded as exc:
        out.write(_dump({"code": "budget_exceeded", "message": str(exc)}) + "\n")
        return 2
    except DomainError as exc:
        out.write(_dump({"code": "domain_error", "message": str(exc)}) + "\n")
        return 1
    except InternalError as exc:
        out.write(_dump({"code": "internal_error", "message": str(exc)}) + "\n")
        return 1
    if args.command == "oracle-check" and not result["all_pass"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
