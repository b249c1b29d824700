"""Command-line interface: exact answers as text or reproducible JSON.

Subcommands: ord, ac, measure, gsum, wmin, integrate, poincare, check.
Exit codes: 0 success, 1 domain errors (message carries the error name),
2 parse errors, 3 budget exhaustion.  The PADIC_BUDGET environment
variable overrides --budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import BudgetExceeded, DomainError, PadicIntError, ParseError
from .integrate import Domain, brute_force_integrate, integrate
from .kcells import KCell, kcell_measure
from .padic import DEFAULT_BUDGET, INFINITY, Prime, rational_ac, rational_ord
from .parsing import parse_integrand, parse_polynomial
from .presburger import GammaCell, GammaCellUnion, geom_sum, wellorder_min


def _emit(payload: dict, human: str, as_json: bool):
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(human)


def _emit_aq(aq, prime: Prime | None, as_json: bool):
    """An element of Aq, and its value at q = p when a prime is given."""
    payload = {"aq": aq.render()}
    human = payload["aq"]
    if prime is not None:
        payload["value"] = str(aq.eval_at(prime))
        human += f" = {payload['value']} at q = {prime.p}"
    _emit(payload, human, as_json)


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as handle:
        return json.load(handle)


def _parse_value(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {text!r}", 1, 1)


def _budget(args) -> int:
    env = os.environ.get("PADIC_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"PADIC_BUDGET must be an integer, not {env!r}")
    if args.budget is not None:
        return args.budget
    return DEFAULT_BUDGET


def _require_prime(args) -> Prime:
    if args.p is None:
        raise DomainError("this command needs --p <prime>")
    try:
        return Prime(args.p)
    except ValueError as exc:
        raise DomainError(str(exc))


def _cmd_ord(args) -> int:
    prime = _require_prime(args)
    v = rational_ord(_parse_value(args.value), prime.p)
    text = "INFINITY" if v is INFINITY else str(v)
    _emit({"ord": text}, text, args.json)
    return 0


def _cmd_ac(args) -> int:
    prime = _require_prime(args)
    if args.m < 1:
        raise DomainError("--m must be >= 1")
    r = rational_ac(_parse_value(args.value), prime.p, args.m)
    _emit({"ac": str(r), "m": args.m}, str(r), args.json)
    return 0


def _cmd_measure(args) -> int:
    cell = KCell.from_json(_read_json(args.cellfile))
    if args.p is not None and args.p != cell.prime.p:
        raise DomainError(f"--p {args.p} contradicts the cell prime {cell.prime.p}")
    _emit_aq(kcell_measure(cell), cell.prime, args.json)
    return 0


def _cmd_gsum(args) -> int:
    cell = GammaCell.from_json(_read_json(args.cellfile))
    total = geom_sum(cell, args.N)
    _emit_aq(total, None if args.p is None else _require_prime(args), args.json)
    return 0


def _cmd_wmin(args) -> int:
    union = GammaCellUnion.from_json(_read_json(args.cellsfile))
    m = wellorder_min(union)
    _emit({"min": str(m)}, str(m), args.json)
    return 0


def _cmd_integrate(args) -> int:
    for option in ("depth", "budget", "growth"):
        if getattr(args, option) is not None and not args.oracle:
            raise ParseError(f"--{option} applies only with --oracle")
    f = parse_integrand(args.integrand)
    domain = Domain.from_json(_read_json(args.domain))
    if args.p is not None and args.p != domain.prime.p:
        raise DomainError(f"--p {args.p} contradicts the domain prime {domain.prime.p}")
    if not args.oracle:
        _emit_aq(integrate(f, domain), domain.prime, args.json)
        return 0
    if args.depth is None:
        raise DomainError("the oracle needs --depth")
    growth = "1,0,0" if args.growth is None else args.growth
    growth = tuple(_parse_value(part) for part in growth.split(","))
    if len(growth) != 3:
        raise ParseError("--growth expects C,c,dg", 1, 1)
    result = brute_force_integrate(f, domain, args.depth, growth=growth, budget=_budget(args))
    payload = {
        "value": str(result.value),
        "tailBound": str(result.tail_bound),
        "depth": result.depth,
        "classes": result.classes,
        "skipped": result.skipped,
        "skippedMeasure": str(result.skipped_measure),
    }
    human = (
        f"value {payload['value']}  tail bound {payload['tailBound']}  "
        f"(depth {result.depth}, {result.skipped} skipped classes)"
    )
    _emit(payload, human, args.json)
    return 0


def _cmd_poincare(args) -> int:
    # imported here, so that no other subcommand compiles the poincare module
    from .poincare import poincare_report

    prime = _require_prime(args)
    poly = parse_polynomial(args.poly)
    if poly.nvars < 1:
        raise DomainError("the polynomial must mention at least one variable")
    report = poincare_report(
        poly,
        prime,
        args.mmax,
        guard=args.guard,
        budget=_budget(args),
        check_mmax=args.check_mmax,
    )
    _emit(report.to_json(), report.render(), args.json)
    return 0


def _cmd_check(args) -> int:
    # imported here, so that no other subcommand compiles the self-check suite
    from .selfcheck import run_all_checks

    results = run_all_checks()
    ok = all(passed for _, passed, _ in results)
    payload = {"checks": [[name, passed] for name, passed, _ in results], "ok": ok}
    lines = []
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        lines.append(f"[{status}] {name}" + (f" ({detail})" if detail and not passed else ""))
    lines.append("all checks passed" if ok else "CHECK FAILURES")
    _emit(payload, "\n".join(lines), args.json)
    return 0 if ok else 1


_OPTIONS = {
    "--p": dict(type=int, help="the prime p"),
    "--budget": dict(type=int, help="most oracle classes or enumerated points"),
    "--depth": dict(type=int, help="oracle residue depth"),
    "--guard": dict(type=int, default=5, help="verification margin"),
}

# each subcommand's handler, summary and, after --json, its arguments in
# order: a shared option of _OPTIONS by name, or (name, keyword arguments)
_SUBCOMMANDS = {
    "ord": (_cmd_ord, "p-adic valuation of a rational", "--p", ("value", {})),
    "ac": (_cmd_ac, "angular component at depth m", "--p", ("value", {}), ("--m", dict(type=int, required=True))),
    "measure": (_cmd_measure, "Haar measure of a cell (JSON file)", "--p", ("cellfile", {})),
    "gsum": (
        _cmd_gsum, "geometric sum over a cell (JSON file)", "--p", ("cellfile", {}),
        ("--N", dict(type=int, required=True)),
    ),
    "wmin": (_cmd_wmin, "least member of a cell union", ("cellsfile", {})),
    "integrate": (
        _cmd_integrate, "integrate a constructible function", "--p", "--budget", "--depth", ("integrand", {}),
        ("--domain", dict(required=True, help="domain JSON file")),
        ("--oracle", dict(action="store_true", help="residue enumeration instead of the symbolic engine")),
        ("--growth", dict(help="C,c,dg growth bound for the oracle tail (default 1,0,0)")),
    ),
    "poincare": (
        _cmd_poincare, "congruence counts and rational fit", "--p", "--budget", "--guard", ("poly", {}),
        ("--mmax", dict(type=int, required=True)), ("--check-mmax", dict(type=int, default=None)),
    ),
    "check": (_cmd_check, "run the oracle-vs-symbolic suite"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicint",
        description="Exact p-adic measures, constructible integration, and "
        "Poincare series certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, *arguments) in _SUBCOMMANDS.items():
        s = sub.add_parser(name, help=summary)
        s.add_argument("--json", action="store_true", help="machine output")
        for argument in arguments:
            flag, options = (argument, _OPTIONS[argument]) if isinstance(argument, str) else argument
            s.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    # exact values and arguments may pass Python's limit on the digits of an
    # int <-> str conversion: lift it for this call alone
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return _SUBCOMMANDS[args.command][0](args)
    except ParseError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"BudgetExceeded: {exc}", file=sys.stderr)
        return 3
    except (PadicIntError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
