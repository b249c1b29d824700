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
from .poincare import poincare_report
from .presburger import GammaCell, GammaCellUnion, geom_sum, wellorder_min
from .selfcheck import run_all_checks


def _emit(payload: dict, human: str, as_json: bool):
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(human)


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
        return int(env)
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


_OPTIONS = {
    "--p": dict(type=int, help="the prime p"),
    "--budget": dict(type=int, help="enumeration point budget"),
    "--depth": dict(type=int, help="oracle residue depth"),
    "--guard": dict(type=int, default=5, help="verification margin"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicint",
        description="Exact p-adic measures, constructible integration, and "
        "Poincare series certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *options: str) -> argparse.ArgumentParser:
        s = sub.add_parser(name, help=summary)
        s.add_argument("--json", action="store_true", help="machine output")
        for option in options:
            s.add_argument(option, **_OPTIONS[option])
        return s

    s = command("ord", "p-adic valuation of a rational", "--p")
    s.add_argument("value")

    s = command("ac", "angular component at depth m", "--p")
    s.add_argument("value")
    s.add_argument("--m", type=int, required=True)

    s = command("measure", "Haar measure of a cell (JSON file)", "--p")
    s.add_argument("cellfile")

    s = command("gsum", "geometric sum over a cell (JSON file)", "--p")
    s.add_argument("cellfile")
    s.add_argument("--N", type=int, required=True)

    s = command("wmin", "least member of a cell union")
    s.add_argument("cellsfile")

    s = command("integrate", "integrate a constructible function", "--p", "--budget", "--depth")
    s.add_argument("integrand")
    s.add_argument("--domain", required=True, help="domain JSON file")
    s.add_argument("--oracle", action="store_true", help="residue enumeration instead of the symbolic engine")
    s.add_argument("--growth", default="1,0,0", help="C,c,dg growth bound for the oracle tail")
    s.add_argument("--refine", type=int, default=0, help="re-enumerate bad classes at depth+refine")

    s = command("poincare", "congruence counts and rational fit", "--p", "--budget", "--guard")
    s.add_argument("poly")
    s.add_argument("--mmax", type=int, required=True)
    s.add_argument("--check-mmax", type=int, default=None)

    command("check", "run the oracle-vs-symbolic suite")
    return parser


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
    mu = kcell_measure(cell)
    value = mu.eval_at(cell.prime)
    _emit(
        {"aq": mu.render(), "value": str(value)},
        f"{mu.render()} = {str(value)} at q = {cell.prime.p}",
        args.json,
    )
    return 0


def _cmd_gsum(args) -> int:
    cell = GammaCell.from_json(_read_json(args.cellfile))
    total = geom_sum(cell, args.N)
    payload = {"aq": total.render()}
    human = total.render()
    if args.p is not None:
        value = total.eval_at(Prime(args.p))
        payload["value"] = str(value)
        human += f" = {str(value)} at q = {args.p}"
    _emit(payload, human, args.json)
    return 0


def _cmd_wmin(args) -> int:
    union = GammaCellUnion.from_json(_read_json(args.cellsfile))
    m = wellorder_min(union)
    _emit({"min": str(m)}, str(m), args.json)
    return 0


def _cmd_integrate(args) -> int:
    f = parse_integrand(args.integrand)
    domain = Domain.from_json(_read_json(args.domain))
    if args.p is not None and args.p != domain.prime.p:
        raise DomainError(f"--p {args.p} contradicts the domain prime {domain.prime.p}")
    if args.oracle:
        if args.depth is None:
            raise DomainError("the oracle needs --depth")
        growth = tuple(_parse_value(part) for part in args.growth.split(","))
        if len(growth) != 3:
            raise ParseError("--growth expects C,c,dg", 1, 1)
        result = brute_force_integrate(
            f,
            domain,
            args.depth,
            growth=growth,
            budget=_budget(args),
            refine=args.refine,
        )
        payload = {
            "value": str(result.value),
            "tailBound": str(result.tail_bound),
            "depth": result.depth,
            "classes": result.classes,
            "skipped": result.skipped,
            "skippedMeasure": str(result.skipped_measure),
        }
        human = (
            f"value {str(result.value)}  tail bound {str(result.tail_bound)}  "
            f"(depth {result.depth}, {result.skipped} skipped classes)"
        )
        _emit(payload, human, args.json)
        return 0
    total = integrate(f, domain)
    value = total.eval_at(domain.prime)
    _emit(
        {"aq": total.render(), "value": str(value)},
        f"{total.render()} = {str(value)} at q = {domain.prime.p}",
        args.json,
    )
    return 0


def _cmd_poincare(args) -> int:
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


_COMMANDS = {
    "ord": _cmd_ord,
    "ac": _cmd_ac,
    "measure": _cmd_measure,
    "gsum": _cmd_gsum,
    "wmin": _cmd_wmin,
    "integrate": _cmd_integrate,
    "poincare": _cmd_poincare,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"BudgetExceeded: {exc}", file=sys.stderr)
        return 3
    except PadicIntError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
