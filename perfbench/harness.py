"""Running one op through the public API or the CLI, and checking it.

The API path does in process what one CLI call does: parse the text,
build the Domain from its JSON, compute, and render the JSON line the CLI
would print.  Every package function is looked up on its module at call
time, so the wrappers the traced run installs see every call.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import types
from fractions import Fraction

import reference as ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# enumerate counts for the lifting reference only while p^(n*m) stays below this
COUNT_BUDGET = 20000


MODULES = ("aqring", "integrate", "presburger", "kcells", "padic", "polys", "poincare", "parsing", "cli")


def load_package() -> types.SimpleNamespace:
    """Import padicint from the checkout's src/ directory; the result has
    one attribute per module (the package rebinds some module names, such
    as integrate, to functions)."""
    if not os.path.isdir(os.path.join(SRC, "padicint")):
        raise SystemExit(f"no package source at {SRC}/padicint")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"padicint.{name}") for name in MODULES}
    )


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_api(op, pkg):
    """(stdout line the CLI would print, raw result) for one op."""
    if op.kind == "poincare":
        p, mmax, guard, check = op.params
        poly = pkg.parsing.parse_polynomial(op.text)
        report = pkg.poincare.poincare_report(
            poly, pkg.padic.Prime(p), mmax, guard=guard, check_mmax=check
        )
        return _dumps(report.to_json()), report
    f = pkg.parsing.parse_integrand(op.text)
    domain = pkg.integrate.Domain.from_json(op.domain)
    if op.kind == "oracle":
        depth, (C, c, dg) = op.params
        result = pkg.integrate.brute_force_integrate(f, domain, depth, growth=(Fraction(C), c, dg))
        payload = {
            "value": str(result.value),
            "tailBound": str(result.tail_bound),
            "depth": result.depth,
            "classes": result.classes,
            "skipped": result.skipped,
            "skippedMeasure": str(result.skipped_measure),
        }
        return _dumps(payload), result
    total = pkg.integrate.integrate(f, domain)
    value = total.eval_at(domain.prime)
    return _dumps({"aq": total.render(), "value": str(value)}), value


def cli_argv(op) -> tuple:
    """(arguments after `python -m padicint.cli`, stdin text) for one op."""
    if op.kind == "poincare":
        p, mmax, guard, check = op.params
        args = ["poincare", "--p", str(p), "--mmax", str(mmax), "--guard", str(guard)]
        return args + ["--check-mmax", str(check), "--json", op.text], ""
    args = ["integrate", op.text, "--domain", "-", "--json"]
    if op.kind == "oracle":
        depth, (C, c, dg) = op.params
        args += ["--oracle", "--depth", str(depth), "--growth", f"{C},{c},{dg}"]
    return args, json.dumps(op.domain)


def check(op, result) -> tuple:
    """(ok, known defect or None, detail) for one API result."""
    kind = op.ref[0]
    if kind == "separable":
        _, terms, regions, p, degree = op.ref
        exact = ref.separable_integral(terms, regions, p)
        if op.kind == "integrate":
            return result == exact, None, f"expected {exact}, got {result}"
        gap = abs(exact - result.value)
        ok = gap <= result.tail_bound
        defect = "oracle tail bound with a degree >= 2 argument" if degree >= 2 else None
        return ok, defect, f"|exact - value| = {float(gap):.3g} > bound {float(result.tail_bound):.3g}"
    if kind == "lattice":
        _, terms, coords, p = op.ref
        partial, tail = ref.enumerated_value(terms, coords, p)
        if abs(result - partial) <= tail:
            return True, None, ""
        caps = {c.name: 64 if c.hi is None else c.hi for c in coords}
        defect = "dependent bound with a reversed inner range" if ref.reversed_range(coords, caps) else None
        return False, defect, f"expected {partial} (+-{float(tail):.2g}), got {result}"
    if kind == "counts":
        return _check_counts(op, result)
    raise ValueError(f"unknown reference kind {kind!r}")


def _check_counts(op, report) -> tuple:
    p, mmax, _, _ = op.params
    poly = op.ref[1]
    counts = list(report.table.counts)
    if len(counts) != mmax + 1:
        return False, None, f"{len(counts)} counts for mmax {mmax}"
    brute = ref.brute_counts(poly, p, mmax, COUNT_BUDGET)
    if counts[: len(brute)] != brute:
        return False, None, f"counts {counts[:len(brute)]} != enumeration {brute}"
    closed = ref.closed_counts(poly, p, mmax)
    if closed is not None and counts != closed:
        return False, None, f"counts {counts} != closed form {closed}"
    data = report.to_json()
    if data["rational"] is None:
        return False, None, "no rational fit"
    series = ref.series_from_text(data["rational"]["num"], data["rational"]["den"], len(counts))
    if series != counts:
        return False, None, f"P(T) expands to {series}, counts are {counts}"
    if (op.text, p) == ("x1^2", 3) and data["rational"] != {"num": "1 + T", "den": "(1 - 3*T^2)"}:
        return False, None, f"pinned (1 + T)/(1 - 3T^2), got {data['rational']}"
    if not all(ok for _, ok in report.checks):
        return False, None, f"measure identity failed: {report.checks}"
    return True, None, ""
