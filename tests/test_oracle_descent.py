"""The oracle's residue-class descent against the flat scan it replaced.

flat_oracle below is the oracle as it was before the descent: it scans
every class mod p^depth and re-enumerates every bad one at depth + refine.
It is kept here as the reference, and it classifies each class with the
oracle's own _region_status, which is exact: a class is "boundary" only
when it really straddles a cell boundary.  The descent to depth + refine must
agree with it on the value, the tail bound and the skipped classes and
measure, and on every OracleResult field when refine = 0.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicint import (
    AqElem,
    ConstructibleExpr,
    Domain,
    DomainError,
    OrdExpr,
    Polynomial,
    Prime,
    Term,
    UNIT_BALL,
    UndefinedAtPoint,
    brute_force_integrate,
    identity_lin,
)
from padicint.integrate import OracleResult, _class_sum, _Compiled, _lift_member, _region_status
from padicint.padic import INFINITY, rational_ord
from padicint.parsing import parse_integrand
from padicint.presburger import weighted_tail
from padicint.selfcheck import random_region

K = "K"


def flat_oracle(f, domain, depth, growth=(1, 0, 0), refine=0) -> OracleResult:
    C, c, dg = (Fraction(x) for x in growth)
    c, dg = int(c), int(dg)
    p = domain.prime.p
    names = domain.names()
    n = len(names)
    ords = _Compiled([(t.coeff, t.q, t.factors) for t in f.terms]).atoms
    tails = {
        d: C * p**d * weighted_tail([0] * dg + [1], d, 1 - c).eval_at(p)
        for d in {depth, depth + refine}
    }

    def scan_class(point: dict, d: int):
        scale = Fraction(1, p ** (n * d))
        statuses = []
        for v in domain.variables:
            status = _region_status(point[v.name], v.region, d)
            if status == "out":
                return Fraction(0), Fraction(0), 0, Fraction(0), False
            statuses.append((status, _lift_member(point[v.name], v.region)))
        saturated = False
        for oe in ords:
            values = [point[name] for name in oe.vars]
            ov = rational_ord(oe.poly.eval(values), p)
            if ov is INFINITY or ov >= d:
                saturated = True
                break
        bad = saturated or any(s == "boundary" for s, _ in statuses)
        if not bad:
            return f.eval(point, domain.prime) * scale, Fraction(0), 0, Fraction(0), False
        lift_in = all(member for _, member in statuses)
        value = Fraction(0)
        err = Fraction(0)
        skipped = 0
        skipped_measure = Fraction(0)
        contribution = None
        if lift_in:
            try:
                contribution = f.eval(point, domain.prime)
            except UndefinedAtPoint:
                skipped += 1
                skipped_measure = scale
        if contribution is not None:
            value = contribution * scale
            err += abs(contribution) * scale
        elif not saturated:
            err += abs(f.eval(point, domain.prime)) * scale
        if saturated:
            err += scale * tails[d]
        return value, err, skipped, skipped_measure, True

    total = Fraction(0)
    err_total = Fraction(0)
    skipped_total = 0
    skipped_measure_total = Fraction(0)
    bad_total = 0
    for residues in itertools.product(range(p**depth), repeat=n):
        point = {name: Fraction(r) for name, r in zip(names, residues)}
        value, err, skipped, smeasure, bad = scan_class(point, depth)
        if bad and refine > 0:
            value, err, skipped, smeasure = Fraction(0), Fraction(0), 0, Fraction(0)
            step = p**depth
            for deltas in itertools.product(range(p**refine), repeat=n):
                sub = {name: point[name] + delta * step for name, delta in zip(names, deltas)}
                v2, e2, s2, m2, _ = scan_class(sub, depth + refine)
                value += v2
                err += e2
                skipped += s2
                smeasure += m2
        total += value
        err_total += err
        skipped_total += skipped
        skipped_measure_total += smeasure
        if bad:
            bad_total += 1
    return OracleResult(
        value=total,
        tail_bound=err_total,
        depth=depth,
        classes=p ** (n * depth),
        skipped=skipped_total,
        boundary=bad_total,
        skipped_measure=skipped_measure_total,
    )


def _random_argument(rng: random.Random, names: list, p: int) -> OrdExpr:
    """ord((x - a)^e) in one variable, or ord(x1 * x2^e) on two."""
    n = len(names)
    if n == 2 and rng.random() < 0.3:
        return OrdExpr(Polynomial(2, {(1, rng.randint(1, 2)): 1}), tuple(names))
    name = rng.choice(names)
    shifted = Polynomial(1, {(1,): 1, (0,): -rng.randint(0, p * p)})
    return OrdExpr(shifted ** rng.randint(1, 2), (name,))


# x^2 - r has a root in Z_p but none in Z: r is no square, and r = 1 mod 8
# at p = 2, r = 1 mod 3 at p = 3
_SQUARES_IN_ZP = {2: (17, -7), 3: (7, -2)}


def _nonlinear_argument(rng: random.Random, names: list, p: int) -> OrdExpr:
    """An argument _random_argument never draws: (x - a)^3, x^2 - r with a
    root in Z_p but not in Z, or x^2 + p x in one variable, and on two
    x1^2 - x2^2, x1 x2 + p or (x1 - x2)^2."""
    if len(names) == 2 and rng.random() < 0.5:
        x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        poly = rng.choice((x1 * x1 - x2 * x2, x1 * x2 + Polynomial.constant(p, 2), (x1 - x2) ** 2))
        return OrdExpr(poly, tuple(names))
    x = Polynomial.variable(0, 1)
    poly = rng.choice((
        (x - Polynomial.constant(rng.randint(0, p * p), 1)) ** 3,
        x * x - Polynomial.constant(rng.choice(_SQUARES_IN_ZP[p]), 1),
        x * x + Polynomial.constant(p, 1) * x,
    ))
    return OrdExpr(poly, (rng.choice(names),))


def _random_integrand(rng: random.Random, names: list, p: int, argument=_random_argument) -> ConstructibleExpr:
    terms = []
    for _ in range(rng.randint(1, 2)):
        coeff = AqElem.from_rational(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        args = [argument(rng, names, p) for _ in range(rng.randint(0, 2))]
        q = {}
        for a in args:
            q[a] = q.get(a, 0) - rng.randint(0, 2)
        factors = [(0, {a: 1}) for a in args if rng.random() < 0.5]
        terms.append(Term(coeff, (0, q), factors))
    return ConstructibleExpr(terms)


def _parsed_integrand(rng: random.Random, p: int) -> ConstructibleExpr:
    """A two-variable integrand built by the parser, so every ord lists x1
    and x2 while its polynomial mentions at most one of them.  The argument
    in x_i can vanish; the other one, p*x + 1 in the other variable or the
    constant p, has the same valuation everywhere, so below the root only
    x_i's argument saturates, and the constant at depth 1."""
    i = rng.randint(1, 2)

    def arg(poly: str, var: int) -> str:
        return f"ord({poly}{' + 0*x2' if var == 1 else ''})"

    sat = arg(f"(x{i} - {rng.randint(0, p * p)})^{rng.randint(1, 2)}", i)
    unit = arg(f"{p}*x{3 - i} + 1" if rng.random() < 0.7 else f"{p} + 0*x{3 - i}", 3 - i)
    text = f"{rng.randint(1, 5)}*q^(-{rng.randint(1, 2)}*{sat})*{unit}"
    if rng.random() < 0.5:
        text += f" + {rng.randint(1, 5)}*q^(-{rng.randint(1, 2)}*{sat} - {unit})*{sat}"
    f = parse_integrand(text)
    assert all(a.vars == ("x1", "x2") for a in _Compiled([(t.coeff, t.q, t.factors) for t in f.terms]).atoms)
    return f


def test_descent_equals_flat_scan_on_random_domains():
    rng = random.Random(20261018)
    seen_skipped = seen_boundary = seen_refined = 0
    parsed_skipped = parsed_boundary = 0
    # the last 80 cases integrate parsed integrands over two variables
    for case in range(240):
        parsed = case >= 160
        prime = Prime(rng.choice((2, 3)))
        p = prime.p
        n = 2 if parsed else rng.randint(1, 2)
        names = [f"x{i + 1}" for i in range(n)]
        domain = Domain([(name, K, random_region(rng, prime)) for name in names], prime)
        f = _parsed_integrand(rng, p) if parsed else _random_integrand(rng, names, p)
        # keep p^(n (depth + refine)) at most 2^10 or 3^6 for the flat scan
        top = (10 if p == 2 else 6) // n
        refine = rng.randint(0, 2)
        depth = rng.randint(1, top - refine)
        growth = (Fraction(rng.randint(1, 4), rng.randint(1, 2)), rng.randint(-2, 0), rng.randint(0, 1))
        descent = brute_force_integrate(f, domain, depth + refine, growth=growth)
        flat = flat_oracle(f, domain, depth, growth=growth, refine=refine)
        where = (domain.to_json(), depth, refine, growth)
        if refine == 0:
            assert descent == flat, where
        fields = ("value", "tail_bound", "skipped", "skipped_measure")
        assert [getattr(descent, k) for k in fields] == [getattr(flat, k) for k in fields], where
        if parsed:
            parsed_skipped += descent.skipped > 0
            parsed_boundary += descent.boundary > 0
            continue
        seen_skipped += descent.skipped > 0
        seen_boundary += descent.boundary > 0
        seen_refined += refine > 0 and descent.boundary > 0
    assert seen_skipped >= 10 and seen_boundary >= 40 and seen_refined >= 20
    assert parsed_skipped >= 10 and parsed_boundary >= 40


def test_descent_equals_flat_scan_on_nonlinear_arguments():
    # the Taylor test decides a box where ord g(a) is not below every k_i;
    # every field must still be the flat scan's
    rng = random.Random(20261020)
    seen = {"ball": 0, "cells": 0, "skipped": 0, "boundary": 0, "tail": 0}
    for _ in range(120):
        prime = Prime(rng.choice((2, 3)))
        p = prime.p
        n = rng.randint(1, 2)
        names = [f"x{i + 1}" for i in range(n)]
        regions = [random_region(rng, prime) for _ in names]
        domain = Domain([(name, K, region) for name, region in zip(names, regions)], prime)
        f = _random_integrand(rng, names, p, argument=_nonlinear_argument)
        depth = rng.randint(1, (10 if p == 2 else 6) // n)
        growth = (Fraction(rng.randint(1, 4), rng.randint(1, 2)), rng.randint(-2, 0), rng.randint(0, 1))
        descent = brute_force_integrate(f, domain, depth, growth=growth)
        assert descent == flat_oracle(f, domain, depth, growth=growth), (domain.to_json(), depth, growth)
        seen["ball" if all(r is UNIT_BALL for r in regions) else "cells"] += 1
        seen["skipped"] += descent.skipped > 0
        seen["boundary"] += descent.boundary > 0
        seen["tail"] += descent.tail_bound > 0
    assert min(seen.values()) >= 10, seen


def test_descent_keeps_an_argument_in_both_coordinates_saturated():
    # ord(x1) refines x1 ahead of x2, and x1 + x2 is decided only below the
    # lesser of the two refinements, never the greater
    ball = [("x1", K, UNIT_BALL), ("x2", K, UNIT_BALL)]
    for text in ("q^(-ord(x1) - ord(x1 + x2))", "3*q^(-2*ord(x1) - ord(x1 - x2 - 1))*ord(x1 - x2 - 1)"):
        f = parse_integrand(text)
        for p, depth in ((2, 4), (3, 3)):
            domain = Domain(ball, Prime(p))
            assert brute_force_integrate(f, domain, depth) == flat_oracle(f, domain, depth), (text, p)


def test_descent_evaluates_few_classes(monkeypatch):
    p, n, depth = 3, 2, 5
    ords = [OrdExpr(Polynomial.variable(0, 1), (name,)) for name in ("x1", "x2")]
    f = ConstructibleExpr([Term(AqElem.one(), (0, dict.fromkeys(ords, -1)))])
    domain = Domain([("x1", K, UNIT_BALL), ("x2", K, UNIT_BALL)], Prime(p))
    calls = 0
    real_powers = _Compiled.powers

    def counting_powers(self, values):
        nonlocal calls
        calls += 1
        return real_powers(self, values)

    monkeypatch.setattr(_Compiled, "powers", counting_powers)
    result = brute_force_integrate(f, domain, depth, growth=(1, -1, 0), budget=121)
    # the flat scan evaluated f once per class: 3^10 = 59,049 times, and the
    # walk that split both coordinates 1,897 times.  The box walk settles
    # 11^2 = 121 boxes and evaluates f once per pair (ord x1, ord x2) of a
    # decided box, with both ords in 0..4
    assert result.classes == p ** (n * depth)
    assert 0 < calls < p ** (n * depth) // 20
    assert calls == 25
    assert abs(result.value - Fraction(9, 16)) <= result.tail_bound


def test_field_variable_read_as_value_group_variable_is_refused():
    f = ConstructibleExpr([Term(AqElem.one(), factors=[(0, {identity_lin("x1"): 1})])])
    domain = Domain([("x1", K, UNIT_BALL)], Prime(2))
    with pytest.raises(DomainError, match="value-group"):
        brute_force_integrate(f, domain, 3)


# three terms whose coefficients are not integers at q = p: 1/3, 5/7 and
# -2/9 q^-1 / (1 - q^-1)
CLASS_SUM_F = (
    ConstructibleExpr.constant(Fraction(1, 3))
    + parse_integrand("q^(-ord(x1) - 2*ord(x2))*ord(x1)").scale(AqElem.from_rational(Fraction(5, 7)))
    + parse_integrand("q^(ord(x1))*ord(x2)^2").scale(AqElem.q_power(-1, Fraction(-2, 9)) * AqElem.geom(1))
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.dictionaries(
        st.tuples(st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(0, 14)),
        st.integers(1, 5),
        max_size=8,
    ),
)
def test_class_sum_is_the_plain_fraction_sum(p, records):
    # s up to 14 makes e - s negative; no records give 0
    compiled = _Compiled([(t.coeff, t.q, t.factors) for t in CLASS_SUM_F.terms])
    coeffs = [c.eval_at(p) for c in compiled.coeffs]
    assert any(c.denominator != 1 for c in coeffs)
    expected = Fraction(0)
    for (values, s), count in records.items():
        for coeff, (e, z) in zip(coeffs, compiled.powers(values)):
            expected += count * coeff * z * Fraction(p) ** (e - s)
    got = _class_sum(compiled, coeffs, Counter(records), p)
    assert got == expected and got.__class__ is Fraction
    assert _class_sum(compiled, coeffs, Counter(), p) == 0
