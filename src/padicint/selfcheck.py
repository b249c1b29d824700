"""Deterministic oracle-vs-symbolic cross-validation suite.

Each check pits a closed-form computation against an independent
enumeration on a seeded random sample.  The CLI `check` subcommand runs
everything here and exits nonzero on any mismatch; the test suite runs
larger versions of the same comparisons.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .aqring import AqElem, LaurentPoly
from .integrate import (
    ConstructibleExpr,
    Domain,
    IntConst,
    IntScale,
    IntSum,
    K_SORT,
    GAMMA_SORT,
    LinExpr,
    OrdExpr,
    Term,
    UNIT_BALL,
    brute_force_integrate,
    identity_lin,
    integrate,
)
from .kcells import KCell, kcell_measure, partition_unit_ball
from .padic import AngularResidue, Prime
from .polys import Polynomial, poly_eval
from .poincare import RationalFunctionT, count_Nm, fit_rational, measure_identity_check, series_table
from .presburger import (
    GammaCell,
    PreparedLinear,
    gamma_weight_sum,
    geom_sum,
    weighted_sum,
    wellorder_key,
    wellorder_min,
)

SEED = 20240811


def _random_bounded_cell(rng: random.Random) -> GammaCell:
    mod = rng.randint(1, 4)
    res = rng.randrange(mod)
    lower = rng.randint(-8, 6)
    upper = lower + rng.randint(1, 12)
    return GammaCell(lower, upper, mod, res)


def check_presburger_sums(samples: int = 60) -> tuple[str, bool, str]:
    rng = random.Random(SEED)
    for _ in range(samples):
        cell = _random_bounded_cell(rng)
        for N in (1, 2, 3):
            closed = geom_sum(cell, N)
            deg = rng.randint(0, 2)
            poly = [Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)]
            weighted = weighted_sum(cell, poly, N)
            for q in (2, 3, 5):
                direct = sum(
                    (Fraction(q) ** (-N * ((g - cell.res) // cell.mod)) for g in cell.members()),
                    Fraction(0),
                )
                if closed.eval_at(q) != direct:
                    return "presburger.geom_sum", False, f"{cell} N={N} q={q}"
                wdirect = sum(
                    (
                        poly_eval(poly, (g - cell.res) // cell.mod)
                        * Fraction(q) ** (-N * ((g - cell.res) // cell.mod))
                        for g in cell.members()
                    ),
                    Fraction(0),
                )
                if weighted.eval_at(q) != wdirect:
                    return "presburger.weighted_sum", False, f"{cell} N={N} q={q}"
    # tails of unbounded cells
    for _ in range(20):
        mod = rng.randint(1, 3)
        cell = GammaCell(rng.randint(-1, 6), None, mod, rng.randrange(mod))
        N = rng.randint(1, 3)
        closed = geom_sum(cell, N)
        a, _ = cell.tau_bounds()
        for q in (2, 3):
            depth = 30
            partial = sum(
                (Fraction(q) ** (-N * (a + j)) for j in range(depth)), Fraction(0)
            )
            tail = Fraction(q) ** (-N * depth) / (1 - Fraction(q) ** (-N))
            if abs(closed.eval_at(q) - partial) > tail:
                return "presburger.tail", False, f"{cell} N={N} q={q}"
    return "presburger.sums_vs_enumeration", True, ""


def check_presburger_additivity(samples: int = 25) -> tuple[str, bool, str]:
    rng = random.Random(SEED + 1)
    for _ in range(samples):
        cell = _random_bounded_cell(rng)
        # refine into residue classes modulo 2*mod
        parts = [
            GammaCell(cell.lower, cell.upper, 2 * cell.mod, cell.res),
            GammaCell(cell.lower, cell.upper, 2 * cell.mod, cell.res + cell.mod),
        ]
        whole = gamma_weight_sum(cell, 1)
        split = gamma_weight_sum(parts[0], 1) + gamma_weight_sum(parts[1], 1)
        if whole != split:
            return "presburger.additivity", False, str(cell)
    return "presburger.additivity", True, ""


def check_wellorder(samples: int = 120, window: int = 2000) -> tuple[str, bool, str]:
    rng = random.Random(SEED + 2)
    for _ in range(samples):
        cells = []
        for _ in range(rng.randint(1, 3)):
            mod = rng.randint(1, 5)
            lower = rng.randint(-window // 2, window // 4) if rng.random() < 0.8 else None
            upper = (
                (lower if lower is not None else 0) + rng.randint(1, window // 2)
                if rng.random() < 0.8
                else None
            )
            cells.append(GammaCell(lower, upper, mod, rng.randrange(mod)))
        nonempty = [c for c in cells if not c.is_empty()]
        if not nonempty:
            continue
        computed = wellorder_min(nonempty)
        scan = None
        for key in range(0, 4 * window + 1):
            candidate = (key + 1) // 2 if key % 2 else -(key // 2)
            if any(c.contains(candidate) for c in nonempty):
                scan = candidate
                break
        if scan is not None and computed != scan:
            return "presburger.wellorder_min", False, f"{nonempty} -> {computed} vs {scan}"
        if scan is None and wellorder_key(computed) <= 4 * window:
            return "presburger.wellorder_min", False, f"scan missed {computed}"
    return "presburger.wellorder_min", True, ""


def check_partition_normalization() -> tuple[str, bool, str]:
    for p in (2, 3, 5):
        prime = Prime(p)
        for M in (1, 2):
            for N in (1, 2, 3):
                cells = partition_unit_ball(M, N, prime)
                total = sum((kcell_measure(c).eval_at(p) for c in cells), Fraction(0))
                if total != 1:
                    return "kcells.normalization", False, f"p={p} M={M} N={N}: {total}"
    return "kcells.normalization", True, ""


def check_translation_invariance(samples: int = 20) -> tuple[str, bool, str]:
    rng = random.Random(SEED + 3)
    for p in (2, 3):
        prime = Prime(p)
        for _ in range(samples):
            mod = rng.randint(1, 3)
            cell = _random_kcell(rng, prime, mod)
            reference = kcell_measure(cell)
            for _ in range(10):
                center = Fraction(rng.randint(-50, 50), rng.choice([1, 1, 3, 7]))
                moved = KCell(
                    center,
                    cell.lower,
                    cell.upper,
                    cell.mod,
                    cell.res,
                    cell.ac_depth,
                    cell.ac_value,
                    prime,
                )
                if kcell_measure(moved) != reference:
                    return "kcells.translation", False, str(cell)
    return "kcells.translation", True, ""


def _random_kcell(rng: random.Random, prime: Prime, mod: int) -> KCell:
    res = rng.randrange(mod)
    lower = rng.randint(-1, 4)
    upper = lower + rng.randint(1, 6) if rng.random() < 0.7 else None
    M = rng.randint(1, 2)
    p = prime.p
    units = [r for r in range(1, p**M) if r % p != 0]
    xi = rng.choice(units)
    return KCell(Fraction(0), lower, upper, mod, res, M, AngularResidue(M, xi), prime)


def check_counting_oracle(samples: int = 12) -> tuple[str, bool, str]:
    rng = random.Random(SEED + 4)
    for p in (2, 3):
        prime = Prime(p)
        for _ in range(samples):
            mod = rng.randint(1, 3)
            cell = _random_kcell(rng, prime, mod)
            if cell.upper is None:
                cell = KCell(
                    cell.center, cell.lower, cell.lower + 4, cell.mod, cell.res,
                    cell.ac_depth, cell.ac_value, prime,
                )
            center = Fraction(rng.randint(0, 8), rng.choice([1, 1, 1 + p]))
            cell = KCell(
                center, cell.lower, cell.upper, cell.mod, cell.res,
                cell.ac_depth, cell.ac_value, prime,
            )
            depth = cell.upper + cell.ac_depth + 1
            count = sum(1 for r in range(p**depth) if cell.contains_value(r))
            expect = kcell_measure(cell).eval_at(p) * p**depth
            if count != expect:
                return "kcells.counting", False, f"{cell}: {count} vs {expect}"
    return "kcells.counting", True, ""


def _corpus(prime: Prime):
    one = ConstructibleExpr.constant(1)
    ox = OrdExpr(Polynomial.variable(0, 1), ("x1",))
    absx = ConstructibleExpr([Term(AqElem.one(), qparts=(IntScale(-1, ox),))])
    iord = ConstructibleExpr([Term(AqElem.one(), zfactors=(ox,))])
    mixed = ConstructibleExpr([Term(AqElem.one(), qparts=(IntScale(-1, ox),), zfactors=(ox,))])
    sq = ConstructibleExpr([Term(AqElem.one(), qparts=(IntScale(-2, ox),))])
    return [
        ("1", one, (1, 0, 0)),
        ("|x|", absx, (1, -1, 0)),
        ("ord x", iord, (1, 0, 1)),
        ("ord(x) q^-ord x", mixed, (1, -1, 1)),
        ("q^-2 ord x", sq, (1, -2, 0)),
    ]


def check_integration_oracle() -> tuple[str, bool, str]:
    for p in (2, 3):
        prime = Prime(p)
        domain = Domain([("x1", K_SORT, UNIT_BALL)], prime)
        for name, f, growth in _corpus(prime):
            symbolic = integrate(f, domain).eval_at(prime)
            for depth in (4, 5, 6):
                oracle = brute_force_integrate(f, domain, depth, growth=growth)
                if abs(symbolic - oracle.value) > oracle.tail_bound:
                    return (
                        "integrate.oracle_agreement",
                        False,
                        f"{name} p={p} depth={depth}",
                    )
    return "integrate.oracle_agreement", True, ""


def check_integration_linearity() -> tuple[str, bool, str]:
    prime = Prime(3)
    domain = Domain([("x1", K_SORT, UNIT_BALL)], prime)
    corpus = _corpus(prime)
    f, g = corpus[1][1], corpus[2][1]
    a = AqElem.q_power(-1)
    b = AqElem.from_rational(3)
    lhs = integrate(f.scale(a) + g.scale(b), domain)
    rhs = integrate(f, domain) * a + integrate(g, domain) * b
    if lhs != rhs:
        return "integrate.linearity", False, ""
    return "integrate.linearity", True, ""


def check_integration_additivity() -> tuple[str, bool, str]:
    prime = Prime(2)
    f = ConstructibleExpr([Term(AqElem.one(), qparts=(IntScale(-1, identity_lin("g1")),))])
    whole = GammaCell(0, None, 1, 0)
    even = GammaCell(0, None, 2, 0)
    odd = GammaCell(0, None, 2, 1)
    d_whole = Domain([("g1", GAMMA_SORT, [whole])], prime)
    d_split = Domain([("g1", GAMMA_SORT, [even, odd])], prime)
    if integrate(f, d_whole) != integrate(f, d_split):
        return "integrate.additivity", False, ""
    return "integrate.additivity", True, ""


def check_integration_fubini() -> tuple[str, bool, str]:
    prime = Prime(3)
    g1 = identity_lin("g1")
    g2 = identity_lin("g2")
    f = ConstructibleExpr(
        [Term(AqElem.one(), qparts=(IntScale(-1, g1), IntScale(-2, g2)), zfactors=(g2,))]
    )
    c1 = GammaCell(0, 9, 2, 1)
    c2 = GammaCell(-1, None, 1, 0)
    one_way = Domain([("g1", GAMMA_SORT, [c1]), ("g2", GAMMA_SORT, [c2])], prime)
    other = Domain([("g2", GAMMA_SORT, [c2]), ("g1", GAMMA_SORT, [c1])], prime)
    if integrate(f, one_way) != integrate(f, other):
        return "integrate.fubini", False, ""
    return "integrate.fubini", True, ""


def check_poincare() -> tuple[str, bool, str]:
    x = Polynomial.variable(0, 1)
    xy = Polynomial(2, {(1, 1): 1})
    # each denominator is the known closed form, a product of (1 - p^-mi T^Ni)
    cases = [
        (x * x, Prime(3), 9, 11, [1, 0, -3]),
        (x, Prime(2), 9, 11, [1, -1]),
        (xy, Prime(2), 8, 10, [1, -4, 4]),
        (x * x + Polynomial.constant(1, 1), Prime(3), 9, 11, [1]),
    ]
    for f, prime, m1, m2, den in cases:
        t1 = series_table(f, prime, m1)
        t2 = series_table(f, prime, m2)
        fit1 = fit_rational(t1, guard=5)
        fit2 = fit_rational(t2, guard=5)
        if not isinstance(fit1, RationalFunctionT) or not isinstance(fit2, RationalFunctionT):
            return "poincare.fit", False, f"{f.render()} p={prime.p}"
        if fit1.den != den or fit1.shape is None:
            return "poincare.fit", False, f"{f.render()} p={prime.p}: D = {fit1.render_den()}"
        if fit1.num != fit2.num or fit1.den != fit2.den:
            return "poincare.fit_stability", False, f"{f.render()} p={prime.p}"
        if not fit1.reproduces(t2.counts[: len(t1.counts)]):
            return "poincare.fit_reproduction", False, f"{f.render()} p={prime.p}"
    for f in (x, x * x, xy):
        for p in (2, 3):
            for m in (1, 2, 3):
                if not measure_identity_check(f, Prime(p), m):
                    return "poincare.measure_identity", False, f"{f.render()} p={p} m={m}"
    return "poincare.counting_vs_symbolic", True, ""


# "general" draws a sparse polynomial; the other shapes have a gradient
# that vanishes mod p on some or all of their solutions mod p
POLYNOMIAL_SHAPES = ("zero", "p-constant", "p*x1", "x1^2+x2^2", "x1^p", "general")


def random_polynomial(rng: random.Random, p: int, shape: str = "general") -> Polynomial:
    """An integer polynomial in 1-3 variables of the given shape.

    "p-constant" is p, 2p, -p or p^2; "x1^2+x2^2" is singular mod 2.  A
    general polynomial sums 1-4 monomials with exponents 0..p per variable
    and coefficients in -3..3, a third of them multiplied by p."""
    n = rng.randint(2 if shape == "x1^2+x2^2" else 1, 3)
    x1 = Polynomial.variable(0, n)
    if shape == "zero":
        return Polynomial(n)
    if shape == "p-constant":
        return Polynomial.constant(rng.choice((p, 2 * p, -p, p * p)), n)
    if shape == "p*x1":
        return Polynomial.constant(p, n) * x1
    if shape == "x1^2+x2^2":
        return x1 * x1 + Polynomial.variable(1, n) ** 2
    if shape == "x1^p":
        return x1**p
    if shape != "general":
        raise ValueError(f"unknown polynomial shape {shape!r}")
    terms: dict = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, p) for _ in range(n))
        c = rng.randint(-3, 3) * (p if rng.random() < 1 / 3 else 1)
        terms[exps] = terms.get(exps, 0) + c
    return Polynomial(n, terms)


def lifting_matches_enumeration(f: Polynomial, prime: Prime, points: int) -> bool:
    """series_table against count_Nm for every m with p^(n m) <= points."""
    mmax = 0
    while prime.p ** (f.nvars * (mmax + 1)) <= points:
        mmax += 1
    counts = [count_Nm(f, prime, m) for m in range(mmax + 1)]
    return series_table(f, prime, mmax).counts == counts


def check_lifting() -> tuple[str, bool, str]:
    rng = random.Random(SEED + 5)
    for p in (2, 3, 5):
        prime = Prime(p)
        for shape in POLYNOMIAL_SHAPES[:-1] + ("general",) * 6:
            f = random_polynomial(rng, p, shape)
            if not lifting_matches_enumeration(f, prime, 729):
                return "poincare.lifting_vs_enumeration", False, f"{f.render()} p={p}"
    return "poincare.lifting_vs_enumeration", True, ""


def check_aq_cancellation(samples: int = 60) -> tuple[str, bool, str]:
    """Canonical forms of M * prod (q^i - 1)^k over denominators up to index
    24: long division finds no denominator factor left to cancel, and the
    values at p = 2, 3, 5 are the ones computed directly, so the running-sum
    quotient of canonicalisation is checked against LaurentPoly.divexact."""
    rng = random.Random(SEED + 6)

    def indices():
        return {rng.randint(1, 24): rng.randint(1, 2) for _ in range(rng.randint(0, 3))}

    for _ in range(samples):
        m = LaurentPoly(
            {rng.randint(-30, 30): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(rng.randint(1, 5))}
        )
        mult, den = indices(), indices()
        for i in mult:  # cancel some multiplied-in factors whole
            if rng.random() < 0.5:
                den[i] = rng.randint(1, 2)
        num = m
        for i, k in mult.items():
            for _ in range(k):
                num = num * LaurentPoly({i: 1, 0: -1})
        elem = AqElem(num, den)
        for i in elem.den:
            if elem.num.divexact(LaurentPoly({i: 1, 0: -1})) is not None:
                return "aqring.cancellation_vs_long_division", False, f"{elem.render()}: (1-q^-{i})"
        for p in (2, 3, 5):
            value = m.eval(p)
            for i, k in mult.items():
                value *= Fraction(p**i - 1) ** k
            for i, e in den.items():
                value /= (1 - Fraction(1, p**i)) ** e
            if elem.eval_at(p) != value:
                return "aqring.cancellation_vs_long_division", False, f"{elem.render()} p={p}"
    return "aqring.cancellation_vs_long_division", True, ""


# -- random parser inputs ----------------------------------------------------
#
# Each generator returns a text and the value that the same sums, products
# and powers give in the algebra of Polynomial or ConstructibleExpr, folded
# in the order the grammar reads them (README "Grammar").  Separators are
# "", " " or a newline; exponents stay at most 3, so an integrand keeps to
# a few hundred terms.


def _sep(rng: random.Random) -> str:
    return rng.choice(("", "", " ", " ", " ", "\n"))


def _random_sum(rng: random.Random, leaf, depth: int):
    """(text, build) of [-] product {(+|-) product}; build() folds the
    products left to right, negating the first one after a leading '-'."""
    parts = [_random_product(rng, leaf, depth) for _ in range(rng.randint(1, 3))]
    signs = [rng.random() < 0.3] + [rng.random() < 0.5 for _ in parts[1:]]
    text = ("-" + _sep(rng) if signs[0] else "") + parts[0][0]
    for negative, (t, _) in zip(signs[1:], parts[1:]):
        text += _sep(rng) + ("-" if negative else "+") + _sep(rng) + t

    def build():
        total = parts[0][1]()
        if signs[0]:
            total = -total
        for negative, (_, b) in zip(signs[1:], parts[1:]):
            total = total - b() if negative else total + b()
        return total

    return text, build


def _random_product(rng: random.Random, leaf, depth: int):
    factors = [_random_power(rng, leaf, depth) for _ in range(rng.randint(1, 3))]
    text = (_sep(rng) + "*" + _sep(rng)).join(t for t, _ in factors)

    def build():
        total = factors[0][1]()
        for _, b in factors[1:]:
            total = total * b()
        return total

    return text, build


def _random_power(rng: random.Random, leaf, depth: int):
    if depth and rng.random() < 0.3:
        inner, base = _random_sum(rng, leaf, depth - 1)
        text = "(" + _sep(rng) + inner + _sep(rng) + ")"
    else:
        text, base = leaf()
    if rng.random() < 0.25:
        n = rng.randint(0, 3)
        return text + _sep(rng) + "^" + _sep(rng) + str(n), lambda: base() ** n
    return text, base


def random_polynomial_text(
    rng: random.Random, nvars: int = 3, depth: int = 2
) -> tuple[str, Polynomial]:
    """A polynomial text over x1..x{nvars} and its Polynomial, whose arity
    is the largest index the text names (0 when it names none); depth
    bounds the nesting of parentheses."""
    arity = [0]

    def leaf():
        if rng.random() < 0.4:
            c = rng.randint(0, 9)
            return str(c), lambda: Polynomial.constant(c, arity[0])
        i = rng.randint(1, nvars)
        arity[0] = max(arity[0], i)
        return f"x{i}", lambda: Polynomial.variable(i - 1, arity[0])

    text, build = _random_sum(rng, leaf, depth)
    return text, build()


def _random_ord(rng: random.Random) -> tuple[str, OrdExpr]:
    text, poly = random_polynomial_text(rng, depth=1)
    names = tuple(f"x{i + 1}" for i in range(poly.nvars))
    return "ord(" + _sep(rng) + text + _sep(rng) + ")", OrdExpr(poly, names)


def _random_lin(rng: random.Random) -> tuple[str, LinExpr]:
    a, k, n, delta = rng.randint(-3, 3), rng.randint(0, 3), rng.randint(1, 3), rng.randint(-3, 3)
    var = f"g{rng.randint(1, 2)}"
    return f"lin({a},{k},{n},{delta};{var})", LinExpr(PreparedLinear(a, k, n, delta), var)


def _random_int_atom(rng: random.Random, depth: int, literal: bool):
    """An ord, lin, literal (only where literal is set) or parenthesised
    integer expression, and its IntExpr."""
    roll = rng.random()
    if depth and roll < 0.2:
        inner, e = _random_int_expr(rng, depth - 1)
        return "(" + inner + ")", e
    if literal and roll < 0.4:
        c = rng.randint(0, 5)
        return str(c), IntConst(c)
    return _random_ord(rng) if roll < 0.7 else _random_lin(rng)


def _random_int_expr(rng: random.Random, depth: int) -> tuple[str, object]:
    """An exponent text and its IntExpr: one part per signed term, an
    IntSum of two or more.  A term is a literal c (IntConst(+-c)), c*atom
    (IntScale(+-c, atom), the atom alone for +1) or an atom that is not a
    literal (IntScale(-1, atom) after a '-')."""
    texts, parts = [], []
    for i in range(rng.randint(1, 3)):
        sign = -1 if rng.random() < 0.4 else 1
        roll = rng.random()
        if roll < 0.25:
            c = rng.randint(0, 9)
            text, part = str(c), IntConst(sign * c)
        else:
            text, atom = _random_int_atom(rng, depth, literal=roll < 0.5)
            scalar = sign
            if roll < 0.5:
                c = rng.randint(0, 5)
                text, scalar = f"{c}{_sep(rng)}*{_sep(rng)}{text}", sign * c
            part = atom if scalar == 1 else IntScale(scalar, atom)
        sign_text = ("-" if sign < 0 else "") if i == 0 else ("-" if sign < 0 else "+")
        texts.append(sign_text + _sep(rng) + text)
        parts.append(part)
    expr = parts[0] if len(parts) == 1 else IntSum(tuple(parts))
    return _sep(rng).join(texts), expr


def random_integrand_text(rng: random.Random) -> tuple[str, ConstructibleExpr]:
    """An integrand text over x1..x3 and g1, g2 and the ConstructibleExpr
    that constant, q_exponent, factor, +, -, * and ** give for it."""

    def leaf():
        roll = rng.random()
        if roll < 0.25:
            c = rng.randint(0, 9)
            return str(c), lambda: ConstructibleExpr.constant(c)
        if roll < 0.55:
            text, e = _random_int_expr(rng, 1)
            text = "q" + _sep(rng) + "^" + _sep(rng) + "(" + text + ")"
            return text, lambda: ConstructibleExpr.q_exponent(e)
        text, e = _random_ord(rng) if roll < 0.8 else _random_lin(rng)
        return text, lambda: ConstructibleExpr.factor(e)

    text, build = _random_sum(rng, leaf, 1)
    return text, build()


ALL_CHECKS = [
    check_aq_cancellation,
    check_presburger_sums,
    check_presburger_additivity,
    check_wellorder,
    check_partition_normalization,
    check_translation_invariance,
    check_counting_oracle,
    check_integration_oracle,
    check_integration_linearity,
    check_integration_additivity,
    check_integration_fubini,
    check_poincare,
    check_lifting,
]


def run_all_checks() -> list[tuple[str, bool, str]]:
    return [check() for check in ALL_CHECKS]
