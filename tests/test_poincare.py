import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicint.poincare as poincare_module
from padicint import (
    BudgetExceeded,
    Polynomial,
    Prime,
    RationalFunctionT,
    SeriesTable,
    UNDETERMINED,
    count_Nm,
    fit_rational,
    measure_identity_check,
    poincare_report,
    series_table,
)
from padicint.cli import main
from padicint.polys import poly_mul, polydiv, trim
from padicint.selfcheck import (
    POLYNOMIAL_SHAPES,
    check_poincare,
    lifting_matches_enumeration,
    random_polynomial,
)

P2, P3 = Prime(2), Prime(3)
X = Polynomial.variable(0, 1)
X2 = X * X
X3 = X2 * X
XY = Polynomial(2, {(1, 1): 1})
X2PY2 = Polynomial(2, {(2, 0): 1, (0, 2): 1})
X2MY2 = Polynomial(2, {(2, 0): 1, (0, 2): -1})

CORPUS_1 = [X, X2, X3]
CORPUS_2 = [XY, X2PY2, X2MY2]


def test_count_examples():
    assert count_Nm(X, P2, 3) == 1
    assert count_Nm(X, P3, 5) == 1
    assert count_Nm(X2, P3, 2) == 3  # x in {0, 3, 6} mod 9
    assert count_Nm(XY, P2, 2) == 8
    assert count_Nm(X, P2, 0) == 1


def test_count_budget():
    with pytest.raises(BudgetExceeded):
        count_Nm(XY, P3, 9, budget=10**5)


def test_series_table_matches_direct_enumeration():
    for f in CORPUS_1:
        for prime in (P2, P3):
            table = series_table(f, prime, 7)
            for m in range(8):
                assert table.counts[m] == count_Nm(f, prime, m)
    for f in CORPUS_2:
        for prime in (P2, P3):
            table = series_table(f, prime, 4)
            for m in range(5):
                assert table.counts[m] == count_Nm(f, prime, m)


def test_lifting_bound_enforced():
    for f in CORPUS_1 + CORPUS_2:
        for prime in (P2, P3):
            table = series_table(f, prime, 6)
            p_n = prime.p**f.nvars
            for m in range(6):
                assert table.counts[m + 1] <= p_n * table.counts[m]
    with pytest.raises(ValueError):
        SeriesTable(P2, X, [1, 5])
    with pytest.raises(ValueError):
        SeriesTable(P2, X, [2, 1])


def test_measure_identity_examples():
    assert measure_identity_check(X2, P3, 1)
    assert measure_identity_check(X, P2, 4)
    assert measure_identity_check(XY, P2, 2)


def test_a_report_lifts_once(monkeypatch):
    # each check reads the report's own table; it used to lift once per m
    real = poincare_module.series_table
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poincare_module, "series_table", spy)
    rep = poincare_report(XY, P3, 8, check_mmax=3)
    assert len(calls) == 1
    monkeypatch.undo()
    assert rep.checks == [(m, measure_identity_check(XY, P3, m)) for m in range(4)]


def test_measure_identity_compares_the_lifted_count(monkeypatch):
    real = poincare_module.series_table

    def one_too_many(f, prime, mmax, budget):
        counts = real(f, prime, mmax, budget).counts
        return SeriesTable(prime, f, counts[:-1] + [counts[-1] + 1])

    monkeypatch.setattr(poincare_module, "series_table", one_too_many)
    assert not measure_identity_check(XY, P2, 2)


@pytest.fixture(scope="module")
def poincare_check():
    # one run serves test_measure_identity_corpus and
    # test_fit_stability_under_extension
    return check_poincare()


def test_measure_identity_corpus(poincare_check):
    _, ok, detail = poincare_check
    assert ok, detail


def test_fit_constant_ones():
    table = SeriesTable(P2, X, [1] * 10)
    fit = fit_rational(table, guard=5)
    assert isinstance(fit, RationalFunctionT)
    assert fit.num == [Fraction(1)]
    assert fit.den == [Fraction(1), Fraction(-1)]
    assert fit.shape == [(0, 1)]


def test_fit_x_squared_at_3():
    table = series_table(X2, P3, 9)
    assert table.counts == [1, 1, 3, 3, 9, 9, 27, 27, 81, 81]
    fit = fit_rational(table, guard=5)
    assert isinstance(fit, RationalFunctionT)
    assert fit.num == [Fraction(1), Fraction(1)]
    assert fit.den == [Fraction(1), Fraction(0), Fraction(-3)]
    # denominator 1 - 3 T^2 = 1 - p^(-(-1)) T^2: the exponent is negative
    assert fit.shape == [(-1, 2)]
    assert fit.reproduces(table.counts)


def test_fit_insufficient_data():
    table = SeriesTable(P2, X, [1, 1, 1])
    assert fit_rational(table, guard=3) is UNDETERMINED
    # an order-1 recurrence needs two entries before the guard
    for guard in (3, 5):
        assert fit_rational(SeriesTable(P2, X, [1] * (guard + 1)), guard) is UNDETERMINED
        assert fit_rational(SeriesTable(P2, X, [1] * (guard + 2)), guard).den == [1, -1]


def test_fit_rejects_unverified_recurrences():
    # a sequence that looks geometric early but breaks inside the guard
    counts = [1, 2, 4, 8, 16, 32, 64, 128, 199, 398, 796, 1592]
    table = SeriesTable(P2, XY, counts)
    fit = fit_rational(table, guard=5)
    assert fit is UNDETERMINED


def test_fit_reproduces_all_entries():
    for f, prime, mmax in [
        (X, P2, 11),
        (X, P3, 11),
        (X2, P2, 11),
        (X2, P3, 11),
        (X3, P2, 11),
        (X3, P3, 11),
        (XY, P2, 10),
        (X2PY2, P2, 10),
        (X2PY2, P3, 10),
        (X2MY2, P2, 10),
    ]:
        table = series_table(f, prime, mmax)
        fit = fit_rational(table, guard=5)
        assert isinstance(fit, RationalFunctionT), (f.render(), prime)
        assert fit.reproduces(table.counts)
        assert fit.shape is not None


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
    st.sampled_from((3, 5)),
    st.data(),
)
def test_fit_recovers_n_over_d(roots, guard, data):
    # D = prod (1 - a T) over distinct a > 0, deg N < deg D, N(0) = 1 and
    # N has no negative coefficient, so N(1/a) > 0 and N/D is in lowest
    # terms.  Each count is then at least 1 and at most (sum a + max N)
    # <= 19 times the one before, within the cap 2^5 of five variables.
    deg = len(roots)
    num = [1] + data.draw(st.lists(st.integers(0, 4), min_size=deg - 1, max_size=deg - 1))
    den = [Fraction(1)]
    for a in roots:
        den = poly_mul(den, [1, -a])
    length = 2 * deg + guard + data.draw(st.integers(0, 3))
    counts = RationalFunctionT(num, den, P2).expand(length)
    f = Polynomial(5)
    table = SeriesTable(P2, f, [int(c) for c in counts])
    fit = fit_rational(table, guard)
    assert isinstance(fit, RationalFunctionT)
    assert fit.num == trim(num) and fit.den == den
    raised = list(table.counts)
    raised[data.draw(st.integers(length - guard, length - 1))] += 1
    assert fit_rational(SeriesTable(P2, f, raised), guard) is UNDETERMINED


def test_fit_of_a_constant_series_has_the_empty_product_as_denominator(capsys):
    # -1 is not a square mod 3, so N_m = 0 for m >= 1 and P(T) = 1; the
    # fitted recurrence N_m = 0 * N_(m-1) used to leave D = 1 + 0*T,
    # which no product certificate matched
    rep = poincare_report(X2 + Polynomial.constant(1, 1), P3, 9)
    assert rep.rational.num == [1] and rep.rational.den == [1]
    assert rep.rational.shape == []
    assert rep.rational.render_den() == "1"
    assert rep.to_json()["rational"] == {"num": "1", "den": "1"}
    assert rep.to_json()["shape"] == []
    assert rep.render().splitlines()[2:4] == ["P(T) = (1) / 1", "shape: 1"]
    assert main(["poincare", "--p", "3", "--mmax", "9", "x1^2+1", "--json"]) == 0
    assert '"rational":{"den":"1","num":"1"},"shape":[]' in capsys.readouterr().out


def test_fit_numerator_may_have_the_degree_of_the_denominator():
    # N = 1, 3, 3, 3, ...: the minimal recurrence N_m = N_(m-1) + 0*N_(m-2)
    # has order 2, and D keeps only 1 - T
    rep = poincare_report(Polynomial(1, {(1,): 3}), P3, 9)
    assert rep.rational.num == [1, 2] and rep.rational.den == [1, -1]
    assert rep.rational.shape == [(0, 1)]
    assert rep.to_json()["rational"] == {"num": "1 + 2*T", "den": "(1 - T)"}
    assert rep.to_json()["shape"] == [[0, 1]]


def test_fit_order_cap_via_guard():
    # ten entries with a five-entry guard cap the tested order at two, so a
    # genuine order-three recurrence is reported as undetermined, not guessed
    table = series_table(X3, P2, 9)
    assert fit_rational(table, guard=5) is UNDETERMINED
    assert isinstance(fit_rational(series_table(X3, P2, 10), guard=5), RationalFunctionT)
    # the Pell numbers follow N_m = 2 N_(m-1) + N_(m-2), guard entries
    # included, but three entries before the guard fit a line of order-2
    # recurrences; four entries determine it
    pell = [1, 2, 5, 12, 29, 70, 169]
    assert fit_rational(SeriesTable(P2, XY, pell[:6]), guard=3) is UNDETERMINED
    assert fit_rational(SeriesTable(P2, XY, pell), guard=3).den == [1, -2, -1]


def test_fit_stability_under_extension(poincare_check):
    _, ok, detail = poincare_check
    assert ok, detail


def test_report_for_x():
    rep = poincare_report(X, P2, 8)
    assert rep.table.counts == [1] * 9
    assert isinstance(rep.rational, RationalFunctionT)
    assert rep.rational.render_num() == "1"
    assert rep.rational.render_den() == "(1 - T)"
    assert all(ok for _, ok in rep.checks)
    data = rep.to_json()
    assert data["counts"] == [1] * 9
    assert data["guard"] == 5
    assert data["rational"] == {"num": "1", "den": "(1 - T)"}


def test_report_rejects_negative_orders():
    with pytest.raises(ValueError, match="mmax must be >= 0"):
        poincare_report(X, P3, -1)
    with pytest.raises(ValueError, match="check_mmax must be >= 0"):
        poincare_report(X, P3, 3, check_mmax=-3)
    # zero is a valid order: the table holds N_0 alone, and one check runs
    assert poincare_report(X, P3, 3, check_mmax=0).checks == [(0, True)]


def test_report_for_x_squared():
    rep = poincare_report(X2, P3, 11)
    assert isinstance(rep.rational, RationalFunctionT)
    assert rep.rational.render_num() == "1 + T"
    assert rep.rational.render_den() == "(1 - 3*T^2)"
    assert rep.rational.shape == [(-1, 2)]
    assert all(ok for _, ok in rep.checks)


def test_report_for_xy():
    rep = poincare_report(XY, P2, 9, check_mmax=4)
    assert rep.table.counts[:3] == [1, 3, 8]
    assert isinstance(rep.rational, RationalFunctionT)
    assert rep.rational.reproduces(rep.table.counts)
    assert [m for m, _ in rep.checks] == [0, 1, 2, 3, 4]
    assert all(ok for _, ok in rep.checks)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.sampled_from(POLYNOMIAL_SHAPES), st.integers(0, 2**32))
def test_lifting_matches_enumeration(p, shape, seed):
    # the generator of `padicint check`, at up to 3^8 points per count
    f = random_polynomial(random.Random(seed), p, shape)
    assert lifting_matches_enumeration(f, Prime(p), 3**8), f.render()


def test_lifting_budget_bounds_the_singular_frontier():
    # x1 is nonsingular everywhere: only Z_3 is split, so a tiny budget lasts
    assert series_table(X, P3, 40, budget=3).counts == [1] * 41
    # (x1 - x2)^2 at p = 3 leaves the 3^k classes mod 3^k on the line
    # x1 = x2 undecided; mmax 6 splits them up to k = 2, 9 * 9 = 81 children
    # within a budget of 100, and mmax 7 would split the 27 at k = 3
    line = Polynomial(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
    assert series_table(line, P3, 6, budget=100).counts == [1, 3, 27, 81, 729, 2187, 19683]
    with pytest.raises(BudgetExceeded, match="depth 4"):
        series_table(line, P3, 7, budget=100)


def test_series_table_rejects_a_negative_order():
    with pytest.raises(ValueError, match="mmax must be >= 0"):
        series_table(X, P3, -2)
    assert series_table(X, P3, 0).counts == [1]


def test_lifting_matches_enumeration_on_every_shape():
    # 540 seeded cases, each count up to 3^7 points compared with count_Nm
    rng = random.Random(20261018)
    for p in (2, 3, 5):
        for shape in POLYNOMIAL_SHAPES:
            for _ in range(30):
                f = random_polynomial(rng, p, shape)
                assert lifting_matches_enumeration(f, Prime(p), 3**7), (f.render(), p)


def test_lifting_decides_most_classes_by_hensel():
    # deep tables with millions of singular solutions: the walk keeps
    # only the classes that Hensel's lemma leaves undecided
    x1x2x3 = Polynomial(3, {(1, 1, 1): 1})
    assert series_table(x1x2x3, P2, 10).counts == [
        1, 7, 44, 256, 1408, 7424, 37888, 188416, 917504, 4390912, 20709376
    ]
    cusp = Polynomial(2, {(2, 0): 1, (0, 3): -1})
    assert series_table(cusp, P3, 13).counts == [
        1, 3, 15, 45, 135, 405, 2673, 8019, 37179, 111537, 334611, 1003833, 6200145,
        18600435,
    ]
    # x1*x2 leaves one class undecided per level: 9 children at each of
    # k = 1..6, against 531,442 singular solutions mod 3^m for 1 <= m < 11
    assert series_table(XY, P3, 11).evaluations == 54
    # the 17,537,553 singular solutions mod 3^13 have 9 times as many
    # lifts, more than the default budget of 10^8
    assert series_table(cusp, P3, 14).counts[14] == 84499119


def test_default_checks_enumerate_no_more_than_the_counts(monkeypatch):
    # x1*x2 at p = 3, mmax 11: the default used to check every m with
    # 9^m <= 10^8 and ran for minutes
    enumerated = 0
    real = poincare_module.enumerate_residues

    def counting(*args):
        nonlocal enumerated
        for point in real(*args):
            enumerated += 1
            yield point

    monkeypatch.setattr(poincare_module, "enumerate_residues", counting)
    rep = poincare_report(XY, P3, 11)
    assert [m for m, _ in rep.checks] == [0, 1, 2]
    assert all(ok for _, ok in rep.checks)
    # each check at m >= 1 enumerates its 9^m points once; together the
    # checks stay within 9 times the 54 classes the lifting evaluated
    assert rep.table.evaluations == 54
    assert enumerated == 9 + 81
    assert 1 + enumerated <= 9 * 54 < 1 + enumerated + 9**3
    # x1 + x2*x3 is nonsingular mod 3, so the lifting evaluates only the 27
    # points mod 3 and the checks stop after m = 1; the counts' sum, about
    # 3.5e10 here, would let them run on to m = 5
    enumerated = 0
    smooth = Polynomial(3, {(1, 0, 0): 1, (0, 1, 1): 1})
    rep = poincare_report(smooth, P3, 11)
    assert rep.table.evaluations == 27
    assert [m for m, _ in rep.checks] == [0, 1]
    assert enumerated == 27
    # m = 0 and 1 always run; an explicit check_mmax is honoured
    assert [m for m, _ in poincare_report(X, P2, 8).checks] == [0, 1]
    assert [m for m, _ in poincare_report(X, P2, 8, check_mmax=8).checks] == list(range(9))


def test_default_checks_on_the_cusp_stay_cheap():
    # the checks used to run to m = 8, 3^16 points each, and took 128 s
    cusp = Polynomial(2, {(2, 0): 1, (0, 3): -1})
    start = time.perf_counter()
    rep = poincare_report(cusp, P3, 18)
    assert [m for m, _ in rep.checks] == [0, 1, 2, 3]
    assert all(ok for _, ok in rep.checks)
    assert time.perf_counter() - start < 2


# -- the integer fit against the Fraction fit it replaced ----------------------


def reference_recurrence(s):
    """Berlekamp-Massey over Q, step by step in Fractions."""
    n = len(s)
    conn = [Fraction(1)] + [Fraction(0)] * n
    prev = conn[:]
    L, shift, prev_disc = 0, 1, Fraction(1)
    for m in range(n):
        disc = sum(conn[i] * s[m - i] for i in range(L + 1))
        if disc == 0:
            shift += 1
            continue
        scale = disc / prev_disc
        old = conn[:]
        for i in range(n + 1 - shift):
            conn[i + shift] -= scale * prev[i]
        if 2 * L <= m:
            L, prev, prev_disc, shift = m + 1 - L, old, disc, 1
        else:
            shift += 1
    return L, [-c for c in conn[1 : L + 1]]


def reference_shape(den, p, nvars):
    """The shape search by long division by each candidate factor."""
    deg = len(den) - 1
    if deg == 0:
        return [] if den == [Fraction(1)] else None
    for Ni in range(1, deg + 1):
        for mi in range(-nvars * Ni, nvars * Ni + 1):
            coef = Fraction(1, p**mi) if mi >= 0 else Fraction(p ** (-mi))
            factor = [Fraction(1)] + [Fraction(0)] * (Ni - 1) + [-coef]
            quot, rem = polydiv(den, factor)
            if quot is None or any(c != 0 for c in rem):
                continue
            rest = reference_shape(trim(quot), p, nvars)
            if rest is not None:
                return sorted([(mi, Ni)] + rest, key=lambda s: (s[1], s[0]))
    return None


def reference_fit(table, guard):
    counts = [Fraction(c) for c in table.counts]
    prefix = len(counts) - guard
    if prefix < 2:
        return None
    L, coeffs = reference_recurrence(counts[:prefix])
    if L > prefix // 2:
        return None
    den = trim([Fraction(1)] + [-c for c in coeffs])
    num = trim(poly_mul(den, counts[:L])[:L])
    fit = RationalFunctionT(num, den, table.prime)
    if fit.expand(len(counts)) != counts:
        return None
    fit.shape = reference_shape(den, table.prime.p, table.f.nvars)
    return fit


def assert_fit_matches_reference(table, guard):
    got, want = fit_rational(table, guard), reference_fit(table, guard)
    if want is None:
        assert got is UNDETERMINED
        return
    assert isinstance(got, RationalFunctionT)
    assert (got.num, got.den, got.shape) == (want.num, want.den, want.shape)
    assert (got.render_num(), got.render_den(), repr(got)) == (want.render_num(), want.render_den(), repr(want))
    # an integral recurrence keeps the fit in ints
    assert all(c.__class__ is int for c in got.den if c.denominator == 1)
    if all(c.__class__ is int for c in got.den):
        assert all(c.__class__ is int for c in got.num)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 3), st.integers(3, 5), st.data())
def test_integer_fit_matches_the_fraction_fit_on_random_tables(p, nvars, guard, data):
    # any table within SeriesTable's bounds, most of them with no recurrence
    cap = p**nvars
    counts = [1]
    for _ in range(data.draw(st.integers(0, 14))):
        counts.append(data.draw(st.integers(0, cap * counts[-1])))
    table = SeriesTable(Prime(p), Polynomial(nvars), counts)
    assert poincare_module._minimal_recurrence(counts) == reference_recurrence([Fraction(c) for c in counts])
    assert_fit_matches_reference(table, guard)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(1, 3), st.integers(-9, 9)), max_size=4),
    st.lists(st.integers(0, 4), max_size=4),
)
def test_integer_fit_matches_the_fraction_fit_on_known_shapes(p, nvars, factors, tail):
    # D = prod (1 - p^-mi T^Ni), with |mi| <= nvars * Ni, has a shape
    factors = [(mi, Ni) for Ni, mi in factors if abs(mi) <= nvars * Ni]
    den = [1]
    for mi, Ni in factors:
        den = poly_mul(den, [1] + [0] * (Ni - 1) + [-(Fraction(1, p**mi) if mi >= 0 else p**-mi)])
    shape = poincare_module._certify_shape(den, p, nvars)
    assert shape == reference_shape([Fraction(c) for c in den], p, nvars)
    assert shape is not None
    product = [1]
    for mi, Ni in shape:
        product = poly_mul(product, [1] + [0] * (Ni - 1) + [-(Fraction(1, p**mi) if mi >= 0 else p**-mi)])
    assert product == den
    # the series of N/D, N(0) = 1, over a common denominator is an int
    # sequence with D's recurrence; as counts it fits where it is a table
    fit = RationalFunctionT([1] + tail, den, Prime(p))
    series = fit.expand(len(den) + len(tail) + 8)
    scale = lcm(*(Fraction(c).denominator for c in series))
    ints = [int(c * scale) for c in series]
    assert poincare_module._minimal_recurrence(ints) == reference_recurrence([Fraction(c) for c in ints])
    if scale == 1 and all(0 <= ints[m + 1] <= p**nvars * ints[m] for m in range(len(ints) - 1)):
        assert_fit_matches_reference(SeriesTable(Prime(p), Polynomial(nvars), ints), 5)
