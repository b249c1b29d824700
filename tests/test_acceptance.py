"""Acceptance suite: one test per criterion, each printing a pass/fail line.
Criteria 1-5 and 7 run checks of padicint.selfcheck at their own sizes.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.
"""

import time

from padicint import (
    AqElem,
    GammaCell,
    Polynomial,
    Prime,
    RationalFunctionT,
    fit_rational,
    geom_sum,
    poincare_report,
    series_table,
)
from padicint.selfcheck import (
    check_integration_oracle,
    check_partition_normalization,
    check_poincare,
    check_presburger_sums,
    check_translation_invariance,
    check_wellorder,
)

P2, P3 = Prime(2), Prime(3)


def _report(name: str, started: float, limit: float):
    elapsed = time.time() - started
    assert elapsed < limit, f"{name} took {elapsed:.1f}s, limit {limit}s"
    print(f"[PASS] {name} ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_geometric_sums():
    started = time.time()
    _, ok, detail = check_presburger_sums(200)
    assert ok, detail
    _report("criterion 1: geometric sums vs enumeration", started, 10)


def test_criterion_2_normalization_and_additivity():
    started = time.time()
    _, ok, detail = check_partition_normalization()
    assert ok, detail
    _report("criterion 2: partition measures sum to 1", started, 5)


def test_criterion_3_translation_invariance():
    started = time.time()
    _, ok, detail = check_translation_invariance(25)
    assert ok, detail
    _report("criterion 3: measures are translation invariant", started, 5)


def test_criterion_4_integration_oracle_agreement():
    started = time.time()
    _, ok, detail = check_integration_oracle()
    assert ok, detail
    _report("criterion 4: symbolic integrals match the oracle", started, 30)


CORPUS_1 = [Polynomial(1, {(1,): 1}), Polynomial(1, {(2,): 1}), Polynomial(1, {(3,): 1})]
CORPUS_2 = [
    Polynomial(2, {(1, 1): 1}),
    Polynomial(2, {(2, 0): 1, (0, 2): 1}),
    Polynomial(2, {(2, 0): 1, (0, 2): -1}),
]


def test_criterion_5_counting_identity():
    started = time.time()
    _, ok, detail = check_poincare(5)
    assert ok, detail
    _report("criterion 5: counting identity against both engines", started, 60)


def test_criterion_6_rationality():
    started = time.time()
    for f in CORPUS_1:
        for prime in (P2, P3):
            report = poincare_report(f, prime, 11, guard=5, check_mmax=0)
            assert isinstance(report.rational, RationalFunctionT), (f.render(), prime.p)
            assert report.rational.reproduces(report.table.counts)
            assert report.rational.shape is not None
    for f in CORPUS_2:
        for prime in (P2, P3):
            report = poincare_report(f, prime, 10, guard=5, check_mmax=0)
            assert isinstance(report.rational, RationalFunctionT), (f.render(), prime.p)
            assert report.rational.reproduces(report.table.counts)
    # the two pinned closed forms
    fx = fit_rational(series_table(CORPUS_1[0], P2, 11), guard=5)
    assert fx.render_num() == "1" and fx.render_den() == "(1 - T)"
    fx2 = fit_rational(series_table(CORPUS_1[1], P3, 11), guard=5)
    assert fx2.render_num() == "1 + T" and fx2.render_den() == "(1 - 3*T^2)"
    _report("criterion 6: certified rational generating functions", started, 120)


def test_criterion_7_wellorder():
    started = time.time()
    _, ok, detail = check_wellorder(500)
    assert ok, detail
    _report("criterion 7: zigzag minima match the brute scan", started, 5)


def test_criterion_8_documented_bounded_sum():
    started = time.time()
    # On the cell 0 < gamma < 5, gamma = 0 mod 2, reindexed tau = gamma/2 in
    # {1, 2}, the enumeration-verified closed form (x^a - x^(b+1)) / (1 - x)
    # keeps both shells: the sum is q^-2 + q^-4, not the single term a
    # (x^a - x^b) difference would leave.  Enumeration is the authority.
    cell = GammaCell(0, 5, 2, 0)
    closed = geom_sum(cell, 2)
    assert closed == AqElem.q_power(-2) + AqElem.q_power(-4)
    assert [g for g in range(-20, 20) if cell.contains(g)] == [2, 4]
    truncated_form = (AqElem.q_power(-2) - AqElem.q_power(-4)) * AqElem.geom(2)
    assert truncated_form == AqElem.q_power(-2)
    assert closed != truncated_form
    _report("criterion 8: bounded closed form keeps the last shell", started, 1)
