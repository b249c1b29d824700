"""The package's records: repr, equality, hashing and (im)mutability.

Each case builds a record twice and once with one field changed.  Most
pinned reprs are the Class(field=value, ...) form that error messages
embed, such as GammaCellUnion's overlap message; Prime, PAdicPoint and
RationalFunctionT write their own."""

import copy
import pickle
from fractions import Fraction

import pytest

from padicint import (
    AngularResidue,
    GammaCell,
    KCell,
    LinExpr,
    OracleResult,
    OrdExpr,
    PAdicPoint,
    PoincareReport,
    PreparedLinear,
    Prime,
    RationalFunctionT,
    SeriesTable,
)
from padicint.integrate import DomainVar
from padicint.polys import Polynomial

P3 = Prime(3)
F = Polynomial(2, {(2, 0): 1, (0, 1): -1})
FORM = PreparedLinear(2, 1, 3, -1)
FORM_REPR = "PreparedLinear(a=2, k=1, n=3, delta=-1)"


def kcell(center):
    return KCell(center, -1, 7, 2, 1, 2, AngularResidue(2, 4), P3)


def table(evaluations=4, counts=(1, 3, 9)):
    return SeriesTable(P3, F, list(counts), evaluations)


def rational(shape=((1, 1),)):
    return RationalFunctionT([Fraction(1)], [Fraction(1), Fraction(-1, 3)], P3, list(shape))


def oracle(value):
    return OracleResult(value, Fraction(1, 9), 3, 27, 1, 2, Fraction(1, 27))


# (make(v), two values of v, the field v sets, repr of make(first value))
FROZEN = [
    (Prime, (5, 7), "p", "Prime(5)"),
    (lambda v: PAdicPoint(v, P3), (Fraction(3, 4), 2), "value", "PAdicPoint(3/4, p=3)"),
    (lambda r: AngularResidue(2, r), (4, 5), "r", "AngularResidue(m=2, r=4)"),
    (lambda upper: GammaCell(0, upper), (10, 11), "upper", "GammaCell(lower=0, upper=10, mod=1, res=0)"),
    (
        lambda lower: GammaCell(lower, None, 2, 1),
        (LinExpr(FORM, "g1"), 3),
        "lower",
        f"GammaCell(lower=LinExpr(form={FORM_REPR}, var='g1'), upper=None, mod=2, res=1)",
    ),
    (lambda delta: PreparedLinear(2, 1, 3, delta), (-1, 0), "delta", FORM_REPR),
    (
        kcell,
        (Fraction(1, 2), Fraction(3, 2)),
        "center",
        "KCell(center=Fraction(1, 2), lower=-1, upper=7, mod=2, res=1, ac_depth=2, "
        "ac_value=AngularResidue(m=2, r=4), prime=Prime(3))",
    ),
    (lambda var: LinExpr(FORM, var), ("g1", "g2"), "var", f"LinExpr(form={FORM_REPR}, var='g1')"),
    (
        lambda names: OrdExpr(F, names),
        (("x1", "x2"), ("x2", "x1")),
        "vars",
        "OrdExpr(poly=Polynomial(x1^2 - x2), vars=('x1', 'x2'))",
    ),
]

MUTABLE = [
    (
        lambda sort: DomainVar("g1", sort, [GammaCell(0, 3)]),
        ("Gamma", "K"),
        "sort",
        "DomainVar(name='g1', sort='Gamma', region=[GammaCell(lower=0, upper=3, mod=1, res=0)])",
    ),
    (
        oracle,
        (Fraction(1, 2), Fraction(1, 3)),
        "value",
        "OracleResult(value=Fraction(1, 2), tail_bound=Fraction(1, 9), depth=3, classes=27, "
        "skipped=1, boundary=2, skipped_measure=Fraction(1, 27))",
    ),
    (
        lambda counts: table(counts=counts),
        ([1, 3, 9], [1, 3, 3]),
        "counts",
        "SeriesTable(prime=Prime(3), f=Polynomial(x1^2 - x2), counts=[1, 3, 9], evaluations=4)",
    ),
    (
        rational,
        ([(1, 1)], []),
        "shape",
        "RationalFunctionT(1 / (1 - 1/3*T))",
    ),
    (
        lambda guard: PoincareReport(table(), rational(), [(0, True)], guard),
        (5, 6),
        "guard",
        "PoincareReport(table=SeriesTable(prime=Prime(3), f=Polynomial(x1^2 - x2), counts=[1, 3, 9], "
        "evaluations=4), rational=RationalFunctionT(1 / (1 - 1/3*T)), checks=[(0, True)], guard=5)",
    ),
]


CASES = [(case, True) for case in FROZEN] + [(case, False) for case in MUTABLE]


@pytest.mark.parametrize("case, frozen", CASES, ids=[case[3].split("(")[0] for case, _ in CASES])
def test_record_semantics(case, frozen):
    make, (v, w), field, pinned = case
    record, twin, other = make(v), make(v), make(w)
    assert repr(record) == pinned
    assert record == twin and not record != twin
    assert record != other and not record == other
    assert record != (getattr(record, field),)
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    if frozen:
        assert hash(record) == hash(twin)
        assert record in {twin: None}
        with pytest.raises(AttributeError):
            setattr(record, field, w)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert record == twin
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, field, w)
        assert record == other


def test_a_record_is_never_a_tuple():
    assert LinExpr(FORM, "g1") != (FORM, "g1")
    assert PreparedLinear(2, 1, 3, -1) != (2, 1, 3, -1)


def test_series_table_equality_ignores_evaluations():
    assert table(evaluations=4) == table(evaluations=9)
    assert repr(table(evaluations=9)).endswith("evaluations=9)")
