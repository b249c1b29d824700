"""Exact p-adic cell measures, constructible integration, Poincare series.

Everything is exact: field points are rationals inside Q_p, measures and
integrals live in the ring Z[q, q^-1, 1/(1-q^-i)], counts are integers,
and every symbolic result can be cross-checked against residue-enumeration
oracles shipped alongside.
"""

from importlib import import_module

from .aqring import AqElem, LaurentPoly, aq_add, aq_eval, aq_mul
from .errors import (
    BudgetExceeded,
    DivergentSum,
    DomainError,
    EmptySet,
    InfiniteMeasure,
    NotFiberReducible,
    PadicIntError,
    ParseError,
    UndefinedAtPoint,
)
from .integrate import (
    ConstructibleExpr,
    Domain,
    DomainGammaCell,
    LinExpr,
    OracleResult,
    OrdExpr,
    Term,
    UNIT_BALL,
    brute_force_integrate,
    eval_constructible,
    identity_lin,
    integrate,
)
from .kcells import (
    KCell,
    kcell_contains,
    kcell_measure,
    kcells_disjoint,
    partition_unit_ball,
)
from .padic import (
    DEFAULT_BUDGET,
    INFINITY,
    AngularResidue,
    ExtendedInteger,
    PAdicPoint,
    Prime,
    ac_of,
    enumerate_residues,
    is_prime,
    ord_of,
    rational_ac,
    rational_ord,
)
from .polys import Polynomial
from .presburger import (
    BoundRef,
    GammaCell,
    GammaCellUnion,
    PreparedLinear,
    cell_cardinality,
    cells_disjoint,
    gamma_weight_sum,
    geom_sum,
    intersect_cells,
    prepared_eval,
    weighted_sum,
    wellorder_less,
    wellorder_min,
    wellorder_min_product,
)

__version__ = "0.1.0"

# poincare is imported on first use of it or of one of its names, so that no
# CLI command but poincare compiles it
_POINCARE_NAMES = (
    "poincare", "PoincareReport", "RationalFunctionT", "SeriesTable", "UNDETERMINED", "count_Nm",
    "fit_rational", "measure_identity_check", "poincare_report", "series_table",
)
__all__ = [name for name in globals() if not name.startswith("_")] + list(_POINCARE_NAMES)


def __getattr__(name):
    if name in _POINCARE_NAMES:
        poincare = import_module(f"{__name__}.poincare")
        return poincare if name == "poincare" else getattr(poincare, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_POINCARE_NAMES))
