"""Constructible functions and their exact integration over cell domains.

A constructible function is a finite sum of terms

    coefficient * q^(L) * product of integer-valued factors,

where the exponent L and the factors are built from integer constants,
prepared linear forms in value-group variables, and valuations ord(g) of
integer polynomials in field variables.

Integration runs innermost variable first.  A field variable is exchanged
for its valuation, which turns the integral into a value-group sum.  On a
cell with a depth-M angular condition the fiber {t in cell : ord(t - c) =
gamma} has measure q^-(gamma + M).  The unit ball is one ac-free cell whose
fibers {ord t = gamma >= 0} have measure (1 - q^-1) q^-gamma, so its
integrals are uniform in q (the integrand never reads the angular part).
Value-group sums are evaluated in closed form; bounds that reference outer
variables (prepared linear forms, modulus-1 cells only) produce new terms
in those variables, which keeps the class closed under the iteration.

A residue-enumeration oracle integrates the same expressions numerically
with certified error bounds, independently of the symbolic path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .aqring import AqElem
from .errors import (
    BudgetExceeded,
    DivergentSum,
    DomainError,
    InfiniteMeasure,
    NULL,
    NotFiberReducible,
    ParseError,
    UndefinedAtPoint,
    json_fields,
)
from .kcells import KCell, kcells_disjoint
from .padic import DEFAULT_BUDGET, INFINITY, Prime, enumerate_residues, rational_ord
from .polys import Polynomial, binom_int, difference_polys, finite_differences, poly_mul, poly_shift
from .presburger import GammaCell, PreparedLinear, cells_disjoint, intersect_cells, weighted_tail

K_SORT = "K"
GAMMA_SORT = "Gamma"


# -- integer-valued expressions ----------------------------------------------


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class LinExpr:
    """A prepared linear form applied to a named value-group variable."""

    form: PreparedLinear
    var: str


@dataclass(frozen=True)
class OrdExpr:
    """ord(g(x...)) for an integer polynomial g in named field variables."""

    poly: Polynomial
    vars: tuple[str, ...]

    def __post_init__(self):
        if len(self.vars) != self.poly.nvars:
            raise ValueError("variable names must match the polynomial arity")
        if not self.poly.is_integral():
            raise ValueError("valuation arguments must have integer coefficients")


@dataclass(frozen=True)
class IntSum:
    parts: tuple["IntExpr", ...]


@dataclass(frozen=True)
class IntScale:
    scalar: int
    arg: "IntExpr"


IntExpr = Union[IntConst, LinExpr, OrdExpr, IntSum, IntScale]


def identity_lin(var: str) -> LinExpr:
    return LinExpr(PreparedLinear(1, 0, 1, 0), var)


def _expr_free_vars(e: IntExpr) -> set[str]:
    if isinstance(e, IntConst):
        return set()
    if isinstance(e, LinExpr):
        return {e.var}
    if isinstance(e, OrdExpr):
        return {name for i, name in enumerate(e.vars) if e.poly.mentions(i)}
    if isinstance(e, IntSum):
        out = set()
        for p in e.parts:
            out |= _expr_free_vars(p)
        return out
    if isinstance(e, IntScale):
        return _expr_free_vars(e.arg)
    raise TypeError(f"not an integer expression: {e!r}")


def _expr_add_int(e: IntExpr, c: int) -> IntExpr:
    if c == 0:
        return e
    if isinstance(e, IntConst):
        return IntConst(e.value + c)
    if isinstance(e, LinExpr):
        f = e.form
        return LinExpr(PreparedLinear(f.a, f.k, f.n, f.delta + c), e.var)
    return IntSum((e, IntConst(c)))


def _expr_neg(e: IntExpr) -> IntExpr:
    if isinstance(e, IntConst):
        return IntConst(-e.value)
    if isinstance(e, LinExpr):
        f = e.form
        return LinExpr(PreparedLinear(-f.a, f.k, f.n, -f.delta), e.var)
    if isinstance(e, IntScale):
        return IntScale(-e.scalar, e.arg)
    return IntScale(-1, e)


def _eval_intexpr(e: IntExpr, point: dict, prime: Prime) -> int:
    """Exact integer value; valuation of zero raises UndefinedAtPoint."""
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, LinExpr):
        if e.var not in point:
            raise DomainError(f"no value assigned to variable {e.var}")
        return e.form.eval(int(point[e.var]))
    if isinstance(e, OrdExpr):
        values = []
        for name in e.vars:
            if name not in point:
                raise DomainError(f"no value assigned to variable {name}")
            values.append(Fraction(point[name]))
        v = rational_ord(e.poly.eval(values), prime.p)
        if v is INFINITY:
            raise UndefinedAtPoint("ord of zero inside a term with nonzero coefficient")
        return v
    if isinstance(e, IntSum):
        return sum(_eval_intexpr(p, point, prime) for p in e.parts)
    if isinstance(e, IntScale):
        return e.scalar * _eval_intexpr(e.arg, point, prime)
    raise TypeError(f"not an integer expression: {e!r}")


# -- terms and expressions -----------------------------------------------------


class Term:
    """coefficient * q^(sum of qparts) * product of zfactors."""

    __slots__ = ("coeff", "qparts", "zfactors")

    def __init__(
        self,
        coeff: AqElem,
        qparts: Sequence[IntExpr] = (),
        zfactors: Sequence[IntExpr] = (),
    ):
        self.coeff = coeff
        self.qparts = tuple(qparts)
        self.zfactors = tuple(zfactors)

    def free_vars(self) -> set[str]:
        out = set()
        for e in self.qparts + self.zfactors:
            out |= _expr_free_vars(e)
        return out

    def scaled(self, aq: AqElem) -> "Term":
        return Term(self.coeff * aq, self.qparts, self.zfactors)

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return (
            self.coeff == other.coeff
            and self.qparts == other.qparts
            and self.zfactors == other.zfactors
        )


class ConstructibleExpr:
    """A finite sum of terms with declared variable sorts."""

    def __init__(self, terms: Sequence[Term], sorts: dict[str, str] | None = None):
        self.terms = list(terms)
        self.sorts = dict(sorts or {})
        for term in self.terms:
            for e in term.qparts + term.zfactors:
                self._check_sorts(e)

    def _check_sorts(self, e: IntExpr):
        if isinstance(e, LinExpr):
            declared = self.sorts.setdefault(e.var, GAMMA_SORT)
            if declared != GAMMA_SORT:
                raise ValueError(f"{e.var} used both as field and value-group variable")
        elif isinstance(e, OrdExpr):
            for v in e.vars:
                declared = self.sorts.setdefault(v, K_SORT)
                if declared != K_SORT:
                    raise ValueError(f"{v} used both as field and value-group variable")
        elif isinstance(e, IntSum):
            for p in e.parts:
                self._check_sorts(p)
        elif isinstance(e, IntScale):
            self._check_sorts(e.arg)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "ConstructibleExpr":
        aq = c if isinstance(c, AqElem) else AqElem.from_rational(c)
        return cls([Term(aq)])

    @classmethod
    def q_exponent(cls, e: IntExpr) -> "ConstructibleExpr":
        return cls([Term(AqElem.one(), qparts=(e,))])

    @classmethod
    def factor(cls, e: IntExpr) -> "ConstructibleExpr":
        return cls([Term(AqElem.one(), zfactors=(e,))])

    @classmethod
    def ord_factor(cls, poly: Polynomial, names: Sequence[str]) -> "ConstructibleExpr":
        return cls.factor(OrdExpr(poly, tuple(names)))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "ConstructibleExpr") -> "ConstructibleExpr":
        sorts = _merge_sorts(self.sorts, other.sorts)
        return ConstructibleExpr(self.terms + other.terms, sorts)

    def __neg__(self) -> "ConstructibleExpr":
        return self.scale(AqElem.from_rational(-1))

    def __sub__(self, other: "ConstructibleExpr") -> "ConstructibleExpr":
        return self + (-other)

    def __mul__(self, other: "ConstructibleExpr") -> "ConstructibleExpr":
        sorts = _merge_sorts(self.sorts, other.sorts)
        terms = []
        for t1 in self.terms:
            for t2 in other.terms:
                terms.append(
                    Term(
                        t1.coeff * t2.coeff,
                        t1.qparts + t2.qparts,
                        t1.zfactors + t2.zfactors,
                    )
                )
        return ConstructibleExpr(terms, sorts)

    def scale(self, aq: AqElem) -> "ConstructibleExpr":
        return ConstructibleExpr([t.scaled(aq) for t in self.terms], self.sorts)

    def free_vars(self) -> set[str]:
        out = set()
        for t in self.terms:
            out |= t.free_vars()
        return out

    def __eq__(self, other):
        if not isinstance(other, ConstructibleExpr):
            return NotImplemented
        return self.terms == other.terms

    # -- evaluation ---------------------------------------------------------

    def eval(self, point: dict, prime: Prime) -> Fraction:
        """Exact value at a fully instantiated point, with q = p."""
        p = prime.p
        total = Fraction(0)
        for term in self.terms:
            if term.coeff.is_zero():
                continue
            exponent = sum(_eval_intexpr(e, point, prime) for e in term.qparts)
            value = term.coeff.eval_at(prime)
            value *= Fraction(p) ** exponent
            for f in term.zfactors:
                value *= _eval_intexpr(f, point, prime)
            total += value
        return total


def _merge_sorts(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        if out.setdefault(k, v) != v:
            raise ValueError(f"variable {k} declared with two different sorts")
    return out


def eval_constructible(f: ConstructibleExpr, point: dict, prime: Prime) -> Fraction:
    return f.eval(point, prime)


# -- domains -------------------------------------------------------------------


class _UnitBall:
    def __repr__(self):
        return "UNIT_BALL"


UNIT_BALL = _UnitBall()
_AC_FREE_SHELL = 1 - AqElem.q_power(-1)


@dataclass(frozen=True)
class BoundRef:
    """A cell bound given as a prepared linear form in an outer variable."""

    var: str
    form: PreparedLinear

    def to_json(self) -> dict:
        f = self.form
        return {"var": self.var, "a": f.a, "k": f.k, "n": f.n, "delta": f.delta}

    @classmethod
    def from_json(cls, data: dict) -> "BoundRef":
        var, a, k, n, delta = json_fields(data, "bound", var=str, a=int, k=int, n=int, delta=int)
        return cls(var, PreparedLinear(a, k, n, delta))


Bound = Union[None, int, BoundRef]


@dataclass(frozen=True)
class DomainGammaCell:
    """A value-group cell whose bounds may reference outer variables."""

    lower: Bound
    upper: Bound
    mod: int = 1
    res: int = 0

    def __post_init__(self):
        if self.mod < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.res < self.mod:
            raise ValueError("residue must satisfy 0 <= res < mod")

    def is_concrete(self) -> bool:
        return not isinstance(self.lower, BoundRef) and not isinstance(self.upper, BoundRef)

    def concrete(self) -> GammaCell:
        if not self.is_concrete():
            raise ValueError("cell has symbolic bounds")
        return GammaCell(self.lower, self.upper, self.mod, self.res)

    @classmethod
    def from_cell(cls, cell: GammaCell) -> "DomainGammaCell":
        return cls(cell.lower, cell.upper, cell.mod, cell.res)

    def to_json(self) -> dict:
        def bound(b):
            return b.to_json() if isinstance(b, BoundRef) else b

        return {"lower": bound(self.lower), "upper": bound(self.upper), "mod": self.mod, "res": self.res}

    @classmethod
    def from_json(cls, data: dict) -> "DomainGammaCell":
        def bound(b):
            return BoundRef.from_json(b) if isinstance(b, dict) else b

        bound_types = (int, dict, NULL)
        lower, upper, mod, res = json_fields(
            data, "value-group cell", lower=bound_types, upper=bound_types, mod=int, res=int
        )
        return cls(bound(lower), bound(upper), mod, res)


@dataclass
class DomainVar:
    name: str
    sort: str
    region: object  # UNIT_BALL | list[KCell] | list[DomainGammaCell]


class Domain:
    """An ordered list of variables with pairwise-disjoint cell regions.

    Regions of later variables may reference earlier value-group variables
    only through BoundRef cell bounds.  Disjointness of cells with symbolic
    bounds is the caller's responsibility; concrete cells are validated.
    """

    def __init__(self, variables: Sequence[tuple[str, str, object]], prime: Prime):
        self.prime = prime
        self.variables: list[DomainVar] = []
        seen: list[tuple[str, str]] = []
        for name, sort, region in variables:
            if name in [n for n, _ in seen]:
                raise ValueError(f"duplicate variable {name}")
            if name.startswith("__"):
                raise ValueError("variable names starting with '__' are reserved")
            if sort == K_SORT:
                region = self._check_k_region(region)
            elif sort == GAMMA_SORT:
                region = self._check_gamma_region(region, seen)
            else:
                raise ValueError(f"unknown sort {sort!r}")
            self.variables.append(DomainVar(name, sort, region))
            seen.append((name, sort))

    def _check_k_region(self, region):
        if region is UNIT_BALL:
            return UNIT_BALL
        cells = list(region)
        for cell in cells:
            if not isinstance(cell, KCell):
                raise TypeError("field regions are lists of KCell or UNIT_BALL")
            if cell.prime != self.prime:
                raise ValueError("cell prime differs from the domain prime")
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                if not kcells_disjoint(cells[i], cells[j]):
                    raise ValueError("field cells are not pairwise disjoint")
        return cells

    def _check_gamma_region(self, region, seen):
        cells = []
        for cell in region:
            if isinstance(cell, GammaCell):
                cell = DomainGammaCell.from_cell(cell)
            if not isinstance(cell, DomainGammaCell):
                raise TypeError("value-group regions are lists of cells")
            for b in (cell.lower, cell.upper):
                if isinstance(b, BoundRef):
                    if (b.var, GAMMA_SORT) not in seen:
                        raise ValueError(
                            f"bound references {b.var}, which is not an earlier "
                            "value-group variable"
                        )
            cells.append(cell)
        concrete = [c.concrete() for c in cells if c.is_concrete()]
        for i in range(len(concrete)):
            for j in range(i + 1, len(concrete)):
                if not cells_disjoint(concrete[i], concrete[j]):
                    raise ValueError("value-group cells are not pairwise disjoint")
        return cells

    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    def to_json(self) -> dict:
        out = []
        for v in self.variables:
            if v.region is UNIT_BALL:
                region = "unit_ball"
            elif v.sort == K_SORT:
                region = [c.to_json() for c in v.region]
            else:
                region = [c.to_json() for c in v.region]
            out.append({"name": v.name, "sort": v.sort, "region": region})
        return {"p": self.prime.p, "vars": out}

    @classmethod
    def from_json(cls, data: dict) -> "Domain":
        p, vars_ = json_fields(data, "domain", p=int, vars=list)
        variables = []
        for v in vars_:
            name, sort = json_fields(v, "domain variable", name=str, sort=str)
            if sort == K_SORT:
                (region,) = json_fields(v, "domain variable", region=(str, list))
                if isinstance(region, str) and region != "unit_ball":
                    raise ParseError(
                        f"the field region of {name} must be \"unit_ball\" or an array of cells, "
                        f"not {region!r}"
                    )
                region = UNIT_BALL if region == "unit_ball" else [KCell.from_json(c) for c in region]
            else:
                (region,) = json_fields(v, "domain variable", region=list)
                region = [DomainGammaCell.from_json(c) for c in region]
            variables.append((name, sort, region))
        return cls(variables, Prime(p))


# -- the symbolic integrator ---------------------------------------------------


def integrate(f: ConstructibleExpr, domain: Domain) -> AqElem:
    """Exact integral of f over the domain, Haar measure on field variables
    (normalized so the unit ball has measure 1) and counting measure on
    value-group variables."""
    names = set(domain.names())
    missing = f.free_vars() - names
    if missing:
        raise DomainError(f"integrand mentions undeclared variables: {sorted(missing)}")
    for name, sort in f.sorts.items():
        for v in domain.variables:
            if v.name == name and v.sort != sort:
                raise DomainError(f"variable {name} has sort {v.sort} in the domain")

    terms = list(f.terms)
    for var in reversed(domain.variables):
        if var.sort == K_SORT:
            terms = _integrate_field_var(terms, var, domain.prime)
        else:
            terms = _integrate_gamma_var(terms, var, domain.prime)

    total = AqElem.zero()
    for term in terms:
        if term.coeff.is_zero():
            continue
        exponent = sum(_eval_intexpr(e, {}, domain.prime) for e in term.qparts)
        value = term.coeff * AqElem.q_power(exponent)
        for fac in term.zfactors:
            value = value * AqElem.from_rational(_eval_intexpr(fac, {}, domain.prime))
        total = total + value
    return total


def _integrate_field_var(terms: list[Term], var: DomainVar, prime: Prime) -> list[Term]:
    """Exchange the field variable t for gamma = ord(t - center), one fiber
    family (center, gamma-cell, shell measure) at a time."""
    gamma_name = f"__ord_{var.name}"
    lin = IntScale(-1, identity_lin(gamma_name))
    if var.region is UNIT_BALL:
        # {ord t = gamma} without an angular condition: (1 - q^-1) q^-gamma
        fibers = [(Fraction(0), DomainGammaCell(-1, None, 1, 0), (lin,), _AC_FREE_SHELL)]
    else:
        # a depth-M angular condition leaves q^-(gamma + M); {center} is null
        fibers = [
            (c.center, DomainGammaCell(c.lower, c.upper, c.mod, c.res),
             (lin, IntConst(-c.ac_depth)), None)
            for c in var.region if c.ac_value.r != 0
        ]
    out: list[Term] = []
    for center, gcell, shell_q, shell_coeff in fibers:
        rewritten = []
        for term in terms:
            qparts = tuple(
                _reduce_ord(e, var.name, center, gamma_name, prime) for e in term.qparts
            ) + shell_q
            zfactors = tuple(_reduce_ord(e, var.name, center, gamma_name, prime) for e in term.zfactors)
            coeff = term.coeff if shell_coeff is None else term.coeff * shell_coeff
            rewritten.append(Term(coeff, qparts, zfactors))
        try:
            out.extend(_sum_over_gamma(rewritten, gamma_name, gcell, prime))
        except DivergentSum:
            if gcell.lower is None:
                raise InfiniteMeasure("integrand does not decay on a cell of infinite measure")
            raise
    return out


def _integrate_gamma_var(terms: list[Term], var: DomainVar, prime: Prime) -> list[Term]:
    out: list[Term] = []
    for cell in var.region:
        out.extend(_sum_over_gamma(terms, var.name, cell, prime))
    return out


def _reduce_ord(
    e: IntExpr, var: str, center: Fraction, gamma_name: str, prime: Prime
) -> IntExpr:
    """Replace every ord factor mentioning the field variable by its
    valuation decomposition on a cell with the given center.

    The argument must be (a monomial in other variables) * (t - center)^e,
    otherwise the integrand is not fiber-reducible on this cell.
    """
    if isinstance(e, OrdExpr):
        if var not in e.vars or not e.poly.mentions(e.vars.index(var)):
            return e
        idx = e.vars.index(var)
        shifted = e.poly.shift_var(idx, center)
        mono = shifted.single_monomial()
        if mono is None:
            raise NotFiberReducible(
                f"ord argument {e.poly.render(e.vars)} is not a monomial in "
                f"{var} - {center} on this cell"
            )
        c0, exps = mono
        parts: list[IntExpr] = []
        v0 = rational_ord(c0, prime.p)
        if v0 != 0:
            parts.append(IntConst(v0))
        for j, (name, exp) in enumerate(zip(e.vars, exps)):
            if j == idx or exp == 0:
                continue
            sub = OrdExpr(Polynomial.variable(0, 1), (name,))
            parts.append(sub if exp == 1 else IntScale(exp, sub))
        ev = exps[idx]
        if ev == 0:
            raise NotFiberReducible(
                f"ord argument degenerates at the center {center}"
            )
        lin = identity_lin(gamma_name)
        parts.append(lin if ev == 1 else IntScale(ev, lin))
        return parts[0] if len(parts) == 1 else IntSum(tuple(parts))
    if isinstance(e, IntSum):
        return IntSum(
            tuple(_reduce_ord(p, var, center, gamma_name, prime) for p in e.parts)
        )
    if isinstance(e, IntScale):
        return IntScale(e.scalar, _reduce_ord(e.arg, var, center, gamma_name, prime))
    return e


def _subst_gamma(
    e: IntExpr, var: str, const: int, slope: int
) -> tuple[int, int, tuple[IntExpr, ...]]:
    """Substitute gamma = const + slope*tau; return (c, s, syms) with
    value = c + s*tau + sum of syms, where syms do not mention var."""
    if isinstance(e, IntConst):
        return e.value, 0, ()
    if isinstance(e, LinExpr):
        if e.var != var:
            return 0, 0, (e,)
        f = e.form
        if (const - f.k) % f.n != 0 or slope % f.n != 0:
            raise DomainError(
                f"prepared form on {f.k} mod {f.n} is not defined on the whole "
                f"cell {const} + {slope}*Z"
            )
        c = f.a * ((const - f.k) // f.n) + f.delta
        s = f.a * (slope // f.n)
        return c, s, ()
    if isinstance(e, OrdExpr):
        return 0, 0, (e,)
    if isinstance(e, IntSum):
        c, s, syms = 0, 0, ()
        for p in e.parts:
            pc, ps, psyms = _subst_gamma(p, var, const, slope)
            c += pc
            s += ps
            syms += psyms
        return c, s, syms
    if isinstance(e, IntScale):
        c, s, syms = _subst_gamma(e.arg, var, const, slope)
        scaled = tuple(IntScale(e.scalar, x) for x in syms)
        return e.scalar * c, e.scalar * s, scaled
    raise TypeError(f"not an integer expression: {e!r}")


def _sum_over_gamma(
    terms: list[Term], var: str, cell: DomainGammaCell, prime: Prime
) -> list[Term]:
    """Sum the terms over one value-group variable ranging over a cell."""
    n, k = cell.mod, cell.res

    def tau_bound(bound: Bound, side: str) -> Union[None, int, IntExpr]:
        if bound is None:
            return None
        if isinstance(bound, int):
            if side == "lower":
                return (bound - k) // n + 1
            return -((k - bound) // n) - 1
        if n != 1:
            raise NotFiberReducible(
                "symbolic bounds require a modulus-1 cell (the floor of a "
                "linear form is only piecewise linear)"
            )
        shift = 1 if side == "lower" else -1
        f = bound.form
        return LinExpr(PreparedLinear(f.a, f.k, f.n, f.delta + shift), bound.var)

    a = tau_bound(cell.lower, "lower")
    b = tau_bound(cell.upper, "upper")
    if isinstance(a, int) and isinstance(b, int) and a > b:
        return []

    out: list[Term] = []
    for term in terms:
        if term.coeff.is_zero():
            continue
        e0, e1 = 0, 0
        qsyms: tuple[IntExpr, ...] = ()
        for part in term.qparts:
            c, s, syms = _subst_gamma(part, var, k, n)
            e0 += c
            e1 += s
            qsyms += syms
        factor_pieces: list[list[tuple[list[Fraction], Optional[IntExpr]]]] = []
        for fac in term.zfactors:
            c, s, syms = _subst_gamma(fac, var, k, n)
            pieces: list[tuple[list[Fraction], Optional[IntExpr]]] = []
            if c != 0 or s != 0 or not syms:
                pieces.append(([Fraction(c), Fraction(s)], None))
            for sym in syms:
                pieces.append(([Fraction(1)], sym))
            factor_pieces.append(pieces)

        base = term.coeff * AqElem.q_power(e0)
        for choice in itertools.product(*factor_pieces):
            poly = [Fraction(1)]
            syms_chosen: tuple[IntExpr, ...] = ()
            for piece_poly, sym in choice:
                poly = poly_mul(poly, piece_poly)
                if sym is not None:
                    syms_chosen += (sym,)
            for aq, extra_q, extra_z in _range_sum(poly, e1, a, b):
                out.append(
                    Term(base * aq, qsyms + extra_q, syms_chosen + extra_z)
                )
    return out


def _range_sum(
    poly: list[Fraction],
    e1: int,
    a: Union[None, int, IntExpr],
    b: Union[None, int, IntExpr],
):
    """Closed form for sum of poly(tau) * q^(e1*tau) over a <= tau <= b.

    Yields triples (AqElem multiplier, extra q-exponent parts, extra
    integer factors); symbolic endpoints contribute prepared-form parts.
    When both endpoints are symbolic the range is assumed nonempty for
    every realized value of the outer variables (telescoping convention).
    """
    if all(c == 0 for c in poly):
        return []
    if a is None and b is None:
        raise DivergentSum("sum over all integers diverges")
    if e1 <= -1:
        if a is None:
            raise DivergentSum("sum is unbounded below and the weight grows")
        parts = _tail_any(poly, a, -e1)
        if b is not None:
            parts += _negate(_tail_any(poly, _bound_plus(b, 1), -e1))
        return parts
    if e1 >= 1:
        if b is None:
            raise DivergentSum("sum is unbounded above and the weight grows")
        flipped = [c if i % 2 == 0 else -c for i, c in enumerate(poly)]
        parts = _tail_any(flipped, _bound_neg(b), e1)
        if a is not None:
            parts += _negate(_tail_any(flipped, _bound_plus(_bound_neg(a), 1), e1))
        return parts
    # e1 == 0: plain polynomial summation over a finite range
    if a is None or b is None:
        raise DivergentSum("constant weight diverges on an infinite cell")
    diffs = finite_differences(poly)
    # discrete antiderivative F(s) = sum_j d_j * C(s, j+1); the sum over
    # [a, b] telescopes to F(b+1) - F(a)
    parts = _faulhaber_at(diffs, _bound_plus(b, 1), 1)
    parts += _faulhaber_at(diffs, a, -1)
    return parts


def _negate(parts):
    return [(aq * AqElem.from_rational(-1), q, z) for aq, q, z in parts]


def _bound_plus(bound: Union[int, IntExpr], c: int) -> Union[int, IntExpr]:
    return bound + c if isinstance(bound, int) else _expr_add_int(bound, c)


def _bound_neg(bound: Union[int, IntExpr]) -> Union[int, IntExpr]:
    return -bound if isinstance(bound, int) else _expr_neg(bound)


def _tail_any(poly: list[Fraction], bound: Union[int, IntExpr], N: int):
    """Triples for sum of poly(tau) q^(-N tau) over tau >= bound, N >= 1."""
    if isinstance(bound, int):
        return [(weighted_tail(poly, bound, N), (), ())]
    # c_j(A) = (delta^j poly)(A) as polynomials in the symbolic bound A
    parts = []
    for j, diff in enumerate(difference_polys(poly)):
        for power, r in enumerate(diff):
            if r == 0:
                continue
            aq = AqElem.q_power(-N * j, r) * AqElem.geom(N, j + 1)
            parts.append((aq, (IntScale(-N, bound),), (bound,) * power))
    return parts


def _faulhaber_at(diffs: list[Fraction], bound: Union[int, IntExpr], sign: int):
    """Triples for sign * F(bound) with F(s) = sum_j diffs[j] * C(s, j+1)."""
    parts = []
    for j, d in enumerate(diffs):
        if d == 0:
            continue
        if isinstance(bound, int):
            value = d * binom_int(bound, j + 1) * sign
            if value != 0:
                parts.append((AqElem.from_rational(value), (), ()))
        else:
            # expand C(s, j+1) = s(s-1)...(s-j)/(j+1)! in powers of s
            coeffs = [Fraction(1)]
            for i in range(j + 1):
                coeffs = poly_mul(coeffs, [Fraction(-i), Fraction(1)])
            fact = 1
            for i in range(2, j + 2):
                fact *= i
            for power, r in enumerate(coeffs):
                val = d * r / fact * sign
                if val != 0:
                    parts.append((AqElem.from_rational(val), (), (bound,) * power))
    return parts


# -- the residue-enumeration oracle ---------------------------------------------


@dataclass
class OracleResult:
    """Riemann-style estimate with a certified error bound.

    value is the exact average of the integrand over the residue classes it
    could evaluate; tail_bound bounds the distance to the true integral;
    skipped counts classes where the integrand was undefined at the lift,
    boundary counts classes where membership or the integrand was not
    class-uniform.
    """

    value: Fraction
    tail_bound: Fraction
    depth: int
    classes: int
    skipped: int
    boundary: int
    skipped_measure: Fraction


def _collect_ords(f: ConstructibleExpr) -> list[OrdExpr]:
    seen: list[OrdExpr] = []

    def walk(e: IntExpr):
        if isinstance(e, OrdExpr):
            if e not in seen:
                seen.append(e)
        elif isinstance(e, IntSum):
            for p in e.parts:
                walk(p)
        elif isinstance(e, IntScale):
            walk(e.arg)

    for term in f.terms:
        if term.coeff.is_zero():
            continue
        for e in term.qparts + term.zfactors:
            walk(e)
    return seen


def _tail_fraction(W: int, dg: int, c: int, p: int) -> Fraction:
    """Exact sum of w^dg * p^((c-1)w) over w >= W, for c <= 0."""
    y = Fraction(1, p ** (1 - c))
    poly = [Fraction(1)] if dg == 0 else poly_shift([Fraction(0)] * dg + [Fraction(1)], W)
    diffs = finite_differences(poly)
    total = Fraction(0)
    for j, d in enumerate(diffs):
        total += d * y ** (W + j) / (1 - y) ** (j + 1)
    return total


def _region_status(x: Fraction, region, depth: int, p: int) -> tuple[str, bool]:
    """Classify the residue class of x at the given depth against a region.

    Returns (status, lift_member): status is "in" when the whole class lies
    in one cell, "out" when it provably misses every cell, else "boundary";
    lift_member is pointwise membership of the lift itself.
    """
    if region is UNIT_BALL:
        return "in", True
    lift_member = any(cell.contains_value(x) for cell in region)
    boundary = False
    for cell in region:
        if cell.ac_value.r == 0:
            continue  # a single point contributes no measure
        M = cell.ac_depth
        rho = rational_ord(x - cell.center, p)
        g = cell.gamma_cell()
        if rho is not INFINITY and rho <= depth - M - 1:
            if cell.contains_value(x):
                return "in", lift_member
        elif rho is not INFINITY and rho < depth:
            # the valuation is class-uniform but the angular value is not
            if g.contains(rho):
                boundary = True
        else:
            # members' valuations range over [depth, infinity]
            if intersect_cells(g, GammaCell(depth - 1, None)) is not None:
                boundary = True
    return ("boundary" if boundary else "out"), lift_member


def _validate_oracle_domain(f: ConstructibleExpr, domain: Domain):
    for v in domain.variables:
        if v.sort != K_SORT:
            raise DomainError("the oracle enumerates field variables only")
        if v.region is UNIT_BALL:
            continue
        for cell in v.region:
            if rational_ord(cell.center, domain.prime.p) < 0:
                raise DomainError("cell center lies outside the unit ball")
            if cell.ac_value.r == 0:
                continue
            if cell.lower is None:
                raise DomainError("cell is not contained in the unit ball")
            a, _ = cell.gamma_cell().tau_bounds()
            if cell.res + a * cell.mod < 0:
                raise DomainError("cell reaches valuations below 0")
    missing = f.free_vars() - set(domain.names())
    if missing:
        raise DomainError(f"integrand mentions undeclared variables: {sorted(missing)}")


def brute_force_integrate(
    f: ConstructibleExpr,
    domain: Domain,
    depth: int,
    growth: tuple = (1, 0, 0),
    budget: int = DEFAULT_BUDGET,
    refine: int = 0,
) -> OracleResult:
    """Average f over lifts of residue classes mod p^depth, with a bound on
    the distance to the true integral.

    growth = (C, c, dg) asserts |f(x)| <= C * v^dg * q^(c*v) on classes
    where some valuation argument saturates at v >= depth; c <= 0 and
    dg >= 0 must be integers.
    The per-class decay used for the bound is exact when every valuation
    argument is linear in each field variable (shifted coordinates); for
    higher-degree arguments it is a documented assumption.  refine > 0
    re-enumerates bad classes once at depth + refine.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    C, c, dg = (Fraction(x) for x in growth)
    if c.denominator != 1 or dg.denominator != 1:
        raise ValueError(f"the growth exponents c and dg must be integers, not {c} and {dg}")
    c, dg = int(c), int(dg)
    if c > 0:
        raise ValueError("the growth exponent c must be <= 0")
    if C < 0 or dg < 0:
        raise ValueError("growth bound must have C >= 0 and dg >= 0")
    _validate_oracle_domain(f, domain)
    p = domain.prime.p
    names = domain.names()
    n = len(names)
    if p ** (n * depth) > budget:
        raise BudgetExceeded(
            f"p^(n*depth) = {p}^{n * depth} exceeds the budget of {budget} points"
        )
    ords = _collect_ords(f)

    def scan_class(point: dict, d: int):
        """(value, err, skipped_count, skipped_measure, was_bad) for one class."""
        scale = Fraction(1, p ** (n * d))
        statuses = []
        for v in domain.variables:
            status, member = _region_status(point[v.name], v.region, d, p)
            if status == "out":
                return Fraction(0), Fraction(0), 0, Fraction(0), False
            statuses.append((status, member))
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
            # membership is ambiguous but f is class-constant
            err += abs(f.eval(point, domain.prime)) * scale
        if saturated:
            err += C * scale * p**d * _tail_fraction(d, dg, c, p)
        return value, err, skipped, skipped_measure, True

    total = Fraction(0)
    err_total = Fraction(0)
    skipped_total = 0
    skipped_measure_total = Fraction(0)
    bad_total = 0
    for residues in enumerate_residues(n, depth, domain.prime, budget):
        point = {name: Fraction(r) for name, r in zip(names, residues)}
        value, err, skipped, smeasure, bad = scan_class(point, depth)
        if bad and refine > 0:
            value, err, skipped, smeasure = Fraction(0), Fraction(0), 0, Fraction(0)
            step = p**depth
            for deltas in itertools.product(range(p**refine), repeat=n):
                sub = {
                    name: point[name] + delta * step
                    for name, delta in zip(names, deltas)
                }
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
