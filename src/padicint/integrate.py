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
Every value-group sum is G(b+1) - G(a) for the antidifference G of
presburger.  Bounds that reference outer variables (prepared linear forms,
modulus-1 cells only) produce one new term per power of the bound, in
those variables, which keeps the class closed under the iteration.

A residue-class oracle integrates the same expressions numerically with
certified error bounds, independently of the symbolic path: it walks the
boxes x0 + (p^k1 Z_p x ... x p^kn Z_p) as a tree, splitting one coordinate
at a time, and sums a box once f is constant on it.  f is evaluated, there
and in ConstructibleExpr.eval, by one integer pass of its compiled terms
(_Compiled) over the values of its ord and lin leaves.  Only the bound's
tail sum is the closed form weighted_tail, evaluated at q = p.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .aqring import AqElem, LaurentPoly
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
from .padic import DEFAULT_BUDGET, INFINITY, Prime, rational_ord
from .polys import Polynomial, poly_mul
from .presburger import Antidifference, GammaCell, PreparedLinear, cells_disjoint, tau_range, weighted_tail

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


def _atoms(exprs: Iterable[IntExpr]) -> Iterator[Union[LinExpr, OrdExpr]]:
    """The LinExpr and OrdExpr leaves of integer expressions, left to right."""
    for e in exprs:
        if isinstance(e, (LinExpr, OrdExpr)):
            yield e
        elif isinstance(e, IntSum):
            yield from _atoms(e.parts)
        elif isinstance(e, IntScale):
            yield from _atoms((e.arg,))
        elif not isinstance(e, IntConst):
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


def _affine(e: IntExpr, index: dict) -> tuple[int, tuple[tuple[int, int], ...]]:
    """e as c0 + sum of c_j * atom_j over the atoms numbered by index:
    (c0, ((j, c_j), ...))."""
    if isinstance(e, IntConst):
        return e.value, ()
    if isinstance(e, (LinExpr, OrdExpr)):
        return 0, ((index[e], 1),)
    if isinstance(e, IntScale):
        c, lin = _affine(e.arg, index)
        return e.scalar * c, tuple((j, e.scalar * a) for j, a in lin)
    if isinstance(e, IntSum):
        c, lin = 0, {}
        for part in e.parts:
            pc, plin = _affine(part, index)
            c += pc
            for j, a in plin:
                lin[j] = lin.get(j, 0) + a
        return c, tuple(lin.items())
    raise TypeError(f"not an integer expression: {e!r}")


def _atom_value(a: Union[LinExpr, OrdExpr], point: dict, p: int) -> int:
    """The integer value of an ord or lin leaf at a point.  An ord leaf reads
    only the variables its polynomial mentions; ord of zero raises
    UndefinedAtPoint."""
    if isinstance(a, LinExpr):
        if a.var not in point:
            raise DomainError(f"no value assigned to variable {a.var}")
        return a.form.eval(int(point[a.var]))
    values = []
    for j, name in enumerate(a.vars):
        if not a.poly.mentions(j):
            values.append(0)
        elif name not in point:
            raise DomainError(f"no value assigned to variable {name}")
        else:
            values.append(Fraction(point[name]))
    v = rational_ord(a.poly.eval(values), p)
    if v is INFINITY:
        if a.poly.is_zero():
            raise UndefinedAtPoint(
                "ord(0): the ord argument is the zero polynomial, whose valuation "
                "is undefined at every point"
            )
        raise UndefinedAtPoint("ord of zero inside a term with nonzero coefficient")
    return v


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
        for a in _atoms(self.qparts + self.zfactors):
            if isinstance(a, LinExpr):
                out.add(a.var)
            else:
                out.update(name for i, name in enumerate(a.vars) if a.poly.mentions(i))
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
            for a in _atoms(term.qparts + term.zfactors):
                if isinstance(a, LinExpr):
                    sort, names = GAMMA_SORT, (a.var,)
                else:
                    sort, names = K_SORT, a.vars
                for v in names:
                    if self.sorts.setdefault(v, sort) != sort:
                        raise ValueError(f"{v} used both as field and value-group variable")

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

    def __pow__(self, n: int) -> "ConstructibleExpr":
        if n < 0:
            raise ValueError("negative powers of a constructible function are not defined")
        out = ConstructibleExpr.constant(1)
        for _ in range(n):
            out = out * self
        return out

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
        """Exact value at a fully instantiated point, with q = p: the atom
        values at the point, then the integer pass of _Compiled."""
        p = prime.p
        compiled = _Compiled(self.terms)
        values = [_atom_value(a, point, p) for a in compiled.atoms]
        return compiled.value(values, [t.coeff.eval_at(prime) for t in compiled.terms], p)


def _merge_sorts(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        if out.setdefault(k, v) != v:
            raise ValueError(f"variable {k} declared with two different sorts")
    return out


def eval_constructible(f: ConstructibleExpr, point: dict, prime: Prime) -> Fraction:
    return f.eval(point, prime)


class _Compiled:
    """The nonzero terms of f over their distinct ord and lin leaves (the
    atoms, first seen first).  A term's q-exponent and each of its factors
    are affine forms c0 + sum c_j atom_j, so the terms at a point take one
    integer pass over the atom values."""

    __slots__ = ("terms", "atoms", "forms")

    def __init__(self, terms: Sequence[Term]):
        self.terms = [t for t in terms if not t.coeff.is_zero()]
        index: dict = {}
        for t in self.terms:
            for a in _atoms(t.qparts + t.zfactors):
                index.setdefault(a, len(index))
        self.atoms = list(index)
        self.forms = [
            (_affine(IntSum(t.qparts), index), tuple(_affine(z, index) for z in t.zfactors))
            for t in self.terms
        ]

    def powers(self, values: Sequence[int]) -> list[tuple[int, int]]:
        """(q-exponent, product of the factors) of each term at the atom values."""
        out = []
        for (c, lin), factors in self.forms:
            z = 1
            for fc, flin in factors:
                z *= fc + sum(a * values[j] for j, a in flin)
            out.append((c + sum(a * values[j] for j, a in lin), z))
        return out

    def value(self, values: Sequence[int], coeffs: Sequence[Fraction], p: int) -> Fraction:
        """f at the atom values, given each term's coefficient at q = p."""
        total = Fraction(0)
        for coeff, (e, z) in zip(coeffs, self.powers(values)):
            total += coeff * Fraction(p) ** e * z
        return total


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
            region = "unit_ball" if v.region is UNIT_BALL else [c.to_json() for c in v.region]
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


def _check_integrand(f: ConstructibleExpr, domain: Domain):
    """Every variable of f is declared, with the sort f uses it at."""
    missing = f.free_vars() - set(domain.names())
    if missing:
        raise DomainError(f"integrand mentions undeclared variables: {sorted(missing)}")
    for name, sort in f.sorts.items():
        for v in domain.variables:
            if v.name == name and v.sort != sort:
                used = "value-group" if sort == GAMMA_SORT else "field"
                raise DomainError(
                    f"variable {name} has sort {v.sort} in the domain, "
                    f"but the integrand uses it as a {used} variable"
                )


def integrate(f: ConstructibleExpr, domain: Domain) -> AqElem:
    """Exact integral of f over the domain, Haar measure on field variables
    (normalized so the unit ball has measure 1) and counting measure on
    value-group variables."""
    _check_integrand(f, domain)
    terms = list(f.terms)
    for var in reversed(domain.variables):
        if var.sort == K_SORT:
            terms = _integrate_field_var(terms, var, domain.prime)
        else:
            terms = _integrate_gamma_var(terms, var, domain.prime)

    # every variable is summed out; the ord leaves left are constants
    compiled = _Compiled(terms)
    values = [_atom_value(a, {}, domain.prime.p) for a in compiled.atoms]
    powers = compiled.powers(values)
    return _sum_terms((t.coeff, e, z) for t, (e, z) in zip(compiled.terms, powers))


def _sum_terms(parts: Iterable[tuple[AqElem, int, int]]) -> AqElem:
    """The sum of coeff * z * q^e over the parts: one numerator per
    distinct denominator, canonicalised once, then the few group results
    added.  (A fold would merge denominators and cancel at every add; one
    common denominator measured slower.)  The reduced form reached may
    differ from a fold's, as factors (1 - q^-i) are not coprime."""
    groups: dict[tuple, dict] = {}
    for coeff, e, z in parts:
        if not z:
            continue
        acc = groups.setdefault(tuple(coeff.den.items()), {})
        for ex, c in coeff.num.coeffs.items():
            ex += e
            c *= z
            acc[ex] = acc[ex] + c if ex in acc else c
    total = AqElem.zero()
    for den, acc in groups.items():
        total = total + AqElem(LaurentPoly(acc), dict(den))
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

    def symbolic(bound: BoundRef, shift: int) -> IntExpr:
        if n != 1:
            raise NotFiberReducible(
                "symbolic bounds require a modulus-1 cell (the floor of a "
                "linear form is only piecewise linear)"
            )
        f = bound.form
        return LinExpr(PreparedLinear(f.a, f.k, f.n, f.delta + shift), bound.var)

    concrete = [None if isinstance(x, BoundRef) else x for x in (cell.lower, cell.upper)]
    a, b = tau_range(*concrete, n, k)
    if isinstance(cell.lower, BoundRef):
        a = symbolic(cell.lower, 1)
    if isinstance(cell.upper, BoundRef):
        b = symbolic(cell.upper, -1)
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
        factor_pieces: list[list[tuple[list[int], Optional[IntExpr]]]] = []
        for fac in term.zfactors:
            c, s, syms = _subst_gamma(fac, var, k, n)
            pieces: list[tuple[list[int], Optional[IntExpr]]] = []
            if c != 0 or s != 0 or not syms:
                pieces.append(([c, s], None))
            for sym in syms:
                pieces.append(([1], sym))
            factor_pieces.append(pieces)

        base = term.coeff * AqElem.q_power(e0)
        for choice in itertools.product(*factor_pieces):
            poly = [1]
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
    poly: list[int],
    e1: int,
    a: Union[None, int, IntExpr],
    b: Union[None, int, IntExpr],
):
    """Sum of poly(tau) * q^(e1*tau) over a <= tau <= b as G(b+1) - G(a),
    for the antidifference G of presburger, which is 0 at an absent end.

    Yields triples (AqElem multiplier, extra q-exponent parts, extra
    integer factors), the lower endpoint's first.  With a symbolic endpoint
    the range may be empty for some outer values (a > b + 1); there the
    parts add up to -(sum over b < tau < a), not 0.
    """
    if all(c == 0 for c in poly):
        return []
    if a is None and b is None:
        raise DivergentSum("sum over all integers diverges")
    if e1 <= -1 and a is None:
        raise DivergentSum("sum is unbounded below and the weight grows")
    if e1 >= 1 and b is None:
        raise DivergentSum("sum is unbounded above and the weight grows")
    if e1 == 0 and (a is None or b is None):
        raise DivergentSum("constant weight diverges on an infinite cell")
    G = Antidifference(poly, e1)
    parts = []
    if a is not None:
        parts += _antidifference_at(G, a, -1)
    if b is not None:
        parts += _antidifference_at(G, b + 1 if isinstance(b, int) else _expr_add_int(b, 1), 1)
    return parts


def _antidifference_at(G: Antidifference, A: Union[int, IntExpr], sign: int):
    """Triples for sign * G(A): one element at an int A, else one term per
    power A^s with the q-part e1*A."""
    if isinstance(A, int):
        value = G.at(A, sign)
        return [] if value.is_zero() else [(value, (), ())]
    qpart = (IntScale(G.e1, A),) if G.e1 else ()
    return [
        (AqElem(LaurentPoly({e: sign * c for e, c in num.items()}), G.den), qpart, (A,) * s)
        for s, num in enumerate(G.nums())
        if num
    ]


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


def _region_status(x: int, region, depth: int) -> str:
    """Classify the residue class x + p^depth Z_p against a region: "in"
    when it lies inside one cell, "out" when it misses every cell, else
    "boundary".  Each cell decides exactly through KCell.ball_status, so
    "in" and "out" hold for every subclass at a greater depth too."""
    if region is UNIT_BALL:
        return "in"
    boundary = False
    for cell in region:
        if cell.ac_value.r == 0:
            continue  # a single point contributes no measure
        status = cell.ball_status(x, depth)
        if status == "in":
            return "in"
        boundary = boundary or status == "meets"
    return "boundary" if boundary else "out"


def _lift_member(x: int, region) -> bool:
    """Pointwise membership of the class representative itself."""
    return region is UNIT_BALL or any(cell.contains_value(x) for cell in region)


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
    _check_integrand(f, domain)


def brute_force_integrate(
    f: ConstructibleExpr,
    domain: Domain,
    depth: int,
    growth: tuple = (1, 0, 0),
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Average f over lifts of residue classes mod p^depth, with a bound on
    the distance to the true integral.

    The classes are walked as a tree of boxes a + (p^k1 Z_p x ... x p^kn
    Z_p).  A box is decided when some variable's region misses it (it adds
    0), or when it lies inside every region and every valuation argument g
    has ord g(a) below the least k_i of the coordinates g mentions (below
    depth when it mentions none): then f is constant on the box, and it
    adds f(a) p^(-sum k), exactly the sum of its classes mod p^depth.
    Otherwise the box splits into p boxes along one coordinate, the least
    refined of those whose region status is "boundary" or that a saturated
    argument mentions.  A box with no such coordinate left below depth
    stands for its p^(n depth - sum k) classes mod p^depth, which share its
    status, membership and value, so the result equals a scan of all
    p^(n depth) classes.  The budget bounds the boxes the walk settles
    (missed, decided or scanned): each split adds p - 1 of them, and
    passing the budget raises BudgetExceeded.  They tile Z_p^n, so there
    are never more than p^(n depth).

    Each box costs one integer pass: g(a) is computed once as an int for
    the saturation test, and a decided box is recorded by the ords of
    those ints and sum k.  f is evaluated once per distinct record, and
    the sum stays int numerators per term and power of p until the end.

    growth = (C, c, dg) asserts |f(x)| <= C * v^dg * q^(c*v) on classes
    where some valuation argument saturates at v >= depth; c <= 0 and
    dg >= 0 must be integers.  A saturated class adds its measure times
    C p^depth sum_{v >= depth} v^dg p^((c-1)v) to the bound; that tail is
    weighted_tail(v^dg, depth, 1 - c) at q = p.
    The per-class decay used for the bound is exact when every valuation
    argument is linear in each field variable (shifted coordinates); for
    higher-degree arguments it is a documented assumption.
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
    prime = domain.prime
    p = prime.p
    names = domain.names()
    regions = [v.region for v in domain.variables]
    n = len(names)
    compiled = _Compiled(f.terms)  # the oracle's domain makes every atom an OrdExpr
    args = []  # (g, its variables' coordinates, the coordinates g mentions)
    for oe in compiled.atoms:
        index = [names.index(name) for name in oe.vars]
        args.append((oe.poly, index, tuple(i for j, i in enumerate(index) if oe.poly.mentions(j))))
    powers = [p**k for k in range(depth + 1)]
    decided: Counter = Counter()  # (ords of the arguments, sum k) -> boxes whose f adds to value
    scanned: Counter = Counter()  # the same for boxes at depth whose |f| adds to the bound
    skipped = boundary = saturated_classes = 0
    partition = 1  # boxes settled or on the stack; together they tile Z_p^n
    statuses = tuple(_region_status(0, region, 0) for region in regions)
    stack = [] if "out" in statuses else [((0,) * n, (0,) * n, statuses)]
    while stack:
        point, ks, statuses = stack.pop()
        values = [g.eval_int([point[i] for i in index]) for g, index, _ in args]
        split = {i for i, status in enumerate(statuses) if status == "boundary"}
        saturated = False
        for value, (_, _, mentioned) in zip(values, args):
            if value % powers[min((ks[i] for i in mentioned), default=depth)] == 0:
                saturated = True
                split.update(mentioned)
        if not (saturated or split):
            decided[tuple(rational_ord(v, p) for v in values), sum(ks)] += 1
            continue
        below = [i for i in split if ks[i] < depth]
        if below:
            i = min(below, key=lambda i: (ks[i], i))
            partition += p - 1
            if partition > budget:
                raise BudgetExceeded(
                    f"the oracle walk to depth {depth} settles more than the budget of {budget} classes"
                )
            k = ks[i]
            child_ks = ks[:i] + (k + 1,) + ks[i + 1 :]
            for t in range(p):
                x = point[i] + t * powers[k]
                status = _region_status(x, regions[i], k + 1)
                if status != "out":
                    child = point[:i] + (x,) + point[i + 1 :]
                    stack.append((child, child_ks, statuses[:i] + (status,) + statuses[i + 1 :]))
            continue
        # the box's classes mod p^depth are scanned as one
        s = sum(ks)
        weight = p ** (n * depth - s)
        boundary += weight
        if all(_lift_member(x, region) for x, region in zip(point, regions)):
            if 0 in values:
                skipped += weight  # f is undefined at the lift
            else:
                ords = tuple(rational_ord(v, p) for v in values)
                decided[ords, s] += 1
                scanned[ords, s] += 1
        elif not saturated:
            # membership is ambiguous but f is class-constant
            scanned[tuple(rational_ord(v, p) for v in values), s] += 1
        if saturated:
            saturated_classes += weight
    coeffs = [t.coeff.eval_at(prime) for t in compiled.terms]
    scale = Fraction(1, p ** (n * depth))
    err_total = Fraction(0)
    if saturated_classes:
        tail = C * p**depth * weighted_tail([0] * dg + [1], depth, 1 - c).eval_at(p)
        err_total += saturated_classes * scale * tail
    for (ords, s), count in scanned.items():
        err_total += abs(compiled.value(ords, coeffs, p)) * Fraction(count, p**s)
    return OracleResult(
        value=_class_sum(compiled, coeffs, decided, p),
        tail_bound=err_total,
        depth=depth,
        classes=p ** (n * depth),
        skipped=skipped,
        boundary=boundary,
        skipped_measure=skipped * scale,
    )


def _class_sum(compiled: _Compiled, coeffs: Sequence[Fraction], classes: Counter, p: int) -> Fraction:
    """The sum of count * p^-s * f over classes[(atom values, s)] = count.
    Each term's sum stays int numerators keyed by the power of p until one
    Fraction per term at the end."""
    sums = [defaultdict(int) for _ in coeffs]
    for (values, s), count in classes.items():
        for acc, (e, z) in zip(sums, compiled.powers(values)):
            acc[e - s] += count * z
    total = Fraction(0)
    for coeff, acc in zip(coeffs, sums):
        if acc:
            low = min(acc)
            total += coeff * Fraction(p) ** low * sum(z * p ** (e - low) for e, z in acc.items())
    return total
