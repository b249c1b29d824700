"""Constructible functions and their exact integration over cell domains.

A constructible function is a finite sum of terms

    coefficient * q^(L) * product of integer-valued factors,

where the exponent L and each factor are affine forms c0 + sum c * leaf,
stored as (c0, {leaf: c}), over integer leaves: prepared linear forms in
value-group variables (LinExpr) and valuations ord(g) of integer
polynomials in field variables (OrdExpr).  The parser, the expression
algebra, the integrator and the oracle all carry the same forms.

Integration runs innermost variable first.  A field variable is exchanged
for its valuation, which turns the integral into a value-group sum: on a
fiber each ord leaf that mentions the variable becomes a form in the new
valuation variable and the other variables' valuations, and one
substitution puts it in place.  On a cell with a depth-M angular condition
the fiber {t in cell : ord(t - c) = gamma} has measure q^-(gamma + M).
The unit ball is one ac-free cell whose fibers {ord t = gamma >= 0} have
measure (1 - q^-1) q^-gamma, so its integrals are uniform in q (the
integrand never reads the angular part).  Every value-group sum is
G(b+1) - G(a) for the antidifference G of presburger, with the weight
c + s*tau read off each form; over a short range with two concrete ends
it is one term, a Laurent polynomial or a rational.  Bounds that reference
outer variables (prepared linear forms, modulus-1 cells only) are forms
too, and produce one new term per power of the bound, which keeps the
class closed under the iteration.  Terms are unreduced inside the engine:
coefficient products and antidifference values cancel nothing, and the
final sum (AqElem.sum) cancels once per integral.

A residue-class oracle integrates the same expressions numerically with
certified error bounds, independently of the symbolic path: it walks the
boxes x0 + (p^k1 Z_p x ... x p^kn Z_p) as a tree, splitting one coordinate
at a time, and sums a box once a Taylor test shows every valuation
argument's ord constant on it, so f is too.  f is evaluated, there,
in ConstructibleExpr.eval and for the constant leaves the integrator
leaves, by one integer pass of the same forms indexed by leaf (_Compiled)
over the leaf values.  Only the bound's tail sum is the closed form
weighted_tail, evaluated at q = p.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from .aqring import AqElem, LaurentPoly
from .errors import (
    BudgetExceeded,
    DivergentSum,
    DomainError,
    FrozenRecord,
    InfiniteMeasure,
    NULL,
    NotFiberReducible,
    ParseError,
    Record,
    UndefinedAtPoint,
    json_fields,
)
from .kcells import KCell, kcells_disjoint
from .padic import DEFAULT_BUDGET, INFINITY, Prime, rational_ord
from .polys import Polynomial, eval_terms, poly_mul, taylor_terms
from .presburger import (
    Antidifference,
    GammaCell,
    GammaCellUnion,
    LinExpr,
    PreparedLinear,
    check_convergent,
    tau_range,
    weighted_tail,
)

K_SORT = "K"
GAMMA_SORT = "Gamma"


# -- integer-valued expressions: affine forms over ord and lin leaves --------


class OrdExpr(FrozenRecord):
    """ord(g(x...)) for an integer polynomial g in named field variables."""

    __slots__ = ("poly", "vars")

    def __init__(self, poly: Polynomial, vars: tuple[str, ...]):
        if len(vars) != poly.nvars:
            raise ValueError("variable names must match the polynomial arity")
        if not poly.is_integral():
            raise ValueError("valuation arguments must have integer coefficients")
        self._freeze((poly, vars))


_IDENTITY = PreparedLinear(1, 0, 1, 0)


def identity_lin(var: str) -> LinExpr:
    return LinExpr(_IDENTITY, var)


# An integer expression is an affine form (c0, {leaf: c}), meaning c0 + the
# sum of c * leaf over its ord and lin leaves, first seen first.  A leaf
# whose coefficients cancel keeps its key at 0, so the keys are every leaf
# the expression reads.  Forms are never changed once built: terms and
# expressions share them.
Form = tuple[int, dict]
_ZERO: Form = (0, {})


def _add_into(lin: dict, other: dict, scale: int = 1) -> dict:
    """lin += scale * other, leaf by leaf."""
    for a, x in other.items():
        lin[a] = lin.get(a, 0) + scale * x
    return lin


def _add_forms(a: Form, b: Form) -> Form:
    """The form a + b, in a new dict, or the other one when a or b is
    _ZERO itself: a term without a q^(...) factor keeps _ZERO."""
    return b if a is _ZERO else a if b is _ZERO else (a[0] + b[0], _add_into(dict(a[1]), b[1]))


def _substitute(form: Form, subs: dict) -> Form:
    """form with each leaf that subs maps to a form replaced by it, in one
    pass: the new leaves take the old one's place."""
    c0, out = form[0], {}
    for leaf, c in form[1].items():
        sub = subs.get(leaf)
        if sub is None:
            out[leaf] = out.get(leaf, 0) + c
        else:
            c0 += c * sub[0]
            _add_into(out, sub[1], c)
    return c0, out


def _leaves(terms: Iterable[tuple[AqElem, Form, Sequence[Form]]]) -> dict:
    """The distinct leaves of term forms, first seen first (as dict keys)."""
    out: dict = {}
    for _, q, factors in terms:
        for _, lin in (q, *factors):
            out.update(lin)  # reuses the hashes lin stores: no __hash__ call
    return out


def _leaf_vars(leaves: Iterable[Union[LinExpr, OrdExpr]]) -> set[str]:
    """The variables that ord and lin leaves read."""
    out = set()
    for a in leaves:
        if isinstance(a, LinExpr):
            out.add(a.var)
        else:
            out.update(name for i, name in enumerate(a.vars) if a.poly.mentions(i))
    return out


def _leaf_sorts(leaves: Iterable[Union[LinExpr, OrdExpr]]) -> dict[str, str]:
    """The sort of each variable that ord and lin leaves name, first named
    first; a variable named by both kinds raises ValueError."""
    sorts: dict[str, str] = {}
    for a in leaves:
        if isinstance(a, LinExpr):
            _merge_sorts(sorts, (a.var,), GAMMA_SORT)
        else:
            _merge_sorts(sorts, a.vars, K_SORT)
    return sorts


def _merge_sorts(sorts: dict[str, str], names: Iterable[str], sort: str):
    """Add the variables names at sort to sorts, in place; a variable that
    sorts has at the other sort raises ValueError."""
    for v in names:
        if sorts.setdefault(v, sort) != sort:
            raise ValueError(f"{v} used both as field and value-group variable")


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
    """coefficient * q^q * the product of the factors, where q and each
    factor are affine forms."""

    __slots__ = ("coeff", "q", "factors")

    def __init__(self, coeff: AqElem, q: Form = _ZERO, factors: Sequence[Form] = ()):
        self.coeff = coeff
        self.q = q
        self.factors = tuple(factors)

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return self.coeff == other.coeff and self.q == other.q and self.factors == other.factors


class ConstructibleExpr:
    """A finite sum of Terms, with the sort of each variable its leaves name.
    +, *, ** and scale build new Terms, which share the operands' forms."""

    def __init__(self, terms: Sequence[Term], sorts: Optional[dict[str, str]] = None):
        self.terms = list(terms)
        if sorts is None:
            sorts = _leaf_sorts(_leaves((t.coeff, t.q, t.factors) for t in self.terms))
        self.sorts = sorts

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "ConstructibleExpr":
        aq = c if isinstance(c, AqElem) else AqElem.from_rational(c)
        return cls([Term(aq)])

    @classmethod
    def q_exponent(cls, form: Form) -> "ConstructibleExpr":
        return cls([Term(AqElem.one(), form)])

    @classmethod
    def factor(cls, form: Form) -> "ConstructibleExpr":
        return cls([Term(AqElem.one(), factors=(form,))])

    @classmethod
    def ord_factor(cls, poly: Polynomial, names: Sequence[str]) -> "ConstructibleExpr":
        return cls.factor((0, {OrdExpr(poly, tuple(names)): 1}))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "ConstructibleExpr") -> "ConstructibleExpr":
        # the sum names the operands' leaves, so it merges their sorts
        # rather than walk every term again
        sorts = dict(self.sorts)
        for v, sort in other.sorts.items():
            _merge_sorts(sorts, (v,), sort)
        return ConstructibleExpr(self.terms + other.terms, sorts)

    def __neg__(self) -> "ConstructibleExpr":
        return self.scale(AqElem.from_rational(-1))

    def __sub__(self, other: "ConstructibleExpr") -> "ConstructibleExpr":
        return self + (-other)

    def __mul__(self, other: "ConstructibleExpr") -> "ConstructibleExpr":
        terms = [
            Term(t1.coeff * t2.coeff, _add_forms(t1.q, t2.q), t1.factors + t2.factors)
            for t1 in self.terms
            for t2 in other.terms
        ]
        return ConstructibleExpr(terms)

    def __pow__(self, n: int) -> "ConstructibleExpr":
        if n < 0:
            raise ValueError("negative powers of a constructible function are not defined")
        out = ConstructibleExpr.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, aq: AqElem) -> "ConstructibleExpr":
        terms = [Term(t.coeff * aq, t.q, t.factors) for t in self.terms]
        return ConstructibleExpr(terms, self.sorts)

    def free_vars(self) -> set[str]:
        return _leaf_vars(_leaves((t.coeff, t.q, t.factors) for t in self.terms))

    def __eq__(self, other):
        if not isinstance(other, ConstructibleExpr):
            return NotImplemented
        return self.terms == other.terms

    # -- evaluation ---------------------------------------------------------

    def eval(self, point: dict, prime: Prime) -> Fraction:
        """Exact value at a fully instantiated point, with q = p: the integer
        pass of _Compiled over the leaf values at the point."""
        return _Compiled([(t.coeff, t.q, t.factors) for t in self.terms]).at(point, prime)


def eval_constructible(f: ConstructibleExpr, point: dict, prime: Prime) -> Fraction:
    return f.eval(point, prime)


class _Compiled:
    """The nonzero terms (coefficient, q-exponent form, factor forms) over
    their distinct ord and lin leaves (the atoms, first seen first), each
    form indexed as (c0, ((j, c_j), ...)): the terms at a point take one
    integer pass over the atom values."""

    __slots__ = ("coeffs", "atoms", "forms")

    def __init__(self, terms: Sequence[tuple[AqElem, Form, Sequence[Form]]]):
        terms = [t for t in terms if not t[0].is_zero()]
        index: dict = {}

        def indexed(form: Form):
            return form[0], tuple((index.setdefault(a, len(index)), c) for a, c in form[1].items())

        self.coeffs = [coeff for coeff, _, _ in terms]
        self.forms = [(indexed(q), tuple(indexed(z) for z in factors)) for _, q, factors in terms]
        self.atoms = list(index)

    def powers(self, values: Sequence[int]) -> list[tuple[int, int]]:
        """(q-exponent, product of the factors) of each term at the atom values."""
        out = []
        for (c, lin), factors in self.forms:
            z = 1
            for fc, flin in factors:
                z *= fc + sum(a * values[j] for j, a in flin)
            out.append((c + sum(a * values[j] for j, a in lin), z))
        return out

    def at(self, point: dict, prime: Prime) -> Fraction:
        """f at a fully instantiated point, with q = p."""
        values = tuple(_atom_value(a, point, prime.p) for a in self.atoms)
        coeffs = [c.eval_at(prime) for c in self.coeffs]
        return _class_sums(self, coeffs, prime.p, Counter({(values, 0): 1}), Counter())[0]


# -- domains -------------------------------------------------------------------


class _UnitBall:
    def __repr__(self):
        return "UNIT_BALL"


UNIT_BALL = _UnitBall()
# ord t = gamma >= 0: the fibers of the unit ball
_ORD_AT_LEAST_0 = GammaCell(-1, None)
_AC_FREE_SHELL = 1 - AqElem.q_power(-1)


class DomainVar(Record):
    __slots__ = ("name", "sort", "region")

    def __init__(self, name: str, sort: str, region: object):
        self.name = name
        self.sort = sort
        self.region = region  # UNIT_BALL | list[KCell] | list[GammaCell]


class Domain:
    """An ordered list of variables with pairwise-disjoint cell regions.

    Regions of later variables may reference earlier value-group variables
    only through cell bounds that are LinExpr forms in them, the type of
    an integrand's lin leaves.  Disjointness of cells with symbolic
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
        cells, concrete = list(region), []
        for cell in cells:
            if not isinstance(cell, GammaCell):
                raise TypeError("value-group regions are lists of cells")
            refs = [b for b in (cell.lower, cell.upper) if isinstance(b, LinExpr)]
            for b in refs:
                if (b.var, GAMMA_SORT) not in seen:
                    raise ValueError(
                        f"bound references {b.var}, which is not an earlier "
                        "value-group variable"
                    )
            if not refs:
                concrete.append(cell)
        GammaCellUnion(concrete)  # raises ValueError unless pairwise disjoint
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
            if sort not in (K_SORT, GAMMA_SORT):
                raise ParseError(
                    f"domain variable {name} has the unknown sort {sort!r}, not \"K\" or \"Gamma\""
                )
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
                region = [_domain_cell_from_json(c) for c in region]
            variables.append((name, sort, region))
        return cls(variables, Prime(p))


def _domain_cell_from_json(data) -> GammaCell:
    """A value-group cell of a domain file, whose bounds may be LinExpr
    objects."""
    bound_types = (int, dict, NULL)
    lower, upper, mod, res = json_fields(
        data, "value-group cell", lower=bound_types, upper=bound_types, mod=int, res=int
    )
    lower, upper = (LinExpr.from_json(b) if isinstance(b, dict) else b for b in (lower, upper))
    return GammaCell(lower, upper, mod, res)


# -- the symbolic integrator ---------------------------------------------------


def _check_integrand(f: ConstructibleExpr, domain: Domain) -> list:
    """Every variable of f is declared, with the sort f uses it at; returns
    the terms of f as (coefficient, q form, factor forms)."""
    terms = [(t.coeff, t.q, t.factors) for t in f.terms]
    missing = _leaf_vars(_leaves(terms)) - set(domain.names())
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
    return terms


def integrate(f: ConstructibleExpr, domain: Domain) -> AqElem:
    """Exact integral of f over the domain, Haar measure on field variables
    (normalized so the unit ball has measure 1) and counting measure on
    value-group variables."""
    terms = _check_integrand(f, domain)
    for var in reversed(domain.variables):
        if var.sort == K_SORT:
            terms = _integrate_field_var(terms, var, domain.prime)
        else:
            terms = _integrate_gamma_var(terms, var, domain.prime)

    # every variable is summed out; the ord leaves left are constants
    compiled = _Compiled(terms)
    values = [_atom_value(a, {}, domain.prime.p) for a in compiled.atoms]
    return AqElem.sum((c, e, z) for c, (e, z) in zip(compiled.coeffs, compiled.powers(values)))


def _integrate_field_var(terms: list, var: DomainVar, prime: Prime) -> list:
    """Exchange the field variable t for gamma = ord(t - center), one fiber
    family (center, gamma-cell, shell measure) at a time."""
    gamma = identity_lin(f"__ord_{var.name}")
    if var.region is UNIT_BALL:
        # {ord t = gamma} without an angular condition: (1 - q^-1) q^-gamma
        fibers = [(Fraction(0), _ORD_AT_LEAST_0, 0, _AC_FREE_SHELL)]
    else:
        # a depth-M angular condition leaves q^-(gamma + M); {center} is
        # null.  No fiber reads the angular value, so the cells that differ
        # only in it are one family, scaled by their number.
        families = Counter((c.center, c.gamma_cell(), -c.ac_depth) for c in var.region if c.ac_value.r != 0)
        fibers = [(*key, None if k == 1 else AqElem.from_rational(k)) for key, k in families.items()]
    out: list = []
    for center, gcell, shell_q, shell_coeff in fibers:
        ords = [a for a in _leaves(terms) if isinstance(a, OrdExpr)]
        subs = {a: _reduce_ord(a, var.name, center, gamma, prime) for a in ords}  # None: t is absent
        rewritten = []
        for coeff, q, factors in terms:
            c, lin = _substitute(q, subs)
            lin[gamma] = lin.get(gamma, 0) - 1
            rewritten.append((
                coeff if shell_coeff is None else coeff._times(shell_coeff),
                (c + shell_q, lin),
                tuple(_substitute(z, subs) for z in factors),
            ))
        try:
            out.extend(_sum_over_gamma(rewritten, gamma.var, gcell, prime))
        except DivergentSum:
            if gcell.lower is None:
                raise InfiniteMeasure("integrand does not decay on a cell of infinite measure")
            raise
    return out


def _integrate_gamma_var(terms: list, var: DomainVar, prime: Prime) -> list:
    return [t for cell in var.region for t in _sum_over_gamma(terms, var.name, cell, prime)]


def _reduce_ord(leaf: OrdExpr, var: str, center: Fraction, gamma: LinExpr, prime: Prime) -> Optional[Form]:
    """The form of one ord leaf on the fiber ord(t - center) = gamma of the
    field variable t, or None when the leaf does not mention t.

    The argument must be (a monomial in other variables) * (t - center)^e,
    otherwise the integrand is not fiber-reducible on this cell.
    """
    if var not in leaf.vars or not leaf.poly.mentions(leaf.vars.index(var)):
        return None
    idx = leaf.vars.index(var)
    mono = leaf.poly.shift_var(idx, center).single_monomial()
    if mono is None:
        raise NotFiberReducible(
            f"ord argument {leaf.poly.render(leaf.vars)} is not a monomial in "
            f"{var} - {center} on this cell"
        )
    c0, exps = mono
    if exps[idx] == 0:
        raise NotFiberReducible(f"ord argument degenerates at the center {center}")
    lin: dict = {}
    for j, exp in enumerate(exps):
        if j != idx and exp:
            # ord(x_j) as the parser reads it, over the names up to x_j
            _add_into(lin, {OrdExpr(Polynomial.variable(j, j + 1), leaf.vars[: j + 1]): exp})
    lin[gamma] = exps[idx]
    return rational_ord(c0, prime.p), lin


def _sum_over_gamma(terms: list, var: str, cell: GammaCell, prime: Prime) -> list:
    """Sum the terms over one value-group variable ranging over a cell."""
    n, k = cell.mod, cell.res

    def split(form: Form) -> tuple[int, int, dict]:
        """form at var = k + n*tau as c + s*tau + the rest, which does not
        mention var."""
        c, s, rest = form[0], 0, {}
        for leaf, x in form[1].items():
            if not (isinstance(leaf, LinExpr) and leaf.var == var):
                rest[leaf] = x
                continue
            f = leaf.form
            if (k - f.k) % f.n != 0 or n % f.n != 0:
                raise DomainError(
                    f"prepared form on {f.k} mod {f.n} is not defined on the whole "
                    f"cell {k} + {n}*Z"
                )
            c += x * (f.a * ((k - f.k) // f.n) + f.delta)
            s += x * f.a * (n // f.n)
        return c, s, rest

    # a symbolic end is the cell's own bound as a form: tau = gamma on mod 1
    symbolic = [isinstance(x, LinExpr) for x in (cell.lower, cell.upper)]
    if any(symbolic) and n != 1:
        raise NotFiberReducible(
            "symbolic bounds require a modulus-1 cell (the floor of a "
            "linear form is only piecewise linear)"
        )
    a, b = tau_range(*(None if sym else x for sym, x in zip(symbolic, (cell.lower, cell.upper))), n, k)
    if symbolic[0]:
        a = (1, {cell.lower: 1})
    if symbolic[1]:
        b = (-1, {cell.upper: 1})
    if isinstance(a, int) and isinstance(b, int) and a > b:
        return []

    out: list = []
    for coeff, q, factors in terms:
        if coeff.is_zero():
            continue
        e0, e1, qrest = split(q)
        factor_pieces = []  # each factor as c + s*tau and the rest, dropping a zero side
        for fac in factors:
            c, s, rest = split(fac)
            pieces = [([c, s], None)] if c or s or not rest else []
            if rest:
                pieces.append(([1], (0, rest)))
            factor_pieces.append(pieces)

        base = coeff._times_unit(LaurentPoly.monomial(e0)) if e0 else coeff
        for choice in itertools.product(*factor_pieces):
            poly, chosen = [1], ()
            for piece, rest in choice:
                poly = poly_mul(poly, piece)
                if rest is not None:
                    chosen += (rest,)
            for aq, (qc, qlin), extra_z in _range_sum(poly, e1, a, b):
                out.append((base._times(aq), (qc, _add_into(dict(qrest), qlin)), chosen + extra_z))
    return out


def _range_sum(poly: list[int], e1: int, a: Union[None, int, Form], b: Union[None, int, Form]):
    """Sum of poly(tau) * q^(e1*tau) over a <= tau <= b as G(b+1) - G(a),
    for the antidifference G of presburger, which is 0 at an absent end.

    Returns terms (unreduced AqElem multiplier, q-exponent form, factor
    forms).  With no symbolic end that is at most one term, G.between(a,
    b) as a constant: a Laurent polynomial when both ends are ints, unless
    the range is longer than G's two endpoint elements, which are then the
    terms.  With a symbolic end it is the terms of each end's G, the lower
    end's first; the range may then be empty for some outer values (a > b
    + 1), where the terms add up to -(sum over b < tau < a), not 0.
    """
    if all(c == 0 for c in poly):
        return []
    check_convergent(a, b, e1)
    G = Antidifference(poly, e1)
    # a long int range keeps its two endpoint elements, which have at most
    # 4*len + 2 monomials between them (len numerator and len + 1
    # denominator monomials each): its b - a + 1 expanded monomials would
    # be multiplied in full by every later elimination
    concrete = not isinstance(a, tuple) and not isinstance(b, tuple)
    if concrete and (a is None or b is None or not e1 or b - a < 4 * len(G.coeffs) + 2):
        value = G.between(a, b)
        return [] if value.is_zero() else [(value, _ZERO, ())]
    parts = []
    if a is not None:
        parts += _antidifference_at(G, a, -1)
    if b is not None:
        parts += _antidifference_at(G, b + 1 if isinstance(b, int) else (b[0] + 1, b[1]), 1)
    return parts


def _antidifference_at(G: Antidifference, A: Union[int, Form], sign: int):
    """Terms for sign * G(A), unreduced: one element at an int A, else one
    term per power A^s with the q-exponent e1*A."""
    if isinstance(A, int):
        value = G.at(A, sign)
        return [] if value.is_zero() else [(value, (0, {}), ())]
    qform = (G.e1 * A[0], _add_into({}, A[1], G.e1)) if G.e1 else (0, {})
    return [
        (AqElem._reduced(LaurentPoly({e: sign * c for e, c in num.items()}), G.den), qform, (A,) * s)
        for s, num in enumerate(G.nums())
        if num
    ]


# -- the residue-enumeration oracle ---------------------------------------------


class OracleResult(Record):
    """Riemann-style estimate with a certified error bound.

    value is the exact average of the integrand over the residue classes it
    could evaluate; tail_bound bounds the distance to the true integral;
    skipped counts classes where the integrand was undefined at the lift,
    boundary counts classes that straddle a cell boundary or on which some
    valuation argument has ord >= depth, so that membership or the
    integrand is not known from the class alone.  Every field is what a
    scan of each class mod p^depth gives, however the walk tiles them.
    classes is p^(n depth), the residue classes mod p^depth the result
    stands for, not the work done: the budget counts the boxes the walk
    settles, never more than that and most often far fewer.
    """

    __slots__ = ("value", "tail_bound", "depth", "classes", "skipped", "boundary", "skipped_measure")

    def __init__(
        self, value: Fraction, tail_bound: Fraction, depth: int, classes: int, skipped: int,
        boundary: int, skipped_measure: Fraction,
    ):
        self.value = value
        self.tail_bound = tail_bound
        self.depth = depth
        self.classes = classes
        self.skipped = skipped
        self.boundary = boundary
        self.skipped_measure = skipped_measure


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


def _validate_oracle_domain(f: ConstructibleExpr, domain: Domain) -> list:
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
    return _check_integrand(f, domain)


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
    Z_p).  A box is missed when some variable's region misses it (it adds
    0).  Otherwise each valuation argument g is certified when ord g is
    constant on the lifts of the box: when v = ord g(a) is below the least
    k_i of the coordinates g mentions (depth when it mentions none), and
    for g of degree >= 2 when v < ord c_b(a) + sum b_i k_i for every
    b != 0 over the coordinates below depth, with c_b = (d^b / b!) g
    (polys.taylor_terms); a coordinate at depth has one lift.
    g is 0 on the lifts when g(a) and all those c_b(a) are 0.  The box is
    decided when it lies inside every region and every g is certified with
    v < depth: f is constant on it, and it adds f(a) p^(-sum k), exactly the
    sum of its classes mod p^depth.  Otherwise it splits into p boxes along
    one coordinate below depth, the least refined (the lowest index first)
    of the coordinates that every failing b of some g with g(a) = 0 is
    supported on.  A split along any other coordinate leaves each child's
    centre on the hyperplanes x_j = a_j of those coordinates, where every
    c_b(a) left in the expansion is 0, so g is 0 there again and no child
    can be decided.  Where no such g names a coordinate, the box splits
    along the least refined of those whose region status is "boundary",
    that an uncertified affine argument mentions, or on which a failing b
    is supported.  A box with no such coordinate is scanned as one: it
    stands for its p^(n depth - sum k) classes mod p^depth, which share its
    status, membership, value and saturation (some v >= depth, or g = 0 on
    it), so the result equals a scan of all p^(n depth) classes, field by
    field, whichever coordinate each split takes.
    So q^(-ord(x1^2)) on Z_3 at depth 18 settles 37 boxes, where deciding
    only for v below the least k_i settles 39,365, and q^(-ord(x1*x2)) on
    Z_2^2 at depth 10 settles 120, where splitting the least refined
    coordinate refines x1 once per level of x2 and settles 4,584.
    The budget bounds the boxes the walk settles (missed, decided or
    scanned), the root box first: each split adds p - 1 of them, and
    passing the budget raises BudgetExceeded.  They tile Z_p^n, so there
    are never more than p^(n depth).  The powers p^k are made as the splits
    reach level k, so the budget bounds the memory too.

    Each box costs one integer pass and builds no Fraction: g(a) is
    computed once as an int, from the int terms of g read once per call,
    the region tests run on ints (KCell.ball_status) and only on the
    children of a coordinate whose status is "boundary" (an "in" holds for
    every child), and a decided box is recorded by the ords of those ints
    and sum k.  Only an argument of degree >= 2 whose first test fails
    evaluates its Taylor coefficients.  f is evaluated once per distinct
    record of the decided and scanned boxes, and the value and the scanned
    boxes' |f| each stay one int, over the lcm of the coefficients'
    denominators and one power of p, until one Fraction each at the end.

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
    forms = _validate_oracle_domain(f, domain)
    prime = domain.prime
    p = prime.p
    names = domain.names()
    regions = [v.region for v in domain.variables]
    n = len(names)
    compiled = _Compiled(forms)  # the oracle's domain makes every atom an OrdExpr
    position = {name: i for i, name in enumerate(names)}
    # (the terms of g over the coordinates, the coordinates g mentions, and
    # (b, its coordinates, the terms of c_b) for the Taylor coefficients of
    # g, filled at the first box that needs them, or None when g is affine)
    args = []
    for oe in compiled.atoms:
        # a monomial reads only the names g mentions, which the domain
        # declares; ord(x3) also names x1 and x2
        terms = tuple(
            (coeff, tuple((position[oe.vars[j]], e) for j, e in mono)) for coeff, mono in oe.poly.int_terms()
        )
        affine = all(sum(e for _, e in mono) <= 1 for _, mono in terms)
        args.append((terms, tuple({i for _, mono in terms for i, _ in mono}), None if affine else []))
    powers = {0: 1, depth: p**depth}  # p^k for depth and the levels the walk has reached
    decided: Counter = Counter()  # (ords of the arguments, sum k) -> boxes whose f adds to value
    scanned: Counter = Counter()  # the same for boxes at depth whose |f| adds to the bound
    skipped = boundary = saturated_classes = 0
    partition = 1  # boxes settled or on the stack; together they tile Z_p^n
    too_many = f"the oracle walk to depth {depth} settles more than the budget of {budget} boxes"
    if partition > budget:
        raise BudgetExceeded(too_many)
    statuses = tuple(_region_status(0, region, 0) for region in regions)
    stack = [] if "out" in statuses else [((0,) * n, (0,) * n, statuses)]
    while stack:
        point, ks, statuses = stack.pop()
        values = [eval_terms(terms, point) for terms, _, _ in args]
        split = {i for i, status in enumerate(statuses) if status == "boundary"}
        shared = set()  # coordinates that each failing b of some g with g(a) = 0 mentions
        saturated = False  # some argument has ord >= depth on the box, if nothing splits
        for value, (terms, mentioned, taylor) in zip(values, args):
            if len(mentioned) == 1:  # most arguments mention one coordinate
                least = ks[mentioned[0]]
            else:
                least = min((ks[i] for i in mentioned), default=depth)
            if value % powers[least]:
                continue  # ord g(a) is below every k_i g mentions, so ord g is constant
            # the Taylor test below adds nothing when g is affine, has one lift
            # or splits the box anyway, or when g(a) = 0 and g is a polynomial
            # in one coordinate, which vanishes on no ball
            if (
                taylor is None or least == depth or split.issuperset(mentioned)
                or (value == 0 and len(mentioned) == 1)
            ):
                saturated = True
                split.update(mentioned)
                continue
            # ord g = v on the box when v < ord c_b(a) + sum b_i k_i for every
            # b != 0 over the coordinates below depth; g = 0 on it when g(a)
            # and all those c_b(a) are 0
            if not taylor:  # the highest orders first: they fail most often
                table = [(b, tuple(i for i, _ in b), cb) for b, cb in taylor_terms(terms).items()]
                taylor += sorted(table, key=lambda t: -sum(e for _, e in t[0]))
            v = rational_ord(value, p)
            saturated = saturated or v >= depth
            common = None  # where g(a) = 0: the coordinates every failing b mentions
            for b, coords, cb_terms in taylor:
                w = 0
                for i, e in b:
                    if ks[i] == depth:
                        break  # a coordinate at depth has one lift
                    w += e * ks[i]
                else:
                    if value == 0:
                        failing = eval_terms(cb_terms, point) != 0
                    else:
                        failing = v >= w and eval_terms(cb_terms, point) % p ** (v - w + 1) != 0
                    if failing:
                        split.update(coords)
                        if value == 0:
                            common = set(coords) if common is None else common.intersection(coords)
                        if not common and split.issuperset(mentioned):
                            break  # no other b can add to split or to common
            if common:
                shared |= common
        if not (saturated or split):
            decided[tuple(rational_ord(v, p) for v in values), sum(ks)] += 1
            continue
        # a g with g(a) = 0 stays 0 at the centre of every child that keeps a
        # coordinate its failing b all mention, so one of those splits first
        below = shared or [i for i in split if ks[i] < depth]
        if below:
            i = min(below, key=lambda i: (ks[i], i))
            partition += p - 1
            if partition > budget:
                raise BudgetExceeded(too_many)
            k = ks[i]
            if k + 1 not in powers:
                powers[k + 1] = powers[k] * p
            child_ks = ks[:i] + (k + 1,) + ks[i + 1 :]
            inside = statuses[i] == "in"  # so is every child: its status is inherited
            for t in range(p):
                x = point[i] + t * powers[k]
                child = point[:i] + (x,) + point[i + 1 :]
                if inside:
                    stack.append((child, child_ks, statuses))
                    continue
                status = _region_status(x, regions[i], k + 1)
                if status != "out":
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
    coeffs = [c.eval_at(prime) for c in compiled.coeffs]
    value, tail_bound = _class_sums(compiled, coeffs, p, decided, scanned)
    if saturated_classes:
        # measure saturated_classes p^(-n depth) times C p^depth times the tail
        tail = weighted_tail([0] * dg + [1], depth, 1 - c).eval_at(p)
        num, den = saturated_classes * C.numerator * tail.numerator, C.denominator * tail.denominator
        tail_bound += Fraction(num, den * p ** ((n - 1) * depth))
    return OracleResult(
        value=value,
        tail_bound=tail_bound,
        depth=depth,
        classes=p ** (n * depth),
        skipped=skipped,
        boundary=boundary,
        skipped_measure=Fraction(skipped, p ** (n * depth)),
    )


def _class_sums(
    compiled: _Compiled, coeffs: Sequence[Fraction], p: int, classes: Counter, scans: Counter
) -> tuple[Fraction, Fraction]:
    """(the sum of count * p^-s * f over classes[(atom values, s)] = count,
    the sum of count * p^-s * |f| over scans[(atom values, s)] = count).
    f is evaluated once per record of either: its terms add into one int
    over the lcm of the coefficients' denominators and the least power of p
    of every record, and one Fraction is built per sum; no classes give 0."""
    scale = lcm(*(c.denominator for c in coeffs))
    weights = [c.numerator * (scale // c.denominator) for c in coeffs]
    rows = [(record, compiled.powers(record[0])) for record in {**classes, **scans}]
    low = min((e - record[1] for record, row in rows for e, _ in row), default=0)
    total = absolute = 0
    for record, row in rows:
        shift = record[1] + low
        num = sum(w * z * p ** (e - shift) for w, (e, z) in zip(weights, row))
        total += classes[record] * num
        absolute += scans[record] * abs(num)
    if low >= 0:
        return Fraction(total * p**low, scale), Fraction(absolute * p**low, scale)
    return Fraction(total, scale * p**-low), Fraction(absolute, scale * p**-low)
