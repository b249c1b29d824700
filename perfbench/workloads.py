"""Seeded op lists for the three workloads.

An op is what one `padicint` CLI call does: the integrand or polynomial
text, the domain JSON and the call parameters, plus the structured
description its independent reference needs.  Each workload is a fixed
list of slots.  The seed picks the values that leave the work alone, and a
second generator, the same for every seed, picks those that set it, so two
seeds give different inputs of the same shape and cost.

unit_ball    symbolic integrate over n = 1..4 field variables on the unit
             ball at p in {2, 3, 5, 7, 11}; work grows as (p-1)^n.
cell_sums    symbolic integrate over value-group cells with concrete and
             dependent (BoundRef) bounds, some with field variables on
             off-centre cells; work does not depend on p.
residue_scan the residue-enumeration oracle on 1-2 field variables and
             poincare_report on the acceptance corpora.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from reference import Affine, Coord, RefTerm, ord_p, shell_sup

WORKLOADS = ("unit_ball", "cell_sums", "residue_scan")


@dataclass(frozen=True)
class Op:
    id: str
    kind: str  # "integrate", "oracle" or "poincare"
    text: str  # integrand or polynomial
    domain: Optional[dict]  # Domain JSON (integrate, oracle)
    params: tuple  # oracle: (depth, (C, c, dg)); poincare: (p, mmax, guard, check_mmax)
    ref: tuple  # what the reference needs, by kind
    cli: bool  # part of the workload's fixed CLI sample


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """The op list of one workload for one seed; tiny keeps a few slots of
    every shape, for the smoke run."""
    # The seed picks values that leave the work alone (coefficients,
    # residues, centres, offsets); cost_rng, the same for every seed, picks
    # what sets the work (weights, bounds, cell sizes, p where it matters),
    # so that two seeds cost the same up to a few percent.
    rng = random.Random(f"{workload}:{seed}")
    cost_rng = random.Random(f"{workload}:cost")
    if workload == "unit_ball":
        return _unit_ball(rng, cost_rng, tiny)
    if workload == "cell_sums":
        return _cell_sums(rng, cost_rng, tiny)
    if workload == "residue_scan":
        return _residue_scan(rng, cost_rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


# -- rendering -------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """An integer-valued atom: its text and its value as an affine form."""

    text: str
    form: Affine


def _signed(parts) -> str:
    """Join (scalar, text) pairs as 'a*t1 - t2 + 3'."""
    out = []
    for scalar, text in parts:
        if scalar == 0:
            continue
        mag = abs(scalar)
        body = text if mag == 1 and text else (f"{mag}*{text}" if text else str(mag))
        if not out:
            out.append(body if scalar > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if scalar > 0 else f"- {body}")
    return " ".join(out) if out else "0"


def _term(coeff: int, qconst: int, qparts, factors):
    """Text (with its sign) and RefTerm of coeff * q^(qconst + sum s*atom) *
    product of factor atoms."""
    pieces = []
    if qparts or qconst:
        exponent = _signed([(s, a.text) for s, a in qparts] + [(qconst, "")])
        pieces.append(f"q^({exponent})")
    pieces += [a.text for a in factors]
    mag = abs(coeff)
    if mag != 1 or not pieces:
        pieces.insert(0, str(mag))
    slopes: dict = {}
    const = qconst
    for s, a in qparts:
        const += s * a.form.const
        for name, c in a.form.coeffs:
            slopes[name] = slopes.get(name, 0) + s * c
    ref = RefTerm(
        coeff,
        const,
        tuple(sorted((n, c) for n, c in slopes.items() if c)),
        tuple(a.form for a in factors),
    )
    return coeff, "*".join(pieces), ref


def _integrand(terms) -> tuple:
    """Sum of _term triples; the first term must be positive so the text
    never starts with '-' (the CLI would read it as an option)."""
    if terms[0][0] <= 0:
        raise ValueError("the first term needs a positive coefficient")
    text = _signed([(1 if c > 0 else -1, body) for c, body, _ in terms])
    return text, tuple(ref for _, _, ref in terms)


def _ord_atom(var: str, w: int, u: int, e: int, p: int) -> Atom:
    """ord((w*x - u)^e) on a cell centred at u/w: e*(ord_p(w) + rho)."""
    head = var if w == 1 else f"{w}*{var}"
    body = head + ("" if u == 0 else (f" - {u}" if u > 0 else f" + {-u}"))
    if e > 1:
        body = f"({body})^{e}"
    return Atom(f"ord({body})", Affine(e * ord_p(w, p), ((var, e),)))


def _mono_atom(exps: dict) -> Atom:
    """ord(x1^e1*x2^e2...) on the unit ball: sum e_i*rho_i."""
    body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in exps.items())
    return Atom(f"ord({body})", Affine(0, tuple(exps.items())))


def _lin_atom(var: str, a: int, k: int, n: int, delta: int) -> Atom:
    form = Affine(delta, ((var, a),), None if n == 1 else (k, n))
    if n == 1 and k:
        raise ValueError("modulus-1 forms are written with k = 0")
    return Atom(f"lin({a},{k},{n},{delta};{var})", form)


# -- unit_ball ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11)


def _unit_ball_slots(tiny: bool):
    """(n, p, template) per op: 105 ops, of which n = 3 at p = 7, n = 4 at
    p = 5 and the n = 4, p = 7 headline are the costly tail.  The costly
    slots are few so that a pass stays near 2.5 s and a run holds a dozen
    passes; the ROADMAP's n = 4, p = 11 case alone takes 3.5-5 s."""
    slots = []
    templates = ("prod", "sum", "mono")
    per = 1 if tiny else 7
    for n in (1, 2):
        for p in _PRIMES:
            slots += [(n, p, templates[i % 3]) for i in range(per)]
    for p, count in ((2, 7), (3, 7), (5, 7), (7, 3)):
        slots += [(3, p, templates[i % 3]) for i in range(1 if tiny else count)]
    for p, count in ((2, 4), (3, 4), (5, 2)):
        slots += [(4, p, templates[i % 3]) for i in range(1 if tiny else count)]
    if not tiny:
        slots += [(4, 7, "headline")]
    return slots


def _unit_ball(rng: random.Random, cost_rng: random.Random, tiny: bool) -> list:
    ops = []
    cli_slots = set()
    for i, (n, p, tpl) in enumerate(_unit_ball_slots(tiny)):
        names = [f"x{j + 1}" for j in range(n)]
        ords = {v: _mono_atom({v: 1}) for v in names}

        def product(coeff, params):
            qparts = [(-b, ords[v]) for v, (b, _) in params.items() if b]
            factors = [f for v, (_, k) in params.items() for f in [ords[v]] * k]
            return _term(coeff, 0, qparts, factors)

        def weights(ks):
            """b in {1, 2} per variable with the given ord powers."""
            return {v: (cost_rng.randint(1, 2), k) for v, k in zip(names, ks)}

        # the seed picks the coefficients; the weights, which variable
        # carries the ord factor, the shape and the monomial exponents set
        # the cost and are the same for every seed
        one = [0] * n
        one[cost_rng.randrange(n)] = 1
        if tpl == "headline":
            terms = [product(1, {v: (1, 1) for v in names})]
        elif tpl == "prod":
            terms = [product(rng.randint(1, 3), weights(one))]
        elif tpl == "sum":
            terms = [
                product(rng.randint(1, 3), weights(one)),
                product(rng.choice((-2, -1, 1, 2)), weights([0] * n)),
            ]
        else:
            atom = _mono_atom({v: 1 + (i + j) % 2 for j, v in enumerate(names)})
            terms = [_term(rng.randint(1, 3), 0, [(-cost_rng.randint(1, 2), atom)], [atom])]
        text, refs = _integrand(terms)
        domain = {"p": p, "vars": [{"name": v, "sort": "K", "region": "unit_ball"} for v in names]}
        # the CLI sample: the first op of every n <= 2 slot group at p <= 5
        key = (n, p)
        cli = n <= 2 and p <= 5 and key not in cli_slots
        cli_slots.add(key)
        ops.append(
            Op(f"ub{i:03d}", "integrate", text, domain, (), ("separable", refs, {v: "ball" for v in names}, p, None), cli)
        )
    return ops


# -- cell_sums ---------------------------------------------------------------------------


def _concrete_cells(rng: random.Random, cost_rng: random.Random, mod: int, width: Optional[int], split: bool):
    """One cell, or two disjoint ones when split, with lower bound >= -1;
    width None leaves the (last) cell unbounded above."""
    lower = cost_rng.randint(-1, 3)
    if split:
        mid = lower + 3
        upper = None if width is None else mid + width
        return [(lower, mid, 1, 0), (mid - 1, upper, mod, cost_rng.randrange(mod))]
    upper = None if width is None else lower + width
    return [(lower, upper, mod, cost_rng.randrange(mod))]


def _cells_hi(cells, his: dict) -> Optional[int]:
    """Global upper bound of a variable over its cells, None if unbounded."""
    top = None
    for _, upper, _, _ in cells:
        if upper is None:
            return None
        if isinstance(upper, tuple):
            name, a, delta = upper
            if his[name] is None:
                return None
            value = a * his[name] + delta - 1
        else:
            value = upper - 1
        top = value if top is None else max(top, value)
    return top


def _bound_json(b):
    if isinstance(b, tuple):
        name, a, delta = b
        return {"var": name, "a": a, "k": 0, "n": 1, "delta": delta}
    return b


def _dependent_cell(cost_rng: random.Random, outer: str, kind: str, a: int, his: dict, bounded: bool):
    """A modulus-1 cell whose bounds are a*outer + delta and whose range is
    never reversed: upper - lower >= 1 for every outer value >= 0."""
    if kind == "lower":
        delta = cost_rng.randint(-1, 2)
        if bounded and his[outer] is not None:
            return ((outer, a, delta), a * his[outer] + delta + 1 + cost_rng.randint(0, 3), 1, 0)
        return ((outer, a, delta), None, 1, 0)
    if kind == "upper":
        low = cost_rng.randint(-1, 2)
        return (low, (outer, a, low + 1 + cost_rng.randint(0, 3)), 1, 0)
    d1 = cost_rng.randint(-1, 1)
    return ((outer, a, d1), (outer, a + 1, d1 + 1 + cost_rng.randint(0, 3)), 1, 0)


def _field_cells(rng: random.Random, cost_rng: random.Random, p: int, mod: int, width: Optional[int], split: bool):
    """One KCell, or two disjoint ones when split, with a common rational
    centre u/w."""
    w = cost_rng.randint(1, 4)
    u = rng.choice([v for v in range(-9, 10) if v != 0])
    depth = cost_rng.randint(1, 2)
    units = [r for r in range(1, p**depth) if r % p]
    lower = cost_rng.randint(-1, 2)
    upper = None if width is None else lower + width
    cells = [(lower, upper, mod, rng.randrange(mod), depth, rng.choice(units))]
    if split:
        spare = [r for r in units if r % p != cells[0][5] % p]
        if spare:
            cells.append(cells[0][:5] + (rng.choice(spare),))
        else:
            # a single unit class mod p: split the valuation range instead
            cells[0] = (lower, lower + 3, 1, 0, depth, cells[0][5])
            cells.append((lower + 2, upper, mod, rng.randrange(mod), depth, cells[0][5]))
    return w, u, cells


_CELL_SLOTS = (
    ("g1", 24),
    ("g2", 16),
    ("dep_lower", 12),
    ("dep_upper", 12),
    ("dep_both", 10),
    ("g3", 10),
    ("k1", 12),
    ("k2", 6),
    ("reversed", 3),
)


def _cell_sums(rng: random.Random, cost_rng: random.Random, tiny: bool) -> list:
    slots = [(kind, i) for kind, count in _CELL_SLOTS for i in range(1 if tiny else count)]
    ops = [_cell_op(rng, cost_rng, f"cs{n:03d}", kind, i) for n, (kind, i) in enumerate(slots)]
    # the dependent-bound case from the ROADMAP: g1 in 0..5, g1 < g2 < 3;
    # the true values are 3 and 5
    domain = {
        "p": 2,
        "vars": [
            {"name": "g1", "sort": "Gamma", "region": [{"lower": -1, "upper": 6, "mod": 1, "res": 0}]},
            {
                "name": "g2",
                "sort": "Gamma",
                "region": [{"lower": _bound_json(("g1", 1, 0)), "upper": 3, "mod": 1, "res": 0}],
            },
        ],
    }
    coords = (
        Coord("g1", ((-1, 6, 1, 0, None),), 5),
        Coord("g2", ((("g1", 1, 0), 3, 1, 0, None),), 2),
    )
    for text, refs in (
        ("1", (RefTerm(1, 0, (), ()),)),
        ("lin(1,0,1,0;g2)", (RefTerm(1, 0, (), (Affine(0, (("g2", 1),)),)),)),
    ):
        ops.append(Op(f"cs{len(ops):03d}", "integrate", text, domain, (), ("lattice", refs, coords, 2), False))
    # the CLI sample: six ops spread evenly over the slots
    every = max(1, len(ops) // 6)
    return [dataclasses.replace(o, cli=i % every == 0 and i // every < 6) for i, o in enumerate(ops)]


def _cell_op(rng: random.Random, cost_rng: random.Random, op_id: str, kind: str, i: int) -> Op:
    """The i-th op of one slot kind.

    The slot index fixes the term and factor counts, which variable and
    form each factor takes, cell moduli and widths, split cells, weights
    and bound slopes; cost_rng picks p, the bound offsets, cell depths and
    the factor forms' slopes.  The seed picks residues, centres,
    coefficients and the factor forms' constants."""
    p = cost_rng.choice((2, 3, 5))
    nterms = 1 + i % 3
    mod = 1 + (i // 2) % 4
    width = 4 + 2 * (i % 3) if i % 2 == 0 else None
    split = i % 3 == 2
    slope = 1 + (i // 3) % 2
    gvars: list = []  # (name, cells) with cells (lower, upper, mod, res)
    his: dict = {}
    positive = kind == "reversed"

    def add(cells):
        name = f"g{len(gvars) + 1}"
        gvars.append((name, cells))
        his[name] = _cells_hi(cells, his)
        return name

    if kind in ("g1", "g2"):
        add(_concrete_cells(rng, cost_rng, mod, width, split))
        if kind == "g2":
            add(_concrete_cells(rng, cost_rng, 1 + i % 2, None if width else 5, False))
    elif kind.startswith("dep_"):
        g1 = add(_concrete_cells(rng, cost_rng, mod, width, split))
        add([_dependent_cell(cost_rng, g1, kind[4:], slope, his, width is not None)])
    elif kind == "g3":
        nterms = 1 + i % 2
        g1 = add(_concrete_cells(rng, cost_rng, 1 + i % 2, width, False))
        g2 = add([_dependent_cell(cost_rng, g1, ("lower", "upper", "both")[i % 3], 1, his, True)])
        add([_dependent_cell(cost_rng, (g1, g2)[i % 2], ("upper", "both", "lower")[i % 3], 1, his, True)])
    elif kind == "reversed":
        # an inner range that reverses for some outer values; the domain is
        # bounded and the integrand positive, so the wrong telescoped
        # contribution cannot cancel
        g1 = add([(-1, cost_rng.randint(5, 7), 1, 0)])
        if i % 2 == 0:
            add([((g1, 1, cost_rng.randint(-1, 0)), cost_rng.randint(2, 3), 1, 0)])
        else:
            add([(cost_rng.randint(1, 2), (g1, 1, cost_rng.randint(-1, 1)), 1, 0)])
    elif i % 2:
        add(_concrete_cells(rng, cost_rng, 1, 6, False))

    fields = []
    if kind in ("k1", "k2"):
        fields.append(("x1",) + _field_cells(rng, cost_rng, p, mod, width, split))
        if kind == "k2":
            fields.append(("x2",) + _field_cells(rng, cost_rng, p, 1, None if width else 5, False))

    # atoms per variable: (exponent atom, factor atoms)
    exp_atoms = {}
    factor_atoms = {}
    for name, cells in gvars:
        exp_atoms[name] = _lin_atom(name, 1, 0, 1, 0)
        lins = [_lin_atom(name, cost_rng.choice((-2, -1, 1, 2, 3)), 0, 1, cost_rng.randint(-2, 3))]
        if len(cells) == 1 and cells[0][2] > 1 and not isinstance(cells[0][0], tuple):
            _, _, n, k = cells[0]
            lins.append(_lin_atom(name, cost_rng.choice((-1, 1, 2)), k, n, cost_rng.randint(-2, 3)))
        if positive:
            lins = [_lin_atom(name, 1, 0, 1, 1)]
        factor_atoms[name] = lins
    for name, w, u, _ in fields:
        atom = _ord_atom(name, w, u, 1, p)
        exp_atoms[name] = atom
        factor_atoms[name] = [atom, _ord_atom(name, w, u, 2, p)]

    names = [n for n, _ in gvars] + [f[0] for f in fields]
    field_hi = {
        name: None if any(c[1] is None for c in cells) else max(c[1] for c in cells) - 1
        for name, _, _, cells in fields
    }
    terms = []
    for t in range(nterms):
        qparts = []
        for j, name in enumerate(names):
            # an unbounded value-group variable needs a decaying weight; a
            # field variable's shell measure already decays, so there the
            # weight only must not grow
            unbounded = his[name] is None if name in his else field_hi[name] is None
            if positive:
                b = (i + j + t) % 3
            elif unbounded:
                b = 1 + (i + j + t) % 2 if name in his else (i + j + t) % 3
            else:
                b = (i + j + t) % 4 - 1
            if b:
                qparts.append((-b, exp_atoms[name]))
        nfac = (i + t) % (2 if kind == "g3" else 3)
        factors = []
        for f in range(nfac):
            choices = factor_atoms[names[(i + t + f) % len(names)]]
            factors.append(choices[(i + f) % len(choices)])
        coeff = rng.randint(1, 4) if t == 0 or positive else rng.choice((-3, -2, -1, 1, 2, 3))
        terms.append(_term(coeff, cost_rng.randint(-1, 1), qparts, factors))
    text, refs = _integrand(terms)

    domain_vars = []
    coords = []
    for name, cells in gvars:
        domain_vars.append(
            {
                "name": name,
                "sort": "Gamma",
                "region": [
                    {"lower": _bound_json(lo), "upper": _bound_json(up), "mod": m, "res": r}
                    for lo, up, m, r in cells
                ],
            }
        )
        coords.append(Coord(name, tuple(c + (None,) for c in cells), his[name]))
    for name, w, u, cells in fields:
        center = str(Fraction(u, w))
        domain_vars.append(
            {
                "name": name,
                "sort": "K",
                "region": [
                    {
                        "center": center,
                        "lower": lo,
                        "upper": up,
                        "mod": m,
                        "res": r,
                        "acDepth": d,
                        "acValue": ac,
                        "p": p,
                    }
                    for lo, up, m, r, d, ac in cells
                ],
            }
        )
        coords.append(Coord(name, tuple(c[:5] for c in cells), field_hi[name]))
    domain = {"p": p, "vars": domain_vars}
    return Op(op_id, "integrate", text, domain, (), ("lattice", refs, tuple(coords), p), False)


# -- residue_scan ---------------------------------------------------------------------------

CORPUS_1 = (("x1", (1, {(1,): 1})), ("x1^2", (1, {(2,): 1})), ("x1^3", (1, {(3,): 1})))
CORPUS_2 = (
    ("x1*x2", (2, {(1, 1): 1})),
    ("x1^2 + x2^2", (2, {(2, 0): 1, (0, 2): 1})),
    ("x1^2 - x2^2", (2, {(2, 0): 1, (0, 2): -1})),
)

# (shape, p, depth, ops): depth puts p^(n*depth) between about 250 and 750,
# and the heavier oracle slots take few ops, so that a pass stays near 3 s
_ORACLE_SLOTS = (
    ("ball1", 2, 8, 18),
    ("ball1", 3, 5, 10),
    ("ball1", 3, 6, 4),
    ("cell1", 2, 8, 18),
    ("cell1", 3, 5, 10),
    ("cell1", 3, 6, 4),
    ("ball2", 2, 4, 8),
    ("ball2", 3, 2, 3),
    ("ball2", 3, 3, 4),
    ("cell2", 2, 4, 8),
    ("cell2", 3, 3, 4),
)


def _residue_scan(rng: random.Random, cost_rng: random.Random, tiny: bool) -> list:
    ops = []
    for corpus, mmax in ((CORPUS_1, 11), (CORPUS_2, 10)):
        for text, poly in corpus:
            for p in (2, 3):
                if tiny and (len(poly[1]) > 1 or poly[0] > 1) and p == 3:
                    continue
                # CORPUS_2 at p = 3 stops at mmax 8, the least that still
                # fits its P(T) with guard 5: at mmax 10 its lifting alone
                # takes about 10 s, and at mmax 9 about 3 s
                top = 8 if poly[0] == 2 and p == 3 else mmax
                check = cost_rng.randint(1, 3)
                cli = (text, p) in (("x1^2", 3), ("x1", 2))
                ops.append(
                    Op(f"rs{len(ops):03d}", "poincare", text, None, (p, top, 5, check), ("counts", poly), cli)
                )
    cli_left = 4
    for shape, p, depth, count in _ORACLE_SLOTS:
        for i in range(1 if tiny else count):
            text, refs, cells, growth, degree = _oracle_integrand(rng, cost_rng, shape, p, i)
            cli = cli_left > 0 and depth == (8 if p == 2 else 5) and shape.endswith("1")
            cli_left -= cli
            ops.append(_oracle_op(f"rs{len(ops):03d}", text, refs, cells, p, depth, growth, degree, cli))
    # the ROADMAP's unsound-tail case: p = 3, centre 5, 2 < ord < 7, ac
    # depth 2, residue 5, depth 4 and growth (1, -2, 1) report value 0 with
    # bound 2.37e-5, while the exact integral is 3.56e-5
    atom = _ord_atom("x1", 1, 5, 2, 3)
    text, refs = _integrand([_term(1, 0, [(-1, atom)], [atom])])
    cells = {"x1": [(2, 7, 1, 0, 2, 5, 5)]}
    ops.append(_oracle_op(f"rs{len(ops):03d}", text, refs, cells, 3, 4, (1, -2, 1), 2, False))
    return ops


def _oracle_op(op_id, text, refs, cells, p, depth, growth, degree, cli) -> Op:
    """cells maps each variable to "ball" or a list of
    (lower, upper, mod, res, acdepth, acvalue, centre); degree is the
    highest degree of a valuation argument in one variable."""
    domain_vars = []
    regions = {}
    for v, region in cells.items():
        if region == "ball":
            domain_vars.append({"name": v, "sort": "K", "region": "unit_ball"})
            regions[v] = "ball"
            continue
        json_cells = [
            {"center": str(c), "lower": lo, "upper": up, "mod": m, "res": r, "acDepth": d, "acValue": ac, "p": p}
            for lo, up, m, r, d, ac, c in region
        ]
        domain_vars.append({"name": v, "sort": "K", "region": json_cells})
        regions[v] = [cell[:5] for cell in region]
    domain = {"p": p, "vars": domain_vars}
    return Op(op_id, "oracle", text, domain, (depth, growth), ("separable", refs, regions, p, degree), cli)


def _oracle_integrand(rng: random.Random, cost_rng: random.Random, shape: str, p: int, i: int):
    """(text, reference terms, cells, growth, degree) for the i-th oracle op
    of one slot.

    One-variable integrands are sums of c * q^(-b*A) * A^k over a single
    valuation atom A, so |f| <= (sum c) v^(max k) q^(-(min b) v) when A
    saturates at v.  Two-variable ones are products of such factors in
    separate atoms, or one monomial atom ord(x1*x2^e).  The slot index
    fixes the term count, powers, squared arguments and cell sizes, and
    cost_rng the weights, centres and valuation residues; the seed picks
    angular residues and coefficients."""
    nvars = 1 if shape.endswith("1") else 2
    names = [f"x{j + 1}" for j in range(nvars)]
    cells = {}
    atoms = {}
    for j, v in enumerate(names):
        e = 2 if (i + j) % 3 == 2 else 1
        if shape.startswith("ball"):
            cells[v] = "ball"
            atoms[v] = _mono_atom({v: e})
        else:
            c = cost_rng.randrange(p**3)
            acdepth = 1 + (i // 3) % 2
            units = [r for r in range(1, p**acdepth) if r % p]
            lower = -1 + (i + j) % 2
            upper = None if i % 2 == 0 else lower + 3 + i % 3
            mod = 1 + (i // 2) % 2
            cells[v] = [(lower, upper, mod, cost_rng.randrange(mod), acdepth, rng.choice(units), c)]
            atoms[v] = _ord_atom(v, 1, c, e, p)
    if nvars == 1 or (shape == "ball2" and i % 2 == 0):
        atom = atoms["x1"] if nvars == 1 else _mono_atom({"x1": 1, "x2": 1 + i % 3 // 2})
        parts = [(rng.randint(1, 3), cost_rng.randint(1, 2), (i + t) % 3) for t in range(1 + i % 2)]
        terms = [_term(c, 0, [(-b, atom)], [atom] * k) for c, b, k in parts]
        used = [atom]
        growth = (sum(c for c, _, _ in parts), -min(b for _, b, _ in parts), max(k for _, _, k in parts))
    else:
        c = rng.randint(1, 3)
        params = {v: (cost_rng.randint(1, 2), (i + j) % 3) for j, v in enumerate(names)}
        qparts = [(-b, atoms[v]) for v, (b, _) in params.items()]
        factors = [f for v, (_, k) in params.items() for f in [atoms[v]] * k]
        terms = [_term(c, 0, qparts, factors)]
        used = list(atoms.values())
        sups = [shell_sup(k, -b, p) for b, k in params.values()]
        growth = (
            c * max(sups),
            -min(b for b, _ in params.values()),
            max(k for _, k in params.values()),
        )
    text, refs = _integrand(terms)
    degree = max(e for a in used for _, e in a.form.coeffs)
    return text, refs, cells, growth, degree
