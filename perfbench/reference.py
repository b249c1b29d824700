"""Independent exact references for the benchmark ops.

Nothing here imports padicint: every value is derived from the Haar
measure of valuation shells and plain integer or Fraction arithmetic, so a
defect in the package cannot hide in its own reference.

Coordinates.  A field variable x on a region contributes its shell
valuation rho = ord(x - center) >= 0.  The shell {ord(x - c) = rho} has
measure (1 - 1/p) p^-rho on the unit ball; inside a cell with angular depth
M it has measure p^-(rho + M).  A value-group variable g contributes itself
with counting measure.  Integrands are sums of terms

    coeff * p^(qconst + sum_v qlin[v] * coord_v) * product of affine forms,

where every ord(...) atom is an affine form in the coordinates: ord(x1*x2^2)
is rho1 + 2*rho2 and ord((w*x - u)^e) is e*(ord_p(w) + rho) on a cell
centred at u/w.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional


def ord_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- affine forms and terms ------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """const + sum of coeff * coordinate; a prepared form a*(g-k)/n + delta
    is stored with div = (k, n) on its single coordinate."""

    const: int
    coeffs: tuple  # ((name, coeff), ...)
    div: Optional[tuple] = None

    def value(self, point: dict) -> int:
        if self.div is not None:
            (name, a), = self.coeffs
            k, n = self.div
            g = point[name]
            if (g - k) % n:
                raise ValueError(f"{name} = {g} is not {k} mod {n}")
            return a * ((g - k) // n) + self.const
        total = self.const
        for name, c in self.coeffs:
            total += c * point[name]
        return total

    def l1(self) -> int:
        """A bound B with |value| <= B * prod(1 + coord) on coordinates >= 0."""
        extra = self.div[0] if self.div is not None else 0
        return abs(self.const) + sum(abs(c) * (1 + extra) for _, c in self.coeffs)


@dataclass(frozen=True)
class RefTerm:
    coeff: int
    qconst: int
    qlin: tuple  # ((name, coeff), ...): exponent slope per coordinate
    factors: tuple  # Affine factors


# -- one-variable closed forms ------------------------------------------------------


def _eulerian(k: int, m: int) -> int:
    return sum((-1) ** j * comb(k + 1, j) * (m + 1 - j) ** k for j in range(m + 1))


def power_series(k: int, z: Fraction) -> Fraction:
    """sum over s >= 0 of s^k z^s for 0 <= z < 1 (Eulerian polynomials)."""
    if not 0 <= z < 1:
        raise ValueError("the series needs 0 <= z < 1")
    if k == 0:
        return 1 / (1 - z)
    num = sum(_eulerian(k, m) * z ** (m + 1) for m in range(k))
    return num / (1 - z) ** (k + 1)


def progression_sum(
    k: int, y: Fraction, lower: Optional[int], upper: Optional[int], mod: int, res: int
) -> Fraction:
    """sum of r^k y^r over lower < r < upper with r = res (mod mod); lower is
    finite and an open upper end needs 0 <= y < 1."""
    first = lower + 1 + (res - lower - 1) % mod
    if upper is not None:
        return sum((Fraction(r) ** k * y**r for r in range(first, upper, mod)), Fraction(0))
    w = y**mod
    return y**first * sum(
        comb(k, i) * Fraction(first) ** (k - i) * mod**i * power_series(i, w)
        for i in range(k + 1)
    )


# -- separable integrals (unit ball and explicit cells) ------------------------------


def _expand(factors) -> dict:
    """Product of coordinate-linear affine forms as {exponent tuple: coeff};
    exponent tuples are sorted (name, power) pairs."""
    poly = {(): Fraction(1)}
    for f in factors:
        if f.div is not None:
            raise ValueError("separable references take plain affine forms")
        nxt: dict = {}
        pieces = [((), Fraction(f.const))] + [(((n, 1),), Fraction(c)) for n, c in f.coeffs]
        for mono, c in poly.items():
            for extra, c2 in pieces:
                if c2 == 0:
                    continue
                powers = dict(mono)
                for name, e in extra:
                    powers[name] = powers.get(name, 0) + e
                key = tuple(sorted(powers.items()))
                nxt[key] = nxt.get(key, 0) + c * c2
        poly = nxt
    return poly


def shell_moment(region, p: int, k: int, slope: int) -> Fraction:
    """Integral of rho^k * p^(slope * rho) over one field variable's region.

    region is "ball" or a list of cells (lower, upper, mod, res, acdepth)."""
    y = Fraction(p) ** slope / p
    if region == "ball":
        return (1 - Fraction(1, p)) * power_series(k, y)
    total = Fraction(0)
    for lower, upper, mod, res, depth in region:
        total += Fraction(1, p**depth) * progression_sum(k, y, lower, upper, mod, res)
    return total


def separable_integral(terms, regions: dict, p: int) -> Fraction:
    """Exact integral over independent field variables, each on its region."""
    total = Fraction(0)
    for t in terms:
        slopes = dict(t.qlin)
        for mono, c in _expand(t.factors).items():
            powers = dict(mono)
            value = c * t.coeff * Fraction(p) ** t.qconst
            for name, region in regions.items():
                value *= shell_moment(region, p, powers.get(name, 0), slopes.get(name, 0))
            total += value
    return total


def shell_sup(k: int, slope: int, p: int) -> Fraction:
    """max over rho >= 0 of rho^k p^(slope*rho), slope <= -1, k <= 3; the
    maximum sits at rho <= k / ln 2 < 5, so scanning 0..15 is exact."""
    return max(Fraction(r) ** k * Fraction(p) ** (slope * r) for r in range(16))


# -- lattice enumeration with a geometric tail bound (cell_sums) ------------------


@dataclass(frozen=True)
class Coord:
    """One coordinate of a cell_sums domain.

    cells are (lower, upper, mod, res, acdepth) with bounds either ints,
    None (upper only) or (outer name, a, delta) for a*outer + delta;
    acdepth is None for value-group variables.  hi is a global upper bound
    over the whole domain, or None when the coordinate is unbounded."""

    name: str
    cells: tuple
    hi: Optional[int]


def _bound(b, point):
    if isinstance(b, tuple):
        name, a, delta = b
        return a * point[name] + delta
    return b


def reversed_range(coords, caps: dict) -> bool:
    """Does some realized outer point give a dependent cell with upper <=
    lower, i.e. an inner range that is empty by two or more?"""
    found = False

    def walk(i, point):
        nonlocal found
        if found or i == len(coords):
            return
        c = coords[i]
        for lower, upper, mod, res, _ in c.cells:
            lo, up = _bound(lower, point), _bound(upper, point)
            dependent = isinstance(lower, tuple) or isinstance(upper, tuple)
            if dependent and up is not None and up <= lo:
                found = True
                return
            top = caps[c.name] if up is None else min(up - 1, caps[c.name])
            start = lo + 1 + (res - lo - 1) % mod
            for v in range(start, top + 1, mod):
                point[c.name] = v
                walk(i + 1, point)
        point.pop(c.name, None)

    walk(0, {})
    return found


def _weighted_moment_bound(d: int, y: Fraction, lo: int, hi: Optional[int], above: Optional[int]):
    """Bound for sum of (1+x)^d y^x over lo <= x <= hi, or over x > above
    when above is given (then hi is ignored)."""
    if above is None and hi is not None:
        return sum((Fraction(1 + x) ** d * y**x for x in range(lo, hi + 1)), Fraction(0))
    start = lo if above is None else max(lo, above + 1)
    if y >= 1:
        return None
    # ratio of consecutive terms is y((x+2)/(x+1))^d, largest at x = start
    ratio = y * Fraction(start + 2, start + 1) ** d
    if ratio >= 1:
        # sum the head exactly until the ratio drops below one
        head = Fraction(0)
        x = start
        while y * Fraction(x + 2, x + 1) ** d >= 1:
            head += Fraction(1 + x) ** d * y**x
            x += 1
        ratio = y * Fraction(x + 2, x + 1) ** d
        return head + Fraction(1 + x) ** d * y**x / (1 - ratio)
    return Fraction(1 + start) ** d * y**start / (1 - ratio)


def tail_bound(terms, coords, caps: dict, p: int) -> Fraction:
    """Exact upper bound on the sum of |integrand| over domain points where
    some unbounded coordinate exceeds its cap.  Coordinates are >= 0, so
    |affine| <= l1 * prod(1 + coord) and each term is dominated by a
    product of one-variable sums."""
    total = Fraction(0)
    lows = {c.name: 0 for c in coords}
    for t in terms:
        d = len(t.factors)
        k = abs(t.coeff) * Fraction(p) ** t.qconst
        for f in t.factors:
            k *= f.l1()
        slopes = dict(t.qlin)
        # a field shell has measure p^-(rho + M) <= p^-rho
        ys = {
            c.name: Fraction(p) ** (slopes.get(c.name, 0) - (c.cells[0][4] is not None))
            for c in coords
        }
        full = {}
        for c in coords:
            full[c.name] = _weighted_moment_bound(d, ys[c.name], lows[c.name], c.hi, None)
        for c in coords:
            if c.hi is not None and c.hi <= caps[c.name]:
                continue
            part = _weighted_moment_bound(d, ys[c.name], lows[c.name], None, caps[c.name])
            if part is None:
                raise ValueError(f"no decaying weight on unbounded {c.name}")
            for other in coords:
                if other.name != c.name:
                    if full[other.name] is None:
                        raise ValueError(f"no decaying weight on unbounded {other.name}")
                    part *= full[other.name]
            total += k * part
    return total


def lattice_sum(terms, coords, caps: dict, p: int) -> Fraction:
    """Exact sum of the integrand over domain points with every coordinate
    at most its cap.  Field coordinates carry their shell measure
    p^-(rho + M); accumulation is per power of p, in integers."""
    acc: dict = {}
    compiled = []
    for t in terms:
        compiled.append((t.coeff, t.qconst, tuple(t.qlin), t.factors))

    def leaf(point, measure_exp):
        for coeff, qconst, qlin, factors in compiled:
            e = qconst + measure_exp
            for name, s in qlin:
                e += s * point[name]
            v = coeff
            for f in factors:
                v *= f.value(point)
                if not v:
                    break
            if v:
                acc[e] = acc.get(e, 0) + v

    def walk(i, point, measure_exp):
        if i == len(coords):
            leaf(point, measure_exp)
            return
        c = coords[i]
        for lower, upper, mod, res, depth in c.cells:
            lo, up = _bound(lower, point), _bound(upper, point)
            top = caps[c.name] if up is None else min(up - 1, caps[c.name])
            start = lo + 1 + (res - lo - 1) % mod
            if start < 0:
                raise ValueError(f"{c.name} reaches {start}; the tail bound needs coordinates >= 0")
            for v in range(start, top + 1, mod):
                point[c.name] = v
                extra = 0 if depth is None else -(v + depth)
                walk(i + 1, point, measure_exp + extra)
        point.pop(c.name, None)

    walk(0, {}, 0)
    return sum((Fraction(p) ** e * v for e, v in acc.items()), Fraction(0))


def enumerated_value(terms, coords, p: int, tol: Fraction = Fraction(1, 10**9)):
    """(partial sum, tail bound) with caps raised until the bound is < tol.

    The exact integral lies within partial +- tail."""
    cap = 8
    while True:
        caps = {c.name: cap if c.hi is None else max(c.hi, cap) for c in coords}
        tail = tail_bound(terms, coords, caps, p)
        if tail < tol or cap >= 200:
            return lattice_sum(terms, coords, caps, p), tail
        cap += 4


# -- congruence counts (residue_scan) --------------------------------------------


def brute_counts(poly, p: int, mmax: int, budget: int) -> list:
    """N_0..N_m by direct enumeration for every m with p^(n*m) <= budget;
    poly is (nvars, {exponent tuple: integer coefficient})."""
    nvars, terms = poly
    counts = [1]
    for m in range(1, mmax + 1):
        mod = p**m
        if mod**nvars > budget:
            break
        count = 0
        for flat in range(mod**nvars):
            xs = []
            for _ in range(nvars):
                flat, r = divmod(flat, mod)
                xs.append(r)
            value = 0
            for exps, c in terms.items():
                t = c
                for x, e in zip(xs, exps):
                    t *= x**e
                value += t
            if value % mod == 0:
                count += 1
        counts.append(count)
    return counts


def closed_counts(poly, p: int, mmax: int) -> Optional[list]:
    """Hand-derived N_m for x^k (p^(m - ceil(m/k))) and x1*x2
    (p^m + m(p-1)p^(m-1)); None for other shapes."""
    nvars, terms = poly
    if len(terms) != 1:
        return None
    (exps, c), = terms.items()
    if c != 1:
        return None
    if nvars == 1:
        k = exps[0]
        return [p ** (m - (-(-m // k))) for m in range(mmax + 1)]
    if exps == (1, 1):
        return [1] + [p**m + m * (p - 1) * p ** (m - 1) for m in range(1, mmax + 1)]
    return None


def series_from_text(num: str, den: str, count: int) -> list:
    """Expand the rendered rational function num/den to its first count
    coefficients; den is a product of parenthesised factors or one
    parenthesised polynomial."""
    n = parse_t_poly(num)
    d = [Fraction(1)]
    for factor in den.strip("()").split(")("):
        f = parse_t_poly(factor)
        out = [Fraction(0)] * (len(d) + len(f) - 1)
        for i, a in enumerate(d):
            for j, b in enumerate(f):
                out[i + j] += a * b
        d = out
    if d[0] != 1:
        raise ValueError("denominator must have constant term 1")
    coeffs = []
    for m in range(count):
        acc = n[m] if m < len(n) else Fraction(0)
        for i in range(1, min(m, len(d) - 1) + 1):
            acc -= d[i] * coeffs[m - i]
        coeffs.append(acc)
    return coeffs


def parse_t_poly(text: str) -> list:
    """Coefficients of a rendered polynomial in T such as '1 - 1/9*T^2'."""
    coeffs: dict = {}
    for i, chunk in enumerate(text.replace("- ", "+ -").split("+ ")):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        if "T" in chunk:
            head, _, power = chunk.partition("T")
            c = Fraction(head.rstrip("*")) if head else Fraction(1)
            e = int(power[1:]) if power.startswith("^") else 1
        else:
            c, e = Fraction(chunk), 0
        coeffs[e] = coeffs.get(e, 0) + sign * c
    top = max(coeffs) if coeffs else 0
    return [coeffs.get(e, Fraction(0)) for e in range(top + 1)]
