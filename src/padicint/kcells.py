"""Valuative cells in Q_p with rational centers and exact Haar measures.

A cell fixes a center c, an open valuation range g for ord(t - c), a
congruence on that valuation, and the angular component xi of t - c at
some depth M.  It is the disjoint union of the balls

    c + p^gamma xi + p^(gamma + M) Z_p,   one for each gamma in g,

so under the normalization mu(Z_p) = 1 each shell has measure
q^-(gamma + M), and the measure of a cell is q^-(res + M) times a
geometric sum delegated to presburger.  The measure never involves the
center: Haar measure is translation invariant.

KCell.ball_status(a, r) decides exactly how a ball a + p^r Z_p sits
against a cell: "in", "out" or "meets".  Disjointness of two cells tests
the shells of one, as balls, against the other, and the oracle classifies
its residue classes with the same call.  It and contains_value run on
ints: a - center as an unreduced numerator and denominator, with p
stripped from both for the valuation and the unit part.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .aqring import AqElem
from .errors import NULL, FrozenRecord, InfiniteMeasure, ParseError, json_fields
from .padic import INFINITY, AngularResidue, PAdicPoint, Prime, rational_ord, unit_part
from .presburger import GammaCell, geom_sum, intersect_cells


class KCell(FrozenRecord):
    """Points t with ord(t-center) in an open range, congruent valuation,
    and prescribed angular component.

    ac_value.r == 0 encodes the degenerate cell {center}: the bounds and
    the congruence are ignored and membership means t == center.
    """

    __slots__ = ("center", "lower", "upper", "mod", "res", "ac_depth", "ac_value", "prime", "_gamma")

    def __init__(
        self, center: Fraction, lower: Optional[int], upper: Optional[int], mod: int, res: int,
        ac_depth: int, ac_value: AngularResidue, prime: Prime,
    ):
        center = Fraction(center)
        gamma = GammaCell(lower, upper, mod, res)
        if ac_depth < 1:
            raise ValueError("angular depth must be >= 1")
        if ac_value.m != ac_depth:
            raise ValueError("angular residue depth must match the cell depth")
        ac_value.validate(prime)
        self._freeze((center, lower, upper, mod, res, ac_depth, ac_value, prime))
        object.__setattr__(self, "_gamma", gamma)

    def gamma_cell(self) -> GammaCell:
        """The valuation constraints as a cell in the value group."""
        return self._gamma

    def contains_value(self, value: Union[Fraction, int]) -> bool:
        e, u, w = self._offset(value)
        if self.ac_value.r == 0:
            return e is INFINITY
        if e is INFINITY or not self._gamma.contains(e):
            return False
        return (u - self.ac_value.r * w) % self.prime.p**self.ac_depth == 0

    def _offset(self, a: Union[Fraction, int]) -> tuple:
        """a - center as p^e u/w with p dividing neither u nor w, read from
        an unreduced int numerator and denominator: ord and ac need no
        lowest terms.  (INFINITY, 0, 1) when a is the center."""
        if a.__class__ is not int and a.__class__ is not Fraction:
            a = Fraction(a)
        c = self.center
        num = a.numerator * c.denominator - c.numerator * a.denominator
        if num == 0:
            return INFINITY, 0, 1
        return unit_part(num, a.denominator * c.denominator, self.prime.p)

    def ball_status(self, a: Union[Fraction, int], r: int) -> str:
        """How the ball a + p^r Z_p sits against the cell: "in" when it lies
        inside, "out" when it misses it, else "meets".

        With w = a - center and e = ord w: when e >= r the ball holds the
        center and every shell gamma >= r, and never lies inside the cell,
        which omits the center.  Otherwise ord(t - center) = e on the whole
        ball and ac(t - center) is known to depth min(M, r - e).  A point
        cell meets the balls that hold its center and misses the others.
        The unit part u/w of w matches the cell's angular value xi to depth
        k when u - xi w = 0 mod p^k, so no inverse is taken.
        """
        e, u, w = self._offset(a)
        if e >= r:
            if self.ac_value.r == 0:
                return "meets"
            last = self._gamma.tau_bounds()[1]
            deeper = last is None or (not self._gamma.is_empty() and self.res + last * self.mod >= r)
            return "meets" if deeper else "out"
        if self.ac_value.r == 0 or not self._gamma.contains(e):
            return "out"
        k = min(self.ac_depth, r - e)
        if (u - self.ac_value.r * w) % self.prime.p**k:
            return "out"
        return "in" if k == self.ac_depth else "meets"

    def to_json(self) -> dict:
        return {
            "center": str(self.center),
            "lower": self.lower,
            "upper": self.upper,
            "mod": self.mod,
            "res": self.res,
            "acDepth": self.ac_depth,
            "acValue": self.ac_value.r,
            "p": self.prime.p,
        }

    @classmethod
    def from_json(cls, data: dict) -> "KCell":
        center, lower, upper, mod, res, depth, ac, p = json_fields(
            data, "field cell", center=(str, int), lower=(int, NULL), upper=(int, NULL),
            mod=int, res=int, acDepth=int, acValue=int, p=int,
        )
        try:
            center = Fraction(center)
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                f"field cell JSON field 'center' must be a rational such as \"3/4\", not {center!r}"
            ) from None
        return cls(center, lower, upper, mod, res, depth, AngularResidue(depth, ac), Prime(p))


def kcell_contains(point: PAdicPoint, cell: KCell) -> bool:
    if point.prime != cell.prime:
        raise ValueError("point and cell use different primes")
    return cell.contains_value(point.value)


def kcell_measure(cell: KCell) -> AqElem:
    """Exact Haar measure of the cell, normalized so mu(Z_p) = 1.

    Each admissible valuation gamma contributes a shell of measure
    q^-(gamma + M); summing over gamma = res + tau*mod gives
    q^-(res + M) * sum of (q^-mod)^tau.  Independent of the center.
    """
    if cell.ac_value.r == 0:
        return AqElem.zero()
    if cell.lower is None:
        raise InfiniteMeasure("a cell unbounded below in valuation has infinite measure")
    shells = geom_sum(cell.gamma_cell(), cell.mod)
    return AqElem.q_power(-(cell.res + cell.ac_depth)) * shells


def kcells_disjoint(c1: KCell, c2: KCell) -> bool:
    """Exact disjointness decision.

    c1 is the union of its shells c1 + p^gamma xi1 + p^(gamma + M1) Z_p,
    and c1 misses c2 exactly when c2.ball_status says "out" for each.  For
    distinct centers let d = ord(c1 - c2) and m = min(M1, M2).  A shell with
    gamma <= d - m meets c2 exactly when gamma is in g2 and the angular
    values agree at depth m, and whether a shell with gamma >= d + M2 meets
    c2 does not depend on gamma.  So one shell stands for each of those two
    ranges, and the members of g1 strictly between them are tested one by
    one: at most M2 + m - 1 of them.
    """
    if c1.prime != c2.prime:
        raise ValueError("cells use different primes")
    if c1.ac_value.r == 0:
        return not c2.contains_value(c1.center)
    if c2.ac_value.r == 0:
        return not c1.contains_value(c2.center)
    p = c1.prime.p
    g1, g2 = c1.gamma_cell(), c2.gamma_cell()
    M1, M2 = c1.ac_depth, c2.ac_depth
    m = min(M1, M2)
    both = intersect_cells(g1, g2)
    if c1.center == c2.center:
        return both is None or c1.ac_value.r % p**m != c2.ac_value.r % p**m

    d = rational_ord(c1.center - c2.center, p)
    shells = [gamma for gamma in range(d - m + 1, d + M2) if g1.contains(gamma)]
    near = None if both is None else intersect_cells(both, GammaCell(None, d - m + 1))
    if near is not None:
        shells.append(near.res + near.tau_bounds()[1] * near.mod)
    far = intersect_cells(g1, GammaCell(d + M2 - 1, None))
    if far is not None:
        shells.append(far.res + far.tau_bounds()[0] * far.mod)
    xi = c1.ac_value.r
    return all(
        c2.ball_status(c1.center + Fraction(p) ** gamma * xi, gamma + M1) == "out"
        for gamma in shells
    )


def partition_unit_ball(M: int, N: int, prime: Prime) -> list[KCell]:
    """Cells ord(t) >= 0 with ord(t) = k mod N and ac_M(t) = xi, over all
    residues k and unit values xi.  Together with {0} they partition Z_p;
    the cells are pairwise disjoint and their measures sum to 1 at q = p.
    """
    if M < 1 or N < 1:
        raise ValueError("M and N must be >= 1")
    p = prime.p
    cells = []
    for k in range(N):
        for xi in range(1, p**M):
            if xi % p == 0:
                continue
            cells.append(
                KCell(Fraction(0), -1, None, N, k, M, AngularResidue(M, xi), prime)
            )
    return cells
