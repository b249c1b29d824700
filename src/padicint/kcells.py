"""Valuative cells in Q_p with rational centers and exact Haar measures.

A cell fixes a center c, an open valuation range for ord(t - c), a
congruence on that valuation, and the angular component of t - c at some
depth M.  Under the normalization mu(Z_p) = 1, each valuation shell with a
fixed depth-M angular component has measure q^-(gamma + M), so the measure
of a cell is q^-(res + M) times a geometric sum delegated to presburger.
The measure never involves the center: Haar measure is translation
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .aqring import AqElem
from .errors import NULL, InfiniteMeasure, json_fields
from .padic import INFINITY, AngularResidue, PAdicPoint, Prime, rational_ac, rational_ord
from .presburger import GammaCell, geom_sum, intersect_cells


@dataclass(frozen=True)
class KCell:
    """Points t with ord(t-center) in an open range, congruent valuation,
    and prescribed angular component.

    ac_value.r == 0 encodes the degenerate cell {center}: the bounds and
    the congruence are ignored and membership means t == center.
    """

    center: Fraction
    lower: Optional[int]
    upper: Optional[int]
    mod: int
    res: int
    ac_depth: int
    ac_value: AngularResidue
    prime: Prime

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center))
        if self.mod < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.res < self.mod:
            raise ValueError("residue must satisfy 0 <= res < mod")
        if self.ac_depth < 1:
            raise ValueError("angular depth must be >= 1")
        if self.ac_value.m != self.ac_depth:
            raise ValueError("angular residue depth must match the cell depth")
        self.ac_value.validate(self.prime)

    def gamma_cell(self) -> GammaCell:
        """The valuation constraints as a cell in the value group."""
        return GammaCell(self.lower, self.upper, self.mod, self.res)

    def contains_value(self, value: Union[Fraction, int]) -> bool:
        value = Fraction(value)
        diff = value - self.center
        if self.ac_value.r == 0:
            return diff == 0
        if diff == 0:
            return False
        p = self.prime.p
        gamma = rational_ord(diff, p)
        if not self.gamma_cell().contains(gamma):
            return False
        return rational_ac(diff, p, self.ac_depth) == self.ac_value.r

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
        return cls(
            Fraction(center), lower, upper, mod, res, depth, AngularResidue(depth, ac), Prime(p)
        )


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


def _ac_values_compatible(c1: KCell, c2: KCell) -> bool:
    """Can one unit satisfy both angular conditions?  Exactly when the
    residues agree at the coarser depth."""
    m = min(c1.ac_depth, c2.ac_depth)
    pm = c1.prime.p**m
    return c1.ac_value.r % pm == c2.ac_value.r % pm


def _has_member_at_least(cell: GammaCell, bound: int) -> bool:
    return intersect_cells(cell, GammaCell(bound - 1, None)) is not None


def _has_member_at_most(cell: GammaCell, bound: int) -> bool:
    return intersect_cells(cell, GammaCell(None, bound + 1)) is not None


def kcells_disjoint(c1: KCell, c2: KCell) -> bool:
    """Exact disjointness decision.

    For distinct centers, let d = ord(c1 - c2).  A common point t splits by
    gamma1 = ord(t - c1): for gamma1 >= d + M2 the second cell sees only
    c1 - c2 (ord d, angular component of c1 - c2); symmetrically with the
    roles swapped; for gamma1 <= d - M2 both cells read the same unit, so
    the angular values must agree at the coarser depth; the finitely many
    remaining gamma1 are settled by enumerating unit classes at a depth
    where every comparison is class-uniform.
    """
    if c1.prime != c2.prime:
        raise ValueError("cells use different primes")
    p = c1.prime.p
    if c1.ac_value.r == 0 and c2.ac_value.r == 0:
        return c1.center != c2.center
    if c1.ac_value.r == 0:
        return not c2.contains_value(c1.center)
    if c2.ac_value.r == 0:
        return not c1.contains_value(c2.center)

    g1, g2 = c1.gamma_cell(), c2.gamma_cell()
    if c1.center == c2.center:
        if intersect_cells(g1, g2) is None:
            return True
        return not _ac_values_compatible(c1, c2)

    d = rational_ord(c1.center - c2.center, p)
    if d is INFINITY:
        raise ValueError(f"distinct centers {c1.center} and {c2.center} have no finite distance")
    M1, M2 = c1.ac_depth, c2.ac_depth

    # gamma1 >= d + M2: t sits so deep at c1 that c2 sees only c1 - c2.
    if (
        _has_member_at_least(g1, d + M2)
        and g2.contains(d)
        and rational_ac(c1.center - c2.center, p, M2) == c2.ac_value.r
    ):
        return False
    # symmetric far region around c2
    if (
        _has_member_at_least(g2, d + M1)
        and g1.contains(d)
        and rational_ac(c2.center - c1.center, p, M1) == c1.ac_value.r
    ):
        return False
    # gamma1 <= d - M2: both conditions constrain the same unit.
    both = intersect_cells(g1, g2)
    if (
        both is not None
        and _has_member_at_most(both, d - M2)
        and _ac_values_compatible(c1, c2)
    ):
        return False

    # middle window: enumerate unit classes at a depth that settles every
    # valuation and angular comparison of interest
    E = M1 + 2 * M2 + 1
    for gamma1 in range(d - M2 + 1, d + M2):
        if not g1.contains(gamma1):
            continue
        w = (c1.center - c2.center) / Fraction(p) ** gamma1
        step = p**M1
        for j in range(p ** (E - M1)):
            u = c1.ac_value.r + j * step
            if u % p == 0:
                continue
            v = u + w
            if v == 0:
                continue
            ordv = rational_ord(v, p)
            gamma2 = gamma1 + ordv
            if gamma2 >= d + M1:
                continue  # belongs to the far region already tested
            if g2.contains(gamma2) and rational_ac(v, p, M2) == c2.ac_value.r:
                return False
    return True


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
