"""Integrating constructible functions: symbolic engine vs oracle.

The symbolic path exchanges a field variable for its valuation (each
valuation shell has known measure) and sums the resulting value-group
series in closed form.  On the unit ball a shell {ord x = g} has measure
(1 - q^-1) q^-g whatever p is, so the engine returns one element of
Z[q, q^-1, 1/(1-q^-i)] for every prime and only its value at q = p
changes.  The oracle averages the integrand over residue classes and
reports a certified error bound.  They must agree.
"""

from fractions import Fraction

from padicint import Domain, Prime, UNIT_BALL, brute_force_integrate, integrate
from padicint.integrate import GAMMA_SORT, K_SORT, LinExpr
from padicint.parsing import parse_integrand
from padicint.presburger import GammaCell, PreparedLinear

print("== the classical integrals over Z_p: one element for every p ==")
for p in (2, 3, 5):
    prime = Prime(p)
    dom = Domain([("x1", K_SORT, UNIT_BALL)], prime)
    norm = integrate(parse_integrand("q^(-ord(x1))"), dom)
    ordx = integrate(parse_integrand("ord(x1)"), dom)
    print(f"  p={p}:  int |x| dx = {norm.render()} = {norm.eval_at(prime)}"
          f"   int ord(x) dx = {ordx.render()} = {ordx.eval_at(prime)}")

print("\n== oracle agreement with certified tails ==")
prime = Prime(2)
dom = Domain([("x1", K_SORT, UNIT_BALL)], prime)
f = parse_integrand("ord(x1) * q^(-ord(x1))")
symbolic = integrate(f, dom).eval_at(prime)
print(f"  symbolic value of int ord(x) |x| dx at p=2: {symbolic}")
for depth in (4, 6, 8):
    oracle = brute_force_integrate(f, dom, depth, growth=(1, -1, 1))
    gap = abs(symbolic - oracle.value)
    print(
        f"  depth {depth}: oracle {float(oracle.value):.8f}, "
        f"|gap| = {float(gap):.2e} <= tail bound {float(oracle.tail_bound):.2e}"
    )

print("\n== iterated sums with dependent bounds ==")
print("Counting-measure triangle: g1 > 0, g2 > g1, integrand q^(-g2).")
tri = Domain(
    [
        ("g1", GAMMA_SORT, [GammaCell(0, None, 1, 0)]),
        # the lower bound g1 is the leaf lin(1,0,1,0;g1) of an integrand
        ("g2", GAMMA_SORT, [GammaCell(LinExpr(PreparedLinear(1, 0, 1, 0), "g1"), None, 1, 0)]),
    ],
    prime,
)
inner_dependent = integrate(parse_integrand("q^(-lin(1,0,1,0;g2))"), tri)
print(f"  closed form {inner_dependent.render()} = {inner_dependent.eval_at(prime)} at q = 2")
brute = sum(Fraction(1, 2**b) for a in range(1, 25) for b in range(a + 1, 60))
print(f"  brute double sum: {float(brute):.10f}")

print("\n== where the symbolic engine refuses ==")
print("ord(1 + x^2) is not reducible to the valuation of x on a cell, so")
print("the engine raises and the oracle takes over:")
g = parse_integrand("q^(-ord(1 + x1^2))")
dom3 = Domain([("x1", K_SORT, UNIT_BALL)], Prime(3))
try:
    integrate(g, dom3)
except Exception as exc:
    print(f"  symbolic: {type(exc).__name__}: {exc}")
oracle = brute_force_integrate(g, dom3, 5)
print(f"  oracle: {oracle.value} with tail bound {oracle.tail_bound}"
      "   (|1 + x^2| = 1 on Z_3: -1 is not a square mod 3)")
