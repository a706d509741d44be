"""
Integrating over an awkward region by screening
===============================================

The integral of x*y over the region D bounded by the parabola y^2 = x, the
x axis and the line y = x - 2 equals exactly 6 (iterate x from y^2 to
y + 2, then y from 0 to 2). Instead of working out those bounds, enclose D
in the rectangle S = [0,4] x [0,2] and split the problem:

    integral over D  =  (integral of x*y over S) * E[indicator of D]

where the expectation is under the density proportional to x*y on S. Both
factors are Monte Carlo estimates: the first from uniform draws on S, the
second as the fraction of rejection samples that land inside D.

A plain estimator (volume * mean of integrand * indicator over uniforms)
cross-checks the screened one.
"""
from rejmc import Box, ScalarField, integrate_direct, integrate_screened, parse

g = ScalarField.from_text("x*y", ["x", "y"])
region = parse("y^2 <= x and y >= 0 and y >= x - 2", ["x", "y"])
box = Box([(0, 4), (0, 2)])

EXACT = 6.0
print("      n    screened    deviation      direct    deviation")
for n in (100, 1_000, 10_000, 100_000):
    screened = integrate_screened(g, region, box, n, reps=10, seed=7)
    direct = integrate_direct(g, region, box, n, reps=10, seed=7)
    print(
        f"{n:>7}    {screened.value:8.4f}    {screened.value - EXACT:+9.4f}"
        f"    {direct.value:8.4f}    {direct.value - EXACT:+9.4f}"
    )

# Uncertainty comes from 10 independent replications per estimate.
final = integrate_screened(g, region, box, 100_000, reps=10, seed=7)
print(f"\nscreened at n=100000: {final.value:.4f} +/- {final.std_error:.4f}")
print(f"exact value:          {EXACT:.4f}")
print(f"in-region fraction:   {final.n_in_region / final.n_screened:.4f}")
