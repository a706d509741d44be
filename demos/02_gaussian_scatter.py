"""
Sampling a correlated bivariate Gaussian
========================================

Rejection sampling extends to vectors with no extra machinery: propose
uniformly in a box, compare against the density. Here the target is a
two-dimensional Gaussian with unit variances and correlation 0.2,
truncated to the square [-5, 5] x [-5, 5] (the mass outside is ~1e-6).

The script draws batches of growing size, shows how the empirical
correlation settles toward 0.2, and writes an SVG scatter plot of the
largest batch.
"""
from pathlib import Path

from rejmc import Box, ScalarField, srmc_sample, summarize, validate_target
from rejmc.svgplot import scatter_svg

# density with covariance [[1, 0.2], [0.2, 1]]: determinant 0.96
DENSITY = "exp(-(x^2 + y^2 - 0.4*x*y)/1.92) / (2*pi*sqrt(0.96))"

field = ScalarField.from_text(DENSITY, ["x", "y"])
box = Box([(-5, 5), (-5, 5)])

# The maximum is at the origin, ~0.16244; any constant above it works as an
# envelope. A looser constant only costs acceptance rate, never correctness.
target = validate_target(field, box, bound_c=0.1657)

print("   n      acceptance   corr(x, y)")
batch = None
for n in (1_000, 10_000, 100_000):
    batch = srmc_sample(target, n, seed=42)
    stats = summarize(batch)
    print(f"{n:>8}   {batch.meta.acceptance_rate:.4f}       {stats.correlation[0, 1]:+.4f}")

print("\ntheoretical correlation: +0.2000")

# Scatter plot of the last batch, in the style of a printed figure:
# fixed 800x800 viewport, radius-1 dots, box bounds on the axes.
out = Path("gaussian_scatter.svg")
out.write_bytes(b"".join(scatter_svg(batch.points, box, ("x", "y"))))
print(f"wrote {out} ({batch.meta.accepted} points)")
