"""
Sampling a 1-D density by rejection
===================================

The simplest rejection scheme: throw uniform points at the bounding
rectangle of a density and keep the ones that land under the curve. The
kept horizontal coordinates are exact draws from the density.

Target: f(x) = sin(x)/sqrt(2) on (pi/4, 3*pi/4), a proper density whose
maximum is 1/sqrt(2) ~ 0.7071. We use the envelope constant c = 1.1.
"""
import math

import numpy as np

from rejmc import Box, ScalarField, ks_test_1d, predicted_acceptance, srmc_sample, validate_target

# 1. Declare the target: an expression, its variable, and a bounding box.
field = ScalarField.from_text("sin(x)/sqrt(2)", ["x"])
box = Box([(math.pi / 4, 3 * math.pi / 4)])
target = validate_target(field, box, bound_c=1.1)

# 2. Draw 10000 samples. Everything is seeded: rerunning this script
#    reproduces the identical batch, bit for bit.
batch = srmc_sample(target, 10_000, seed=1)
meta = batch.meta
print(f"accepted {meta.accepted} of {meta.proposals_drawn} proposals")
print(f"empirical acceptance rate  {meta.acceptance_rate:.4f}")

# 3. The acceptance rate has a closed form: integral / (c * box volume).
#    Here the integral over the box is exactly 1.
print(f"predicted acceptance rate  {predicted_acceptance(1.0, 1.1, math.pi / 2):.4f}")

# 4. Check the draws against the analytic CDF F(x) = 1/2 - cos(x)/sqrt(2)
#    with a Kolmogorov-Smirnov test.
report = ks_test_1d(batch.points[:, 0], lambda xs: 0.5 - np.cos(xs) / np.sqrt(2), alpha=0.01)
print(
    f"KS statistic {report.statistic:.5f} vs threshold {report.threshold:.5f} "
    f"-> {'PASS' if report.passed else 'FAIL'}"
)

# 5. A quick histogram view of the density shape (16 bins, text art).
counts, edges = np.histogram(batch.points[:, 0], bins=16)
peak = counts.max()
for count, lo in zip(counts, edges):
    print(f"  {lo:5.2f} | {'#' * int(40 * count / peak)}")
