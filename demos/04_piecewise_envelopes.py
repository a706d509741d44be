"""
Tighter envelopes from histogram proposals
==========================================

A constant envelope wastes proposals wherever the density is low. A
piecewise-constant (histogram) envelope hugs the density: partition the box
into cells, bound the density on each cell, and propose cell-by-cell in
proportion to the envelope mass. The acceptance rate is 1/M where M is the
total envelope mass, so a smaller M means fewer wasted proposals.

With a single cell the histogram envelope IS the constant envelope, and the
sampler reproduces the plain one draw for draw.
"""
import math

import numpy as np

from rejmc import Box, ScalarField, build_piecewise_proposal, grmc_sample, srmc_sample, validate_target

field = ScalarField.from_text("sin(x)/sqrt(2)", ["x"])
box = Box([(math.pi / 4, 3 * math.pi / 4)])

# 1. Envelope mass shrinks as the partition refines (it can never grow).
print("bins    envelope mass    predicted acceptance")
proposals = {}
for bins in (1, 4, 16, 64):
    prop = build_piecewise_proposal(field, box, bins)
    proposals[bins] = prop
    print(f"{bins:>4}    {prop.total_mass:.5f}          {1 / prop.total_mass:.4f}")

# 2. Sampling with the 64-cell envelope: acceptance close to 1/M.
batch = grmc_sample(field, proposals[64], 50_000, seed=3)
print(f"\n64-cell empirical acceptance: {batch.meta.acceptance_rate:.4f}")

# 3. One cell degenerates to the constant-envelope sampler, bit for bit.
single = proposals[1]
c = float(single.heights.ravel()[0])
target = validate_target(field, box, bound_c=c)
a = srmc_sample(target, 5_000, seed=11)
b = grmc_sample(field, single, 5_000, seed=11)
print(f"single-cell grmc == srmc: {np.array_equal(a.points, b.points)}")
print(f"identical proposal counts: {a.meta.proposals_drawn == b.meta.proposals_drawn}")
