"""Region-restricted Monte Carlo integration.

integrate_screened estimates the integral of a nonnegative integrand g over
a region D contained in a box S as A*B, where A = vol(S)*mean(g) over a
uniform batch estimates the box integral and B is the fraction of
g-proportional rejection samples that land in D. integrate_direct is the
plain estimator vol(S)*mean(g*indicator) over uniform draws and serves as an
independent cross-check; it also accepts signed integrands.

Uncertainty comes from independent replications: each replication runs on
substream(seed, replication_index) and the reported standard error is the
replication standard deviation over sqrt(R). Replications run through
ordered_map on up to RMC_THREADS threads; the screened estimator's sampler
seeds itself with the replication stream's state after the uniform batch,
and runs serially inside a replication on the pool.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expression import Node
from .model import Box, ScalarField, validate_target
from .randomness import capture_seed, substream, uniform_box_block
from .samplers import ordered_map, srmc_sample

__all__ = ["IntegralEstimate", "integrate_screened", "integrate_direct"]


@dataclass(frozen=True)
class IntegralEstimate:
    """Replication-aggregated integral estimate.

    value is the mean of per_replication_values; std_error is their sample
    standard deviation over sqrt(replications) (0.0 for a single
    replication). Counts are totals across replications; the screening
    fields are zero for the direct estimator. proposals_drawn/accepted/
    bound_c echo the internal sampler for the screened estimator.
    """

    value: float
    replications: int
    per_replication_values: tuple[float, ...]
    std_error: float
    n_uniform: int
    n_screened: int
    n_in_region: int
    proposals_drawn: int = 0
    accepted: int = 0
    bound_c: float | None = None

    def __post_init__(self):
        if self.n_in_region > self.n_screened:
            raise ValueError("in-region count cannot exceed the screened count")


def _aggregate(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    value = float(arr.mean())
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return value, stderr


def integrate_screened(
    g: ScalarField,
    region: Node,
    box: Box,
    n: int,
    reps: int,
    seed: int,
) -> IntegralEstimate:
    """Indicator-screening estimate of the integral of g over the region.

    Per replication: draw n uniform points on the box for the box-integral
    term A = vol*mean(g), then n rejection samples from the density
    proportional to g and take B = (in-region count)/n; the replication value
    is A*B. g must be nonnegative on the box (probe-validated).
    """
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be at least 1")
    indicator = ScalarField(region, g.vars)
    target = validate_target(g, box)
    run_seed = capture_seed(seed)
    vol = box.volume

    def one_rep(r: int) -> tuple[float, int, int, int]:
        rs = substream(run_seed, r)
        # the n x d uniform batch is freed before the sampler runs
        a = vol * float(np.mean(g(uniform_box_block(rs, box, n))))
        batch = srmc_sample(target, n, rs.state)
        in_region = int(np.count_nonzero(indicator(batch.points) == 1.0))
        return a * (in_region / n), in_region, batch.meta.proposals_drawn, batch.meta.accepted

    results = ordered_map(one_rep, reps)
    values = [r[0] for r in results]
    value, stderr = _aggregate(values)
    return IntegralEstimate(
        value=value,
        replications=reps,
        per_replication_values=tuple(values),
        std_error=stderr,
        n_uniform=n * reps,
        n_screened=n * reps,
        n_in_region=sum(r[1] for r in results),
        proposals_drawn=sum(r[2] for r in results),
        accepted=sum(r[3] for r in results),
        bound_c=target.bound_c,
    )


def integrate_direct(
    g: ScalarField,
    region: Node,
    box: Box,
    n: int,
    reps: int,
    seed: int,
) -> IntegralEstimate:
    """Plain Monte Carlo estimate vol*mean(g*indicator) over uniform draws.

    The independent oracle for integrate_screened; g may take any sign.
    """
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be at least 1")
    indicator = ScalarField(region, g.vars)
    run_seed = capture_seed(seed)
    vol = box.volume

    def one_rep(r: int) -> float:
        uniform = uniform_box_block(substream(run_seed, r), box, n)
        inside = indicator(uniform)
        return vol * float(np.mean(g(uniform) * inside))

    values = ordered_map(one_rep, reps)
    value, stderr = _aggregate(values)
    return IntegralEstimate(
        value=value,
        replications=reps,
        per_replication_values=tuple(values),
        std_error=stderr,
        n_uniform=n * reps,
        n_screened=0,
        n_in_region=0,
    )
