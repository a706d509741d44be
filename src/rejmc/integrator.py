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

No replication holds an n-row matrix. Both estimators draw their uniform
batch _PIECE points at a time into one array of n values, whose mean is
the whole batch's, bit for bit; the screened estimator counts each gang's
in-region samples as the sampler finishes the gang, and the integer sum is
exact in any grouping. A replication raises what the first faulting row
raises evaluated alone, in the order of one row at a time: the uniform
batch, then each proposal and each accepted sample's region value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expression import Node, _zero_or_one
from .model import Box, ScalarField, check_dims, validate_target
from .randomness import RandomStream, capture_seed, substream, uniform_box_block
from .samplers import _first_fault, ordered_map, srmc_sample

# rows of the uniform batch drawn and evaluated at once
_PIECE = 1 << 14

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


def _region_indicator(region: Node, variables) -> Callable[[np.ndarray], np.ndarray]:
    """The region's indicator at each point, refused unless every value is
    0 or 1. A comparison, or an "and" of comparisons, gives only 0.0 or 1.0,
    so its values are not scanned."""
    indicator = ScalarField(region, variables)
    if _zero_or_one(region):
        return indicator

    def in_region(points: np.ndarray) -> np.ndarray:
        inside = indicator(points)
        if not np.all((inside == 0.0) | (inside == 1.0)):
            raise ValueError("region must evaluate to 0 or 1")
        return inside

    return in_region


def _values(fn, points: np.ndarray) -> np.ndarray:
    """fn(points), or the error of the first row that faults evaluated alone."""
    values, fault = _first_fault(lambda rows: fn(points[rows]), len(points))
    if fault is not None:
        raise fault
    return values


def _box_values(value, stream: RandomStream, box: Box, n: int) -> np.ndarray:
    """value(points) for points = uniform_box_block(stream, box, n), with the
    same bits and stream use, drawn and evaluated _PIECE rows at a time."""
    out = np.empty(n)
    for lo in range(0, n, _PIECE):
        hi = min(n, lo + _PIECE)
        out[lo:hi] = _values(value, uniform_box_block(stream, box, hi - lo))
    return out


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
    in_region = _region_indicator(region, g.vars)
    target = validate_target(g, box)
    run_seed = capture_seed(seed)
    vol = box.volume

    def count_in_region(points: np.ndarray) -> int:
        return int(np.count_nonzero(_values(in_region, points)))

    def one_rep(r: int) -> tuple[float, int, int, int]:
        rs = substream(run_seed, r)
        a = vol * float(np.mean(_box_values(g, rs, box, n)))
        run = srmc_sample(target, n, rs.state, finish=count_in_region)
        count = sum(run.parts)
        return a * (count / n), count, run.meta.proposals_drawn, run.meta.accepted

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
    check_dims(g, box)
    in_region = _region_indicator(region, g.vars)
    run_seed = capture_seed(seed)
    vol = box.volume

    def g_in_region(points: np.ndarray) -> np.ndarray:
        return g(points) * in_region(points)

    def one_rep(r: int) -> float:
        return vol * float(np.mean(_box_values(g_in_region, substream(run_seed, r), box, n)))

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
