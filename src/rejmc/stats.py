"""Empirical summaries and goodness-of-fit checks for sample batches.

summarize takes one mean and one centered cross product over the whole
batch. The KS test sorts its draws and uses the fixed asymptotic thresholds
1.358/sqrt(n) (alpha 0.05) and 1.628/sqrt(n) (alpha 0.01); the box
chi-square test compares observed cell counts against midpoint-quadrature
cell masses of the target density.
Its threshold is the 0.999 quantile of chi-square with dof degrees of
freedom, computed as 2 * gammaincinv(dof / 2, 0.999): the formula of
scipy.stats.chi2.ppf, bit for bit, without importing scipy.stats, which
would dominate the command-line start-up time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaincinv

from .model import SampleBatch, TargetSpec, bin_counts, check_grid_size, grid_reduce

__all__ = [
    "SummaryStats",
    "GofReport",
    "summarize",
    "ks_test_1d",
    "chi_square_box",
    "chi_square_bins",
    "predicted_acceptance",
    "KS_THRESHOLDS",
]

KS_THRESHOLDS = {0.05: 1.358, 0.01: 1.628}
_CHI2_CONFIDENCE = 0.999
_QUADRATURE_PER_DIM = 32
# cells expected to hold fewer samples are merged into a neighbor
_MIN_EXPECTED = 5.0


@dataclass(frozen=True, eq=False)
class SummaryStats:
    """Mean, unbiased covariance (divisor n-1) and correlation.

    Dimensions with zero variance get NaN correlation entries (the undefined
    marker) instead of raising.
    """

    n: int
    mean: np.ndarray
    covariance: np.ndarray
    correlation: np.ndarray


@dataclass(frozen=True)
class GofReport:
    """Outcome of one goodness-of-fit test.

    ``passed`` ("pass" is reserved in Python) is statistic < threshold; it
    is serialized as "pass" in run-metadata JSON.
    """

    kind: str  # "ks" or "chi_square"
    statistic: float
    threshold: float
    dof: int | None

    @property
    def passed(self) -> bool:
        return self.statistic < self.threshold


def _as_points(batch: SampleBatch | np.ndarray) -> np.ndarray:
    pts = batch.points if isinstance(batch, SampleBatch) else np.asarray(batch, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, d) matrix, got shape {pts.shape}")
    return pts


def summarize(batch: SampleBatch | np.ndarray) -> SummaryStats:
    """Summary of a batch (needs at least two rows)."""
    pts = _as_points(batch)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("summaries need at least 2 samples")
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = (centered.T @ centered) / (n - 1)
    sd = np.sqrt(np.diag(cov))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = cov / np.outer(sd, sd)
    corr[~np.isfinite(corr)] = np.nan
    return SummaryStats(n=n, mean=mean, covariance=cov, correlation=corr)


def ks_test_1d(
    samples: Sequence[float] | np.ndarray,
    cdf: Callable[[np.ndarray], np.ndarray],
    alpha: float = 0.01,
) -> GofReport:
    """One-sample Kolmogorov-Smirnov test against a reference CDF.

    D_n = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted
    sample; the draws may come in any order.
    """
    if alpha not in KS_THRESHOLDS:
        raise ValueError(f"alpha must be one of {sorted(KS_THRESHOLDS)}, got {alpha}")
    xs = np.sort(np.asarray(samples, dtype=np.float64), axis=None)
    n = xs.size
    if n < 1:
        raise ValueError("KS test needs at least one sample")
    f = np.asarray(cdf(xs), dtype=np.float64)
    i = np.arange(1, n + 1)
    d = float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))
    threshold = KS_THRESHOLDS[alpha] / math.sqrt(n)
    return GofReport(kind="ks", statistic=d, threshold=threshold, dof=None)


def _cell_neighbors(idx: int, bins: tuple[int, ...]) -> list[int]:
    multi = list(np.unravel_index(idx, bins))
    out = []
    for axis, b in enumerate(bins):
        for step in (-1, 1):
            coord = multi[axis] + step
            if 0 <= coord < b:
                shifted = multi.copy()
                shifted[axis] = coord
                out.append(int(np.ravel_multi_index(shifted, bins)))
    return out


def _merge_small_cells(
    observed: np.ndarray, expected: np.ndarray, bins: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Union-find merge of cells with expected count below _MIN_EXPECTED
    into their largest neighboring group, scanning in row-major order."""
    ncells = observed.size
    parent = np.arange(ncells)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return int(i)

    group_exp = expected.astype(np.float64).copy()
    group_obs = observed.astype(np.float64).copy()
    for _ in range(ncells):
        changed = False
        for idx in range(ncells):
            g = find(idx)
            if group_exp[g] >= _MIN_EXPECTED:
                continue
            candidates = {find(nb) for nb in _cell_neighbors(idx, bins)} - {g}
            if not candidates:
                continue
            best = max(candidates, key=lambda c: (group_exp[c], -c))
            parent[g] = best
            group_exp[best] += group_exp[g]
            group_obs[best] += group_obs[g]
            changed = True
        if not changed:
            break
    roots = sorted({find(i) for i in range(ncells)})
    return group_obs[roots], group_exp[roots]


def chi_square_bins(dims: int, bins_per_dim: int | Sequence[int]) -> tuple[int, ...]:
    """Bins per dimension for chi_square_box on a dims-D box.

    Raises ValueError, as chi_square_box would, for bad bin counts, a
    partition of fewer than 2 cells or a quadrature grid too large for
    grid_reduce, so a caller can check its arguments before it samples.
    """
    bins = bin_counts(bins_per_dim, dims)
    if math.prod(bins) < 2:
        raise ValueError("the chi-square test needs at least 2 cells; use more bins")
    check_grid_size([b * _QUADRATURE_PER_DIM for b in bins])
    return bins


def chi_square_box(
    batch: SampleBatch | np.ndarray,
    target: TargetSpec,
    bins_per_dim: int | Sequence[int],
) -> GofReport:
    """Chi-square test of a batch against its target on the support box.

    Expected cell probabilities come from midpoint quadrature (32^d points
    per cell), normalized over the box; cells with expected count below 5
    are merged into their largest neighbor.
    """
    pts = _as_points(batch)
    box = target.support
    bins = chi_square_bins(box.dims, bins_per_dim)

    edges = [np.linspace(lo, hi, b + 1) for (lo, hi), b in zip(box.bounds, bins)]
    observed, _ = np.histogramdd(pts, bins=edges)

    q = _QUADRATURE_PER_DIM
    axes = []
    for (lo, hi), b in zip(box.bounds, bins):
        step = (hi - lo) / (b * q)
        axes.append(lo + (np.arange(b * q, dtype=np.float64) + 0.5) * step)
    cell_mass = grid_reduce(target.field, axes, q, np.sum)
    total = float(cell_mass.sum())
    if not total > 0.0:
        raise ValueError("target density vanishes on the quadrature grid")
    probs = cell_mass / total

    n = pts.shape[0]
    grouped_obs, grouped_exp = _merge_small_cells(observed.ravel(), probs.ravel() * n, bins)
    if grouped_obs.size < 2:
        raise ValueError("fewer than two cells remain after merging; use fewer bins")
    statistic = float(np.sum((grouped_obs - grouped_exp) ** 2 / grouped_exp))
    dof = grouped_obs.size - 1
    threshold = float(2 * gammaincinv(dof / 2, _CHI2_CONFIDENCE))
    return GofReport(kind="chi_square", statistic=statistic, threshold=threshold, dof=dof)


def predicted_acceptance(f_box_integral: float, c: float, vol: float) -> float:
    """Acceptance probability of srmc: integral / (c * volume)."""
    if not (f_box_integral > 0 and c > 0 and vol > 0):
        raise ValueError("all inputs must be positive")
    return f_box_integral / (c * vol)
