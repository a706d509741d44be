"""Geometric supports, target specifications and envelope constructions.

All model types are immutable after construction and safe to share across
threads. Validation is probe-based (the density is an arbitrary expression,
so nothing is symbolic): a fixed-seed stream supplies the probe points, which
keeps every validation decision reproducible.

A bounded box is required even for targets whose support is unbounded; the
sampler then draws from the renormalized truncation of the density to the
box.

Every regular-grid evaluation (bound, histogram envelope, chi-square
quadrature) goes through ``grid_reduce``, which evaluates in bounded-memory
slabs and refuses a grid of more than 2^28 points before evaluating any.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import expression
from .expression import Node, VarOrder
from .randomness import RandomStream, uniform_box_block

__all__ = [
    "Box",
    "box_from_text",
    "ScalarField",
    "TargetSpec",
    "PiecewiseUniformProposal",
    "RunMetadata",
    "SampleBatch",
    "ModelValidationError",
    "EnvelopeViolation",
    "validate_target",
    "build_piecewise_proposal",
    "bin_counts",
    "grid_reduce",
    "check_grid_size",
    "check_dims",
    "estimate_bound_argmax",
    "default_grid",
    "MAX_GRID_POINTS",
    "SAFETY",
]

# fixed seed for validation probes: decisions must not vary run to run
_VALIDATION_SEED = 0x56414C4944415445
_PROBES = 1000
# factor on every estimated envelope (grid maximum or per-cell maxima)
SAFETY = 1.2
# a histogram proposal's grid splits each cell edge this many times
_REFINEMENT = 8

# a histogram proposal's per-cell tables (heights, masses, positive-cell
# index, cumulative mass) hold at most this many cells. It binds only in
# 1-D: with 9 grid points per cell edge, _GRID_LIMIT refuses more than
# 2^28/81 (about 3.3e6) cells in 2-D, but lets up to 2^28/9 (about 3.0e7)
# cells through in 1-D
MAX_GRID_POINTS = 1 << 22
# grid_reduce evaluates at most this many points at once (unless the fewest
# cells a slab may hold have more) and refuses grids larger than the limit
_GRID_BLOCK = 1 << 20
_GRID_LIMIT = 1 << 28


class ModelValidationError(ValueError):
    """A model input failed probe validation."""


class EnvelopeViolation(ModelValidationError):
    """The supplied envelope constant is below the field somewhere."""

    def __init__(self, point: np.ndarray, value: float, bound: float):
        self.point = np.asarray(point, dtype=np.float64)
        self.value = value
        self.bound = bound
        coords = ", ".join(repr(float(c)) for c in self.point)
        super().__init__(
            f"envelope constant {bound!r} violated: field value {value!r} at ({coords})"
        )


@dataclass(frozen=True)
class Box:
    """Axis-aligned hyper-rectangle with finite positive volume."""

    bounds: tuple[tuple[float, float], ...]

    def __init__(self, bounds: Sequence[Sequence[float]]):
        norm = tuple((float(lo), float(hi)) for lo, hi in bounds)
        object.__setattr__(self, "bounds", norm)
        if not norm:
            raise ValueError("box needs at least one dimension")
        for i, (lo, hi) in enumerate(norm):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"dimension {i}: bounds must be finite, got {lo}:{hi}")
            if not lo < hi:
                raise ValueError(f"dimension {i}: lower bound must be below upper, got {lo}:{hi}")
            if not math.isfinite(hi - lo):
                raise ValueError(f"dimension {i}: width overflows to infinity, got {lo}:{hi}")
        if not 0.0 < self.volume < math.inf:
            spans = ",".join(f"{lo}:{hi}" for lo, hi in norm)
            fault = "underflows to zero" if self.volume == 0.0 else "overflows to infinity"
            raise ValueError(f"box volume {fault}, got {spans}")

    @property
    def dims(self) -> int:
        return len(self.bounds)

    @cached_property
    def lower(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.bounds], dtype=np.float64)

    @cached_property
    def upper(self) -> np.ndarray:
        return np.array([hi for _, hi in self.bounds], dtype=np.float64)

    @cached_property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @cached_property
    def volume(self) -> float:
        return math.prod(hi - lo for lo, hi in self.bounds)


def box_from_text(text: str) -> Box:
    """Parse the CLI box syntax "lo:hi,lo:hi,..." (one pair per dimension)."""
    pairs = []
    for i, part in enumerate(text.split(",")):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ValueError(f"dimension {i}: expected lo:hi, got {part!r}")
        try:
            pairs.append((float(pieces[0]), float(pieces[1])))
        except ValueError:
            raise ValueError(f"dimension {i}: bounds must be numbers, got {part!r}") from None
    return Box(pairs)


@dataclass(frozen=True)
class ScalarField:
    """An expression together with the variable order that evaluates it."""

    expr: Node
    vars: VarOrder
    # expr's evaluator, compiled once per field (see expression.compile_node)
    _evaluate: Callable = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        loose = expression.free_vars(self.expr) - set(self.vars.names)
        if loose:
            raise ValueError(f"expression uses undeclared variables: {sorted(loose)}")
        object.__setattr__(self, "_evaluate", expression.compile_node(self.expr))

    @classmethod
    def from_text(cls, text: str, variables: VarOrder | Sequence[str]) -> "ScalarField":
        order = variables if isinstance(variables, VarOrder) else VarOrder(variables)
        return cls(expression.parse(text, order), order)

    @property
    def dims(self) -> int:
        return self.vars.dims

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return expression.evaluate_batch(self._evaluate, points)

    def __reduce__(self):
        # a closure does not pickle; the copy compiles its own
        return type(self), (self.expr, self.vars)


@dataclass(frozen=True)
class TargetSpec:
    """Everything a rejection sampler consumes: field, support, envelope."""

    field: ScalarField
    support: Box
    bound_c: float

    def __post_init__(self):
        check_dims(self.field, self.support)
        if not (self.bound_c > 0.0 and math.isfinite(self.bound_c)):
            raise ValueError(f"envelope constant must be positive and finite: {self.bound_c!r}")


@dataclass(frozen=True)
class RunMetadata:
    """Provenance of one sampling run: a function of (inputs, seed) alone,
    so two runs of the same inputs and seed have equal metadata."""

    seed: int
    proposals_drawn: int
    accepted: int
    bound_c: float

    def __post_init__(self):
        if self.accepted > self.proposals_drawn:
            raise ValueError("accepted count cannot exceed proposals drawn")

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals_drawn


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Accepted draws (acceptance order) plus run provenance."""

    points: np.ndarray  # (accepted, dims) float64
    meta: RunMetadata

    def __post_init__(self):
        if self.points.ndim != 2 or len(self.points) != self.meta.accepted:
            raise ValueError(
                f"points shape {self.points.shape} inconsistent with "
                f"accepted={self.meta.accepted}"
            )

    @property
    def dims(self) -> int:
        return self.points.shape[1]


def default_grid(dims: int) -> int:
    """Largest odd per-dimension grid with at most ~2^18 total points,
    clamped to [5, 1025]. Odd counts place a point at the box center."""
    g = int((1 << 18) ** (1.0 / dims))
    if g % 2 == 0:
        g -= 1
    return max(5, min(g, 1025))


def validate_target(
    field: ScalarField,
    box: Box,
    bound_c: float | None = None,
) -> TargetSpec:
    """Probe-validate a target and fix its envelope constant.

    The field must be finite and nonnegative at every probe point. A supplied
    bound_c is checked against the probes (EnvelopeViolation reports the
    offending point and value); without one, the maximum on a default_grid
    times SAFETY is estimated and stored.
    """
    check_dims(field, box)
    pts = uniform_box_block(RandomStream(_VALIDATION_SEED), box, _PROBES)
    vals = field(pts)

    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ModelValidationError(
            f"field is not finite at probe point {pts[i].tolist()}: {vals[i]!r}"
        )
    neg = vals < 0.0
    if np.any(neg):
        i = int(np.argmax(neg))
        raise ModelValidationError(
            f"field is negative at probe point {pts[i].tolist()}: {vals[i]!r}"
        )

    if bound_c is None:
        bound_c, _ = estimate_bound_argmax(field, box, default_grid(box.dims), safety=SAFETY)
        if not bound_c > 0.0:
            raise ModelValidationError(
                "estimated envelope is not positive; the field vanishes on the grid"
            )
    else:
        bound_c = float(bound_c)
        if not bound_c > 0.0:
            raise ModelValidationError(f"envelope constant must be positive: {bound_c!r}")
        over = vals > bound_c
        if np.any(over):
            i = int(np.argmax(over))
            raise EnvelopeViolation(pts[i], float(vals[i]), bound_c)

    return TargetSpec(field, box, bound_c)


def bin_counts(bins_per_dim: int | Sequence[int], dims: int) -> tuple[int, ...]:
    """Bins per dimension from one int (used for every dimension) or one
    count per dimension; each count must be at least 1."""
    bins = (
        (int(bins_per_dim),) * dims
        if isinstance(bins_per_dim, int)
        else tuple(int(b) for b in bins_per_dim)
    )
    if len(bins) != dims or any(b < 1 for b in bins):
        raise ValueError(f"need {dims} positive bin counts, got {bins}")
    return bins


def check_dims(field: ScalarField, box: Box) -> None:
    """Raises ValueError unless the field has one variable per box dimension."""
    if field.dims != box.dims:
        raise ValueError(f"field has {field.dims} variables but box has {box.dims}")


def check_grid_size(counts: Sequence[int]) -> int:
    """Points in a grid of ``counts`` points per axis. Raises ValueError for
    more than 2^28, the check grid_reduce makes before evaluating anything."""
    total = math.prod(counts)
    if total > _GRID_LIMIT:
        raise ValueError(f"grid of {total} points exceeds the limit of {_GRID_LIMIT} points")
    return total


def grid_reduce(field, axes: Sequence[np.ndarray], per_cell: int, reduce) -> np.ndarray:
    """``reduce`` (np.max or np.sum) of ``field`` over each grid cell.

    ``axes[i]`` holds dimension i's coordinates, ``per_cell`` consecutive
    ones per cell. The grid is evaluated in C order, in slabs of whole
    cells of axis k, the first axis with more than one cell, of at most
    2^20 points (or the fewest cells allowed, if larger), so each cell
    reduces bit-identically to a one-shot evaluation. numpy merges reduced
    axes across kept axes of extent one, which could reorder a cell's sum.
    So a slab never cuts an axis after k, and when k > 0 it holds at least
    two cells: one cell would merge the reduced axes on both sides of k.
    Raises ValueError before evaluating anything for a grid of more than
    2^28 points.
    """
    total = check_grid_size([len(a) for a in axes])
    cells = [len(a) // per_cell for a in axes]
    k = next((i for i, c in enumerate(cells) if c > 1), 0)
    least = 1 if k == 0 else 2
    cuts = list(range(0, cells[k], max(least, _GRID_BLOCK // (total // cells[k]))))
    if cells[k] - cuts[-1] < least:
        cuts.pop()
    cell_axes = tuple(range(1, 2 * len(axes), 2))
    out = []
    for start, stop in zip(cuts, [*cuts[1:], cells[k]]):
        part = list(axes)
        part[k] = axes[k][start * per_cell : stop * per_cell]
        vals = field(expression.Grid(part))
        shape = tuple(x for a in part for x in (len(a) // per_cell, per_cell))
        out.append(reduce(vals.reshape(shape), axis=cell_axes))
    return np.concatenate(out, axis=k)


def estimate_bound_argmax(
    field: ScalarField, box: Box, grid_per_dim: int, safety: float = 1.0
) -> tuple[float, np.ndarray]:
    """safety * max of the field over a regular grid including box corners,
    and the grid point of the (first) maximum."""
    check_dims(field, box)
    if grid_per_dim < 2:
        raise ValueError(f"bound grid needs at least 2 points per dimension, got {grid_per_dim}")
    if not (math.isfinite(safety) and safety >= 1.0):
        raise ValueError(f"safety factor must be finite and at least 1, got {safety}")
    check_grid_size([grid_per_dim] * box.dims)
    axes = [np.linspace(lo, hi, grid_per_dim) for lo, hi in box.bounds]
    vals = grid_reduce(field, axes, 1, np.max)
    at = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return safety * float(vals[at]), np.array([a[i] for a, i in zip(axes, at)])


@dataclass(frozen=True, eq=False)
class PiecewiseUniformProposal:
    """Histogram-shaped envelope: constant height per cell of a regular
    partition.

    ``cumulative`` holds each cell's cumulative share of the total mass, in
    flat (C) order, and a uniform u picks the cell
    ``searchsorted(cumulative, u, side="right")``. A cell with zero height
    repeats the share before it, so it is never proposed."""

    box: Box
    bins: tuple[int, ...]
    heights: np.ndarray  # shape == bins
    total_mass: float
    cumulative: np.ndarray

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.bins))

    def cell_lower(self, flat_index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Lower corner of each flat (C-order) cell index; shape (k, dims).

        Equals ``box.lower + index * cell_widths`` bit for bit, computed one
        column at a time into ``out`` (by default a new column-major array).
        """
        idx = np.unravel_index(np.asarray(flat_index), self.bins)
        steps = self.cell_widths
        if out is None:
            out = np.empty((len(idx), len(idx[0]))).T
        for i, col in enumerate(idx):
            np.multiply(col, steps[i], out=out[:, i])
            out[:, i] += self.box.lower[i]
        return out

    @property
    def cell_widths(self) -> np.ndarray:
        return self.box.widths / np.asarray(self.bins, dtype=np.float64)


def build_piecewise_proposal(
    field: ScalarField,
    box: Box,
    bins_per_dim: int | Sequence[int],
) -> PiecewiseUniformProposal:
    """Histogram envelope from per-cell grid maxima.

    Each cell edge is split 8 times (grid includes the cell corners) and
    the cell's height is its grid maximum times SAFETY.
    Cells whose grid maximum is zero get height zero and are never proposed.
    """
    check_dims(field, box)
    bins = bin_counts(bins_per_dim, box.dims)
    cells = math.prod(bins)
    if cells > MAX_GRID_POINTS:
        raise ValueError(f"partition has {cells} cells; limit is {MAX_GRID_POINTS}")

    # per-dimension refined coordinates: _REFINEMENT+1 per cell, corners included
    axes = []
    for (lo, hi), b in zip(box.bounds, bins):
        step = (hi - lo) / b
        offsets = np.arange(_REFINEMENT + 1, dtype=np.float64) / _REFINEMENT * step
        axes.append((lo + np.arange(b, dtype=np.float64)[:, None] * step + offsets).ravel())
    cell_max = grid_reduce(field, axes, _REFINEMENT + 1, np.max)

    heights = np.where(cell_max > 0.0, cell_max * SAFETY, 0.0)
    cell_volume = math.prod((hi - lo) / b for (lo, hi), b in zip(box.bounds, bins))
    masses_flat = heights.ravel() * cell_volume
    total = float(masses_flat.sum())
    if not total > 0.0:
        raise ModelValidationError("field vanishes on the whole partition grid")

    cum = np.cumsum(masses_flat)
    cum /= cum[-1]
    cum[-1] = 1.0

    return PiecewiseUniformProposal(
        box=box, bins=bins, heights=heights, total_mass=total, cumulative=cum
    )
