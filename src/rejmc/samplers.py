"""Rejection samplers over bounded boxes.

srmc_sample draws proposals uniformly on the support box against a constant
envelope c (accept when f(x) > c*u, u ~ U[0,1)); grmc_sample draws from a
piecewise-uniform proposal and accepts when f(x)/h_cell >= u. The comparison
direction differs on purpose: each mirrors its algorithm as printed, and the
boundary event has probability zero.

Requested sample counts are split into chunks of 4096 acceptances, each run
on substream(seed, chunk_index) and merged in chunk order, so results are a
pure function of (inputs, seed) no matter how many worker threads run. The
worker count comes from the RMC_THREADS environment variable when not passed
explicitly.

A run that draws far more proposals than its running acceptance rate
justifies, or whose chunk has accepted nothing after 2^24 proposals, fails
loudly with BudgetExhausted instead of looping forever.

Chunks, and the integrator's replications, run through ordered_map, the one
parallel map of the package.
"""
from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .model import Box, PiecewiseUniformProposal, RunMetadata, SampleBatch, ScalarField
from .model import TargetSpec, grid_reduce
from .randomness import RandomStream, capture_seed, scale_to_box, substream

__all__ = [
    "estimate_bound_argmax",
    "srmc_sample",
    "grmc_sample",
    "BudgetExhausted",
    "proposal_budget",
    "resolve_workers",
    "ordered_map",
    "CHUNK_ACCEPTS",
    "PROGRESS_INTERVAL",
]

CHUNK_ACCEPTS = 4096
PROGRESS_INTERVAL = 1 << 16
_MAX_BATCH = 1 << 17
_MAX_GRID_TOTAL = 1 << 22
# a chunk with no acceptance after this many proposals fails: at the budget's
# floor rate of 1e-6, zero accepts that late has probability e^-16.8
_ZERO_ACCEPT_LIMIT = 1 << 24

ProgressCallback = Callable[[int, int], None]


class BudgetExhausted(RuntimeError):
    """Proposal budget exceeded: grossly loose envelope or near-zero density."""

    def __init__(self, proposals_drawn: int, accepted: int, requested_n: int):
        self.proposals_drawn = proposals_drawn
        self.accepted = accepted
        self.requested_n = requested_n
        self.acceptance_rate = accepted / proposals_drawn if proposals_drawn else 0.0
        super().__init__(
            f"proposal budget exhausted after {proposals_drawn} proposals with "
            f"{accepted}/{requested_n} accepted (running acceptance rate "
            f"{self.acceptance_rate:.3g})"
        )


def proposal_budget(n: int, acceptance_rate: float) -> float:
    """Proposals allowed before giving up: max(1e4, 1000*n/max(rate, 1e-6))."""
    return max(10_000.0, 1000.0 * n / max(acceptance_rate, 1e-6))


def resolve_workers(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("RMC_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def ordered_map(fn: Callable[[int], object], count: int, workers: int | None = None) -> list:
    """[fn(0), ..., fn(count - 1)], on up to ``workers`` threads.

    Runs serially in the caller's thread when at most one worker would be
    busy. Otherwise a call does not start once a call before it has failed,
    and when the running calls end the first failure in index order is
    raised.
    """
    nworkers = min(resolve_workers(workers), count)
    if nworkers <= 1:
        return [fn(i) for i in range(count)]
    first_failed = count
    lock = threading.Lock()

    def guarded(i: int):
        nonlocal first_failed
        if i > first_failed:
            return None
        try:
            return fn(i)
        except BaseException:
            with lock:
                first_failed = min(first_failed, i)
            raise

    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        futures = [pool.submit(guarded, i) for i in range(count)]
    # a skipped call returns None and comes after a failed one, so this
    # raises the first failure in index order
    return [fut.result() for fut in futures]


def estimate_bound_argmax(
    field: ScalarField, box: Box, grid_per_dim: int, safety: float = 1.0
) -> tuple[float, np.ndarray]:
    """safety * max of the field over a regular grid including box corners,
    and the grid point of the (first) maximum."""
    if grid_per_dim < 2:
        raise ValueError("grid_per_dim must be at least 2")
    if safety < 1.0:
        raise ValueError("safety factor must be at least 1")
    if grid_per_dim**box.dims > _MAX_GRID_TOTAL:
        raise ValueError(
            f"grid of {grid_per_dim}^{box.dims} points exceeds the {_MAX_GRID_TOTAL} limit"
        )
    axes = [np.linspace(lo, hi, grid_per_dim) for lo, hi in box.bounds]
    vals = grid_reduce(field, axes, 1, np.max)
    at = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return safety * float(vals[at]), np.array([a[i] for a, i in zip(axes, at)])


class _Progress:
    """Aggregated proposal/acceptance counters shared by all chunks."""

    def __init__(self, callback: ProgressCallback | None):
        self.callback = callback
        self.lock = threading.Lock()
        self.proposals = 0
        self.accepted = 0
        self._next_mark = PROGRESS_INTERVAL

    def add(self, proposals: int, accepted: int) -> None:
        # the callback fires under the lock so observed counts never go
        # backwards when chunks run on several threads
        with self.lock:
            self.proposals += proposals
            self.accepted += accepted
            if self.callback is not None and self.proposals >= self._next_mark:
                self._next_mark = (self.proposals // PROGRESS_INTERVAL + 1) * PROGRESS_INTERVAL
                self.callback(self.proposals, self.accepted)

    def totals(self) -> tuple[int, int]:
        with self.lock:
            return self.proposals, self.accepted

    def fire_final(self) -> tuple[int, int]:
        snapshot = self.totals()
        if self.callback is not None:
            self.callback(*snapshot)
        return snapshot


class _ChunkBudgetExceeded(Exception):
    pass


def _next_batch_size(target: int, accepted: int, proposed: int) -> int:
    if accepted == 0:
        return int(min(max(4096, proposed), _MAX_BATCH))
    need = target - accepted
    rate = accepted / proposed
    return int(min(max(2048, math.ceil(1.2 * need / rate)), _MAX_BATCH))


def _run_chunk(
    stream: RandomStream,
    chunk_n: int,
    dims: int,
    propose_and_test,
    progress: _Progress,
    max_proposals: int | None,
) -> tuple[np.ndarray, int]:
    """Sequential rejection loop for one chunk, batched for speed.

    ``propose_and_test(stream, batch)`` returns (points, accept_mask). The
    final batch is trimmed at the accepting proposal that completes the
    chunk, so proposal counts match the plain sequential loop exactly.
    """
    taken: list[np.ndarray] = []
    accepted = 0
    proposed = 0
    while accepted < chunk_n:
        batch = _next_batch_size(chunk_n, accepted, proposed)
        pts, ok = propose_and_test(stream, batch)
        hits = np.nonzero(ok)[0]
        need = chunk_n - accepted
        if hits.size >= need:
            last = int(hits[need - 1])
            taken.append(pts[hits[:need]])
            progress.add(last + 1, need)
            proposed += last + 1
            accepted = chunk_n
            break
        taken.append(pts[hits])
        accepted += hits.size
        proposed += batch
        progress.add(batch, hits.size)
        budget = proposal_budget(chunk_n, accepted / proposed)
        if max_proposals is not None:
            budget = min(budget, float(max_proposals))
        if proposed > budget or (accepted == 0 and proposed >= _ZERO_ACCEPT_LIMIT):
            raise _ChunkBudgetExceeded()
    points = np.concatenate(taken, axis=0) if taken else np.empty((0, dims))
    return points, proposed


def _chunk_plan(n: int) -> list[int]:
    plan = [CHUNK_ACCEPTS] * (n // CHUNK_ACCEPTS)
    if n % CHUNK_ACCEPTS:
        plan.append(n % CHUNK_ACCEPTS)
    return plan


def _run_chunked(
    n: int,
    dims: int,
    stream: RandomStream | int,
    propose_and_test,
    bound_for_meta: float,
    progress: ProgressCallback | None,
    workers: int | None,
    max_proposals: int | None,
) -> SampleBatch:
    if n < 1:
        raise ValueError("requested sample count must be at least 1")
    t0 = time.perf_counter()
    run_seed = capture_seed(stream)
    plan = _chunk_plan(n)
    tracker = _Progress(progress)

    def work(i: int) -> tuple[np.ndarray, int]:
        return _run_chunk(
            substream(run_seed, i), plan[i], dims, propose_and_test, tracker, max_proposals
        )

    try:
        results = ordered_map(work, len(plan), workers)
    except _ChunkBudgetExceeded:
        proposals, accepted = tracker.fire_final()
        raise BudgetExhausted(proposals, accepted, n) from None

    points = np.concatenate([r[0] for r in results], axis=0)
    proposals = sum(r[1] for r in results)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    meta = RunMetadata(
        seed=run_seed,
        requested_n=n,
        proposals_drawn=proposals,
        accepted=n,
        acceptance_rate=n / proposals,
        wall_time_ms=elapsed_ms,
        bound_c=bound_for_meta,
    )
    return SampleBatch(dims=dims, points=points, meta=meta)


def srmc_sample(
    target: TargetSpec,
    n: int,
    stream: RandomStream | int,
    *,
    progress: ProgressCallback | None = None,
    workers: int | None = None,
    max_proposals: int | None = None,
) -> SampleBatch:
    """Draw n samples from the target via uniform proposals on its box.

    Per proposal: x uniform on the box (dims draws), y = bound_c * u (one
    draw); accept x iff f(x) > y. Accepted points are returned in acceptance
    order. Raises BudgetExhausted when the proposal budget runs out;
    ``max_proposals`` adds a harder per-chunk cap.
    """
    box = target.support
    d = box.dims
    lower, widths = box.lower, box.widths
    field, c = target.field, target.bound_c

    def propose_and_test(local: RandomStream, batch: int):
        u = local.uniform01_block(batch * (d + 1)).reshape(batch, d + 1)
        pts = scale_to_box(u, lower, widths)
        y = c * u[:, d]
        return pts, field(pts) > y

    return _run_chunked(n, d, stream, propose_and_test, c, progress, workers, max_proposals)


def grmc_sample(
    field: ScalarField,
    proposal: PiecewiseUniformProposal,
    n: int,
    stream: RandomStream | int,
    *,
    progress: ProgressCallback | None = None,
    workers: int | None = None,
    max_proposals: int | None = None,
) -> SampleBatch:
    """Draw n samples using a piecewise-uniform proposal.

    Per proposal: a cell is selected proportionally to its mass (inverse CDF
    over the cumulative mass table; a one-cell partition consumes no draw and
    the algorithm degenerates to srmc_sample), x is uniform within the cell,
    and x is accepted iff f(x)/h_cell >= u. The metadata's bound_c records
    the effective constant total_mass/volume.
    """
    box = proposal.box
    d = box.dims
    single_cell = proposal.cell_count == 1
    cell_widths = proposal.cell_widths
    cum = proposal.cumulative
    positive = proposal.positive_cells
    heights_flat = proposal.heights.ravel()

    if single_cell:
        h0 = float(heights_flat[0])
        lower, widths = box.lower, box.widths

        def propose_and_test(local: RandomStream, batch: int):
            u = local.uniform01_block(batch * (d + 1)).reshape(batch, d + 1)
            pts = scale_to_box(u, lower, widths)
            return pts, field(pts) / h0 >= u[:, d]

    else:

        def propose_and_test(local: RandomStream, batch: int):
            u = local.uniform01_block(batch * (d + 2)).reshape(batch, d + 2)
            cells = positive[np.searchsorted(cum, u[:, 0], side="right")]
            lows = proposal.cell_lower(cells)
            pts = scale_to_box(u[:, 1:], lows, cell_widths)
            return pts, field(pts) / heights_flat[cells] >= u[:, d + 1]

    effective_c = proposal.total_mass / box.volume
    return _run_chunked(
        n, d, stream, propose_and_test, effective_c, progress, workers, max_proposals
    )
