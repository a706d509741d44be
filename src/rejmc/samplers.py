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

A chunk that has drawn at least 2^24 proposals at a running acceptance rate
below 1e-6 fails the run loudly with BudgetExhausted instead of looping for
hours.

Chunks, the integrator's replications and the CSV and SVG writers' blocks
run through ordered_map, the one parallel map of the package.
"""
from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .model import PiecewiseUniformProposal, RunMetadata, SampleBatch, ScalarField, TargetSpec
# re-exported: bench/tracer.py wraps it under this module's name
from .model import estimate_bound_argmax
from .randomness import RandomStream, capture_seed, scale_to_box, substream

__all__ = [
    "estimate_bound_argmax",
    "srmc_sample",
    "grmc_sample",
    "BudgetExhausted",
    "resolve_workers",
    "ordered_map",
    "CHUNK_ACCEPTS",
]

CHUNK_ACCEPTS = 4096
_MAX_BATCH = 1 << 17
# a chunk fails once it has drawn _STOP_AFTER proposals at a running rate
# below _STOP_RATE: at a true rate of 1e-6, accepting nothing by 2^24
# proposals has probability e^-16.8
_STOP_AFTER = 1 << 24
_STOP_RATE = 1e-6


class BudgetExhausted(RuntimeError):
    """A chunk's running acceptance rate was below 1e-6 after at least
    2^24 proposals: grossly loose envelope or near-zero density."""

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


class _Totals:
    """Proposal and acceptance totals of all chunks, which BudgetExhausted
    reports."""

    def __init__(self):
        self.lock = threading.Lock()
        self.proposals = 0
        self.accepted = 0

    def add(self, proposals: int, accepted: int) -> None:
        with self.lock:
            self.proposals += proposals
            self.accepted += accepted

    def totals(self) -> tuple[int, int]:
        with self.lock:
            return self.proposals, self.accepted


class _ChunkBudgetExceeded(Exception):
    pass


class _Workspace(threading.local):
    """Reusable float64 buffers of one sampling run, one set per thread.

    A propose-and-test call fills its arrays here instead of allocating them
    per batch. That is safe because a chunk runs on one thread and
    _run_chunk copies the accepted rows before the next batch. The buffers
    are freed with the run's closures.
    """

    def __init__(self):
        self.buffers = {}

    def take(self, name: str, size: int) -> np.ndarray:
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size)
        return buf[:size]

    def uniforms(self, local: RandomStream, batch: int, width: int) -> np.ndarray:
        """A (batch, width) block of fresh uniforms."""
        u = self.take("u", batch * width)
        return local.uniform01_block(batch * width, out=u).reshape(batch, width)

    def columns(self, name: str, batch: int, d: int) -> np.ndarray:
        """A column-major (batch, d) array."""
        return self.take(name, batch * d).reshape(d, batch).T


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
    totals: _Totals,
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
            totals.add(last + 1, need)
            proposed += last + 1
            accepted = chunk_n
            break
        taken.append(pts[hits])
        accepted += hits.size
        proposed += batch
        totals.add(batch, hits.size)
        if proposed >= _STOP_AFTER and accepted < _STOP_RATE * proposed:
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
    workers: int | None,
) -> SampleBatch:
    if n < 1:
        raise ValueError("requested sample count must be at least 1")
    t0 = time.perf_counter()
    run_seed = capture_seed(stream)
    plan = _chunk_plan(n)
    tracker = _Totals()

    def work(i: int) -> tuple[np.ndarray, int]:
        return _run_chunk(substream(run_seed, i), plan[i], dims, propose_and_test, tracker)

    try:
        results = ordered_map(work, len(plan), workers)
    except _ChunkBudgetExceeded:
        proposals, accepted = tracker.totals()
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
    workers: int | None = None,
) -> SampleBatch:
    """Draw n samples from the target via uniform proposals on its box.

    Per proposal: x uniform on the box (dims draws), y = bound_c * u (one
    draw); accept x iff f(x) > y. Accepted points are returned in acceptance
    order. Raises BudgetExhausted when a chunk has drawn at least 2^24
    proposals at a running acceptance rate below 1e-6.
    """
    box = target.support
    d = box.dims
    lower, widths = box.lower, box.widths
    field, c = target.field, target.bound_c
    ws = _Workspace()

    def propose_and_test(local: RandomStream, batch: int):
        u = ws.uniforms(local, batch, d + 1)
        pts = scale_to_box(u, lower, widths, out=ws.columns("pts", batch, d))
        y = c * u[:, d]
        return pts, field(pts) > y

    return _run_chunked(n, d, stream, propose_and_test, c, workers)


def grmc_sample(
    field: ScalarField,
    proposal: PiecewiseUniformProposal,
    n: int,
    stream: RandomStream | int,
    *,
    workers: int | None = None,
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
    ws = _Workspace()

    if single_cell:
        h0 = float(heights_flat[0])
        lower, widths = box.lower, box.widths

        def propose_and_test(local: RandomStream, batch: int):
            u = ws.uniforms(local, batch, d + 1)
            pts = scale_to_box(u, lower, widths, out=ws.columns("pts", batch, d))
            return pts, field(pts) / h0 >= u[:, d]

    else:

        def propose_and_test(local: RandomStream, batch: int):
            u = ws.uniforms(local, batch, d + 2)
            cells = positive[np.searchsorted(cum, u[:, 0], side="right")]
            lows = proposal.cell_lower(cells, out=ws.columns("lows", batch, d))
            pts = scale_to_box(u[:, 1:], lows, cell_widths, out=ws.columns("pts", batch, d))
            return pts, field(pts) / heights_flat[cells] >= u[:, d + 1]

    effective_c = proposal.total_mass / box.volume
    return _run_chunked(n, d, stream, propose_and_test, effective_c, workers)
