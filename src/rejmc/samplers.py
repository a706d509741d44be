"""Rejection samplers over bounded boxes.

srmc_sample draws proposals uniformly on the support box against a constant
envelope c (accept when f(x) > c*u, u ~ U[0,1)); grmc_sample draws from a
piecewise-uniform proposal and accepts when f(x) > h_cell*u. A one-cell
proposal is the constant envelope c = h_cell, so grmc_sample runs srmc's
propose-and-test for it and reproduces srmc_sample draw for draw.

Requested sample counts are split into chunks of 4096 acceptances, each run
on substream(seed, chunk_index) and merged in chunk order, so results are a
pure function of (inputs, seed) no matter how many worker threads run. The
run seed is an integer; the RMC_THREADS environment variable (default: the
CPUs this process may run on) is the only worker control.

A chunk that has drawn at least 2^24 proposals at a running acceptance rate
below 1e-6 fails the run loudly with BudgetExhausted instead of looping for
hours.

Chunks, the integrator's replications and the CSV and SVG writers' blocks
run through ordered_map, the one parallel map of the package. A call made
from inside another ordered_map call, such as a sampler inside an
integrator replication, runs serially, so pools never nest.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .model import Box, PiecewiseUniformProposal, RunMetadata, SampleBatch, ScalarField, TargetSpec
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


# active on the threads of ordered_map's pools, so that calls made there run serially
_in_pool = threading.local()


def resolve_workers() -> int:
    """The worker count: RMC_THREADS if set, else the number of CPUs this
    process may run on. Raises ValueError when RMC_THREADS is not a
    positive integer."""
    env = os.environ.get("RMC_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"RMC_THREADS must be a positive integer, got {env!r}")
    return workers


def ordered_map(fn: Callable[[int], object], count: int) -> list:
    """[fn(0), ..., fn(count - 1)], on up to resolve_workers() threads.

    Runs serially in the caller's thread when at most one worker would be
    busy, or when called from inside another ordered_map call's pool.
    Otherwise a call does not start once a call before it has failed, and
    when the running calls end the first failure in index order is raised.
    """
    nworkers = 1 if getattr(_in_pool, "active", False) else min(resolve_workers(), count)
    if nworkers <= 1:
        return [fn(i) for i in range(count)]
    first_failed = count
    lock = threading.Lock()

    def guarded(i: int):
        nonlocal first_failed
        if i > first_failed:
            return None
        # the pool's threads serve only this call, so the flag is never reset
        _in_pool.active = True
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
    stream: RandomStream, chunk_n: int, propose_and_test, tally: list[int]
) -> np.ndarray:
    """Sequential rejection loop for one chunk, batched for speed.

    ``propose_and_test(stream, batch)`` returns (points, accept_mask). The
    final batch is trimmed at the accepting proposal that completes the
    chunk, so proposal counts match the plain sequential loop exactly.
    ``tally`` is the chunk's [proposals, accepted], which only this call
    writes; it is current after every batch, also when the chunk fails.
    """
    taken: list[np.ndarray] = []
    proposed = accepted = 0
    while True:
        batch = _next_batch_size(chunk_n, accepted, proposed)
        pts, ok = propose_and_test(stream, batch)
        hits = np.nonzero(ok)[0]
        need = chunk_n - accepted
        if hits.size >= need:
            taken.append(pts[hits[:need]])
            tally[:] = proposed + int(hits[need - 1]) + 1, chunk_n
            return np.concatenate(taken, axis=0)
        taken.append(pts[hits])
        proposed += batch
        accepted += hits.size
        tally[:] = proposed, accepted
        if proposed >= _STOP_AFTER and accepted < _STOP_RATE * proposed:
            raise _ChunkBudgetExceeded()


def _run_chunked(n: int, seed: int, propose_and_test, bound_for_meta: float) -> SampleBatch:
    if n < 1:
        raise ValueError("requested sample count must be at least 1")
    run_seed = capture_seed(seed)
    sizes = [min(CHUNK_ACCEPTS, n - start) for start in range(0, n, CHUNK_ACCEPTS)]
    tallies = [[0, 0] for _ in sizes]

    def work(i: int) -> np.ndarray:
        return _run_chunk(substream(run_seed, i), sizes[i], propose_and_test, tallies[i])

    try:
        chunks = ordered_map(work, len(sizes))
    except _ChunkBudgetExceeded:
        chunks = None
    # ordered_map has joined every call that ran, so no tally changes now
    proposals, accepted = (sum(column) for column in zip(*tallies))
    if chunks is None:
        raise BudgetExhausted(proposals, accepted, n)
    meta = RunMetadata(seed=run_seed, proposals_drawn=proposals, accepted=n, bound_c=bound_for_meta)
    return SampleBatch(points=np.concatenate(chunks, axis=0), meta=meta)


def _uniform_box_test(field: ScalarField, box: Box, c: float):
    """Propose-and-test of a constant envelope c: x uniform on the box
    (dims draws), y = c * u (one draw); accept x iff f(x) > y."""
    d = box.dims
    lower, widths = box.lower, box.widths
    ws = _Workspace()

    def propose_and_test(local: RandomStream, batch: int):
        u = ws.uniforms(local, batch, d + 1)
        pts = scale_to_box(u, lower, widths, out=ws.columns("pts", batch, d))
        return pts, field(pts) > c * u[:, d]

    return propose_and_test


def srmc_sample(target: TargetSpec, n: int, seed: int) -> SampleBatch:
    """Draw n samples from the target via uniform proposals on its box.

    Per proposal: x uniform on the box (dims draws), y = bound_c * u (one
    draw); accept x iff f(x) > y. Accepted points are returned in acceptance
    order. Raises BudgetExhausted when a chunk has drawn at least 2^24
    proposals at a running acceptance rate below 1e-6.
    """
    propose_and_test = _uniform_box_test(target.field, target.support, target.bound_c)
    return _run_chunked(n, seed, propose_and_test, target.bound_c)


def grmc_sample(
    field: ScalarField, proposal: PiecewiseUniformProposal, n: int, seed: int
) -> SampleBatch:
    """Draw n samples using a piecewise-uniform proposal.

    Per proposal: a cell is selected proportionally to its mass (inverse CDF
    over the cumulative mass table), x is uniform within the cell, and x is
    accepted iff f(x) > h_cell*u. A one-cell partition is the constant
    envelope c = h_cell: it consumes no cell draw and runs srmc_sample's
    propose-and-test, so it reproduces srmc_sample at bound_c = h_cell draw
    for draw. The metadata's bound_c records the effective constant
    total_mass/volume.
    """
    box = proposal.box
    d = box.dims
    heights_flat = proposal.heights.ravel()

    if proposal.cell_count == 1:
        propose_and_test = _uniform_box_test(field, box, float(heights_flat[0]))
    else:
        cell_widths = proposal.cell_widths
        cum, positive = proposal.cumulative, proposal.positive_cells
        ws = _Workspace()

        def propose_and_test(local: RandomStream, batch: int):
            u = ws.uniforms(local, batch, d + 2)
            cells = positive[np.searchsorted(cum, u[:, 0], side="right")]
            lows = proposal.cell_lower(cells, out=ws.columns("lows", batch, d))
            pts = scale_to_box(u[:, 1:], lows, cell_widths, out=ws.columns("pts", batch, d))
            return pts, field(pts) > heights_flat[cells] * u[:, d + 1]

    effective_c = proposal.total_mass / box.volume
    return _run_chunked(n, seed, propose_and_test, effective_c)
