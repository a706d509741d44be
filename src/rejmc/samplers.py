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

Consecutive chunks run as gangs, about eight per worker. A gang advances
its chunks in rounds: each live chunk sizes its next batch from its own
counts, and up to 2^17 of the round's proposals are drawn, scaled,
evaluated, tested and searched for acceptances in one set of numpy calls.
The draw takes each chunk's batch from its own substream, through one
joined stream (randomness._Joined), and the accepted rows are gathered
one column at a time, so the gang's points stay column-major. So the calls
are long enough for the worker threads to share the interpreter lock, and
each chunk's draws, trim and counts are those of the chunk run alone. A
run raises what its first faulting proposal, in the order of the chunks
run one at a time, raises evaluated alone (_first_fault finds it); a
fault after its chunk is done does not fail the run.

A chunk that has drawn at least 2^24 proposals at a running acceptance rate
below 1e-6 fails the run loudly with BudgetExhausted instead of looping for
hours. Only the first unfinished chunk of a gang draws past its share of
that budget, so a hopeless gang draws at most about twice one chunk's. The
error counts the proposals of the chunks up to and including the first
failing one in chunk order, which are those of the chunks run one at a
time, at any worker count; the draws of the chunks after it, which other
threads or its own gang may have run, are not counted.

Gangs, the integrator's replications and the CSV and SVG writers' blocks
run through ordered_map, the one parallel map of the package. A call made
from inside another ordered_map call, such as a sampler inside an
integrator replication, runs serially, so pools never nest.
"""
from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expression import EvalError
from .model import Box, PiecewiseUniformProposal, RunMetadata, SampleBatch, ScalarField, TargetSpec
from .model import check_dims
# re-exported: bench/tracer.py wraps it under this module's name
from .model import estimate_bound_argmax
from .randomness import RandomStream, _Joined, capture_seed, scale_to_box, substream

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
# consecutive chunks run as gangs, about _GANGS_PER_WORKER per worker thread;
# one propose-and-test call of a gang tests at most _ROUND proposals, unless
# one chunk's batch alone is larger (only when _ROUND < _MAX_BATCH). 2^17
# beat 2^15 and 2^16 on integrate_parabola at 1 and 2 threads. 8 gangs per
# worker had the lowest median there of 2, 4, 8 and 16, and fewer, bigger
# gangs hold more rows per round and per finish call; gangs sized to fill
# _ROUND unbalanced validate_trig3d's 13 large chunks
_GANGS_PER_WORKER = 8
_ROUND = 1 << 17
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


def _pool_workers() -> int:
    """The threads an ordered_map call may use: 1 from inside another
    ordered_map call's pool, else resolve_workers()."""
    return 1 if getattr(_in_pool, "active", False) else resolve_workers()


def ordered_map(fn: Callable[[int], object], count: int) -> list:
    """[fn(0), ..., fn(count - 1)], on up to resolve_workers() threads.

    Runs serially in the caller's thread when at most one worker would be
    busy, or when called from inside another ordered_map call's pool.
    Otherwise a call does not start once a call before it has failed, and
    when the running calls end the first failure in index order is raised.
    """
    nworkers = min(_pool_workers(), count)
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
    """Chunk ``index`` ran out of budget."""

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index


class _Workspace(threading.local):
    """Reusable float64 buffers of one sampling run, one set per thread.

    A propose-and-test call fills its arrays here instead of allocating them
    per call. That is safe because a gang of chunks runs on one thread and
    _keep copies the accepted rows before the next call. The buffers are
    freed with the run's closures.
    """

    def __init__(self):
        self.buffers = {}

    def take(self, name: str, size: int) -> np.ndarray:
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size)
        return buf[:size]

    def uniforms(self, draws: list[tuple[RandomStream, int]], width: int) -> np.ndarray:
        """The next ``batch`` rows of ``width`` fresh uniforms from each
        (stream, batch) of draws, one draw after the other, as one block
        drawn in one uniform01_block call."""
        rows = sum(batch for _, batch in draws)
        u = self.take("u", rows * width)
        if len(draws) == 1:
            stream = draws[0][0]
        else:
            stream = _Joined([(stream, batch * width) for stream, batch in draws])
        stream.uniform01_block(rows * width, out=u)
        return u.reshape(rows, width)

    def columns(self, name: str, batch: int, d: int) -> np.ndarray:
        """A column-major (batch, d) array."""
        return self.take(name, batch * d).reshape(d, batch).T


def _next_batch_size(target: int, accepted: int, proposed: int) -> int:
    if accepted == 0:
        return int(min(max(4096, proposed), _MAX_BATCH))
    need = target - accepted
    rate = accepted / proposed
    return int(min(max(2048, math.ceil(1.2 * need / rate)), _MAX_BATCH))


class _Chunk:
    """The sequential rejection loop of chunk ``index``, one batch at a time.

    ``tally`` is the chunk's [proposals, accepted], which only this chunk
    and its gang write; it is current after every batch, also when the
    chunk fails.
    """

    def __init__(self, index: int, stream: RandomStream, n: int, tally: list[int]):
        self.index, self.stream, self.n, self.tally = index, stream, n, tally
        self.taken: list[np.ndarray] = []

    @property
    def done(self) -> bool:
        return self.tally[1] == self.n

    def next_batch(self) -> int:
        return _next_batch_size(self.n, self.tally[1], self.tally[0])

    def keep(self, rows: np.ndarray, hits: np.ndarray, start: int, batch: int) -> bool:
        """Take in this chunk's tested batch: proposals start to
        start + batch of a block, of which ``hits`` accepted, with points
        ``rows``. The batch is trimmed at the accepting proposal that
        completes the chunk, so proposal counts match the plain sequential
        loop exactly. False when the chunk has run out of budget."""
        proposed, accepted = self.tally
        need = self.n - accepted
        if len(hits) >= need:
            self.taken.append(rows[:need])
            self.tally[:] = proposed + int(hits[need - 1]) - start + 1, self.n
            return True
        self.taken.append(rows)
        proposed += batch
        accepted += len(hits)
        self.tally[:] = proposed, accepted
        return proposed < _STOP_AFTER or accepted >= _STOP_RATE * proposed


def _rounds(live: list[_Chunk], patience: int):
    """One round of the live chunks, each with its next batch size, as runs
    of consecutive chunks whose batches total at most _ROUND proposals; a
    batch larger than that runs alone. A chunk after the first sits the
    round out when its batch would take it past ``patience`` proposals."""
    group, total = [], 0
    for k, chunk in enumerate(live):
        batch = chunk.next_batch()
        if k and chunk.tally[0] + batch > patience:
            continue
        if group and total + batch > _ROUND:
            yield group
            group, total = [], 0
        group.append((chunk, batch))
        total += batch
    yield group


def _first_fault(fn, rows: int):
    """(fn(slice(0, rows)), None), or, if that raises, (fn(slice(0, r)),
    error) for the first row r that raises ``error`` evaluated alone. r is
    found by bisection: fn is elementwise, as the evaluator is, so a prefix
    raises if and only if one of its rows does."""
    try:
        return fn(slice(0, rows)), None
    except (EvalError, ValueError):
        good, values, bad = 0, fn(slice(0, 0)), rows
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            good, values = mid, fn(slice(0, mid))
        except (EvalError, ValueError):
            bad = mid
    try:
        fn(slice(good, bad))
    except (EvalError, ValueError) as exc:
        return values, exc
    raise AssertionError("a prefix raised, but none of its rows alone")


def _keep(group: list[tuple[_Chunk, int]], pts: np.ndarray, ok: np.ndarray) -> _Chunk | None:
    """Hand each (chunk, batch) of group its share of the tested block of
    their batches. Returns the first chunk that ran out of budget, or None.

    The accepted rows are gathered one column at a time into a column-major
    block, so each column of the gang's points stays contiguous."""
    hits = np.flatnonzero(ok)
    rows = np.empty((pts.shape[1], len(hits))).T
    for i in range(pts.shape[1]):
        # hits are in range; take buffers ``out`` unless mode is not "raise"
        np.take(pts[:, i], hits, out=rows[:, i], mode="clip")
    starts = [0, *itertools.accumulate(batch for _, batch in group)]
    bounds = np.searchsorted(hits, starts).tolist()
    over = None
    for k, (chunk, batch) in enumerate(group):
        lo, hi = bounds[k], bounds[k + 1]
        if not chunk.keep(rows[lo:hi], hits[lo:hi], starts[k], batch) and over is None:
            over = chunk
    return over


def _advance(group: list[tuple[_Chunk, int]], propose_and_test):
    """Draw and test the next batch of each (chunk, batch) of group, all in
    one propose_and_test call. Returns None, or (chunk, exception) for the
    first chunk of group that failed. At a fault, the chunk of the first
    faulting proposal takes in the ones before it and fails unless they
    complete it; the chunks after it redraw the same batch next round."""
    states = [chunk.stream.state for chunk, _ in group]
    pts, test = propose_and_test([(chunk.stream, batch) for chunk, batch in group])
    ok, fault = _first_fault(test, len(pts))
    if fault is not None:
        ends = list(itertools.accumulate(batch for _, batch in group))
        k = int(np.searchsorted(ends, len(ok), side="right"))
        for (chunk, _), state in zip(group[k + 1 :], states[k + 1 :]):
            # splitmix64 is counter-based: the same state redraws the same words
            chunk.stream.state = state
        culprit, batch = group[k]
        group = [*group[:k], (culprit, len(ok) - ends[k] + batch)]
    over = _keep(group, pts, ok)
    if fault is not None and over in (None, culprit):
        return None if culprit.done else (culprit, fault)
    return None if over is None else (over, _ChunkBudgetExceeded(over.index))


def _run_gang(chunks: list[_Chunk], propose_and_test):
    """(accepted rows, failure) of consecutive chunks from their rejection
    loops run together: in each round every live chunk draws its next batch
    from its own stream, and each run of batches from _rounds is tested in
    one propose_and_test call.

    A chunk that fails drops the chunks after it, and the chunks before it
    run on. failure is the first failing chunk's, or None, and the rows are
    those accepted before it, in chunk order. Only the first live chunk
    draws past its share of one chunk's budget, so a hopeless gang draws at
    most about twice what one chunk may before it fails.
    """
    live, culprit, failure = chunks, None, None
    patience = _STOP_AFTER // len(chunks)
    while live:
        for group in _rounds(live, patience):
            failed = _advance(group, propose_and_test)
            if failed is not None:
                culprit, failure = failed
                live = live[: live.index(culprit)]
                break
        live = [chunk for chunk in live if not chunk.done]
    kept = chunks if culprit is None else chunks[: chunks.index(culprit) + 1]
    return [rows for chunk in kept for rows in chunk.taken], failure


def _gang_size(chunks: int) -> int:
    """Chunks per gang: about _GANGS_PER_WORKER gangs for each worker that
    ordered_map may use."""
    return max(1, chunks // (_GANGS_PER_WORKER * _pool_workers()))


@dataclass(frozen=True, eq=False)
class _FinishedRun:
    """A sampling run given ``finish``: finish(points) of each gang of
    chunks, in chunk order, and the run's metadata."""

    parts: list
    meta: RunMetadata


def _run_chunked(
    n: int, seed: int, propose_and_test, bound_for_meta: float, finish=None
) -> SampleBatch | _FinishedRun:
    if n < 1:
        raise ValueError("requested sample count must be at least 1")
    run_seed = capture_seed(seed)
    sizes = [min(CHUNK_ACCEPTS, n - start) for start in range(0, n, CHUNK_ACCEPTS)]
    tallies = [[0, 0] for _ in sizes]
    gang = _gang_size(len(sizes))

    def work(g: int):
        chunks = [
            _Chunk(i, substream(run_seed, i), sizes[i], tallies[i])
            for i in range(g * gang, min(len(sizes), (g + 1) * gang))
        ]
        taken, failure = _run_gang(chunks, propose_and_test)
        points = np.concatenate(taken, axis=0)
        part = points if finish is None else finish(points)
        if failure is not None:
            raise failure
        return part

    try:
        parts = ordered_map(work, -(-len(sizes) // gang))
    except _ChunkBudgetExceeded as exc:
        # the chunks before the failing one have finished, and the chunks
        # after it, which other threads may have run, are not counted: the
        # counts of the chunks run one at a time, at any worker count
        proposals, accepted = (sum(column) for column in zip(*tallies[: exc.index + 1]))
        raise BudgetExhausted(proposals, accepted, n) from None
    proposals = sum(tally[0] for tally in tallies)
    meta = RunMetadata(seed=run_seed, proposals_drawn=proposals, accepted=n, bound_c=bound_for_meta)
    if finish is not None:
        return _FinishedRun(parts=parts, meta=meta)
    return SampleBatch(points=np.concatenate(parts, axis=0), meta=meta)


def _uniform_box_test(field: ScalarField, box: Box, c: float):
    """Propose-and-test of a constant envelope c: x uniform on the box
    (dims draws), y = c * u (one draw); accept x iff f(x) > y."""
    d = box.dims
    lower, widths = box.lower, box.widths
    ws = _Workspace()

    def propose_and_test(draws: list[tuple[RandomStream, int]]):
        u = ws.uniforms(draws, d + 1)
        pts = scale_to_box(u, lower, widths, out=ws.columns("pts", len(u), d))
        return pts, lambda rows: field(pts[rows]) > c * u[rows, d]

    return propose_and_test


def srmc_sample(
    target: TargetSpec, n: int, seed: int, *, finish: Callable | None = None
) -> SampleBatch | _FinishedRun:
    """Draw n samples from the target via uniform proposals on its box.

    Per proposal: x uniform on the box (dims draws), y = bound_c * u (one
    draw); accept x iff f(x) > y. Accepted points are returned in acceptance
    order. Raises BudgetExhausted when a chunk has drawn at least 2^24
    proposals at a running acceptance rate below 1e-6.

    Given ``finish``, the run returns the list of finish(points) of each
    gang's points, in chunk order, with the metadata, instead of the points,
    and never holds all n points at once.
    """
    propose_and_test = _uniform_box_test(target.field, target.support, target.bound_c)
    return _run_chunked(n, seed, propose_and_test, target.bound_c, finish)


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
    check_dims(field, box)
    d = box.dims
    heights_flat = proposal.heights.ravel()

    if proposal.cell_count == 1:
        propose_and_test = _uniform_box_test(field, box, float(heights_flat[0]))
    else:
        cell_widths = proposal.cell_widths
        cum = proposal.cumulative
        ws = _Workspace()

        def propose_and_test(draws: list[tuple[RandomStream, int]]):
            u = ws.uniforms(draws, d + 2)
            batch = len(u)
            cells = np.searchsorted(cum, u[:, 0], side="right")
            lows = proposal.cell_lower(cells, out=ws.columns("lows", batch, d))
            pts = scale_to_box(u[:, 1:], lows, cell_widths, out=ws.columns("pts", batch, d))
            return pts, lambda rows: field(pts[rows]) > heights_flat[cells[rows]] * u[rows, d + 1]

    effective_c = proposal.total_mass / box.volume
    return _run_chunked(n, seed, propose_and_test, effective_c)
