"""Outside-in span tracing of rejmc's layers, and the per-layer metrics
computed from the spans.

``Tracer.install`` replaces public functions of ``src/rejmc`` with timing
wrappers at every module binding that holds them (``rejmc.cli.srmc_sample``
and ``rejmc.integrator.srmc_sample`` alike), and swaps the thread pools of
the samplers and the integrator for one that hands the submitting span to
its tasks. Spans live in memory as (id, name, start, end, parent, thread,
attrs) and are written out once, when the run ends. Nothing inside
``src/`` is modified.

``layer_metrics`` turns a span list into the per-layer metrics. A span's
self time is its duration minus the union of its children's intervals
(children may overlap across threads), clipped to the span itself.
"""
from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# span name -> layer (the rejmc module whose work the span measures)
LAYERS = {
    "next_u64_block": "randomness",
    "uniform01_block": "randomness",
    "substream": "randomness",
    "evaluate_batch": "expression",
    "validate_target": "model",
    "estimate_bound_argmax": "model",
    "build_piecewise_proposal": "model",
    "srmc_sample": "samplers",
    "grmc_sample": "samplers",
    "integrate_screened": "integrator",
    "integrate_direct": "integrator",
    "chi_square_box": "stats",
    "ks_test_1d": "stats",
    "main": "cli",
    "scatter_svg": "svgplot",
}
# a pool task carries the submitting span to the worker thread; it is not a
# child for self-time purposes, so work inside it stays with the submitter
TASK = "pool.task"
_SAMPLERS = ("srmc_sample", "grmc_sample")
_GRID_OWNERS = ("estimate_bound_argmax", "build_piecewise_proposal")


def _sampler_attrs(args, result):
    return {"proposals": result.meta.proposals_drawn, "accepted": result.meta.accepted}


def _integral_attrs(args, result):
    return {
        "points": result.n_uniform + result.n_screened,
        "screened": result.n_screened,
        "in_region": result.n_in_region,
    }


# (module, attribute, attrs(args, result) or None, record thread CPU time)
_TARGETS = [
    ("rejmc.expression", "evaluate_batch", lambda a, r: {"points": len(a[1])}, False),
    ("rejmc.randomness", "substream", None, False),
    ("rejmc.model", "validate_target", None, False),
    ("rejmc.samplers", "estimate_bound_argmax", None, False),
    ("rejmc.model", "build_piecewise_proposal", None, False),
    ("rejmc.samplers", "srmc_sample", _sampler_attrs, True),
    ("rejmc.samplers", "grmc_sample", _sampler_attrs, True),
    ("rejmc.integrator", "integrate_screened", _integral_attrs, False),
    ("rejmc.integrator", "integrate_direct", _integral_attrs, False),
    ("rejmc.stats", "chi_square_box", None, False),
    ("rejmc.stats", "ks_test_1d", None, False),
    ("rejmc.cli", "main", None, False),
    ("rejmc.svgplot", "scatter_svg", None, False),
]
_METHODS = [
    ("next_u64_block", lambda a, r: {"u64": a[1]}),
    ("uniform01_block", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, attrs_of=None, cpu=False, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else None
        sid = next(self._ids)
        saved = stack[:]
        if name == TASK:
            # work on a pool thread belongs to the span that submitted it
            stack[:] = [parent]
        else:
            stack.append(sid)
        c0 = time.thread_time() if cpu else 0.0
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack[:] = saved
        attrs = attrs_of(args, result) if attrs_of else {}
        if cpu:
            attrs["cpu"] = time.thread_time() - c0
        self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), attrs))
        return result

    def _wrap(self, name, fn, attrs_of, cpu):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_of, cpu)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import rejmc.cli  # noqa: F401  (loads every module that holds a binding)
        from rejmc.randomness import RandomStream

        modules = [m for k, m in list(sys.modules.items()) if k == "rejmc" or k.startswith("rejmc.")]
        for owner, attr, attrs_of, cpu in _TARGETS:
            original = getattr(sys.modules[owner], attr)
            traced = self._wrap(attr, original, attrs_of, cpu)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for attr, attrs_of in _METHODS:
            setattr(RandomStream, attr, self._wrap(attr, getattr(RandomStream, attr), attrs_of, False))

        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    return tracer.call(TASK, fn, a, k, None, True, parent)

                return super().submit(task, *args, **kwargs)

        for module in modules:
            if vars(module).get("ThreadPoolExecutor") is ThreadPoolExecutor:
                module.ThreadPoolExecutor = TracedPool

    def dump(self) -> list[list]:
        return [list(s) for s in self.spans]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one traced run (see BENCHMARK.json)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None and s[1] != TASK:
            children[s[4]].append(s)

    def self_time(s) -> float:
        t0, t1 = s[2], s[3]
        covered = [(max(c[2], t0), min(c[3], t1)) for c in children[s[0]]]
        return (t1 - t0) - _union_length([iv for iv in covered if iv[1] > iv[0]])

    busy = defaultdict(float)
    by_name = defaultdict(float)
    for s in spans:
        if s[1] != TASK:
            t = self_time(s)
            busy[LAYERS[s[1]]] += t
            by_name[s[1]] += t

    def parent_name(s):
        p = by_id.get(s[4])
        return p[1] if p else None

    evals = [s for s in spans if s[1] == "evaluate_batch"]
    samplers = [s for s in spans if s[1] in _SAMPLERS]
    integrals = [s for s in spans if s[1].startswith("integrate_")]
    u64 = sum(s[6]["u64"] for s in spans if s[1] == "next_u64_block")
    points = sum(s[6]["points"] for s in evals)
    proposals = sum(s[6]["proposals"] for s in samplers)
    accepted = sum(s[6]["accepted"] for s in samplers)
    screened = sum(s[6]["screened"] for s in integrals)

    # thread CPU time spent on sampling: a sampler that used the pool works
    # in its tasks, one that did not works on its own thread
    tasks = defaultdict(list)
    for s in spans:
        if s[1] == TASK:
            tasks[s[4]].append(s)
    sampler_cpu = sum(
        sum(t[6]["cpu"] for t in tasks[s[0]]) if tasks[s[0]] else s[6]["cpu"] for s in samplers
    )
    sampler_wall = _union_length([(s[2], s[3]) for s in samplers])

    gen = by_name["next_u64_block"]
    convert = by_name["uniform01_block"]
    return {
        "randomness.u64": u64,
        "randomness.gen_s": gen,
        "randomness.convert_s": convert,
        "randomness.ns_per_u64": (gen + convert) / u64 * 1e9 if u64 else 0.0,
        "expression.calls": len(evals),
        "expression.points": points,
        "expression.busy_s": busy["expression"],
        "expression.ns_per_point": busy["expression"] / points * 1e9 if points else 0.0,
        "model.grid_points": sum(s[6]["points"] for s in evals if parent_name(s) in _GRID_OWNERS),
        "model.busy_s": busy["model"],
        "samplers.proposals": proposals,
        "samplers.accepted": accepted,
        "samplers.acceptance": accepted / proposals if proposals else 0.0,
        "samplers.chunks": sum(
            1 for s in spans if s[1] == "substream" and parent_name(s) in _SAMPLERS
        ),
        "samplers.busy_s": busy["samplers"],
        "samplers.parallelism": sampler_cpu / sampler_wall if sampler_wall else 0.0,
        "integrator.points": sum(s[6]["points"] for s in integrals),
        "integrator.in_region_frac": (
            sum(s[6]["in_region"] for s in integrals) / screened if screened else 0.0
        ),
        "integrator.busy_s": busy["integrator"],
        "stats.quadrature_points": sum(
            s[6]["points"] for s in evals if parent_name(s) == "chi_square_box"
        ),
        "stats.busy_s": busy["stats"],
        "cli.busy_s": busy["cli"],
        "svgplot.busy_s": busy["svgplot"],
        # the self time of every layer, for the per-layer shares in the record
        **{f"_busy.{layer}": busy[layer] for layer in sorted(set(LAYERS.values()))},
    }
