import inspect
import math
import sys
import threading
import time

import numpy as np
import pytest

from rejmc import integrator, samplers
from rejmc import (
    Box,
    BudgetExhausted,
    ScalarField,
    VarOrder,
    build_piecewise_proposal,
    estimate_bound_argmax,
    grmc_sample,
    ks_test_1d,
    predicted_acceptance,
    srmc_sample,
    validate_target,
)
from rejmc.randomness import RandomStream, substream
from rejmc.samplers import ordered_map
from conftest import GAUSS_C_LOOSE, SINE_HI, SINE_LO, uniform01


@pytest.fixture(scope="module")
def sine_target(sine_field, sine_box):
    return validate_target(sine_field, sine_box, 1.1)


@pytest.fixture
def uniforms_drawn(monkeypatch):
    """A one-item list counting the uniforms that RandomStream draws in
    blocks, on every thread."""
    drawn = [0]
    lock = threading.Lock()
    draw = RandomStream.uniform01_block

    def counting(stream, count, out=None):
        with lock:
            drawn[0] += count
        return draw(stream, count, out)

    monkeypatch.setattr(RandomStream, "uniform01_block", counting)
    return drawn


class TestEstimateBound:
    def test_sine_grid_hits_peak(self, sine_field, sine_box):
        # 1025 is odd, so the grid contains pi/2
        value = estimate_bound_argmax(sine_field, sine_box, 1025, safety=1.0)[0]
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_gaussian_grid_hits_origin(self, gauss_field, gauss_box):
        value = estimate_bound_argmax(gauss_field, gauss_box, 257, safety=1.0)[0]
        assert value == pytest.approx(0.16243683359034922, abs=1e-3)

    def test_constant_field_with_safety(self):
        field = ScalarField.from_text("3", VarOrder(["x"]))
        assert estimate_bound_argmax(field, Box([(0, 1)]), 33, safety=1.2)[0] == pytest.approx(3.6)

    def test_argmax_location(self, sine_field, sine_box):
        _, at = estimate_bound_argmax(sine_field, sine_box, 1025)
        assert at[0] == pytest.approx(math.pi / 2, abs=1e-3)

    def test_preconditions(self, sine_field, sine_box, gauss_field, gauss_box):
        with pytest.raises(ValueError):
            estimate_bound_argmax(sine_field, sine_box, 1)[0]
        with pytest.raises(ValueError):
            estimate_bound_argmax(sine_field, sine_box, 10, safety=0.5)[0]
        # 16385^2 points is over the 2^28 limit of check_grid_size
        with pytest.raises(ValueError, match="268468225 points exceeds the limit"):
            estimate_bound_argmax(gauss_field, gauss_box, 16385)[0]

    def test_domain_fault_at_grid_point(self):
        from rejmc import EvalError

        field = ScalarField.from_text("log(x)", VarOrder(["x"]))
        # the grid includes the corner x=0
        with pytest.raises(EvalError):
            estimate_bound_argmax(field, Box([(0, 1)]), 17)[0]


def replay_srmc(field, box, c, seed, n):
    """Plain sequential oracle for srmc_sample (single chunk, n <= 4096)."""
    stream = substream(seed, 0)
    d = box.dims
    accepted = []
    proposals = 0
    while len(accepted) < n:
        u = [uniform01(stream) for _ in range(d + 1)]
        x = box.lower + np.asarray(u[:d]) * box.widths
        y = c * u[d]
        proposals += 1
        if field(x.reshape(1, -1))[0] > y:
            accepted.append(x)
    return np.asarray(accepted), proposals


class TestSrmc:
    def test_matches_sequential_oracle(self, sine_field, sine_box, sine_target):
        want_pts, want_proposals = replay_srmc(sine_field, sine_box, 1.1, seed=11, n=300)
        batch = srmc_sample(sine_target, 300, 11)
        assert np.array_equal(batch.points, want_pts)
        assert batch.meta.proposals_drawn == want_proposals
        assert batch.meta.accepted == 300

    def test_matches_oracle_across_chunks(self, sine_field, sine_box, sine_target):
        # 5000 acceptances span two chunks: 4096 + 904
        batch = srmc_sample(sine_target, 5000, 21)
        pts0, prop0 = replay_srmc(sine_field, sine_box, 1.1, seed=21, n=4096)
        pts1, prop1 = replay_srmc(sine_field, sine_box, 1.1, seed=0, n=904)
        # second chunk runs on substream(seed, 1)
        stream = substream(21, 1)
        pts1 = []
        prop1 = 0
        while len(pts1) < 904:
            u = [uniform01(stream) for _ in range(2)]
            x = sine_box.lower + np.asarray(u[:1]) * sine_box.widths
            prop1 += 1
            if sine_field(x.reshape(1, -1))[0] > 1.1 * u[1]:
                pts1.append(x)
        assert np.array_equal(batch.points, np.vstack([pts0, np.asarray(pts1)]))
        assert batch.meta.proposals_drawn == prop0 + prop1

    def test_every_proposal_accepted_for_tight_uniform(self):
        field = ScalarField.from_text("1 + 0*x", VarOrder(["x"]))
        target = validate_target(field, Box([(0, 1)]), 1.0)
        batch = srmc_sample(target, 5000, 3)
        assert batch.meta.proposals_drawn == 5000
        assert batch.meta.acceptance_rate == 1.0

    def test_acceptance_rate_law_sine(self, sine_target):
        batch = srmc_sample(sine_target, 10_000, 2718)
        predicted = predicted_acceptance(1.0, 1.1, math.pi / 2)
        assert abs(batch.meta.acceptance_rate - predicted) < 0.015

    def test_acceptance_rate_law_gaussian(self, gauss_field, gauss_box):
        target = validate_target(gauss_field, gauss_box, GAUSS_C_LOOSE)
        batch = srmc_sample(target, 30_000, 31415)
        predicted = predicted_acceptance(1.0, GAUSS_C_LOOSE, 100.0)
        sigma = math.sqrt(predicted * (1 - predicted) / batch.meta.proposals_drawn)
        assert abs(batch.meta.acceptance_rate - predicted) < 3 * sigma

    def test_containment(self, sine_target):
        batch = srmc_sample(sine_target, 2000, 5)
        assert np.all(batch.points[:, 0] >= SINE_LO)
        assert np.all(batch.points[:, 0] < SINE_HI)
        assert np.all(sine_target.field(batch.points) > 0)

    def test_seed_determinism_across_workers(self, sine_target, monkeypatch):
        runs = []
        for threads in ("1", "8", "3"):
            monkeypatch.setenv("RMC_THREADS", threads)
            runs.append(srmc_sample(sine_target, 20_000, 123))
        a, b, c = runs
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.points, c.points)
        assert a.meta.proposals_drawn == b.meta.proposals_drawn == c.meta.proposals_drawn

    def test_theorem_distribution_ks(self, sine_target):
        batch = srmc_sample(sine_target, 10_000, 2024)
        cdf = lambda xs: 0.5 - np.cos(xs) / np.sqrt(2)
        report = ks_test_1d(np.sort(batch.points[:, 0]), cdf, alpha=0.01)
        assert report.passed

    def test_requested_n_positive(self, sine_target):
        with pytest.raises(ValueError):
            srmc_sample(sine_target, 0, 1)

    def test_metadata_equal_across_thread_counts(self, sine_target, monkeypatch):
        # 10000 acceptances span three chunks
        monkeypatch.setenv("RMC_THREADS", "1")
        a = srmc_sample(sine_target, 10_000, 1)
        monkeypatch.setenv("RMC_THREADS", "3")
        b = srmc_sample(sine_target, 10_000, 1)
        assert a.meta == b.meta
        assert a.meta.bound_c == 1.1
        assert a.meta.acceptance_rate == 10_000 / a.meta.proposals_drawn


class FixedUniforms:
    """A stream whose uniform01_block hands out the given values in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def uniform01_block(self, count, out=None):
        out[:] = self.values[:count]
        return out


class TestGrmc:
    def test_single_cell_reproduces_srmc_bit_exactly(self, sine_field, sine_box):
        prop = build_piecewise_proposal(sine_field, sine_box, 1)
        c = float(prop.heights.ravel()[0])
        target = validate_target(sine_field, sine_box, c)
        for seed in (0, 99, 7777):
            a = srmc_sample(target, 4000, seed)
            b = grmc_sample(sine_field, prop, 4000, seed)
            assert np.array_equal(a.points, b.points)
            assert a.meta.proposals_drawn == b.meta.proposals_drawn

    def test_single_cell_breaks_ties_as_srmc_does(self, monkeypatch):
        # f = 1 under h0 = 1.2: f/h0 == 0.8333333333333334 == u, but
        # h0 * u rounds to 1.0, so f > h0*u rejects the first proposal
        monkeypatch.setattr(samplers, "_run_chunked", lambda n, seed, propose, bound_c: propose)
        field = ScalarField.from_text("1 + 0*x", VarOrder(["x"]))
        box = Box([(0, 1)])
        prop = build_piecewise_proposal(field, box, 1)
        h0 = float(prop.heights.ravel()[0])
        assert h0 == 1.2
        one_cell = grmc_sample(field, prop, 1, 0)
        srmc = srmc_sample(validate_target(field, box, h0), 1, 0)
        # two proposals of (x, u): the tie, then a clear acceptance
        block = [0.5, 0.8333333333333334, 0.25, 0.5]
        pts_a, ok_a = one_cell(FixedUniforms(block), 2)
        pts_b, ok_b = srmc(FixedUniforms(block), 2)
        assert ok_b.tolist() == [False, True]
        assert ok_a.tolist() == ok_b.tolist()
        assert np.array_equal(pts_a, pts_b)

    def test_cells_break_ties_as_srmc_does(self, monkeypatch):
        # two cells of height 1.2 over f = 1: f/h == 0.8333333333333334 == u,
        # but h * u rounds to 1.0, so f > h*u rejects, as srmc's test does
        monkeypatch.setattr(samplers, "_run_chunked", lambda n, seed, propose, bound_c: propose)
        field = ScalarField.from_text("1 + 0*x", VarOrder(["x"]))
        prop = build_piecewise_proposal(field, Box([(0, 1)]), 2)
        assert prop.heights.tolist() == [1.2, 1.2]
        two_cells = grmc_sample(field, prop, 1, 0)
        # two proposals of (cell, x, u): the tie, then a clear acceptance
        block = [0.25, 0.5, 0.8333333333333334, 0.75, 0.5, 0.5]
        _, ok = two_cells(FixedUniforms(block), 2)
        assert ok.tolist() == [False, True]

    def test_refined_proposal_accepts_more(self, sine_field, sine_box):
        single = build_piecewise_proposal(sine_field, sine_box, 1)
        fine = build_piecewise_proposal(sine_field, sine_box, 64)
        batch = grmc_sample(sine_field, fine, 50_000, 42)
        single_rate = 1.0 / single.total_mass
        fine_rate = 1.0 / fine.total_mass
        assert batch.meta.acceptance_rate > single_rate
        sigma = math.sqrt(fine_rate * (1 - fine_rate) / batch.meta.proposals_drawn)
        assert abs(batch.meta.acceptance_rate - fine_rate) < 3 * sigma

    def test_flat_field_rejects_only_safety_slack(self):
        field = ScalarField.from_text("1 + 0*x", VarOrder(["x"]))
        prop = build_piecewise_proposal(field, Box([(0, 1)]), 4)
        batch = grmc_sample(field, prop, 20_000, 8)
        expected = 1 / 1.2
        sigma = math.sqrt(expected * (1 - expected) / batch.meta.proposals_drawn)
        assert abs(batch.meta.acceptance_rate - expected) < 3 * sigma

    def test_zero_cells_never_sampled(self):
        field = ScalarField.from_text("(x >= 0.5)", VarOrder(["x"]))
        prop = build_piecewise_proposal(field, Box([(0, 1)]), 4)
        batch = grmc_sample(field, prop, 3000, 77)
        assert np.all(batch.points[:, 0] >= 0.25)

    def test_multi_cell_2d(self, gauss_field, gauss_box):
        prop = build_piecewise_proposal(gauss_field, gauss_box, 8)
        batch = grmc_sample(gauss_field, prop, 20_000, 13)
        rate = 1.0 / prop.total_mass
        sigma = math.sqrt(rate * (1 - rate) / batch.meta.proposals_drawn)
        assert abs(batch.meta.acceptance_rate - rate) < 4 * sigma
        assert np.all(np.abs(batch.points) <= 5.0)

    def test_workers_deterministic(self, gauss_field, gauss_box, monkeypatch):
        prop = build_piecewise_proposal(gauss_field, gauss_box, 8)
        monkeypatch.setenv("RMC_THREADS", "1")
        a = grmc_sample(gauss_field, prop, 10_000, 4)
        monkeypatch.setenv("RMC_THREADS", "6")
        b = grmc_sample(gauss_field, prop, 10_000, 4)
        assert np.array_equal(a.points, b.points)

    def test_multi_cell_metadata_equal_across_thread_counts(
        self, gauss_field, gauss_box, monkeypatch
    ):
        prop = build_piecewise_proposal(gauss_field, gauss_box, [3, 5])
        monkeypatch.setenv("RMC_THREADS", "1")
        a = grmc_sample(gauss_field, prop, 10_000, 4)
        monkeypatch.setenv("RMC_THREADS", "3")
        b = grmc_sample(gauss_field, prop, 10_000, 4)
        assert a.meta == b.meta
        assert a.meta.bound_c == prop.total_mass / gauss_box.volume

    def test_multi_cell_matches_sequential_oracle(self, sine_field, sine_box):
        # draw order per proposal: cell selector, then coordinates, then y
        prop = build_piecewise_proposal(sine_field, sine_box, 4)
        heights = prop.heights.ravel()
        cum = prop.cumulative
        stream = substream(321, 0)
        accepted = []
        proposals = 0
        while len(accepted) < 200:
            u0 = uniform01(stream)
            u1 = uniform01(stream)
            u2 = uniform01(stream)
            cell = int(np.searchsorted(cum, u0, side="right"))
            x = prop.cell_lower(np.array([cell]))[0] + u1 * prop.cell_widths
            proposals += 1
            if sine_field(x.reshape(1, -1))[0] > heights[cell] * u2:
                accepted.append(x)
        batch = grmc_sample(sine_field, prop, 200, 321)
        assert np.array_equal(batch.points, np.asarray(accepted))
        assert batch.meta.proposals_drawn == proposals


class TestWorkspace:
    @pytest.fixture
    def proposers(self, monkeypatch, sine_target, gauss_field, gauss_box):
        # each sampler hands _run_chunked its propose-and-test closure
        monkeypatch.setattr(samplers, "_run_chunked", lambda n, seed, propose, bound_c: propose)
        multi = build_piecewise_proposal(gauss_field, gauss_box, [3, 5])
        single = build_piecewise_proposal(gauss_field, gauss_box, 1)
        return {
            "srmc": srmc_sample(sine_target, 10, 1),
            "grmc": grmc_sample(gauss_field, multi, 10, 1),
            "grmc_one_cell": grmc_sample(gauss_field, single, 10, 1),
        }

    @pytest.mark.parametrize("kind", ["srmc", "grmc", "grmc_one_cell"])
    def test_batches_reuse_one_workspace_per_thread(self, proposers, kind):
        propose = proposers[kind]
        first, _ = propose(RandomStream(1), 1000)
        want = first.copy()
        second, _ = propose(RandomStream(2), 500)
        assert np.shares_memory(first, second)
        elsewhere = []
        thread = threading.Thread(
            target=lambda: elsewhere.append(propose(RandomStream(1), 1000)[0])
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert not np.shares_memory(elsewhere[0], second)
        assert np.array_equal(elsewhere[0], want)

    def test_workers_do_not_change_output(self, sine_target, gauss_field, gauss_box, monkeypatch):
        multi = build_piecewise_proposal(gauss_field, gauss_box, [3, 5])

        def on_threads(threads, sample):
            monkeypatch.setenv("RMC_THREADS", threads)
            return sample()

        for sample in (
            lambda: srmc_sample(sine_target, 10_000, 77),
            lambda: grmc_sample(gauss_field, multi, 10_000, 77),
        ):
            one, two = on_threads("1", sample), on_threads("2", sample)
            assert np.array_equal(one.points, two.points)
            assert one.meta.proposals_drawn == two.meta.proposals_drawn


class TestBudget:
    def test_budget_exhaustion_error_payload(self):
        # acceptance region has width 1e-10: practically nothing ever accepted
        field = ScalarField.from_text("(x >= 0.9999999999)", VarOrder(["x"]))
        target = validate_target(field, Box([(0, 1)]), 1.0)
        with pytest.raises(BudgetExhausted) as err:
            srmc_sample(target, 1, 0)
        exc = err.value
        # the single chunk stops at 2^24 proposals: the batch sizes double to it
        assert exc.proposals_drawn == 1 << 24
        assert exc.accepted == 0
        assert exc.acceptance_rate == 0.0
        assert exc.requested_n == 1

    def test_budget_error_payload_counts_every_proposal(self, uniforms_drawn):
        field = ScalarField.from_text("(x >= 0.9999999999)", VarOrder(["x"]))
        target = validate_target(field, Box([(0, 1)]), 1.0)
        uniforms_drawn[0] = 0  # not the probes of validate_target
        with pytest.raises(BudgetExhausted) as err:
            srmc_sample(target, 1, 0)
        # a 1-D proposal draws two uniforms
        assert (err.value.proposals_drawn, err.value.accepted) == (uniforms_drawn[0] // 2, 0)

    def test_multi_chunk_threaded_failure_reports_payload(self, uniforms_drawn, monkeypatch):
        field = ScalarField.from_text("(x >= 0.9999999999)", VarOrder(["x"]))
        target = validate_target(field, Box([(0, 1)]), 1.0)
        uniforms_drawn[0] = 0
        monkeypatch.setenv("RMC_THREADS", "2")
        with pytest.raises(BudgetExhausted) as err:
            srmc_sample(target, 3 * 4096, 0)
        assert err.value.requested_n == 3 * 4096
        # the tallies of every chunk that ran, summed once all have ended
        assert err.value.proposals_drawn >= 1 << 24
        assert (err.value.proposals_drawn, err.value.accepted) == (uniforms_drawn[0] // 2, 0)

    def test_rate_below_floor_stops_despite_acceptances(self, monkeypatch):
        # rate 1e-7: a full chunk would need about 4e10 proposals
        field = ScalarField.from_text("(x >= 0.9999999)", VarOrder(["x"]))
        target = validate_target(field, Box([(0, 1)]), 1.0)
        monkeypatch.setenv("RMC_THREADS", "1")
        with pytest.raises(BudgetExhausted) as err:
            srmc_sample(target, 4096, 1)
        assert err.value.proposals_drawn == 1 << 24
        assert err.value.accepted >= 1


class TestOrderedMap:
    def test_results_in_index_order(self, monkeypatch):
        # later indices finish first
        monkeypatch.setenv("RMC_THREADS", "4")
        out = ordered_map(lambda i: time.sleep(0.002 * (8 - i)) or i * i, 8)
        assert out == [i * i for i in range(8)]

    def test_single_worker_runs_in_caller_thread(self, monkeypatch):
        caller = threading.get_ident()
        monkeypatch.setenv("RMC_THREADS", "1")
        assert ordered_map(lambda i: threading.get_ident(), 3) == [caller] * 3
        monkeypatch.setenv("RMC_THREADS", "4")
        assert ordered_map(lambda i: threading.get_ident(), 1) == [caller]

    def test_nested_call_runs_on_its_outer_call_thread(self, monkeypatch):
        monkeypatch.setenv("RMC_THREADS", "4")

        def outer(i):
            time.sleep(0.01)  # so that several pool threads take calls
            return threading.get_ident(), ordered_map(lambda j: threading.get_ident(), 3)

        results = ordered_map(outer, 4)
        assert threading.get_ident() not in {ident for ident, _ in results}
        for ident, inner in results:
            assert inner == [ident] * 3

    def test_default_is_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("RMC_THREADS", raising=False)
        monkeypatch.setattr(samplers.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(samplers.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert samplers.resolve_workers() == 2
        # where the platform has no affinity call, every CPU counts
        monkeypatch.delattr(samplers.os, "sched_getaffinity")
        assert samplers.resolve_workers() == 64

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
    def test_malformed_thread_count_refused_before_any_call(self, value, monkeypatch):
        monkeypatch.setenv("RMC_THREADS", value)
        called = []
        with pytest.raises(ValueError) as err:
            ordered_map(called.append, 3)
        assert str(err.value) == f"RMC_THREADS must be a positive integer, got '{value}'"
        assert called == []

    def test_first_failure_in_index_order_is_raised(self, monkeypatch):
        def fn(i):
            if i == 3:
                time.sleep(0.2)
                raise ValueError("three")
            if i == 5:
                raise ValueError("five")
            return i

        monkeypatch.setenv("RMC_THREADS", "8")
        with pytest.raises(ValueError, match="three"):
            ordered_map(fn, 8)

    def test_failure_cancels_unstarted_calls(self, monkeypatch):
        lock = threading.Lock()
        ran = []

        def fn(i):
            with lock:
                ran.append(i)
            if i == 0:
                raise RuntimeError("boom")
            time.sleep(0.01)
            return i

        monkeypatch.setenv("RMC_THREADS", "2")
        with pytest.raises(RuntimeError, match="boom"):
            ordered_map(fn, 50)
        assert len(ran) < 50

    def test_no_call_starts_after_a_failure(self, monkeypatch):
        # fn(1) is still running when fn(0) fails; the worker freed by the
        # failure must not pick up fn(2), nor may fn(1)'s worker afterwards
        lock = threading.Lock()
        ran = []
        zero_failed = threading.Event()

        def fn(i):
            with lock:
                ran.append(i)
            if i == 0:
                zero_failed.set()
                raise RuntimeError("boom")
            if i == 1:
                zero_failed.wait(5)
                time.sleep(0.05)
            return i

        monkeypatch.setenv("RMC_THREADS", "2")
        with pytest.raises(RuntimeError, match="boom"):
            ordered_map(fn, 50)
        assert 0 in ran
        assert len(ran) <= 2

    def test_calls_before_the_first_failure_all_run_under_stress(self, monkeypatch):
        # later failures must never stop a call before the first one
        failing = {37, 41, 42, 120}
        lock = threading.Lock()
        ran = set()

        def fn(i):
            with lock:
                ran.add(i)
            if i in failing:
                raise ValueError(str(i))
            return i

        monkeypatch.setenv("RMC_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                ran.clear()
                with pytest.raises(ValueError, match="^37$"):
                    ordered_map(fn, 200)
                assert set(range(38)) <= ran
        finally:
            sys.setswitchinterval(interval)


RUNS = [srmc_sample, grmc_sample, integrator.integrate_screened, integrator.integrate_direct]


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.__name__)
def test_run_takes_an_integer_seed(run):
    params = inspect.signature(run).parameters
    assert "stream" not in params
    assert list(params)[-1] == "seed"
    assert params["seed"].annotation == "int"


def test_no_function_takes_a_worker_count():
    # RMC_THREADS is the only worker control
    import rejmc.cli  # noqa: F401  (loads every module)

    modules = [m for name, m in sys.modules.items() if name.startswith("rejmc.")]
    functions = [
        f for m in modules for f in vars(m).values()
        if inspect.isfunction(f) and f.__module__ == m.__name__
    ]
    assert samplers.ordered_map in functions and samplers._run_chunked in functions
    assert [f.__qualname__ for f in functions if "workers" in inspect.signature(f).parameters] == []
