import math
import tracemalloc

import numpy as np
import pytest

from rejmc import integrator
from rejmc import (
    Box,
    EvalError,
    IntegralEstimate,
    ModelValidationError,
    ScalarField,
    VarOrder,
    integrate_direct,
    integrate_screened,
    parse,
)
from conftest import PARABOLA_REGION, PARABOLA_REGION_INTEGRAL, PRODUCT_BOX_INTEGRAL


@pytest.fixture(scope="module")
def region(product_field):
    return parse(PARABOLA_REGION, product_field.vars)


@pytest.fixture(scope="module")
def whole_box(product_field):
    return parse("x <= 4", product_field.vars)


class TestScreened:
    def test_parabola_region_value(self, product_field, product_box, region):
        est = integrate_screened(product_field, region, product_box, 20_000, 5, 7)
        assert abs(est.value - PARABOLA_REGION_INTEGRAL) < 0.15
        assert est.replications == 5
        assert len(est.per_replication_values) == 5
        assert est.value == pytest.approx(np.mean(est.per_replication_values), rel=1e-15)

    def test_whole_box_region(self, product_field, product_box, whole_box):
        est = integrate_screened(product_field, whole_box, product_box, 20_000, 5, 11)
        assert abs(est.value - PRODUCT_BOX_INTEGRAL) < 0.25
        # every screened sample lies in the region, so B is exactly 1
        assert est.n_in_region == est.n_screened

    def test_half_square(self):
        g = ScalarField.from_text("1 + 0*x", VarOrder(["x", "y"]))
        region = parse("x <= 0.5", ["x", "y"])
        est = integrate_screened(g, region, Box([(0, 1), (0, 1)]), 10_000, 4, 3)
        assert abs(est.value - 0.5) < 0.02

    def test_negative_integrand_rejected(self, product_box):
        g = ScalarField.from_text("x - 10", VarOrder(["x", "y"]))
        region = parse("x <= 4", ["x", "y"])
        with pytest.raises(ModelValidationError, match="negative"):
            integrate_screened(g, region, product_box, 100, 2, 1)

    def test_region_variables_checked(self, product_field, product_box):
        region = parse("z <= 1", ["x", "y", "z"])
        with pytest.raises(ValueError, match="undeclared"):
            integrate_screened(product_field, region, product_box, 100, 2, 1)

    def test_counts_and_sampler_echo(self, product_field, product_box, region):
        est = integrate_screened(product_field, region, product_box, 5000, 3, 19)
        assert est.n_uniform == 15_000
        assert est.n_screened == 15_000
        assert 0 < est.n_in_region <= est.n_screened
        assert est.proposals_drawn > est.accepted == 15_000
        assert est.bound_c is not None and est.bound_c >= 8.0  # max xy on the box

    def test_single_replication_has_zero_stderr(self, product_field, product_box, region):
        est = integrate_screened(product_field, region, product_box, 2000, 1, 5)
        assert est.std_error == 0.0

    def test_deterministic_across_workers(self, product_field, product_box, region, monkeypatch):
        monkeypatch.setenv("RMC_THREADS", "1")
        a = integrate_screened(product_field, region, product_box, 5000, 6, 23)
        monkeypatch.setenv("RMC_THREADS", "4")
        b = integrate_screened(product_field, region, product_box, 5000, 6, 23)
        assert a.per_replication_values == b.per_replication_values
        assert a.value == b.value

    def test_uniform_batch_freed_before_the_sampler_runs(
        self, product_field, product_box, region, monkeypatch
    ):
        monkeypatch.setenv("RMC_THREADS", "1")
        n = 200_000
        # a first run makes the per-thread buffers, which outlive the call
        integrate_screened(product_field, region, product_box, 1000, 2, 3)
        tracemalloc.start()
        try:
            integrate_screened(product_field, region, product_box, n, 2, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the n x 2 uniform batch is 3.2 MB; kept alive through the
        # sampler, it took the peak to about 11 MB, freed it is about 8 MB
        assert peak < 9.5 * 2**20

    def test_region_fault_runs_the_sampler_once(self, product_field, product_box, monkeypatch):
        # the region faults at almost every point, so at the first gang
        calls = []
        sample = integrator.srmc_sample

        def counting(*args, **kwargs):
            calls.append(kwargs.get("finish") is not None)
            return sample(*args, **kwargs)

        monkeypatch.setattr(integrator, "srmc_sample", counting)
        region = parse("log(x - 0.5) < 9", product_field.vars)
        with pytest.raises(EvalError, match="log of a nonpositive value"):
            integrate_screened(product_field, region, product_box, 50_000, 1, 3)
        assert calls == [True]

    def test_region_monotonicity_shared_draws(self, product_field, product_box):
        nested = [
            PARABOLA_REGION,
            "y^2 <= x and y >= 0",
            "y >= 0",
        ]
        values = [
            integrate_screened(
                product_field, parse(text, ["x", "y"]), product_box, 10_000, 4, 37
            ).value
            for text in nested
        ]
        assert values[0] <= values[1] <= values[2]

    def test_convergence_trend(self, product_field, product_box, region):
        small = integrate_screened(product_field, region, product_box, 100, 10, 55)
        large = integrate_screened(product_field, region, product_box, 100_000, 10, 55)
        assert abs(large.value - 6.0) < abs(small.value - 6.0)


class TestDirect:
    def test_parabola_region_value(self, product_field, product_box, region):
        est = integrate_direct(product_field, region, product_box, 100_000, 5, 7)
        assert abs(est.value - PARABOLA_REGION_INTEGRAL) < 0.1

    def test_parabola_region_large_n(self, product_field, product_box, region):
        est = integrate_direct(product_field, region, product_box, 1_000_000, 10, 7)
        assert abs(est.value - PARABOLA_REGION_INTEGRAL) < 0.02

    def test_zero_integrand_is_exact(self, product_box):
        g = ScalarField.from_text("x - x", VarOrder(["x", "y"]))
        region = parse("x <= 4", ["x", "y"])
        est = integrate_direct(g, region, product_box, 1000, 3, 1)
        assert est.value == 0.0
        assert est.per_replication_values == (0.0, 0.0, 0.0)

    def test_constant_integrand_zero_variance(self, product_box):
        g = ScalarField.from_text("2.5", VarOrder(["x", "y"]))
        region = parse("x <= 4", ["x", "y"])
        est = integrate_direct(g, region, product_box, 1000, 4, 9)
        assert est.per_replication_values == (20.0, 20.0, 20.0, 20.0)
        assert est.std_error == 0.0

    def test_signed_integrand_allowed(self, product_box):
        g = ScalarField.from_text("x - 2", VarOrder(["x", "y"]))
        region = parse("x <= 4", ["x", "y"])
        est = integrate_direct(g, region, product_box, 100_000, 5, 13)
        assert abs(est.value - 0.0) < 0.05

    def test_screening_fields_zero(self, product_field, product_box, region):
        est = integrate_direct(product_field, region, product_box, 1000, 2, 3)
        assert est.n_screened == 0
        assert est.n_in_region == 0
        assert est.proposals_drawn == 0
        assert est.bound_c is None


class TestCrossValidation:
    def test_estimators_agree(self, product_field, product_box, region):
        screened = integrate_screened(product_field, region, product_box, 50_000, 10, 101)
        direct = integrate_direct(product_field, region, product_box, 50_000, 10, 101)
        combined = math.hypot(screened.std_error, direct.std_error)
        assert abs(screened.value - direct.value) <= 3 * combined


class TestInvariants:
    def test_in_region_cannot_exceed_screened(self):
        with pytest.raises(ValueError):
            IntegralEstimate(
                value=1.0,
                replications=1,
                per_replication_values=(1.0,),
                std_error=0.0,
                n_uniform=10,
                n_screened=5,
                n_in_region=6,
            )

    def test_positive_counts_required(self, product_field, product_box, region):
        with pytest.raises(ValueError):
            integrate_screened(product_field, region, product_box, 0, 1, 1)
        with pytest.raises(ValueError):
            integrate_direct(product_field, region, product_box, 10, 0, 1)

    @pytest.mark.parametrize("integrate", [integrate_screened, integrate_direct])
    @pytest.mark.parametrize("text", ["(x > 0.5) * 2", "(x > 0.5) + (y > 0.5)"])
    def test_region_that_is_not_0_or_1_refused(self, integrate, text, product_field, product_box):
        # a product or sum of comparisons is not a comparison, so its values
        # are still scanned: 2.0 on half the box, and 2.0 where both hold
        with pytest.raises(ValueError, match="region must evaluate to 0 or 1"):
            integrate(product_field, parse(text, product_field.vars), product_box, 2000, 2, 1)
