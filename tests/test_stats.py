import dataclasses
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rejmc import (
    GofReport,
    chi_square_box,
    ks_test_1d,
    predicted_acceptance,
    srmc_sample,
    summarize,
    validate_target,
    ScalarField,
    VarOrder,
    Box,
)
from rejmc.randomness import RandomStream
from rejmc.stats import _CHI2_999, _Z_999, _chi2_threshold, _merge_small_cells
from conftest import GAUSS_C_LOOSE


class TestSummarize:
    def test_two_point_diagonal(self):
        stats = summarize(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert stats.correlation[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert stats.mean.tolist() == [0.5, 0.5]

    def test_antisymmetric_cloud(self):
        t = np.linspace(-2, 2, 50)
        stats = summarize(np.stack([t, -t], axis=1))
        assert stats.correlation[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_covariance_unbiased(self):
        pts = np.array([[1.0], [3.0]])
        stats = summarize(pts)
        assert stats.covariance[0, 0] == pytest.approx(2.0)  # divisor n-1

    def test_zero_variance_dimension_marked_undefined(self):
        pts = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        stats = summarize(pts)
        assert math.isnan(stats.correlation[0, 1])
        assert stats.correlation[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            summarize(np.array([[1.0]]))

    def test_gaussian_correlation_recovery(self, gauss_field, gauss_box):
        target = validate_target(gauss_field, gauss_box, GAUSS_C_LOOSE)
        batch = srmc_sample(target, 100_000, 424242)
        rho = summarize(batch).correlation[0, 1]
        assert 0.17 <= rho <= 0.23

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(5000, 3))
        base = summarize(pts)
        shuffled = summarize(pts[rng.permutation(5000)])
        for name in ("mean", "covariance", "correlation"):
            np.testing.assert_allclose(
                getattr(shuffled, name), getattr(base, name), rtol=1e-12, atol=1e-12
            )

    def test_large_batch_matches_numpy(self):
        rng = np.random.default_rng(11)
        mixing = np.array([[2.0, 0.0, 0.0], [0.6, 1.0, 0.0], [-0.3, 0.4, 0.5]])
        pts = rng.normal(size=(200_000, 3)) @ mixing.T + np.array([1.0, -2.0, 0.5])
        stats = summarize(pts)
        assert stats.n == 200_000
        np.testing.assert_allclose(stats.mean, pts.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(stats.covariance, np.cov(pts, rowvar=False), rtol=1e-12)
        np.testing.assert_allclose(stats.correlation, np.corrcoef(pts, rowvar=False), rtol=1e-12)


class TestKsTest:
    def test_quantile_construction_gives_half_over_n(self):
        n = 100
        samples = (np.arange(1, n + 1) - 0.5) / n  # exact quantiles of U[0,1]
        report = ks_test_1d(samples, lambda x: x, alpha=0.05)
        assert report.statistic == pytest.approx(0.5 / n, abs=1e-12)
        assert report.passed

    def test_thresholds(self):
        samples = np.sort(np.linspace(0.01, 0.99, 400))
        r05 = ks_test_1d(samples, lambda x: x, alpha=0.05)
        r01 = ks_test_1d(samples, lambda x: x, alpha=0.01)
        assert r05.threshold == pytest.approx(1.358 / 20.0)
        assert r01.threshold == pytest.approx(1.628 / 20.0)

    def test_sine_samples_pass(self, sine_field, sine_box):
        target = validate_target(sine_field, sine_box, 1.1)
        batch = srmc_sample(target, 10_000, 606)
        cdf = lambda xs: 0.5 - np.cos(xs) / np.sqrt(2)
        assert ks_test_1d(np.sort(batch.points[:, 0]), cdf, alpha=0.01).passed

    def test_uniform_fails_against_sine_cdf(self):
        draws = np.sort(RandomStream(15).uniform01_block(2000))
        cdf = lambda xs: np.clip(0.5 - np.cos(xs) / np.sqrt(2), 0.0, 1.0)
        report = ks_test_1d(draws, cdf, alpha=0.01)
        assert report.statistic > 0.2
        assert not report.passed

    def test_unsorted_draws_give_the_sorted_report(self, sine_field, sine_box):
        target = validate_target(sine_field, sine_box, 1.1)
        draws = srmc_sample(target, 5000, 606).points[:, 0]
        shuffled = np.random.default_rng(5).permutation(draws)
        cdf = lambda xs: 0.5 - np.cos(xs) / np.sqrt(2)
        assert ks_test_1d(shuffled, cdf, alpha=0.05) == ks_test_1d(np.sort(draws), cdf, alpha=0.05)

    def test_passed_is_derived_not_stored(self):
        assert "passed" not in {f.name for f in dataclasses.fields(GofReport)}
        assert GofReport("ks", 0.1, 0.2, None).passed
        assert not GofReport("ks", 0.2, 0.2, None).passed

    def test_alpha_restricted(self):
        with pytest.raises(ValueError, match="alpha"):
            ks_test_1d(np.array([0.1, 0.2]), lambda x: x, alpha=0.10)

    def test_report_invariant(self):
        samples = np.sort(RandomStream(3).uniform01_block(500))
        report = ks_test_1d(samples, lambda x: x, alpha=0.05)
        assert report.passed == (report.statistic < report.threshold)
        assert report.kind == "ks"
        assert report.dof is None


class TestChiSquareBox:
    def test_gaussian_samples_pass(self, gauss_field, gauss_box):
        target = validate_target(gauss_field, gauss_box, GAUSS_C_LOOSE)
        batch = srmc_sample(target, 100_000, 321)
        report = chi_square_box(target, 8, 100_000).test(batch)
        assert report.kind == "chi_square"
        assert report.passed
        assert report.dof == report.dof and report.dof >= 8

    def test_misspecified_correlation_fails(self, gauss_field, gauss_box):
        # sample rho=0.2, test against a rho=0.8 target
        sampled = validate_target(gauss_field, gauss_box, GAUSS_C_LOOSE)
        batch = srmc_sample(sampled, 100_000, 321)
        wrong = ScalarField.from_text(
            "exp(-(x^2 + y^2 - 1.6*x*y)/0.72) / (2*pi*sqrt(0.36))", VarOrder(["x", "y"])
        )
        wrong_target = validate_target(wrong, gauss_box)
        report = chi_square_box(wrong_target, 8, 100_000).test(batch)
        assert not report.passed

    def test_point_mass_fails_against_uniform(self):
        field = ScalarField.from_text("1 + 0*x", VarOrder(["x"]))
        target = validate_target(field, Box([(0, 1)]), 1.0)
        clumped = np.full((1000, 1), 0.5)
        report = chi_square_box(target, 8, 1000).test(clumped)
        assert not report.passed
        assert report.dof == 7  # no merging: expected 125 per cell

    def test_quadrature_memory_is_bounded(self):
        # the README-style 3-D validate: 192^3 quadrature points at 6 bins;
        # their (N, 3) coordinate matrix alone would take 170 MB
        field = ScalarField.from_text(
            "exp(-2*(x^2+y^2+z^2)) * (1 + cos(3*x)*cos(3*y)*sin(2*z+1))",
            VarOrder(["x", "y", "z"]),
        )
        target = validate_target(field, Box([(-3, 3)] * 3), 2.0)
        batch = srmc_sample(target, 2000, 5)
        tracemalloc.start()
        try:
            report = chi_square_box(target, 6, 2000).test(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 64 * 2**20

    def test_oversized_grid_refused_before_any_axis_is_built(self, gauss_field, gauss_box):
        # 65536 bins of 32 points per axis: the two axes alone take 32 MB
        target = validate_target(gauss_field, gauss_box, GAUSS_C_LOOSE)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit"):
                chi_square_box(target, 65536, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_threshold_is_999_quantile(self, sine_field, sine_box):
        from scipy.stats import chi2

        target = validate_target(sine_field, sine_box, 1.1)
        batch = srmc_sample(target, 20_000, 17)
        report = chi_square_box(target, 16, 20_000).test(batch)
        assert report.threshold == chi2.ppf(0.999, report.dof)

    def test_gammaincinv_quantile_equals_chi2_ppf_bit_for_bit(self):
        # the threshold formula is chi2.ppf's own, so run.json bytes match
        from scipy.special import gammaincinv
        from scipy.stats import chi2

        dofs = np.arange(1, 20_001)
        assert np.array_equal(2 * gammaincinv(dofs / 2, 0.999), chi2.ppf(0.999, dofs))
        for dof in (1, 7, 255, 20_000, 65_535, 123_457, 999_999, 1_000_000):
            assert float(2 * gammaincinv(dof / 2, 0.999)) == float(chi2.ppf(0.999, dof))

    def test_threshold_table_holds_scipys_doubles(self):
        from scipy.special import gammaincinv

        assert len(_CHI2_999) == 511
        expected = 2 * gammaincinv(np.arange(1, 512) / 2, 0.999)
        assert np.array_equal(np.array(_CHI2_999).view(np.uint64), expected.view(np.uint64))

    # both ends of the table, and the largest 2-D partition (2^18 cells),
    # where the Cornish-Fisher expansion lands on scipy's double exactly
    @pytest.mark.parametrize("dof", [1, 511, 262_143])
    def test_threshold_equals_scipy_on_both_sides_of_the_table(self, dof):
        from scipy.special import gammaincinv

        threshold = _chi2_threshold(dof)
        assert type(threshold) is float
        assert threshold == float(2 * gammaincinv(dof / 2, 0.999))

    # just past the table's edge (512 is the expansion's worst case, 2.53e-11)
    @pytest.mark.parametrize("dof", [512, 4096])
    def test_threshold_near_scipy_past_the_edge(self, dof):
        from scipy.special import gammaincinv

        threshold = _chi2_threshold(dof)
        expected = float(2 * gammaincinv(dof / 2, 0.999))
        assert type(threshold) is float
        assert threshold != expected
        assert abs(threshold - expected) / expected < 3e-11

    # every dof up to 20,000, then 2000 log-spaced up to the most groups a 1-D
    # plan can have (2^28 grid points / 32 per cell), and the largest 2-D
    # partition (2^18 cells)
    PAST_THE_TABLE = np.unique(np.concatenate([
        np.arange(512, 20_001),
        np.geomspace(20_001, (1 << 23) - 1, 2000).round().astype(np.int64),
        [262_143],
    ]))

    def test_threshold_past_the_table_is_within_3e_11_of_scipy(self):
        from scipy.special import gammaincinv

        dofs = self.PAST_THE_TABLE
        assert dofs.size >= 19_489 + 2000 and dofs[-1] == (1 << 23) - 1
        thresholds = np.array([_chi2_threshold(int(dof)) for dof in dofs])
        expected = 2 * gammaincinv(dofs / 2, 0.999)
        assert np.max(np.abs(thresholds - expected) / expected) < 3e-11

    def test_threshold_strictly_increases_across_the_seam(self):
        assert _chi2_threshold(511) == 615.5148626372387
        assert _chi2_threshold(512) == 616.6114586691665
        thresholds = [_chi2_threshold(dof) for dof in range(1, 512)]
        thresholds += [_chi2_threshold(int(dof)) for dof in self.PAST_THE_TABLE]
        assert all(type(t) is float for t in thresholds)
        assert np.all(np.diff(thresholds) > 0)

    def test_normal_quantile_literal(self):
        assert _Z_999 == statistics.NormalDist().inv_cdf(0.999)

    def test_plan_refuses_a_batch_of_another_size(self):
        field = ScalarField.from_text("1 + 0*x", VarOrder(["x"]))
        plan = chi_square_box(validate_target(field, Box([(0, 1)]), 1.0), 8, 1000)
        for rows in (999, 1001):
            with pytest.raises(ValueError, match=f"planned for 1000 draws, got {rows}"):
                plan.test(np.full((rows, 1), 0.5))


class TestMergeRule:
    def test_small_cells_merge_into_largest_neighbor(self):
        observed = np.array([2.0, 1.0, 110.0, 90.0])
        expected = np.array([1.0, 2.0, 100.0, 100.0])
        groups, exp = _merge_small_cells(expected, (4,))
        obs = np.bincount(groups, weights=observed)
        assert exp.tolist() == [103.0, 100.0]
        assert obs.tolist() == [113.0, 90.0]

    def test_no_merge_when_all_large(self):
        observed = np.array([10.0, 12.0, 9.0])
        expected = np.array([10.0, 10.0, 11.0])
        groups, exp = _merge_small_cells(expected, (3,))
        obs = np.bincount(groups, weights=observed)
        assert obs.tolist() == [10.0, 12.0, 9.0]
        assert exp.tolist() == [10.0, 10.0, 11.0]

    def test_2d_row_major_merge(self):
        expected = np.array([[1.0, 50.0], [40.0, 60.0]])
        _, exp = _merge_small_cells(expected.ravel(), (2, 2))
        # cell (0,0) merges into its largest neighbor, (0,1) with 50
        assert sorted(exp.tolist()) == [40.0, 51.0, 60.0]


@st.composite
def merge_cases(draw):
    bins = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    cells = math.prod(bins)
    expected = draw(st.lists(st.floats(0.0, 20.0), min_size=cells, max_size=cells))
    return np.array(expected), bins


@settings(max_examples=200, deadline=None)
@given(merge_cases())
def test_merge_partitions_cells_into_groups_of_at_least_five(case):
    expected, bins = case
    groups, group_exp = _merge_small_cells(expected, bins)
    # every cell has one group, and every group has a cell
    assert groups.shape == expected.shape
    assert np.array_equal(np.unique(groups), np.arange(group_exp.size))
    assert np.allclose(np.bincount(groups, weights=expected), group_exp, rtol=1e-12, atol=0.0)
    assert group_exp.size == 1 or np.all(group_exp >= 5.0)


class TestPredictedAcceptance:
    def test_sine_demo_constant(self):
        assert predicted_acceptance(1.0, 1.1, math.pi / 2) == pytest.approx(0.578745, abs=1e-5)

    def test_gaussian_paper_constant(self):
        assert predicted_acceptance(1.0, 0.1657, 100.0) == pytest.approx(0.0603500, abs=1e-6)

    def test_reciprocal_volume(self):
        assert predicted_acceptance(1.0, 2.0, 0.5) == 1.0

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            predicted_acceptance(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            predicted_acceptance(1.0, -1.0, 1.0)
