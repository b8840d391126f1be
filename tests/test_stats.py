import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvesim.actors import GaltonGeometry
from dvesim.stats import (
    EmpiricalBaseline,
    InvalidParameter,
    LengthMismatch,
    RegressionSpec,
    StressedRunIncluded,
    TooFewRuns,
    WrongSampleCount,
    binomial_pmf,
    capture_baseline,
    check_regression,
    rmse,
    theoretical_distribution,
)
from helpers import increasing_trend, is_convex_increasing, linear_quantile


class TestBinomialPmf:
    def test_n1(self):
        assert binomial_pmf(1, 0.5).tolist() == [0.5, 0.5]

    def test_n2(self):
        assert binomial_pmf(2, 0.5).tolist() == [0.25, 0.5, 0.25]

    def test_peak_matches_exact_big_integer_value(self):
        # independent oracle: exact rational C(93, k) / 2^93
        pmf = binomial_pmf(93, 0.5)
        for k in (46, 47):
            exact = Fraction(math.comb(93, k), 2**93)
            assert pmf[k] == pytest.approx(float(exact), rel=1e-12)
        assert pmf[46] == pytest.approx(0.082077, abs=5e-6)

    def test_matches_exact_values_across_k(self):
        n = 200
        pmf = binomial_pmf(n, 0.5)
        for k in (0, 1, 57, 100, 199):
            exact = Fraction(math.comb(n, k), 2**n)
            assert pmf[k] == pytest.approx(float(exact), rel=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 10, 93, 250, 500, 1000])
    @pytest.mark.parametrize("p", [0.5, 0.123, 0.77])
    def test_sums_to_one(self, n, p):
        assert abs(math.fsum(binomial_pmf(n, p)) - 1.0) < 1e-12

    def test_sums_to_one_at_n_10000(self):
        assert abs(math.fsum(binomial_pmf(10_000, 0.5)) - 1.0) < 1e-12

    def test_degenerate_p(self):
        assert binomial_pmf(5, 0.0).tolist() == [1, 0, 0, 0, 0, 0]
        assert binomial_pmf(5, 1.0).tolist() == [0, 0, 0, 0, 0, 1]

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            binomial_pmf(-1, 0.5)
        with pytest.raises(InvalidParameter):
            binomial_pmf(10, 1.5)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=0, max_value=300),
           p=st.floats(min_value=0.0, max_value=1.0))
    def test_property_all_entries_valid(self, n, p):
        pmf = binomial_pmf(n, p)
        assert len(pmf) == n + 1
        assert (pmf >= 0).all()
        assert abs(math.fsum(pmf) - 1.0) < 1e-12


class TestTheoreticalDistribution:
    def test_paper_geometry(self):
        geo = GaltonGeometry()
        expected = theoretical_distribution(geo)
        assert len(expected) == 96
        assert expected.sum() == pytest.approx(37_800, rel=1e-9)
        row_vec = geo.balls_per_row * binomial_pmf(93, 0.5)
        shifted = np.zeros((3, 96))
        for offset in range(3):
            shifted[offset, offset:offset + 94] = row_vec
        assert np.array_equal(expected, shifted.sum(axis=0))

    def test_single_row_is_pure_binomial(self):
        geo = GaltonGeometry(rows_per_box=1)
        expected = theoretical_distribution(geo)
        assert len(expected) == 94
        per_ball = expected / expected.sum()
        assert np.allclose(per_ball, binomial_pmf(93, 0.5))

    def test_symmetric_about_center(self):
        expected = theoretical_distribution(GaltonGeometry())
        assert np.allclose(expected, expected[::-1], rtol=1e-12)


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_worked_example(self):
        assert rmse([1.0, 3.0], [2.0, 2.0]) == pytest.approx(1.0)

    def test_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(1)
        obs = rng.integers(0, 100, size=30).astype(float)
        base = rng.uniform(0, 100, size=30)
        perm = rng.permutation(30)
        assert rmse(obs, base) == pytest.approx(rmse(obs[perm], base[perm]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_accepts_histogram(self):
        # a run's histogram is its int64 count array
        h = np.bincount([0, 1, 1, 1], minlength=2)
        assert rmse(h, [2.0, 2.0]) == pytest.approx(1.0)


class TestLinearQuantile:
    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1,
                           max_size=40),
           q=st.one_of(st.floats(min_value=0.0, max_value=1.0),
                       st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.99, 1.0])))
    def test_equals_np_quantile(self, values, q):
        assert linear_quantile(values, q) == float(np.quantile(values, q))

    @pytest.mark.parametrize("q", [-0.01, 1.01])
    def test_q_outside_the_unit_interval_rejected(self, q):
        with pytest.raises(InvalidParameter):
            linear_quantile([1.0, 2.0], q)

    def test_no_values_rejected(self):
        with pytest.raises(InvalidParameter, match="no values"):
            linear_quantile([], 0.5)


def fake_run(counts, interval=124.8, load=0.3, geometry_hash="g", seed=1):
    return dict(histogram=list(counts), interval_mean_s=interval, peak_load_proxy=load,
                geometry_hash=geometry_hash, seed=seed)


class TestCaptureBaseline:
    def test_identical_runs_have_zero_sd(self):
        runs = [fake_run([5, 5, 5], seed=s) for s in (1, 2, 3)]
        baseline = capture_baseline(runs)
        assert (baseline.bucket_sd == 0).all()
        assert baseline.interval_sd_s == 0.0
        assert baseline.seeds == [1, 2, 3]

    def test_stressed_run_rejected(self):
        runs = [fake_run([5, 5, 5], seed=s) for s in (1, 2)]
        runs.append(fake_run([5, 5, 5], load=0.9, seed=3))
        with pytest.raises(StressedRunIncluded):
            capture_baseline(runs)

    def test_negative_bucket_count_rejected(self):
        runs = [fake_run([5, 5, 5], seed=s) for s in (1, 2)]
        runs.append(fake_run([5, -1, 5], seed=3))
        with pytest.raises(InvalidParameter, match="non-negative"):
            capture_baseline(runs)

    def test_too_few_runs(self):
        with pytest.raises(TooFewRuns):
            capture_baseline([fake_run([1]), fake_run([1])])

    def test_geometry_mismatch_rejected(self):
        runs = [fake_run([1], geometry_hash="g1"), fake_run([1], geometry_hash="g2"),
                fake_run([1], geometry_hash="g1")]
        with pytest.raises(InvalidParameter):
            capture_baseline(runs)

    def test_roundtrip_file(self, tmp_path):
        runs = [fake_run([5, 6, 7], interval=120 + s, seed=s) for s in (1, 2, 3)]
        baseline = capture_baseline(runs)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = EmpiricalBaseline.load(path)
        assert np.allclose(loaded.bucket_mean, baseline.bucket_mean)
        assert loaded.interval_mean_s == baseline.interval_mean_s
        assert loaded.seeds == baseline.seeds


class TestLawOfLargeNumbers:
    def test_distribution_rmse_shrinks_with_sample_size(self):
        # seeded descent sampling over 20 seeds: the empirical distribution
        # converges on theory, so per-ball RMSE at 12,600 balls/row beats 126
        pmf = binomial_pmf(93, 0.5)
        geo = GaltonGeometry()
        rng = np.random.default_rng(7)

        def per_ball_rmse(balls_per_row):
            expected = theoretical_distribution(geo) * (
                balls_per_row / geo.balls_per_row)
            counts = np.zeros(96)
            for row in range(3):
                counts[row:row + 94] += rng.multinomial(balls_per_row, pmf)
            return rmse(counts, expected) / (3 * balls_per_row)

        small = [per_ball_rmse(126) for _ in range(20)]
        large = [per_ball_rmse(12_600) for _ in range(20)]
        assert np.median(large) < np.median(small)


class TestCheckRegression:
    def test_pass_inside_window(self):
        spec = RegressionSpec("m", 9.0, 11.0, 0.2, 3)
        verdict = check_regression([10.0, 10.0, 10.0], spec)
        assert verdict.passed

    def test_fail_on_dispersion(self):
        spec = RegressionSpec("m", 0.0, 100.0, 0.2, 3)
        verdict = check_regression([5.0, 10.0, 15.0], spec)
        assert not verdict.passed
        assert verdict.cv == pytest.approx(0.408, abs=0.005)
        assert "cv" in verdict.reason

    def test_fail_on_mean_outside_window(self):
        spec = RegressionSpec("m", 9.0, 11.0, 0.2, 3)
        verdict = check_regression([20.0, 20.0, 20.0], spec)
        assert not verdict.passed
        assert "mean" in verdict.reason

    @pytest.mark.parametrize("lo, hi", [(-100.0, 100.0), (9.0, 11.0)])
    def test_cv_is_the_sd_over_the_magnitude_of_a_negative_mean(self, lo, hi):
        # the same cv whether the mean is inside the window or outside it
        spec = RegressionSpec("m", lo, hi, 0.5, 3)
        verdict = check_regression([-5.0, -10.0, -15.0], spec)
        assert verdict.mean == -10.0
        assert verdict.cv == pytest.approx(np.std([5.0, 10.0, 15.0]) / 10.0)
        assert verdict.passed is (lo <= -10.0)

    def test_equal_samples_on_the_window_edge_pass_with_cv_0(self):
        # numpy's mean of three 124.9s is 124.90000000000002, outside the
        # window, and its sd is about 1.4e-14
        spec = RegressionSpec("interval_mean_s", 120.0, 124.9, 0.05, 3)
        verdict = check_regression([124.9] * 3, spec)
        assert verdict.passed and verdict.mean == 124.9 and verdict.cv == 0.0

    @pytest.mark.parametrize("sample", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_sample_fails_the_window(self, sample):
        spec = RegressionSpec("m", 9.0, 11.0, 0.2, 3)
        verdict = check_regression([10.0, sample, 10.0], spec)
        assert not verdict.passed and "mean" in verdict.reason

    def test_wrong_sample_count(self):
        spec = RegressionSpec("m", 9.0, 11.0, 0.2, 5)
        with pytest.raises(WrongSampleCount):
            check_regression([10.0, 10.0], spec)

    def test_zero_mean_skips_cv_when_window_contains_zero(self):
        spec = RegressionSpec("m", -1.0, 1.0, 0.2, 3)
        verdict = check_regression([0.0, 0.0, 0.0], spec)
        assert verdict.passed and verdict.cv is None
        # outside the window a zero mean has no cv either
        assert check_regression([0.0, 0.0, 0.0], replace(spec, lo=1.0, hi=2.0)).cv is None

    def test_spec_validation(self):
        with pytest.raises(InvalidParameter):
            RegressionSpec("m", 2.0, 1.0, 0.2, 3)
        with pytest.raises(InvalidParameter):
            RegressionSpec("m", 0.0, 1.0, -0.1, 3)


class TestSeriesShape:
    def test_linear_ramp_is_convex_increasing(self):
        xs = np.linspace(0, 100, 60) + np.sin(np.arange(60)) * 0.3
        assert is_convex_increasing(xs)

    def test_quadratic_is_convex_increasing(self):
        xs = np.arange(60, dtype=float) ** 2 + 1
        assert is_convex_increasing(xs)

    def test_saturating_series_rejected(self):
        xs = 100 * (1 - np.exp(-np.arange(60) / 10.0))
        assert not is_convex_increasing(xs)

    def test_decreasing_series_rejected(self):
        xs = np.linspace(100, 0, 60)
        assert not is_convex_increasing(xs)

    def test_increasing_trend(self):
        assert increasing_trend(np.linspace(10, 1000, 50))
        assert not increasing_trend(np.full(50, 10.0))
        assert not increasing_trend(np.linspace(1000, 10, 50))
