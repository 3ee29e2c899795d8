"""Hypothesis tests and interval estimates: calibration, power, coverage."""

import math
import tracemalloc
from math import comb

import numpy as np
import pytest
import scipy.stats

from collide.geometry import Ball
from collide.montecarlo import SimConfig, run_conditional
from collide.rng import offset_seed
from collide.specfun import f_cdf, kolmogorov_sf
from collide.stats import (
    StatTestResult,
    angular_uniformity_test,
    binomial_ci,
    ks_test,
    sphere_coord_cdf,
)


class TestKsTest:
    def test_null_accepts(self):
        g = np.random.default_rng(0)
        res = ks_test(g.random(100_000), lambda x: np.clip(x, 0.0, 1.0), alpha=0.01)
        assert res.passed
        assert res.n == 100_000

    def test_null_calibration(self):
        # under the null the rejection rate at alpha=0.01 stays near 0.01
        g = np.random.default_rng(1234)
        low = sum(
            ks_test(g.random(10_000), lambda x: np.clip(x, 0.0, 1.0)).p_value < 0.01
            for _ in range(200)
        )
        assert low / 200 <= 0.05

    def test_wrong_scale_rejected(self):
        g = np.random.default_rng(5)
        samples = g.standard_cauchy(10_000)
        half_scale = lambda x: 0.5 + np.arctan(x / 0.5) / math.pi
        res = ks_test(samples, half_scale, alpha=0.01)
        assert not res.passed
        assert res.p_value < 1e-6

    def test_constant_samples_fail(self):
        res = ks_test(np.full(50, 0.5), lambda x: np.clip(x, 0.0, 1.0))
        assert res.statistic >= 0.5
        assert not res.passed

    def test_statistic_matches_scipy(self):
        g = np.random.default_rng(9)
        samples = g.random(5_000)
        uniform = lambda x: np.clip(x, 0.0, 1.0)
        res = ks_test(samples, uniform)
        ref = scipy.stats.kstest(samples, "uniform")
        assert res.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-2, abs=1e-4)

    def test_undersized_sample(self):
        with pytest.raises(ValueError):
            ks_test(np.arange(5) / 5.0, lambda x: x)

    def test_bad_cdf_range(self):
        with pytest.raises(ValueError):
            ks_test(np.linspace(0.1, 0.9, 20), lambda x: 1.5 * x)

    def test_non_finite_cdf_rejected(self):
        # a NaN from the cdf must not reach the p-value as a NaN statistic
        def nan_at_median(x):
            f = np.clip(x, 0.0, 1.0)
            f[x.size // 2] = math.nan
            return f

        for cdf in (nan_at_median, lambda x: np.where(x > 0.5, math.inf, x)):
            with pytest.raises(ValueError, match="non-finite"):
                ks_test(np.linspace(0.1, 0.9, 20), cdf)

    def test_cdf_called_on_sorted_subsequences(self):
        # at most two calls, each on a proper ascending subsequence of the
        # sorted samples; the first (the nodes) holds both extremes
        calls = []

        def uniform(x):
            calls.append(np.array(x))
            return np.clip(x, 0.0, 1.0)

        samples = np.random.default_rng(4).random(50)
        ks_test(samples, uniform)
        xs = np.sort(samples)
        assert 1 <= len(calls) <= 2
        for arg in calls:
            pos = np.searchsorted(xs, arg)
            np.testing.assert_array_equal(xs[pos], arg)
            assert arg.size < xs.size
            assert (np.diff(pos) > 0).all()
        assert calls[0][0] == xs[0] and calls[0][-1] == xs[-1]

    @pytest.mark.parametrize("cdf", [lambda x: 0.5, lambda x: x[:-1], lambda x: x[:, None]])
    def test_wrong_cdf_shape_rejected(self, cdf):
        with pytest.raises(ValueError, match="shape"):
            ks_test(np.linspace(0.1, 0.9, 20), cdf)

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "tied", "n10"])
    def test_statistic_is_the_full_array_formula(self, layout):
        # D+ and D- share one difference buffer; the statistic and p-value
        # are those of the plain grid - f and f - (grid - 1/n), bit for bit,
        # and the caller's samples are left as they were
        g = np.random.default_rng(21)
        samples = {
            "contiguous": g.standard_cauchy(10_001),
            "strided": g.standard_cauchy((10_001, 3))[:, 1],
            "tied": np.round(g.standard_cauchy(10_001), 1),
            "n10": g.standard_cauchy(10),
        }[layout]
        before = samples.copy()
        cauchy = lambda x: 0.5 + np.arctan(x) / math.pi
        res = ks_test(samples, cauchy)
        f = cauchy(np.sort(samples))
        n = f.size
        grid = np.arange(1, n + 1, dtype=float) / n
        stat = max(float(np.max(grid - f)), float(np.max(f - (grid - 1.0 / n))), 0.0)
        assert res.statistic == stat
        assert res.p_value == kolmogorov_sf(math.sqrt(n) * stat)
        np.testing.assert_array_equal(samples, before)

    @pytest.mark.parametrize("case", [
        *(f"n{n}" for n in (10, 31, 32, 33, 64, 65, 10_001)),
        "ties", "flat_runs", "inside_gap", "location_f33"])
    def test_bounded_nodes_give_the_full_array_result(self, case):
        # the cdf is read at every 32nd order statistic and in the gaps the
        # bound cannot rule out; the statistic and p-value are still those
        # of evaluating every order statistic, bit for bit
        g = np.random.default_rng(22)
        cauchy = lambda x: 0.5 + np.arctan(x) / math.pi
        uniform = lambda x: np.clip(x, 0.0, 1.0)
        if case.startswith("n"):
            samples, cdf = g.standard_cauchy(int(case[1:])), cauchy
        elif case == "ties":
            samples, cdf = np.round(g.standard_cauchy(10_001)), cauchy
        elif case == "flat_runs":
            # a third of the samples lie outside [0, 1], where F is 0 or 1
            samples, cdf = g.normal(0.5, 0.5, 10_001), uniform
        elif case == "inside_gap":
            # a midpoint grid, D = 0.5/n, but order statistics 0-31 tie at
            # 0.5/n: D+ = 31.5/n at 31, inside the first gap, and the gap's
            # bound is that very value.  33-64 tie 1e-8 above 33.5/n, so
            # the nodes' largest deviation (at 64) is 1e-8 below it
            n = 1000
            samples = (np.arange(n) + 0.5) / n
            samples[:32] = 0.5 / n
            samples[33:65] = 33.5 / n + 1e-8
            samples, cdf = g.permutation(samples), uniform
        else:
            c = run_conditional(SimConfig(shape=Ball(radius=0.01, dim=3), n=10**5,
                                          seed=offset_seed(42, 6),
                                          sampler="conditional")).location_samples
            samples, cdf = np.einsum("ij,ij->i", c, c), lambda x: f_cdf(x, 3, 3)
        res = ks_test(samples, cdf)
        f = cdf(np.sort(samples))
        n = f.size
        grid = np.arange(1, n + 1, dtype=float) / n
        dev = np.maximum(grid - f, f - (grid - 1.0 / n))
        stat = max(float(np.max(dev)), 0.0)
        if case == "inside_gap":
            assert int(np.argmax(dev)) == 31
        assert res.statistic == stat
        assert res.p_value == kolmogorov_sf(math.sqrt(n) * stat)

    def test_decreasing_cdf_rejected(self):
        # a cdf 1e-6 lower at the second node (order statistic 32) than at
        # the first breaks the monotonicity that bounds the skipped points
        samples = np.linspace(0.1, 0.9, 100)
        dip = lambda x: np.where(x == samples[32], 0.5 - 1e-6, 0.5)
        with pytest.raises(ValueError, match="nondecreasing"):
            ks_test(samples, dip)

    def test_json_fields(self):
        res = ks_test(np.linspace(0.001, 0.999, 100), lambda x: x, name="u")
        # the key order is the order `validate` prints them in
        assert list(res.to_json()) == ["name", "statistic", "p_value", "n", "alpha", "pass"]
        assert res.to_json()["pass"] is True

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0, 1.5, math.nan, True])
    def test_level_outside_unit_interval_rejected(self, alpha):
        # at 0 or below every sample would pass, at NaN none would
        samples = np.linspace(0.001, 0.999, 100)
        calls = [lambda: ks_test(samples, lambda x: x, alpha=alpha),
                 lambda: angular_uniformity_test(np.eye(3), alpha=alpha)]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"alpha must lie in (0, 1), got {float(alpha)}"


class TestSphereCoordCdf:
    def test_symmetry_point(self):
        for d in (2, 3, 5, 9):
            assert sphere_coord_cdf(0.0, d) == pytest.approx(0.5, abs=1e-14)

    def test_endpoints(self):
        for d in (2, 3, 7):
            assert sphere_coord_cdf(-1.0, d) == 0.0
            assert sphere_coord_cdf(1.0, d) == 1.0

    def test_d3_uniform_coordinate(self):
        # in d = 3 the first coordinate is uniform on [-1, 1]
        for t in (-0.8, -0.2, 0.5, 0.9):
            assert sphere_coord_cdf(t, 3) == pytest.approx((t + 1.0) / 2.0, abs=1e-13)

    def test_d2_arcsine_law(self):
        for t in (-0.7, 0.0, 0.3, 0.99):
            want = 0.5 + math.asin(t) / math.pi
            assert sphere_coord_cdf(t, 2) == pytest.approx(want, abs=1e-12)

    def test_reflection(self):
        for d in (2, 4, 6):
            for t in (0.1, 0.45, 0.8):
                total = sphere_coord_cdf(-t, d) + sphere_coord_cdf(t, d)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_empirical(self):
        g = np.random.default_rng(3)
        d = 4
        u = g.standard_normal((200_000, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        for t in (-0.5, 0.0, 0.4):
            emp = float((u[:, 0] <= t).mean())
            assert sphere_coord_cdf(t, d) == pytest.approx(emp, abs=5e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sphere_coord_cdf(1.5, 3)
        with pytest.raises(ValueError):
            sphere_coord_cdf(0.0, 1)
        with pytest.raises(ValueError):
            sphere_coord_cdf(0.0, 2.5)


class TestAngularUniformity:
    def test_uniform_points_pass(self):
        g = np.random.default_rng(11)
        pts = g.standard_normal((100_000, 3))
        results = angular_uniformity_test(pts, alpha=0.01)
        assert len(results) == 3
        assert all(r.passed for r in results)
        # Bonferroni: each axis is tested at alpha / d
        assert all(r.alpha == pytest.approx(0.01 / 3) for r in results)
        assert [r.name for r in results] == ["axis_1", "axis_2", "axis_3"]

    def test_half_space_concentration_fails(self):
        g = np.random.default_rng(12)
        pts = g.standard_normal((20_000, 2))
        pts[:, 0] = np.abs(pts[:, 0])
        results = angular_uniformity_test(pts, alpha=0.01)
        assert not results[0].passed
        assert results[0].p_value < 1e-6

    def test_scale_invariance(self):
        # only directions matter, not magnitudes
        g = np.random.default_rng(13)
        pts = g.standard_normal((5_000, 2))
        scaled = pts * g.uniform(0.1, 10.0, size=(5_000, 1))
        a = angular_uniformity_test(pts, alpha=0.01)
        b = angular_uniformity_test(scaled, alpha=0.01)
        for ra, rb in zip(a, b):
            assert ra.statistic == pytest.approx(rb.statistic, abs=1e-12)

    def test_axes_are_the_unit_array_columns(self):
        # one coordinate is divided by the norms at a time; the tests see
        # the same bits as the columns of the whole (n, d) unit array
        pts = np.random.default_rng(14).standard_normal((2_000, 3))
        unit = pts / np.linalg.norm(pts, axis=1)[:, None]
        for k, res in enumerate(angular_uniformity_test(pts)):
            want = ks_test(unit[:, k], lambda t: sphere_coord_cdf(t, 3), alpha=0.01 / 3)
            assert (res.statistic, res.p_value) == (want.statistic, want.p_value)

    def test_memory_follows_its_data(self):
        # d = 2 at the rotation suite's n: the norms, one unit coordinate and
        # ks_test's four n-length arrays, 4.8 MB traced (5.4 MB when the
        # norms came from an (n, 2) array of squares and the sphere law
        # formed its argument at full length)
        pts = np.random.default_rng(15).standard_normal((10**5, 2))
        tracemalloc.start()
        try:
            angular_uniformity_test(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0e6, peak

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            angular_uniformity_test(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            angular_uniformity_test(np.array([[1.0, 0.0], [bad, 1.0]]))

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            angular_uniformity_test(np.ones((50, 1)))


class TestBinomialCi:
    def test_reference_interval(self):
        lo, hi = binomial_ci(500_000, 10**6, 0.9999)
        assert (hi - lo) / 2 == pytest.approx(1.95e-3, abs=5e-5)
        assert (lo + hi) / 2 == pytest.approx(0.5, abs=1e-12)

    def test_boundary_cases(self):
        lo, hi = binomial_ci(0, 50, 0.95)
        assert lo == 0.0 and 0.0 < hi < 0.2
        lo, hi = binomial_ci(50, 50, 0.95)
        assert hi == 1.0 and 0.8 < lo < 1.0

    def test_contains_point_estimate(self):
        for n in (1, 7, 100, 10_000):
            for k in {0, 1, n // 3, n // 2, n - 1, n}:
                if not 0 <= k <= n:
                    continue
                lo, hi = binomial_ci(k, n, 0.99)
                assert lo <= k / n <= hi

    def test_monotone_in_k(self):
        n = 40
        bounds = [binomial_ci(k, n, 0.95) for k in range(n + 1)]
        assert all(b2[0] >= b1[0] for b1, b2 in zip(bounds, bounds[1:]))
        assert all(b2[1] >= b1[1] for b1, b2 in zip(bounds, bounds[1:]))

    def test_wider_at_higher_level(self):
        lo1, hi1 = binomial_ci(30, 100, 0.9)
        lo2, hi2 = binomial_ci(30, 100, 0.9999)
        assert lo2 < lo1 and hi2 > hi1

    @pytest.mark.parametrize("level", [0.9, 0.95])
    def test_exact_coverage_on_grid(self, level):
        # exhaustive binomial enumeration: coverage never dips below nominal
        for n in range(1, 31):
            for p in (0.1, 0.5):
                cover = 0.0
                for k in range(n + 1):
                    lo, hi = binomial_ci(k, n, level)
                    if lo <= p <= hi:
                        cover += comb(n, k) * p**k * (1 - p) ** (n - k)
                assert cover >= level, (n, p, cover)

    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99, 0.9999])
    @pytest.mark.parametrize("k,n", [(0, 50), (1, 7), (13, 40), (30, 100),
                                     (500_000, 10**6), (9_990, 10_000), (50, 50)])
    def test_matches_scipy_quantile(self, k, n, level):
        # continuity-corrected Wilson endpoints (Newcombe 1998, method 4)
        # with z from scipy's normal quantile
        z = scipy.stats.norm.ppf(0.5 + 0.5 * level)
        p, q = k / n, 1.0 - k / n
        lo = 0.0 if k == 0 else max(0.0, (2 * n * p + z**2 - 1 - z * math.sqrt(
            z**2 - 2 - 1 / n + 4 * p * (n * q + 1))) / (2 * (n + z**2)))
        hi = 1.0 if k == n else min(1.0, (2 * n * p + z**2 + 1 + z * math.sqrt(
            z**2 + 2 - 1 / n + 4 * p * (n * q - 1))) / (2 * (n + z**2)))
        got = binomial_ci(k, n, level)
        assert got == pytest.approx((lo, hi), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k,n,level", [(-1, 10, 0.95), (11, 10, 0.95),
                                           (3, 0, 0.95), (3, 10, 1.0), (3, 10, 0.0),
                                           (2.5, 10, 0.95), (3, 10.5, 0.95)])
    def test_domain_errors(self, k, n, level):
        with pytest.raises(ValueError):
            binomial_ci(k, n, level)

    @pytest.mark.parametrize("level", [math.nan, 0.0, 1.0, 1.5])
    def test_level_message(self, level):
        with pytest.raises(ValueError) as info:
            binomial_ci(3, 10, level)
        assert str(info.value) == f"confidence level must lie in (0, 1), got {level}"


class TestStatTestResult:
    def test_pass_iff_p_at_least_alpha(self):
        r = StatTestResult(name="x", statistic=0.1, p_value=0.01, n=100,
                           alpha=0.01, passed=True)
        assert r.to_json()["pass"] is True
