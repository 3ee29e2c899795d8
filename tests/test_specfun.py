"""Special-function kernels against libm, scipy, and frozen decimals.

The frozen constants were produced with 40-digit arbitrary-precision
arithmetic and rounded to the nearest double; scipy serves as a second,
independently implemented oracle over wider grids.
"""

import json
import math

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats

import collide.specfun
from collide.specfun import (
    _CHUNK,
    _log_beta,
    _reg_inc_beta_sides,
    f_cdf,
    kolmogorov_sf,
    log_gamma,
    reg_inc_beta,
)

# Shape parameters from the regimes of DiDonato & Morris (ACM TOMS 708):
# a or b below 1, equal to 1, between 1 and 2, moderate and large.
SHAPES = (0.5, 1.0, 1.5, 3.0, 20.0)
# Both sides of the complement switch, down to subnormal-adjacent x and
# up to the last doubles below 1.
X_GRID = np.array([0.0, 1e-300, 1e-8, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9,
                   1.0 - 1e-8, 1.0 - 1e-12, 1.0])


class TestLogGamma:
    def test_frozen_values(self):
        # lgamma(0.5) = ln sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-14)
        assert log_gamma(200.0) == pytest.approx(857.9336698258574, rel=1e-14)

    def test_integers_match_factorials(self):
        for n in range(1, 15):
            assert log_gamma(n) == pytest.approx(math.log(math.factorial(n - 1)), abs=1e-12)

    def test_unit_values(self):
        assert abs(log_gamma(1.0)) <= 1e-14
        assert abs(log_gamma(2.0)) <= 1e-14

    @pytest.mark.parametrize("x", [1e-8, 0.1, 0.3, 0.5, 0.99, 1.5, 2.5, 3.7,
                                   10.0, 88.3, 200.0, 1e4, 1e8])
    def test_matches_libm(self, x):
        # log_gamma is math.lgamma, so the oracle is scipy's gammaln
        assert log_gamma(x) == pytest.approx(sps.gammaln(x), rel=1e-12, abs=1e-12)

    def test_recurrence(self):
        for x in (0.2, 0.7, 1.3, 5.5, 41.0):
            lhs = log_gamma(x + 1.0)
            rhs = log_gamma(x) + math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.inf, -math.inf, math.nan])
    def test_rejects_nonpositive_and_nonfinite(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)


class TestRegIncBeta:
    def test_endpoints_exact(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_frozen_values(self):
        # I_0.25(2, 3) = 67/256, a polynomial case
        assert reg_inc_beta(0.25, 2.0, 3.0) == pytest.approx(67.0 / 256.0, rel=1e-14)
        # I_{1/3}(1/2, 1/2) = (2/pi) asin(sqrt(1/3))
        assert reg_inc_beta(1.0 / 3.0, 0.5, 0.5) == pytest.approx(
            0.39182655203060727, rel=1e-13)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0, 40.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.5, 7.0, 40.0])
    def test_matches_scipy_grid(self, a, b):
        for x in (1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6):
            assert reg_inc_beta(x, a, b) == pytest.approx(
                float(sps.betainc(a, b, x)), abs=1e-13)

    def test_complement_symmetry(self):
        for a, b in ((0.5, 0.5), (1.5, 4.0), (6.0, 2.0)):
            for x in (0.05, 0.3, 0.6, 0.95):
                total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
                assert total == pytest.approx(1.0, abs=1e-13)

    def test_monotone_in_x(self):
        xs = [i / 50.0 for i in range(51)]
        vals = [reg_inc_beta(x, 3.0, 1.5) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    @pytest.mark.parametrize("x,a,b", [(-0.1, 1, 1), (1.1, 1, 1),
                                       (0.5, 0.0, 1), (0.5, 1, -2.0),
                                       (math.nan, 1, 1)])
    def test_domain_errors(self, x, a, b):
        with pytest.raises(ValueError):
            reg_inc_beta(x, a, b)


class TestArrayPath:
    @pytest.mark.parametrize("a", SHAPES)
    @pytest.mark.parametrize("b", SHAPES)
    def test_reg_inc_beta_matches_scipy(self, a, b):
        got = reg_inc_beta(X_GRID, a, b)
        assert got.shape == X_GRID.shape
        # scipy's betainc loses digits next to x = 1 for a = 1/2 (3.5e-11
        # at x = 1 - 1e-12); its complement betaincc does not, so the
        # oracle takes the upper half of [0, 1] from betaincc
        want = np.where(X_GRID <= 0.5, sps.betainc(a, b, X_GRID),
                        1.0 - sps.betaincc(a, b, X_GRID))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("d1", [1, 2, 3, 6, 40])
    @pytest.mark.parametrize("d2", [1, 2, 3, 6, 40])
    def test_f_cdf_matches_scipy(self, d1, d2):
        x = np.array([0.0, 1e-300, 1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e5, 1e8, 1e12,
                      math.inf])
        got = f_cdf(x, d1, d2)
        # scipy's f.cdf is itself 2.8e-11 off at (1, 1), x = 1e12 (checked
        # against mpmath); its survival function is not, so above x = 1
        # the oracle is 1 - f.sf
        want = np.where(x > 1.0, 1.0 - scipy.stats.f.sf(x, d1, d2), scipy.stats.f.cdf(x, d1, d2))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert got[-1] == 1.0

    def test_chunk_boundaries_match_scalar_calls(self):
        # 2 full chunks and 3 more elements, both sides of the switch mixed
        n = 2 * _CHUNK + 3
        x = np.random.default_rng(8).permutation(np.linspace(0.0, 1.0, n))
        got = reg_inc_beta(x, 1.5, 3.0)
        want = np.array([reg_inc_beta(np.asarray(v), 1.5, 3.0) for v in x])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_chunks_match_the_full_array_formula(self):
        # 3 full chunks and 5 more elements, with 0, 1 and inf among them:
        # the argument and its complement, formed one chunk at a time, give
        # the bits of the same formula on full-length arrays
        n = 3 * _CHUNK + 5
        g = np.random.default_rng(10)
        x = g.permutation(np.linspace(0.0, 1.0, n))
        want = _reg_inc_beta_sides(x, 1.0 - x, 1.5, 3.0, _log_beta(1.5, 3.0))
        np.testing.assert_array_equal(reg_inc_beta(x, 1.5, 3.0), want)

        x = g.permutation(np.concatenate([[0.0, 1.0, math.inf], g.f(3, 5, n - 3)]))
        dx = 3 * x
        with np.errstate(invalid="ignore"):
            arg = dx / (dx + 5)
        want = _reg_inc_beta_sides(arg, 5 / (dx + 5), 1.5, 2.5, _log_beta(1.5, 2.5))
        got = f_cdf(x, 3, 5)
        np.testing.assert_array_equal(got, want)
        assert got[x == 0.0] == 0.0 and got[x == math.inf] == 1.0

    def test_shape_is_kept(self):
        x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert reg_inc_beta(x, 2.0, 3.0).shape == (3, 4)
        assert f_cdf(x, 2, 5).shape == (3, 4)
        assert reg_inc_beta(np.array([]), 2.0, 3.0).shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1])
    def test_one_bad_element_raises(self, bad):
        x = np.linspace(0.0, 1.0, _CHUNK + 10)
        x[_CHUNK + 5] = bad
        with pytest.raises(ValueError):
            reg_inc_beta(x, 2.0, 3.0)
        if bad != 1.1:
            with pytest.raises(ValueError):
                f_cdf(x, 2, 3)

    def test_zero_d_result_is_a_float(self):
        for value in (reg_inc_beta(np.asarray(0.25), 2.0, 3.0),
                      reg_inc_beta(np.float64(0.25), 2.0, 3.0),
                      f_cdf(np.asarray(math.inf), 3, 5),
                      f_cdf(1.0, 2, 2)):
            assert type(value) is float
            assert json.loads(json.dumps(value)) == value


class TestOneSide:
    # the continued fraction runs only on a side of the complement switch
    # that has elements, so a scalar evaluates one side
    @pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_scalar_runs_one_side(self, monkeypatch, x):
        sizes = []
        real = collide.specfun._reg_inc_beta_inner

        def spy(values, *args):
            sizes.append(values.size)
            return real(values, *args)

        monkeypatch.setattr(collide.specfun, "_reg_inc_beta_inner", spy)
        a, b = 2.0, 3.0  # the switch sits at x = (a + 1) / (a + b + 2) = 3/7
        assert reg_inc_beta(x, a, b) == pytest.approx(sps.betainc(a, b, x), abs=1e-12)
        assert sizes == [1]

    def test_endpoints_run_no_side(self, monkeypatch):
        monkeypatch.setattr(collide.specfun, "_reg_inc_beta_inner", None)
        assert reg_inc_beta([0.0, 1.0], 2.0, 3.0).tolist() == [0.0, 1.0]


class TestFCdf:
    def test_frozen_value(self):
        # F(1,1) at 1/3: (2/pi) atan(1/sqrt(3)) = 1/3
        assert f_cdf(1.0 / 3.0, 1, 1) == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_edges(self):
        assert f_cdf(0.0, 2, 2) == 0.0
        assert f_cdf(math.inf, 3, 5) == 1.0
        with pytest.raises(ValueError):
            f_cdf(-1.0, 2, 2)
        with pytest.raises(ValueError):
            f_cdf(1.0, 0, 2)
        # a fraction is refused, not truncated onto F(2, 2)
        with pytest.raises(ValueError):
            f_cdf(1.0, 2.5, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 11])
    def test_equal_dof_median_is_one(self, d):
        # X ~ F(d,d) satisfies 1/X ~ F(d,d), so the median is exactly 1
        assert f_cdf(1.0, d, d) == pytest.approx(0.5, abs=1e-13)

    @pytest.mark.parametrize("d1,d2", [(1, 1), (2, 2), (3, 3), (2, 5), (10, 4)])
    def test_matches_scipy_grid(self, d1, d2):
        for x in (0.01, 0.3, 1.0, 2.5, 10.0, 100.0):
            assert f_cdf(x, d1, d2) == pytest.approx(
                float(scipy.stats.f.cdf(x, d1, d2)), abs=1e-12)


class TestKolmogorovSf:
    def test_frozen_values(self):
        assert kolmogorov_sf(1.0) == pytest.approx(0.26999967167735452, rel=1e-13)
        assert kolmogorov_sf(0.5) == pytest.approx(0.96394524366487509, rel=1e-13)
        assert kolmogorov_sf(2.0) == pytest.approx(6.7092525577969535e-4, rel=1e-13)

    def test_tails(self):
        assert kolmogorov_sf(0.04) == 1.0
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(10.0) == 0.0

    def test_monotone_nonincreasing(self):
        ts = [0.05 + 0.05 * i for i in range(80)]
        vals = [kolmogorov_sf(t) for t in ts]
        assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_matches_scipy_grid(self):
        for t in (0.3, 0.5, 0.8, 1.0, 1.36, 1.63, 2.0, 3.0, 5.0):
            assert kolmogorov_sf(t) == pytest.approx(
                float(sps.kolmogorov(t)), abs=1e-13)

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            kolmogorov_sf(-0.1)
        with pytest.raises(ValueError):
            kolmogorov_sf(math.nan)
