"""Closed-form probabilities, coefficients, and location densities."""

import math

import numpy as np
import pytest
import scipy.stats

from collide.analytic import (
    asymptotic_prob_coefficient,
    cauchy_cdf_1d,
    collision_prob_closed,
    collision_prob_exact,
    conditional_location_density,
    location_coefficient,
    location_density_limit,
    unit_sphere_area,
)
from collide.geometry import Ball

# the ten tabulated closed forms, d = 2..11, as (numerator, power of pi)
COEFF_TABLE = {
    2: (1, 2), 3: (1, 2), 4: (4, 3), 5: (6, 3), 6: (32, 4),
    7: (60, 4), 8: (384, 5), 9: (840, 5), 10: (6144, 6), 11: (15120, 6),
}


class TestModelParams:
    """The model parameters (d, r) are checked wherever they are taken."""

    def test_valid(self):
        assert type(collision_prob_exact(0.25, 3)) is float
        assert type(collision_prob_closed(0.25, 3)) is float
        assert Ball(radius=0.25, dim=3).radius == 0.25

    @pytest.mark.parametrize("d,r", [(0, 0.5), (-1, 0.5), (2, 0.0), (2, 1.0),
                                     (2, -0.3), (2, 1.5), (2, math.nan), (2.5, 0.5)])
    def test_invalid(self, d, r):
        with pytest.raises(ValueError):
            collision_prob_exact(r, d)
        with pytest.raises(ValueError):
            collision_prob_closed(r, d)
        with pytest.raises(ValueError):
            Ball(radius=r, dim=d)


class TestCollisionProb:
    def test_frozen_values(self):
        assert collision_prob_exact(0.5, 2) == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert collision_prob_exact(0.6, 3) == pytest.approx(0.1, rel=1e-13)

    def test_d1_is_half_for_any_radius(self):
        for r in (0.01, 0.3, 0.99):
            assert collision_prob_exact(r, 1) == 0.5

    def test_closed_forms_d2_d3(self):
        for r in (0.05, 0.3, 0.7, 0.95):
            want2 = math.atan(r / math.sqrt(1.0 - r * r)) / math.pi
            want3 = 0.5 * (1.0 - math.sqrt(1.0 - r * r))
            assert collision_prob_closed(r, 2) == pytest.approx(want2, rel=1e-14)
            assert collision_prob_closed(r, 3) == pytest.approx(want3, rel=1e-14)

    def test_exact_matches_closed_on_grid(self):
        worst = 0.0
        for d in (2, 3):
            for i in range(1, 100):
                r = i / 100.0
                worst = max(worst, abs(collision_prob_exact(r, d)
                                       - collision_prob_closed(r, d)))
        assert worst <= 1e-10

    def test_array_radius(self):
        rs = np.arange(0.01, 0.995, 0.01)
        for d in (1, 2, 3, 5):
            exact = collision_prob_exact(rs, d)
            assert exact.shape == rs.shape
            np.testing.assert_allclose(exact, [collision_prob_exact(r, d) for r in rs],
                                       rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(collision_prob_closed(rs, 2), collision_prob_exact(rs, 2),
                                   rtol=0.0, atol=1e-10)
        with pytest.raises(ValueError):
            collision_prob_exact(np.array([0.5, 1.0]), 2)

    def test_closed_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            collision_prob_closed(0.5, 4)

    def test_monotone_in_radius(self):
        for d in (2, 3, 5):
            probs = [collision_prob_exact(i / 50.0, d) for i in range(1, 50)]
            assert all(b > a for a, b in zip(probs, probs[1:]))
            assert all(0.0 < p < 0.5 for p in probs)

    def test_probability_shrinks_with_dimension(self):
        vals = [collision_prob_exact(0.4, d) for d in range(2, 9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("r,d", [(0.0, 2), (1.0, 2), (0.5, 0)])
    def test_domain_errors(self, r, d):
        with pytest.raises(ValueError):
            collision_prob_exact(r, d)


class TestAsymptoticCoefficient:
    def test_frozen_values(self):
        want = {
            2: 1.0 / math.pi,
            3: 0.25,
            4: 2.0 / (3.0 * math.pi),
            5: 3.0 / 16.0,
            6: 8.0 / (15.0 * math.pi),
        }
        for d, v in want.items():
            assert asymptotic_prob_coefficient(d) == pytest.approx(v, rel=1e-14)

    def test_power_law_at_small_radius(self):
        r = 1e-3
        for d in range(2, 7):
            ratio = collision_prob_exact(r, d) / (
                asymptotic_prob_coefficient(d) * r ** (d - 1))
            assert abs(ratio - 1.0) <= 1e-3

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            asymptotic_prob_coefficient(1)


class TestLocationCoefficient:
    def test_table(self):
        for d, (num, k) in COEFF_TABLE.items():
            exact = num / math.pi ** k
            assert abs(location_coefficient(d) / exact - 1.0) <= 1e-12

    def test_d1(self):
        assert location_coefficient(1) == pytest.approx(0.5 / math.pi, rel=1e-14)


class TestDensities:
    def test_limit_density_at_origin_is_coefficient(self):
        for d in range(1, 8):
            x = np.zeros(d)
            assert location_density_limit(x, d) == pytest.approx(
                location_coefficient(d), rel=1e-14)

    def test_limit_density_scaling_identity(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 3, 5):
            for _ in range(20):
                x = rng.standard_normal(d) * 3.0
                dens = location_density_limit(x, d)
                norm_sq = math.fsum(float(v) * float(v) for v in x)
                assert dens * (1.0 + norm_sq) ** d == pytest.approx(
                    location_coefficient(d), rel=1e-12)

    def test_exact_symmetry_under_signed_permutations(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 6):
            x = rng.standard_normal(d)
            base_lim = location_density_limit(x, d)
            base_cond = conditional_location_density(x, d)
            for _ in range(10):
                perm = rng.permutation(d)
                signs = rng.choice([-1.0, 1.0], size=d)
                y = x[perm] * signs
                assert location_density_limit(y, d) == base_lim
                assert conditional_location_density(y, d) == base_cond

    def test_rows_invariant_under_signed_permutations(self):
        rng = np.random.default_rng(4)
        n = 50
        for d in (2, 3, 6):
            x = rng.standard_normal((n, d))
            perms = rng.permuted(np.tile(np.arange(d), (n, 1)), axis=1)
            y = np.take_along_axis(x, perms, axis=1) * rng.choice([-1.0, 1.0], size=(n, d))
            for density in (location_density_limit, conditional_location_density):
                assert np.array_equal(density(y, d), density(x, d))

    def test_rows_match_single_point_calls(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 5):
            x = rng.standard_normal((40, d)) * 2.0
            for density in (location_density_limit, conditional_location_density):
                got = density(x, d)
                assert got.shape == (40,)
                assert np.array_equal(got, [density(row, d) for row in x])
                assert type(density(x[0], d)) is float

    def test_wrong_point_width_rejected(self):
        with pytest.raises(ValueError):
            location_density_limit(np.zeros((4, 3)), 2)
        with pytest.raises(ValueError):
            conditional_location_density(np.full((2, 2), np.nan), 2)

    def test_conditional_density_d2_origin(self):
        assert conditional_location_density(np.zeros(2), 2) == pytest.approx(
            1.0 / math.pi, rel=1e-14)

    def test_conditional_is_limit_rescaled(self):
        # both are multiples of (1+|x|^2)^(-d); the ratio is constant in x
        for d in (1, 2, 3, 4):
            xs = [np.full(d, 0.1), np.full(d, 1.0), np.full(d, 2.5)]
            ratios = [conditional_location_density(x, d) / location_density_limit(x, d)
                      for x in xs]
            assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
            assert ratios[1] == pytest.approx(ratios[2], rel=1e-12)


    @pytest.mark.parametrize("call, message", [
        # (1 + 25)^218 is past the largest double, though the constant is not
        (lambda: location_density_limit(np.eye(218)[0] * 5.0, 218),
         "d = 218 is too large at |x| = 5: (1 + |x|^2)^d overflows a double"),
        (lambda: conditional_location_density(np.zeros(269), 269),
         "d = 269 is too large: the density's normalizing constant overflows a double"),
        (lambda: location_coefficient(270),
         "d = 270 is too large: the density's normalizing constant overflows a double"),
    ], ids=["limit_kernel", "conditional_constant", "coefficient"])
    def test_overflow_names_the_dimension(self, call, message):
        with pytest.raises(OverflowError) as info:
            call()
        assert str(info.value) == message


class TestCauchyCdf1d:
    def test_frozen_values(self):
        assert cauchy_cdf_1d(0.0, 0.3) == pytest.approx(0.25, rel=1e-14)
        # at x = 1 - r the shifted/scaled arctan hits pi/4
        assert cauchy_cdf_1d(0.7, 0.3) == pytest.approx(0.375, rel=1e-14)

    def test_defective_mass_is_half(self):
        assert cauchy_cdf_1d(1e12, 0.5) == pytest.approx(0.5, abs=1e-11)
        assert cauchy_cdf_1d(-1e12, 0.5) == pytest.approx(0.0, abs=1e-11)

    def test_monotone(self):
        xs = [(-50 + i) / 5.0 for i in range(100)]
        vals = [cauchy_cdf_1d(x, 0.4) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_array_input(self):
        xs = np.linspace(-10.0, 10.0, 41)
        got = cauchy_cdf_1d(xs, 0.4)
        assert np.array_equal(got, [cauchy_cdf_1d(x, 0.4) for x in xs])
        with pytest.raises(ValueError):
            cauchy_cdf_1d(np.array([0.0, np.nan]), 0.4)


class TestUnitSphereArea:
    def test_frozen_values(self):
        assert unit_sphere_area(1) == pytest.approx(2.0, rel=1e-14)
        assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)
