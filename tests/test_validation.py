"""Validation suites: all green at defaults, mutation sanity, and the quadrature rule."""

import numpy as np
import pytest

import collide.analytic
import collide.montecarlo
import collide.validation
from collide.validation import (
    SUITES, _determinism_check, _gauss_legendre, _solver_agreement_check, run_suite,
    suite_analytic,
)


def names(checks):
    return [c["name"] for c in checks]


class TestSuiteStructure:
    def test_known_names(self):
        assert SUITES == ("analytic", "mc", "location", "rotation", "all")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("bogus")

    def test_all_concatenates(self):
        # "all" runs every suite, in the order analytic, mc, location, rotation
        assert names(run_suite("all")) == [
            "closed_form_agreement",
            "location_coefficient_table",
            "asymptotic_power_law",
            "conditional_density_normalization",
            "naive_prob_d2", "naive_prob_d3", "naive_prob_d1",
            "solver_decomposition_agreement_d2", "solver_decomposition_agreement_d3",
            "estimator_consistency", "worker_count_determinism",
            "line_contact_cauchy", "radial_f_law_d2", "radial_f_law_d3",
            "rotation_invariance_ball_d2", "rotation_invariance_ball_d3",
            "rotation_invariance_ellipsoid",
        ]

    def test_check_shape(self):
        for c in run_suite("analytic"):
            assert isinstance(c["pass"], bool)
            assert isinstance(c["detail"], str) and c["detail"]


class TestSuitesPass:
    def test_analytic(self):
        assert all(c["pass"] for c in run_suite("analytic"))

    def test_mc_default_seed(self):
        checks = run_suite("mc", seed=42)
        assert [c["name"] for c in checks] == [
            "naive_prob_d2", "naive_prob_d3", "naive_prob_d1",
            "solver_decomposition_agreement_d2", "solver_decomposition_agreement_d3",
            "estimator_consistency", "worker_count_determinism",
        ]
        assert all(c["pass"] for c in checks), [c for c in checks if not c["pass"]]

    def test_location_default_seed(self):
        checks = run_suite("location", alpha=0.01, seed=42)
        assert all(c["pass"] for c in checks), [c for c in checks if not c["pass"]]

    def test_rotation_default_seed(self):
        checks = run_suite("rotation", alpha=0.01, seed=42)
        assert all(c["pass"] for c in checks), [c for c in checks if not c["pass"]]

    def test_rotation_seed_7(self):
        checks = run_suite("rotation", alpha=0.01, seed=7)
        assert all(c["pass"] for c in checks), [c for c in checks if not c["pass"]]


    def test_determinism_check_runs_the_worker_counts_it_names(self, monkeypatch):
        resolved = []
        resolve = collide.montecarlo._resolve_workers
        monkeypatch.setattr(collide.montecarlo, "_resolve_workers",
                            lambda requested, blocks:
                            resolved.append(resolve(requested, blocks)) or resolved[-1])
        check = _determinism_check(42)
        assert check["pass"]
        assert check["detail"] == "accumulators bit-identical for workers=1 and workers=8"
        assert resolved == [1, 8]


class TestMutationSanity:
    def test_broken_coefficient_detected(self, monkeypatch):
        # a deliberately wrong table value must trip the analytic suite
        real = collide.analytic.location_coefficient
        monkeypatch.setattr(collide.analytic, "location_coefficient",
                            lambda d: real(d) * (1.0 + 1e-6))
        checks = suite_analytic()
        table = next(c for c in checks if c["name"] == "location_coefficient_table")
        assert not table["pass"]

    @pytest.mark.parametrize("mutation", [
        lambda x, d, f: f(x, d) * (1.0 + 1e-5),
        lambda x, d, f: f(x, d) * (1.0 + np.sum(np.square(x), axis=-1)) ** -0.01,
    ], ids=["scaled", "lighter_tail"])
    def test_broken_density_detected(self, monkeypatch, mutation):
        real = collide.analytic.conditional_location_density
        monkeypatch.setattr(collide.analytic, "conditional_location_density",
                            lambda x, d: mutation(x, d, real))
        checks = suite_analytic()
        norm = next(c for c in checks if c["name"] == "conditional_density_normalization")
        assert not norm["pass"], norm["detail"]

    def test_broken_probability_detected(self, monkeypatch):
        real = collide.analytic.collision_prob_closed
        monkeypatch.setattr(collide.analytic, "collision_prob_closed",
                            lambda r, d: real(r, d) + 1e-8)
        checks = suite_analytic()
        agreement = next(c for c in checks if c["name"] == "closed_form_agreement")
        assert not agreement["pass"]

    @pytest.mark.parametrize("d", [2, 3])
    def test_skewed_collision_time_detected(self, monkeypatch, d):
        assert _solver_agreement_check(d, 0.3, 200, 3)["pass"]
        real = collide.validation.collision_time
        monkeypatch.setattr(collide.validation, "collision_time",
                            lambda pair, r: real(pair, r) * (1.0 + 1e-8))
        assert not _solver_agreement_check(d, 0.3, 200, 3)["pass"]

    def test_oracle_miss_on_one_row_fails(self, monkeypatch):
        real = collide.validation.collision_time
        calls = []

        def misses_once(pair, r):
            calls.append(pair)
            return None if len(calls) == 57 else real(pair, r)

        monkeypatch.setattr(collide.validation, "collision_time", misses_once)
        check = _solver_agreement_check(2, 0.3, 200, 3)
        assert len(calls) == 200
        assert not check["pass"]
        assert "nan" in check["detail"]


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 64])
    def test_matches_numpy_rule(self, n):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = _gauss_legendre(n)
        want_nodes, want_weights = leggauss(n)
        np.testing.assert_allclose(nodes, want_nodes, rtol=0, atol=1e-14)
        np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 64])
    def test_weights_sum_to_two(self, n):
        assert abs(_gauss_legendre(n)[1].sum() - 2.0) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 64])
    def test_exact_for_degree_below_2n(self, n):
        nodes, weights = _gauss_legendre(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs((weights * nodes ** k).sum() - exact) <= 1e-14, k
