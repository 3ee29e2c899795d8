"""Simulation engines: sampling laws, determinism, retention, serialization."""

import math

import numpy as np
import pytest
import scipy.stats

import collide.montecarlo as mc
from collide.analytic import collision_prob_exact
from collide.geometry import Ball, Ellipsoid
from collide.montecarlo import (
    Accumulator,
    SimConfig,
    histogram,
    proportion_report,
    run,
    run_conditional,
    run_naive,
    sample_cap_direction,
    sample_relative_speed,
    sample_velocity_pair,
    write_sample_csv,
)
from collide.rng import BLOCK, block_rng
from collide.stats import ks_test, load_sample_csv


def ball_config(**kw):
    base = dict(shape=Ball(radius=0.5, dim=2), n=10_000, seed=1)
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_valid(self):
        cfg = ball_config()
        assert cfg.dim == 2

    @pytest.mark.parametrize("kw", [
        dict(n=0), dict(n=-5), dict(sampler="bogus"),
        dict(sample_cap=-1), dict(shape="not a shape"), dict(workers=-1),
    ])
    def test_invalid(self, kw):
        with pytest.raises((ValueError, TypeError)):
            ball_config(**kw)


class TestElementarySamplers:
    def test_velocity_pair_forms(self):
        g = block_rng(0, 0)
        single = sample_velocity_pair(g, 3)
        assert single.dim == 3
        v1, v2 = sample_velocity_pair(block_rng(0, 0), 3, size=100)
        assert v1.shape == (100, 3) and v2.shape == (100, 3)
        # single draw consumes the stream the same way the batch does
        np.testing.assert_array_equal(single.v1, v1[0])
        np.testing.assert_array_equal(single.v2, v2[0])

    def test_velocity_moments(self):
        v1, v2 = sample_velocity_pair(block_rng(4, 0), 2, size=200_000)
        for arr in (v1, v2):
            assert abs(arr.mean()) < 0.01
            assert abs(arr.var() - 1.0) < 0.01

    def test_relative_speed_law(self):
        # twice the squared half-difference speed is chi-square with d dof
        d = 4
        s = sample_relative_speed(block_rng(5, 0), d, size=50_000)
        res = ks_test(2.0 * s * s, lambda x: scipy.stats.chi2.cdf(x, d),
                      alpha=1e-3)
        assert res.passed

    def test_cap_direction_unit_and_inside(self):
        for d in (2, 3, 4, 6):
            c = 0.62
            z = sample_cap_direction(block_rng(6, 0), d, c, size=20_000)
            assert z.shape == (20_000, d)
            np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)
            assert np.all(z[:, 0] >= c)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_cap_first_coordinate_law(self, d):
        from collide.stats import sphere_coord_cdf
        c = 0.35
        z = sample_cap_direction(block_rng(7, 0), d, c, size=50_000)
        base = sphere_coord_cdf(c, d)

        def cap_cdf(t):
            t = np.clip(t, c, 1.0)
            return (sphere_coord_cdf(t, d) - base) / (1.0 - base)

        res = ks_test(z[:, 0], cap_cdf, alpha=1e-3)
        assert res.passed, res.p_value

    def test_cap_direction_errors(self):
        g = block_rng(0, 0)
        with pytest.raises(ValueError):
            sample_cap_direction(g, 1, 0.5)
        with pytest.raises(ValueError):
            sample_cap_direction(g, 2, 0.0)
        with pytest.raises(ValueError):
            sample_cap_direction(g, 2, 1.0)
        with pytest.raises(ValueError):
            sample_cap_direction(g, 2, 0.5, size=0)


class TestEngines:
    def test_naive_estimate_matches_exact(self):
        cfg = ball_config(n=200_000, seed=42)
        acc = run_naive(cfg)
        p = collision_prob_exact(0.5, 2)
        assert abs(acc.p_hat - p) <= 5.0 * math.sqrt(p * (1 - p) / cfg.n)
        assert acc.trials == cfg.n
        assert acc.collisions == len(acc.time_samples)

    def test_naive_d1(self):
        acc = run_naive(SimConfig(shape=Ball(radius=0.4, dim=1), n=100_000, seed=8))
        assert abs(acc.p_hat - 0.5) < 0.01

    def test_conditional_every_trial_collides(self):
        cfg = ball_config(n=5_000, seed=3, sampler="conditional")
        acc = run_conditional(cfg)
        assert acc.collisions == cfg.n
        assert len(acc.time_samples) == cfg.n
        assert np.all(np.isfinite(acc.time_samples))
        assert np.all(acc.time_samples > 0.0)
        assert acc.location_samples.shape == (cfg.n, 2)

    def test_sampler_config_guard(self):
        with pytest.raises(ValueError):
            run_naive(ball_config(sampler="conditional"))
        with pytest.raises(ValueError):
            run_conditional(ball_config(sampler="naive"))

    def test_run_dispatches(self):
        a = run(ball_config(n=2_000, seed=5))
        b = run_naive(ball_config(n=2_000, seed=5))
        assert a.collisions == b.collisions
        c = run(ball_config(n=2_000, seed=5, sampler="conditional"))
        assert c.collisions == 2_000

    def test_conditional_ellipsoid(self):
        body = Ellipsoid.from_semi_axes(center=[-1.0, 0.0], semi_axes=[0.3, 0.6])
        acc = run_conditional(SimConfig(shape=body, n=3_000, seed=2,
                                        sampler="conditional"))
        assert acc.collisions == 3_000
        assert np.all(np.isfinite(acc.location_samples))

    def test_naive_ellipsoid_agrees_with_hit_geometry(self):
        # a ball posed as an ellipsoid must reproduce the ball estimate exactly
        r = 0.5
        ball_acc = run_naive(SimConfig(shape=Ball(radius=r, dim=2), n=50_000, seed=17))
        ell = Ellipsoid.from_semi_axes(center=[-1.0, 0.0], semi_axes=[r, r])
        ell_acc = run_naive(SimConfig(shape=ell, n=50_000, seed=17))
        assert ball_acc.collisions == ell_acc.collisions
        np.testing.assert_array_equal(ball_acc.sample_trial, ell_acc.sample_trial)
        np.testing.assert_allclose(ball_acc.sample_time, ell_acc.sample_time,
                                   rtol=1e-9)

    def test_rejection_stall_raises(self, monkeypatch):
        monkeypatch.setattr(mc, "_REJECTION_PROPOSAL_LIMIT", 10_000)
        monkeypatch.setattr(mc, "_REJECTION_MIN_RATE", 1e-2)
        thin = Ellipsoid.from_semi_axes(center=[-100.0, 0.0], semi_axes=[0.01, 0.01])
        with pytest.raises(RuntimeError):
            run_conditional(SimConfig(shape=thin, n=1_000, seed=0, workers=1,
                                      sampler="conditional"))


class TestDeterminism:
    def test_rerun_identical(self):
        a = run_naive(ball_config(n=30_000, seed=9))
        b = run_naive(ball_config(n=30_000, seed=9))
        np.testing.assert_array_equal(a.sample_trial, b.sample_trial)
        np.testing.assert_array_equal(a.sample_time, b.sample_time)
        np.testing.assert_array_equal(a.sample_location, b.sample_location)

    @pytest.mark.parametrize("sampler", ["naive", "conditional"])
    def test_worker_count_invariance(self, sampler):
        n = 3 * BLOCK + 123
        accs = [
            run(ball_config(n=n, seed=10, sampler=sampler, workers=w))
            for w in (1, 4, 8)
        ]
        for other in accs[1:]:
            assert accs[0].collisions == other.collisions
            np.testing.assert_array_equal(accs[0].sample_trial, other.sample_trial)
            np.testing.assert_array_equal(accs[0].sample_time, other.sample_time)
            np.testing.assert_array_equal(accs[0].sample_location,
                                          other.sample_location)

    def test_env_var_overrides_workers(self, monkeypatch):
        monkeypatch.setenv("COLLIDE_THREADS", "2")
        a = run_naive(ball_config(n=20_000, seed=11, workers=7))
        monkeypatch.delenv("COLLIDE_THREADS")
        b = run_naive(ball_config(n=20_000, seed=11, workers=1))
        np.testing.assert_array_equal(a.sample_time, b.sample_time)

    def test_env_var_validation(self, monkeypatch):
        monkeypatch.setenv("COLLIDE_THREADS", "zero")
        with pytest.raises(ValueError):
            run_naive(ball_config(n=1_000, seed=0))
        monkeypatch.setenv("COLLIDE_THREADS", "0")
        with pytest.raises(ValueError):
            run_naive(ball_config(n=1_000, seed=0))

    def test_block_prefix_stability(self, tmp_path):
        # a trial's velocities depend only on (seed, block, offset), so a
        # short run is a prefix of a longer one, including dump rows
        short, long_ = tmp_path / "s.csv", tmp_path / "l.csv"
        run_naive(ball_config(n=100, seed=13), dump=short)
        run_naive(ball_config(n=BLOCK + 50, seed=13), dump=long_)
        s_lines = short.read_text().splitlines()
        l_lines = long_.read_text().splitlines()
        assert len(s_lines) == 101
        assert len(l_lines) == BLOCK + 51
        assert s_lines == l_lines[:101]


class TestRetention:
    def test_merge_identity(self):
        a = run_naive(ball_config(n=5_000, seed=20))
        e = Accumulator.empty(a.dim, a.cap)
        m = e.merge(a)
        assert m.collisions == a.collisions and m.trials == a.trials
        np.testing.assert_array_equal(m.sample_trial, a.sample_trial)

    def test_merge_commutative_associative(self):
        # runs from different seeds share trial numbers, so compare after a
        # canonical reordering by the (almost surely unique) priorities
        def canon(acc):
            order = np.lexsort((acc.sample_trial, acc.sample_priority))
            return (acc.sample_trial[order], acc.sample_priority[order],
                    acc.sample_time[order])

        accs = [run_naive(ball_config(n=4_000, seed=s)) for s in (1, 2, 3)]
        ab = accs[0].merge(accs[1])
        ba = accs[1].merge(accs[0])
        for x, y in zip(canon(ab), canon(ba)):
            np.testing.assert_array_equal(x, y)
        left = ab.merge(accs[2])
        right = accs[0].merge(accs[1].merge(accs[2]))
        assert left.trials == right.trials == 12_000
        for x, y in zip(canon(left), canon(right)):
            np.testing.assert_array_equal(x, y)

    def test_merge_guards(self):
        a = run_naive(ball_config(n=1_000, seed=1))
        b = run_naive(SimConfig(shape=Ball(radius=0.5, dim=3), n=1_000, seed=1))
        with pytest.raises(ValueError):
            a.merge(b)
        c = run_naive(ball_config(n=1_000, seed=1, sample_cap=10))
        with pytest.raises(ValueError):
            a.merge(c)

    def test_cap_keeps_lowest_priorities(self):
        full = run_naive(ball_config(n=30_000, seed=21))
        capped = run_naive(ball_config(n=30_000, seed=21, sample_cap=100))
        assert capped.collisions == full.collisions
        assert len(capped.sample_trial) == 100
        order = np.lexsort((full.sample_trial, full.sample_priority))[:100]
        want = np.sort(full.sample_trial[order])
        np.testing.assert_array_equal(capped.sample_trial, want)
        # retained rows stay sorted by trial with their own data attached
        assert np.all(np.diff(capped.sample_trial) > 0)
        keep = np.isin(full.sample_trial, capped.sample_trial)
        np.testing.assert_array_equal(full.sample_time[keep], capped.sample_time)

    def test_counts_exact_under_cap(self):
        acc = run_naive(ball_config(n=20_000, seed=22, sample_cap=1))
        assert acc.collisions > 3_000
        assert len(acc.sample_trial) == 1
        assert acc.p_hat == acc.collisions / 20_000


class TestProportionReport:
    def test_fields(self):
        acc = run_naive(ball_config(n=10_000, seed=30))
        rep = proportion_report(acc, seed=30, sampler="naive")
        assert rep.estimate == acc.collisions / acc.trials
        assert rep.successes == acc.collisions
        assert rep.trials == 10_000
        assert rep.ci_low <= rep.estimate <= rep.ci_high
        assert rep.ci_level == 0.9999
        assert rep.sampler == "naive"
        data = rep.to_json()
        assert data["seed"] == 30

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            proportion_report(Accumulator.empty(2, 10), seed=0, sampler="naive")


class TestHistogram:
    def test_basic_binning(self):
        h = histogram([0.0, 0.5, 1.0, 1.5, 2.0, -1.0, 5.0], lo=0.0, hi=2.0, bins=4)
        # lower edge inclusive, upper edge spills to overflow
        np.testing.assert_array_equal(h.counts, [1, 1, 1, 1])
        assert h.underflow == 1
        assert h.overflow == 2

    def test_total_preserved(self):
        g = np.random.default_rng(1)
        x = g.standard_normal(10_000)
        h = histogram(x, lo=-2.0, hi=2.0, bins=37)
        assert int(h.counts.sum()) + h.underflow + h.overflow == 10_000

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            histogram([0.1, math.nan], lo=0.0, hi=1.0, bins=2)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            histogram([0.1], lo=1.0, hi=0.0, bins=2)
        with pytest.raises(ValueError):
            histogram([0.1], lo=0.0, hi=1.0, bins=0)


class TestCsvRoundtrip:
    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "dump.csv"
        cfg = ball_config(n=4_000, seed=31)
        acc = run_naive(cfg, dump=path)
        dump = load_sample_csv(path)
        assert len(dump.trial) == 4_000
        assert dump.collided.sum() == acc.collisions
        # collided rows carry exact round-trip floats
        hit = dump.collided
        np.testing.assert_array_equal(dump.times[hit], acc.sample_time)
        np.testing.assert_array_equal(dump.locations[hit], acc.sample_location)
        # misses have empty fields, parsed as NaN
        assert np.all(np.isnan(dump.times[~hit]))
        assert np.all(np.isnan(dump.locations[~hit]))

    def test_header_and_flags(self, tmp_path):
        path = tmp_path / "dump.csv"
        run_naive(ball_config(n=50, seed=32), dump=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,collided,t,c_1,c_2"
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] in ("true", "false")
            if fields[1] == "false":
                assert fields[2:] == ["", "", ""]

    def test_conditional_dump(self, tmp_path):
        path = tmp_path / "cond.csv"
        run_conditional(ball_config(n=200, seed=33, sampler="conditional"),
                        dump=path)
        dump = load_sample_csv(path)
        assert bool(dump.collided.all())
        assert np.all(np.isfinite(dump.times))

    def test_write_skips_empty_blocks(self, tmp_path):
        path = tmp_path / "x.csv"
        write_sample_csv(path, 2, [None])
        assert path.read_text().splitlines() == ["trial,collided,t,c_1,c_2"]

    def test_write_rejects_malformed_blocks(self, tmp_path):
        with pytest.raises(ValueError):
            write_sample_csv(tmp_path / "y.csv", 2, [(1, 2, 3)])
