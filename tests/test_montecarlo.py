"""Simulation engines: sampling laws, determinism, retention, serialization."""

import itertools
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats

import collide.montecarlo as mc
from collide.analytic import collision_prob_exact
from collide.geometry import Ball, Ellipsoid, VelocityPair, collision_time, com_split
from collide.montecarlo import (
    Accumulator,
    SimConfig,
    proportion_report,
    run,
    run_conditional,
    run_naive,
    sample_cap_direction,
    sample_relative_speed,
    write_sample_csv,
)
from collide.rng import BLOCK, block_rng, block_spans, offset_seed
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
        # a seed is one Philox key word: -1 must not alias 2**64 - 1
        dict(seed=-1), dict(seed=2**64),
        # a fraction is refused, not truncated onto seed 1's stream or 2 trials
        dict(seed=1.5), dict(n=2.5),
    ])
    def test_invalid(self, kw):
        with pytest.raises((ValueError, TypeError)):
            ball_config(**kw)

    def test_largest_seed_runs(self):
        acc = run_naive(ball_config(n=100, seed=2**64 - 1))
        assert acc.trials == 100

    def test_offset_seed_wraps(self):
        assert offset_seed(7, 3) == 10
        assert offset_seed(2**64 - 1, 1) == 0
        assert offset_seed(2**64 - 2, 6) == 4
        with pytest.raises(ValueError, match="got -1"):
            offset_seed(-1, 1)


class TestElementarySamplers:
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
            sample_cap_direction(g, 1, 0.5, size=10)
        with pytest.raises(ValueError):
            sample_cap_direction(g, 2, 0.0, size=10)
        with pytest.raises(ValueError):
            sample_cap_direction(g, 2, 1.0, size=10)
        with pytest.raises(ValueError):
            sample_cap_direction(g, 2, 0.5, size=0)
        # a fractional dimension or size is refused, not truncated
        with pytest.raises(ValueError):
            sample_cap_direction(g, 3.9, 0.5, size=10)
        with pytest.raises(ValueError):
            sample_cap_direction(g, 3, 0.5, size=2.9)
        with pytest.raises(ValueError):
            sample_relative_speed(g, 2.7, size=10)
        with pytest.raises(ValueError):
            sample_relative_speed(g, 2, size=2.5)


class TestEngines:
    def test_naive_estimate_matches_exact(self):
        cfg = ball_config(n=200_000, seed=42)
        acc = run_naive(cfg)
        p = collision_prob_exact(0.5, 2)
        assert abs(acc.p_hat - p) <= 5.0 * math.sqrt(p * (1 - p) / cfg.n)
        assert acc.trials == cfg.n
        assert acc.collisions == len(acc.sample_time)

    def test_naive_d1(self):
        acc = run_naive(SimConfig(shape=Ball(radius=0.4, dim=1), n=100_000, seed=8))
        assert abs(acc.p_hat - 0.5) < 0.01

    def test_conditional_every_trial_collides(self):
        cfg = ball_config(n=5_000, seed=3, sampler="conditional")
        acc = run_conditional(cfg)
        assert acc.collisions == cfg.n
        assert len(acc.sample_time) == cfg.n
        assert np.all(np.isfinite(acc.sample_time))
        assert np.all(acc.sample_time > 0.0)
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
        # a needle along the axis: its bounding cap is wide, its hit set tiny
        needle = Ellipsoid.from_semi_axes(center=[-1.0, 0.0], semi_axes=[0.5, 1e-6])
        with pytest.raises(RuntimeError):
            run_conditional(SimConfig(shape=needle, n=1_000, seed=0, workers=1,
                                      sampler="conditional"))


def _rotated(ellipsoid: Ellipsoid, seed: int) -> Ellipsoid:
    d = ellipsoid.dim
    q, r = np.linalg.qr(block_rng(seed, 0).standard_normal((d, d)))
    rot = q * np.sign(np.diag(r))
    return Ellipsoid(center=rot @ ellipsoid.center, matrix=rot @ ellipsoid.matrix @ rot.T)


class TestShapeProtocol:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_naive_rows_match_scalar_solver(self, d):
        # one whole block, row by row against the scalar time-of-impact
        r, seed = 0.3, 61
        _, (_, collided, t, c) = mc._naive_block(
            ball_config(shape=Ball(radius=r, dim=d), seed=seed), (0, 0, BLOCK), True)
        v = block_rng(seed, 0).standard_normal((BLOCK, 2 * d))
        hits = 0
        for j, row in enumerate(v):
            pair = VelocityPair(row[:d], row[d:])
            want = collision_time(pair, r)
            assert collided[j] == (want is not None)
            if want is not None:
                hits += 1
                assert t[j] == pytest.approx(want, rel=1e-12)
                np.testing.assert_allclose(c[j], com_split(pair).v_mean * want,
                                           rtol=1e-12, atol=0.0)
        assert hits > 100

    def test_rotated_ellipsoid_same_time_law(self):
        # a rotation off the axis takes the Householder path; contact times
        # keep their law because the model is rotation invariant
        body = Ellipsoid.from_semi_axes(center=[-1.0, 0.0, 0.0], semi_axes=[0.1, 0.2, 0.3])
        turned = _rotated(body, 3)
        axis, _ = turned.bounding_cap()
        assert abs(axis[0]) < 0.99
        n = 20_000
        a = run_conditional(SimConfig(shape=body, n=n, seed=71, sampler="conditional"))
        b = run_conditional(SimConfig(shape=turned, n=n, seed=72, sampler="conditional"))
        assert a.collisions == b.collisions == n
        res = scipy.stats.ks_2samp(a.sample_time, b.sample_time)
        assert res.pvalue >= 0.01, res.pvalue

    def test_body_around_the_origin_runs(self):
        # its bounding ball holds the origin: proposals cover the whole sphere
        body = Ellipsoid.from_semi_axes(center=[-1.0, 0.0], semi_axes=[0.3, 2.0])
        acc = run_conditional(SimConfig(shape=body, n=5_000, seed=4, sampler="conditional"))
        assert acc.collisions == acc.trials == 5_000
        assert np.all(np.isfinite(acc.sample_time) & (acc.sample_time > 0.0))

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_every_ball_proposal_hits(self, d):
        ball = Ball(radius=0.2, dim=d)
        axis, c = ball.bounding_cap()
        z = mc._cap_proposals(block_rng(5, 0), axis, c, 20_000)
        assert np.all(np.isfinite(ball.contact_scales(z)))

    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_ball_block_draws_one_cap_sample(self, d):
        # a ball keeps every cap proposal, so a block draws exactly m cap
        # directions, then the speeds, drifts and priorities
        ball, m, seed = Ball(radius=0.3, dim=d), 500, 81
        acc = run_conditional(SimConfig(shape=ball, n=m, seed=seed, sampler="conditional"))
        g = block_rng(seed, 0)
        z = np.ones((m, 1)) if d == 1 else sample_cap_direction(g, d, ball.cap_cosine, m)
        t = ball.contact_scales(z) / sample_relative_speed(g, d, m)
        drift = g.standard_normal((m, d)) * math.sqrt(0.5)
        np.testing.assert_array_equal(acc.sample_time, t)
        np.testing.assert_array_equal(acc.sample_location, drift * t[:, None])

    def test_proposals_lie_on_a_turned_cap(self):
        body = _rotated(Ellipsoid.from_semi_axes(center=[-1.0, 0.0, 0.0, 0.0],
                                                 semi_axes=[0.2, 0.3, 0.4, 0.5]), 8)
        axis, c = body.bounding_cap()
        z = mc._cap_proposals(block_rng(9, 0), axis, c, 20_000)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)
        assert np.all(z @ axis >= c - 1e-12)


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

    def test_workers_clamped_to_blocks(self, monkeypatch):
        # checked on the resolved count; no thread is started
        monkeypatch.delenv("COLLIDE_THREADS", raising=False)
        assert mc._resolve_workers(10**9, 3) == 3
        assert mc._resolve_workers(2, 3) == 2
        assert 1 <= mc._resolve_workers(0, 3) <= 3
        monkeypatch.setenv("COLLIDE_THREADS", str(10**9))
        assert mc._resolve_workers(1, 3) == 3

    def test_workers_clamped_per_cpu(self, monkeypatch):
        # checked on the resolved count; no thread is started
        monkeypatch.delenv("COLLIDE_THREADS", raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 1)
        assert mc._resolve_workers(100_000, 10**6) == 8
        assert mc._resolve_workers(8, 10**6) == 8
        assert mc._resolve_workers(3, 10**6) == 3
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc._resolve_workers(100_000, 10**6) == 8
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
        assert mc._resolve_workers(100_000, 10**6) == 32
        assert mc._resolve_workers(100_000, 5) == 5
        monkeypatch.setenv("COLLIDE_THREADS", "100000")
        assert mc._resolve_workers(1, 10**6) == 32

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
        # a fractional dim or cap is refused, not truncated to 2 and 3
        for dim, cap in ((2.7, 3), (2, 3.2)):
            with pytest.raises(ValueError):
                Accumulator.empty(dim, cap)

    def test_block_tallies_merge_in_any_grouping(self):
        # the engines merge per-block tallies once; a bottom-k of bottom-k's
        # is the bottom-k of the union, so every grouping and order of the
        # block merges must give the run's accumulator bit for bit
        cfg = ball_config(n=3 * BLOCK, seed=24, sample_cap=500)
        whole = run_naive(cfg)
        tallies = [mc._naive_block(cfg, span, False)[0] for span in block_spans(cfg.n)]
        assert len(tallies) == 3
        assert all(t.collisions > cfg.sample_cap for t in tallies)
        for x, y, z in itertools.permutations(tallies):
            for merged in (x.merge(y).merge(z), x.merge(y.merge(z))):
                assert (merged.trials, merged.collisions) == (whole.trials, whole.collisions)
                for field in ("sample_trial", "sample_priority", "sample_time",
                              "sample_location"):
                    np.testing.assert_array_equal(getattr(merged, field), getattr(whole, field))

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


class TestStreamedDrive:
    # mc._drive folds block tallies in trial order while blocks run; these
    # tests hold it to one _merged over every block, a bounded number of
    # blocks in flight, and memory that does not grow with n

    @pytest.mark.parametrize("block_fn", [mc._naive_block, mc._conditional_block])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("cap", [0, 1, 1000, 10**6])
    def test_fold_equals_one_merge(self, monkeypatch, block_fn, workers, cap):
        monkeypatch.delenv("COLLIDE_THREADS", raising=False)
        sampler = "naive" if block_fn is mc._naive_block else "conditional"
        cfg = ball_config(n=10 * BLOCK + 123, seed=25, sampler=sampler,
                          workers=workers, sample_cap=cap)
        want = mc._merged([block_fn(cfg, span, False)[0] for span in block_spans(cfg.n)])
        assert cap >= want.collisions or want.sample_trial.size == cap
        got = mc._drive(cfg, block_fn, None)
        assert (got.dim, got.cap, got.trials, got.collisions) == \
            (want.dim, want.cap, want.trials, want.collisions)
        for field in ("sample_trial", "sample_priority", "sample_time", "sample_location"):
            x, y = getattr(got, field), getattr(want, field)
            assert x.dtype == y.dtype and x.shape == y.shape
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failing_block_stops_the_run(self, monkeypatch, workers):
        monkeypatch.delenv("COLLIDE_THREADS", raising=False)
        started, threads = [], set()

        def block_fn(config, span, want_rows):
            started.append(span[0])
            threads.add(threading.current_thread())
            if span[0] == 5:
                raise RuntimeError("block 5 failed")
            return mc._naive_block(config, span, want_rows)

        cfg = ball_config(n=40 * BLOCK, seed=26, workers=workers, sample_cap=100)
        with pytest.raises(RuntimeError, match="block 5 failed"):
            mc._drive(cfg, block_fn, None)
        assert 5 in started
        assert len(started) <= 5 + 2 * workers
        assert not any(t.is_alive() for t in threads if t is not threading.main_thread())

    def test_unwritable_dump_fails_before_any_block(self, monkeypatch):
        calls = []

        def counting(config, span, want_rows):
            calls.append(span)
            return mc._naive_block(config, span, want_rows)

        monkeypatch.setattr(mc, "_naive_block", counting)
        with pytest.raises(OSError):
            run_naive(ball_config(n=4 * BLOCK), dump="/nonexistent-dir/x.csv")
        assert calls == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dump", [False, True])
    def test_peak_memory_independent_of_n(self, monkeypatch, tmp_path, workers, dump):
        # tracemalloc sees numpy's buffers; an 8x longer run must not need
        # more than 1.5x the memory.  With a dump, the rows go to the file
        # as raw arrays: traced, the CSV writer's per-row strings take about
        # 10x its untraced second for these 590k rows, and its memory is one
        # block's lines whatever n is.
        monkeypatch.delenv("COLLIDE_THREADS", raising=False)

        def raw_sink(path, dim, row_blocks):
            with open(path, "wb") as fh:
                for rows in row_blocks:
                    for column in rows:
                        column.tofile(fh)

        monkeypatch.setattr(mc, "write_sample_csv", raw_sink)

        def traced_peak(n):
            cfg = ball_config(n=n, seed=27, workers=workers, sample_cap=1000)
            tracemalloc.start()
            try:
                run_naive(cfg, dump=tmp_path / f"{n}.raw" if dump else None)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # with two workers a peak depends on whether two blocks' buffers
        # coincide, which any block may catch and an 8-block run misses about
        # half the time.  Each side takes its largest peak over the same 192
        # blocks (24 runs of 8, 3 of 64), so both get as many chances.
        short = max(traced_peak(8 * BLOCK) for _ in range(24))
        long_ = max(traced_peak(64 * BLOCK) for _ in range(3))
        assert long_ <= 1.5 * short, (short, long_)


class TestSampleStore:
    # mc._RunningBottomK holds the retained rows once, in trial order, and
    # compacts them in place; these tests hold it to _merged over many
    # compactions and to memory in proportion to the rows it retains

    @staticmethod
    def _assert_fold_equals_merge(cfg, block_fn):
        want = mc._merged([block_fn(cfg, span, False)[0] for span in block_spans(cfg.n)])
        got = mc._drive(cfg, block_fn, None)
        assert (got.dim, got.cap, got.trials, got.collisions) == \
            (want.dim, want.cap, want.trials, want.collisions)
        for field in ("sample_trial", "sample_priority", "sample_time", "sample_location"):
            x, y = getattr(got, field), getattr(want, field)
            assert x.dtype == y.dtype and x.shape == y.shape
            np.testing.assert_array_equal(x, y)
            # the result holds little more memory than its own rows
            owner = x if x.base is None else x.base
            assert owner.nbytes <= 1.25 * x.nbytes

    @pytest.mark.parametrize("block_fn", [mc._naive_block, mc._conditional_block])
    @pytest.mark.parametrize("cap_offset", [-1, 0, 1])
    def test_repeated_compaction_at_block_collision_count(self, monkeypatch, block_fn,
                                                          cap_offset):
        # a cap right at one block's collision count, with n far above 2 x cap
        monkeypatch.delenv("COLLIDE_THREADS", raising=False)
        sampler = "naive" if block_fn is mc._naive_block else "conditional"
        probe = ball_config(n=BLOCK, seed=28, sampler=sampler)
        per_block = block_fn(probe, block_spans(BLOCK)[0], False)[0].collisions
        cfg = ball_config(n=40 * BLOCK + 77, seed=28, sampler=sampler, workers=1,
                          sample_cap=per_block + cap_offset)
        compactions = []
        compact = mc._RunningBottomK._compact

        def counting(fold):
            compactions.append(fold.size)
            compact(fold)

        monkeypatch.setattr(mc._RunningBottomK, "_compact", counting)
        self._assert_fold_equals_merge(cfg, block_fn)
        assert len(compactions) >= 2

    @pytest.mark.parametrize("cap", [1, 2, 7, 100])
    def test_small_caps_compact_many_times(self, monkeypatch, cap):
        monkeypatch.delenv("COLLIDE_THREADS", raising=False)
        cfg = ball_config(n=40 * BLOCK + 77, seed=29, workers=2, sample_cap=cap)
        self._assert_fold_equals_merge(cfg, mc._naive_block)

    @pytest.mark.parametrize("cap", [1, 7, 50, 300])
    def test_tied_priorities_break_by_trial(self, cap):
        # engine priorities almost never tie, so feed the fold block tallies
        # whose priorities take five values, in trial order
        rng = np.random.default_rng(cap)
        tallies = []
        for block, size in enumerate([0, 30, 200, 1, 77, 500, 3, 120]):
            trial = block * 1000 + np.sort(rng.choice(1000, size, replace=False))
            tallies.append(Accumulator(
                dim=2, cap=cap, trials=1000, collisions=size,
                sample_trial=trial.astype(np.int64),
                sample_priority=rng.integers(0, 5, size) / 4.0,
                sample_time=rng.random(size), sample_location=rng.random((size, 2))))
        fold = mc._RunningBottomK(2, cap)
        for tally in tallies:
            fold.add(tally)
        got, want = fold.result(), mc._merged(tallies)
        assert (got.trials, got.collisions) == (want.trials, want.collisions)
        for field in ("sample_trial", "sample_priority", "sample_time", "sample_location"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    def test_no_reservation_by_cap(self):
        # the store grows with the rows that arrive, not with the cap
        cfg = ball_config(n=3 * BLOCK, seed=30, workers=1, sample_cap=10**12)
        tracemalloc.start()
        try:
            acc = run_naive(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert acc.sample_trial.size == acc.collisions
        assert peak < 32 * 2**20, peak

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs the process's own high-water RSS (VmHWM)")
    def test_fresh_process_peak_within_twice_the_retained_rows(self):
        # peak RSS growth of a default-cap d = 6 run over its post-import,
        # post-warm-up baseline; every trial collides, so 10^6 rows of
        # 72 bytes are retained.  The peak is VmHWM, not ru_maxrss: a child
        # inherits its parent's ru_maxrss across exec, so a child of a large
        # test process would read no growth at all.
        script = textwrap.dedent("""
            from collide.geometry import Ball
            from collide.montecarlo import SimConfig, run_conditional

            def config(n):
                return SimConfig(shape=Ball(0.1, 6), n=n, seed=31,
                                 sampler="conditional", workers=1)

            def peak_rss():
                with open("/proc/self/status") as fh:
                    line = next(l for l in fh if l.startswith("VmHWM:"))
                return int(line.split()[1]) * 1024

            run_conditional(config(20_000))
            base = peak_rss()
            acc = run_conditional(config(10**6))
            kept = sum(a.nbytes for a in (acc.sample_trial, acc.sample_priority,
                                          acc.sample_time, acc.sample_location))
            print(peak_rss() - base, kept)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(mc.__file__).parents[1])] +
            [p for p in [os.environ.get("PYTHONPATH")] if p]))
        env.pop("COLLIDE_THREADS", None)
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True)
        growth, kept = map(int, done.stdout.split())
        assert kept == 10**6 * 72
        assert growth <= 2 * kept, (growth, kept)


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
