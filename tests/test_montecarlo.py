"""Simulation engines: sampling laws, determinism, retention, serialization."""

import itertools
import json
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
import scipy.special
import scipy.stats

import collide.montecarlo as mc
from collide import cli
from collide.analytic import collision_prob_exact
from collide.geometry import Ball, Ellipsoid, VelocityPair, collision_time, com_split
from collide.montecarlo import (
    Accumulator,
    SimConfig,
    run,
    run_conditional,
    run_naive,
    sample_cap_direction,
    load_sample_csv,
    sample_relative_speed,
)
from collide.rng import BLOCK, block_rng, block_spans, offset_seed
from collide.stats import EstimateReport, ks_test


def ball_config(**kw):
    base = dict(shape=Ball(radius=0.5, dim=2), n=10_000, seed=1)
    base.update(kw)
    return SimConfig(**base)


SAMPLE_FIELDS = ("sample_trial", "sample_time", "sample_location")


def assert_prefix_of_blocks(cfg, block_fn, got):
    """``got`` is cfg's run: the counts of every block and, of its block
    tallies concatenated in trial order, the first cap rows."""
    tallies = [block_fn(cfg, span) for span in block_spans(cfg.n)]
    assert got.trials == sum(t.trials for t in tallies) == cfg.n
    assert got.collisions == sum(t.collisions for t in tallies)
    assert got.sample_trial.size == min(cfg.sample_cap, got.collisions)
    for field in SAMPLE_FIELDS:
        x = getattr(got, field)
        y = np.concatenate([getattr(t, field) for t in tallies])[:cfg.sample_cap]
        assert x.dtype == y.dtype and x.shape == y.shape
        np.testing.assert_array_equal(x, y)


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

    @pytest.mark.parametrize("flag", [True, np.bool_(True)])
    def test_bool_is_not_an_integer(self, flag):
        # Python counts True as the int 1; as a count or a dimension it is a slip
        for build in (lambda: ball_config(n=flag), lambda: ball_config(seed=flag),
                      lambda: Ball(0.5, flag)):
            with pytest.raises(ValueError, match="must be an integer"):
                build()

    def test_largest_seed_runs(self):
        acc = run_naive(ball_config(n=100, seed=2**64 - 1))
        assert acc.trials == 100

    def test_offset_seed_wraps(self):
        assert offset_seed(7, 3) == 10
        assert offset_seed(2**64 - 1, 1) == 0
        assert offset_seed(2**64 - 2, 6) == 4
        with pytest.raises(ValueError, match="got -1"):
            offset_seed(-1, 1)

    @pytest.mark.parametrize("call", [
        lambda: block_rng(1, 2.5), lambda: block_spans(2.5), lambda: offset_seed(1, 2.5),
        lambda: block_rng(1, True),
    ], ids=["block_rng", "block_spans", "offset_seed", "block_rng_bool"])
    def test_stream_indices_are_integers(self, call):
        # a fraction is refused, not truncated onto block 2's stream or a float seed
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: ball_config(n=0), "trial count must be >= 1, got 0"),
        (lambda: ball_config(workers=-1), "workers must be >= 0, got -1"),
        (lambda: ball_config(sample_cap=-1), "sample cap must be >= 0, got -1"),
        (lambda: collision_prob_exact(0.5, 0), "dimension must be >= 1, got 0"),
        (lambda: sample_relative_speed(block_rng(1, 0), 2, 0), "size must be >= 1, got 0"),
        (lambda: sample_cap_direction(block_rng(1, 0), 2, 0.5, np.int64(0)),
         "size must be >= 1, got 0"),
        (lambda: block_rng(1, -1), "block index must be >= 0, got -1"),
        (lambda: block_spans(-1), "trial count must be >= 0, got -1"),
    ])
    def test_lower_bound_messages(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


class TestElementarySamplers:
    def test_relative_speed_law(self):
        # twice the squared half-difference speed is chi-square with d dof
        d = 4
        s = sample_relative_speed(block_rng(5, 0), d, size=50_000)
        res = ks_test(2.0 * s * s, lambda x: scipy.stats.chi2.cdf(x, d),
                      alpha=1e-3)
        assert res.passed

    @pytest.mark.parametrize("k", range(1, 10))
    def test_row_norms_keep_numpy_bits(self, k):
        # the column sums below 8 columns, and numpy's pairwise sum from 8
        # on, are what the conditional streams carry
        g = np.random.default_rng(k)
        a = g.standard_normal((4_096, k)) * np.exp(g.uniform(-30.0, 30.0, (4_096, k)))
        want = np.add.reduce(a * a, axis=1)
        np.testing.assert_array_equal(mc._row_norms2(a), want)
        np.testing.assert_array_equal(np.sqrt(mc._row_norms2(a)), np.linalg.norm(a, axis=1))

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
        # c = 1 is the point cap e1; a cosine above 1 is refused
        np.testing.assert_array_equal(sample_cap_direction(g, 2, 1.0, size=3), np.eye(2)[[0, 0, 0]])
        with pytest.raises(ValueError):
            sample_cap_direction(g, 2, 1.0000000000000002, size=10)
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_conditional_tiny_radius_runs(self, d):
        # below r ~ 1.05e-8 the ball's cap cosine rounds to 1: the point cap e1
        shape = Ball(radius=1e-9, dim=d)
        assert shape.cap_cosine == 1.0
        acc = run_conditional(SimConfig(shape=shape, n=20_000, seed=4, sampler="conditional"))
        assert acc.collisions == acc.trials == 20_000
        assert np.all(np.isfinite(acc.sample_time))

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
        # one whole block, row by row against the scalar time-of-impact: a
        # row the tally lists is a scalar hit, and any other row a miss
        r, seed = 0.3, 61
        tally = mc._naive_block(
            ball_config(shape=Ball(radius=r, dim=d), seed=seed), (0, 0, BLOCK))
        listed = dict(zip(tally.sample_trial.tolist(),
                          zip(tally.sample_time, tally.sample_location)))
        assert len(listed) == tally.collisions > 100
        v = block_rng(seed, 0).standard_normal((BLOCK, 2 * d))
        for j, row in enumerate(v):
            pair = VelocityPair(row[:d], row[d:])
            want = collision_time(pair, r)
            assert (j in listed) == (want is not None)
            if want is not None:
                t, c = listed[j]
                assert t == pytest.approx(want, rel=1e-12)
                np.testing.assert_allclose(c, com_split(pair).v_mean * want,
                                           rtol=1e-12, atol=0.0)

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
        z, _ = mc._cap_proposals(block_rng(5, 0), axis, c, 20_000)
        assert np.all(np.isfinite(ball.contact_scales(z)))

    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_ball_block_draws_one_cap_sample(self, d):
        # a ball keeps every cap proposal, so a block draws exactly m cap
        # directions, then the speeds and drifts; at d >= 4 a speed is the
        # direction's own d - 1 normals and one more
        ball, m, seed = Ball(radius=0.3, dim=d), 500, 81
        acc = run_conditional(SimConfig(shape=ball, n=m, seed=seed, sampler="conditional"))
        g = block_rng(seed, 0)
        if d == 6:
            z, radius2 = mc._cap_rows(g, d, ball.cap_cosine, m)
            speed = np.sqrt(0.5 * (radius2 + np.square(g.standard_normal(m))))
        else:
            z = np.ones((m, 1)) if d == 1 else sample_cap_direction(g, d, ball.cap_cosine, m)
            speed = sample_relative_speed(g, d, m)
        t = ball.contact_scales(z) / speed
        drift = g.standard_normal((m, d)) * math.sqrt(0.5)
        np.testing.assert_array_equal(acc.sample_time, t)
        np.testing.assert_array_equal(acc.sample_location, drift * t[:, None])

    def test_proposals_lie_on_a_turned_cap(self):
        body = _rotated(Ellipsoid.from_semi_axes(center=[-1.0, 0.0, 0.0, 0.0],
                                                 semi_axes=[0.2, 0.3, 0.4, 0.5]), 8)
        axis, c = body.bounding_cap()
        z, _ = mc._cap_proposals(block_rng(9, 0), axis, c, 20_000)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)
        assert np.all(z @ axis >= c - 1e-12)


def _unscreened_hits(shape, v):
    # every row normalised and solved, the kernel's reference
    d = shape.dim
    half = 0.5 * (v[:, :d] - v[:, d:])
    speed = np.sqrt(np.einsum("ij,ij->i", half, half))
    with np.errstate(invalid="ignore", divide="ignore"):
        t = shape.contact_scales(half / speed[:, None]) / speed
    hit = np.flatnonzero(np.isfinite(t))
    return hit, t[hit]


class TestScreenedKernel:
    """The naive kernel solves only rows inside the bounding cap, bit for bit
    as a solve of every row."""

    SHAPES = [Ball(radius=r, dim=d) for d in (1, 2, 3, 6, 16) for r in (1e-3, 0.3, 0.95)] + [
        Ellipsoid.from_semi_axes(center=[-1.0, 0.0, 0.0], semi_axes=[0.1, 0.2, 0.3]),
        _rotated(Ellipsoid(center=[-1.2, 0.3, 0.1],
                           matrix=[[4.0, 1.0, 0.5], [1.0, 9.0, -2.0], [0.5, -2.0, 16.0]]), 5),
        Ellipsoid.from_semi_axes(center=[-1.0, 0.0], semi_axes=[0.3, 2.0]),
    ]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{type(s).__name__}-d{s.dim}-"
                             + (f"r{s.radius}" if isinstance(s, Ball) else f"cap{s.bounding_cap()[1]:.2f}"))
    def test_tally_matches_unscreened_solve(self, shape):
        blocks, seed = 20, 93
        d = shape.dim
        acc = run_naive(SimConfig(shape=shape, n=blocks * BLOCK, seed=seed, workers=1))
        trials, times, locations = [], [], []
        for block, start, m in block_spans(blocks * BLOCK):
            v = block_rng(seed, block).standard_normal((m, 2 * d))
            hit, t = _unscreened_hits(shape, v)
            trials.append(start + hit)
            times.append(t)
            locations.append(0.5 * (v[:, :d][hit] + v[:, d:][hit]) * t[:, None])
        assert acc.collisions == sum(map(len, trials))
        assert acc.sample_trial.tobytes() == np.concatenate(trials).astype(np.int64).tobytes()
        assert acc.sample_time.tobytes() == np.concatenate(times).tobytes()
        assert acc.sample_location.tobytes() == np.concatenate(locations).tobytes()

    def test_rotated_body_has_an_off_axis_cap(self):
        body = self.SHAPES[-2]
        axis, c = body.bounding_cap()
        assert abs(axis[0]) < 0.99 and c > 0.0

    @pytest.mark.filterwarnings("error")
    def test_boundary_rows_classified_as_unscreened(self):
        # directions whose solved first coordinate is the cap cosine (a
        # grazing hit), one ulp inside and one ulp outside, and a zero speed
        ball = Ball(radius=0.3, dim=2)
        c = ball.cap_cosine
        rows = []
        for x in (c, np.nextafter(c, 2.0), np.nextafter(c, 0.0)):
            # walk y by ulps until x^2 + y^2 rounds to 1: the solved z_1 is then x
            y = math.sqrt(1.0 - x * x)
            while x * x + y * y != 1.0:
                y = np.nextafter(y, 0.0 if x * x + y * y > 1.0 else 2.0)
            rows.append([2.0 * x, 2.0 * y, 0.0, 0.0])
        rows.append([0.4, -0.7, 0.4, -0.7])
        v = np.array(rows)
        half = 0.5 * (v[:3, :2] - v[:3, 2:])
        z1 = half[:, 0] / np.sqrt(np.einsum("ij,ij->i", half, half))
        assert z1.tolist() == [c, np.nextafter(c, 2.0), np.nextafter(c, 0.0)]
        hit, t, _ = mc._hits(ball, v)
        want_hit, want_t = _unscreened_hits(ball, v)
        assert hit.tolist() == want_hit.tolist() == [0, 1]
        assert t.tobytes() == want_t.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_rows_within_ulps_of_the_cap_keep_every_hit(self, d):
        # first coordinates within 4 ulps of the cap cosine, at speeds over
        # e^(+-3): without its margin the screen drops some of these hits
        ball, g, k = Ball(radius=0.3, dim=d), np.random.default_rng(17), 4000
        c = ball.cap_cosine
        x = c + g.integers(-4, 5, k) * np.spacing(c)
        w = g.standard_normal((k, d - 1))
        w /= np.linalg.norm(w, axis=1)[:, None]
        half = np.column_stack([x, np.sqrt(1.0 - x * x)[:, None] * w])
        half *= np.exp(g.uniform(-3.0, 3.0, k))[:, None]
        v = np.hstack([2.0 * half, np.zeros_like(half)])
        hit, t, _ = mc._hits(ball, v)
        want_hit, want_t = _unscreened_hits(ball, v)
        assert hit.tolist() == want_hit.tolist()
        assert t.tobytes() == want_t.tobytes()

    def test_screen_solves_few_rows(self, monkeypatch):
        # a small ball hits about 6e-4 of all directions; a kernel that
        # solves every row again fails here
        solved = []
        real = Ball.contact_scales

        def counted(self, z):
            solved.append(len(z))
            return real(self, z)

        monkeypatch.setattr(Ball, "contact_scales", counted)
        tally = mc._naive_block(ball_config(shape=Ball(radius=0.05, dim=3), n=BLOCK), (0, 0, BLOCK))
        assert tally.collisions <= sum(solved) < 0.01 * BLOCK


def cap_law_p_values(d: int, r: float, seeds, n: int) -> dict:
    """Per seed, KS p-values of a one-block conditional Ball run at (d, r).

    A ball keeps its first round of cap proposals, so replaying that round
    gives each trial's direction z, and its speed is the contact scale over
    the contact time.  Laws checked: z_1 against the exact cap law,
    P(z_1 >= x) = I_{1-x^2}((d-1)/2, 1/2) / I_{1-c^2}((d-1)/2, 1/2), which
    keeps its precision as c -> 1; twice the squared speed against
    chi-square(d); and the speeds on either side of z_1's median against
    each other, as the speed is independent of the direction.
    """
    ball = Ball(radius=r, dim=d)
    axis, c = ball.bounding_cap()
    a = 0.5 * (d - 1)
    mass = scipy.special.betainc(a, 0.5, (1.0 - c) * (1.0 + c))

    def z1_cdf(x):
        x = np.clip(x, c, 1.0)
        return 1.0 - scipy.special.betainc(a, 0.5, (1.0 - x) * (1.0 + x)) / mass

    p = {"z1": [], "speed": [], "independence": []}
    for seed in seeds:
        acc = run_conditional(SimConfig(shape=ball, n=n, seed=seed, sampler="conditional",
                                        workers=1))
        z, _ = mc._cap_proposals(block_rng(seed, 0), axis, c, n)
        z1 = z @ axis
        v = ball.contact_scales(z) / acc.sample_time
        p["z1"].append(scipy.stats.kstest(z1, z1_cdf).pvalue)
        p["speed"].append(scipy.stats.kstest(2.0 * v * v, scipy.stats.chi2(d).cdf).pvalue)
        low = z1 < np.median(z1)
        p["independence"].append(scipy.stats.ks_2samp(v[low], v[~low]).pvalue)
    return {law: np.array(values) for law, values in p.items()}


class TestCapDrawNeutrality:
    """Second-level test (L'Ecuyer & Simard, TestU01, 2007): over many seeds
    the p-values of each exact-law check of the d >= 4 cap and speed draws
    are uniform.  r = 0.9 takes the uniform first-coordinate proposal at
    d = 4 and Wood's at d = 6; r = 0.3 takes Wood's at both."""

    @pytest.mark.parametrize("r", [0.3, 0.9])
    @pytest.mark.parametrize("d", [4, 6])
    def test_p_values_uniform_across_seeds(self, d, r):
        p = cap_law_p_values(d, r, seeds=range(500, 540), n=2000)
        for law, values in p.items():
            second = scipy.stats.kstest(values, "uniform").pvalue
            assert second >= 1e-3, (law, second, np.sort(values)[:5])


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

    def test_refilled_d5_ellipsoid_worker_count_invariance(self, monkeypatch):
        # a d >= 4 body that misses part of its bounding cap: refill rounds
        # run, and each kept direction carries its radius to its trial's speed
        body = Ellipsoid.from_semi_axes(center=[-1.0, 0.0, 0.0, 0.0, 0.0],
                                        semi_axes=[0.1, 0.15, 0.2, 0.25, 0.3])
        solves = []
        solve = Ellipsoid.contact_scales
        monkeypatch.setattr(Ellipsoid, "contact_scales",
                            lambda self, z: solves.append(1) or solve(self, z))
        n = 9 * BLOCK + 321
        accs = [run_conditional(SimConfig(shape=body, n=n, seed=12, sampler="conditional",
                                          workers=w)) for w in (1, 2, 8)]
        # 10 blocks in each of 3 runs: every solve past a block's first is a refill
        assert len(solves) > 3 * 10
        for other in accs[1:]:
            assert other.trials == other.collisions == n
            for field in SAMPLE_FIELDS:
                assert getattr(accs[0], field).tobytes() == getattr(other, field).tobytes()

    def test_environment_does_not_set_workers(self, monkeypatch):
        # the worker count comes from SimConfig.workers alone
        seen = []
        block_outputs = mc._block_outputs
        monkeypatch.setattr(mc, "_block_outputs", lambda config, fn, spans, workers:
                            seen.append(workers) or block_outputs(config, fn, spans, workers))
        for value in ("junk", "2"):
            monkeypatch.setenv("COLLIDE_THREADS", value)
            accs = [run_naive(ball_config(n=8 * BLOCK, seed=11, workers=w)) for w in (1, 8)]
            np.testing.assert_array_equal(accs[0].sample_time, accs[1].sample_time)
        assert seen == [1, 8, 1, 8]

    def test_workers_zero_follows_cpu_affinity(self, monkeypatch):
        # checked on the resolved count; no thread is started
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
        for cpus in ({0}, {0, 2, 5}):
            monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: cpus, raising=False)
            assert mc._resolve_workers(0, 10**6) == len(cpus)

    def test_workers_clamped_to_blocks(self):
        # checked on the resolved count; no thread is started
        assert mc._resolve_workers(10**9, 3) == 3
        assert mc._resolve_workers(2, 3) == 2
        assert 1 <= mc._resolve_workers(0, 3) <= 3

    def test_workers_clamped_per_cpu(self, monkeypatch):
        # checked on the resolved count; no thread is started
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert mc._resolve_workers(100_000, 10**6) == 8
        assert mc._resolve_workers(8, 10**6) == 8
        assert mc._resolve_workers(3, 10**6) == 3
        # without an affinity mask the CPU count decides, and 1 if unknown
        monkeypatch.delattr(mc.os, "sched_getaffinity")
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc._resolve_workers(100_000, 10**6) == 8
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert mc._resolve_workers(100_000, 10**6) == 32
        assert mc._resolve_workers(100_000, 5) == 5

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
    def test_cap_keeps_first_collisions_in_trial_order(self):
        # a capped run keeps its cap lowest-indexed collisions, the uncapped
        # run's first cap rows
        for sampler, workers in itertools.product(("naive", "conditional"), (1, 2)):
            def config(**kw):
                return ball_config(n=3 * BLOCK + 5, seed=21, sampler=sampler,
                                   workers=workers, **kw)

            full = run(config())
            assert full.sample_trial.size == full.collisions > 2_000
            for cap in (0, 1, 100, 2_000, full.collisions, full.collisions + 1):
                capped = run(config(sample_cap=cap))
                assert (capped.trials, capped.collisions) == (full.trials, full.collisions)
                for field in SAMPLE_FIELDS:
                    np.testing.assert_array_equal(
                        getattr(capped, field), getattr(full, field)[:cap],
                        err_msg=f"{sampler} sampler, {workers} workers, cap {cap}")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retained_samples_are_first_hits_of_dump(self, tmp_path, workers):
        out = tmp_path / "samples.csv"
        acc = run_naive(ball_config(shape=Ball(radius=0.4, dim=2), n=30_000, seed=11,
                                    workers=workers, sample_cap=500), dump=out)
        assert acc.sample_trial.size == 500 < acc.collisions
        dump = load_sample_csv(out)
        assert (dump.trials, dump.collisions) == (acc.trials, acc.collisions)
        for field in SAMPLE_FIELDS:
            np.testing.assert_array_equal(getattr(acc, field), getattr(dump, field)[:500])

    def test_counts_exact_under_cap(self):
        acc = run_naive(ball_config(n=20_000, seed=22, sample_cap=1))
        assert acc.collisions > 3_000
        assert len(acc.sample_trial) == 1
        assert acc.p_hat == acc.collisions / 20_000


class TestStreamedDrive:
    # mc._drive folds block tallies in trial order while blocks run; these
    # tests hold it to the first cap rows of every block's tally, a bounded
    # number of blocks in flight, and memory that does not grow with n

    @pytest.mark.parametrize("block_fn", [mc._naive_block, mc._conditional_block])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("cap", [0, 1, 1000, 10**6])
    def test_fold_equals_one_merge(self, block_fn, workers, cap):
        sampler = "naive" if block_fn is mc._naive_block else "conditional"
        cfg = ball_config(n=10 * BLOCK + 123, seed=25, sampler=sampler,
                          workers=workers, sample_cap=cap)
        assert_prefix_of_blocks(cfg, block_fn, mc._drive(cfg, block_fn, None))

    def test_block_spans_are_lazy(self):
        # no list of spans is built before the first block runs.  n = 1e9
        # goes first: a list of its spans would take about 16 MB and fail
        # the bound, where one of 1e12's would take gigabytes.
        for n in (10**9, 10**12):
            tracemalloc.start()
            try:
                first = list(itertools.islice(block_spans(n), 3))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert first == [(0, 0, BLOCK), (1, BLOCK, BLOCK), (2, 2 * BLOCK, BLOCK)]
            assert peak < 2**20, (n, peak)
        assert list(block_spans(2 * BLOCK + 5)) == \
            [(0, 0, BLOCK), (1, BLOCK, BLOCK), (2, 2 * BLOCK, 5)]
        assert list(block_spans(0)) == []
        with pytest.raises(ValueError):
            block_spans(-1)

    @pytest.mark.parametrize("workers, dump", [
        pytest.param(w, dump, id=f"dump-{w}" if dump else str(w))
        for dump in (False, True) for w in (1, 2, 3)])
    def test_failing_block_stops_the_run(self, tmp_path, workers, dump):
        # with a dump, the rows of the blocks before the failing one stay
        # written: the file is a clean dump of those trials, byte for byte
        started, threads = [], set()

        def block_fn(config, span):
            started.append(span[0])
            threads.add(threading.current_thread())
            if span[0] == 5:
                raise RuntimeError("block 5 failed")
            return mc._naive_block(config, span)

        cfg = ball_config(n=40 * BLOCK, seed=26, workers=workers, sample_cap=100)
        path = tmp_path / "partial.csv" if dump else None
        with pytest.raises(RuntimeError, match="block 5 failed"):
            mc._drive(cfg, block_fn, path)
        assert 5 in started
        assert len(started) <= 5 + 2 * workers
        assert not any(t.is_alive() for t in threads if t is not threading.main_thread())
        if dump:
            clean = tmp_path / "clean.csv"
            run_naive(ball_config(n=5 * BLOCK, seed=26, workers=1), dump=clean)
            assert path.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failing_write_stops_the_run(self, monkeypatch, tmp_path, workers):
        # a dump write that raises closes the block stream: the blocks not
        # yet started are cancelled and the running ones awaited, so no
        # worker thread outlives the error, even while the caller holds it
        # (its traceback holds the stream)
        threads = set()
        write_rows = mc._csv_rows

        def block_fn(config, span):
            threads.add(threading.current_thread())
            return mc._naive_block(config, span)

        def failing_rows(tally, first, dim):
            if first == 3 * BLOCK:
                raise OSError("write of block 3 failed")
            return write_rows(tally, first, dim)

        monkeypatch.setattr(mc, "_csv_rows", failing_rows)
        cfg = ball_config(n=40 * BLOCK, seed=26, workers=workers, sample_cap=100)
        with pytest.raises(OSError, match="write of block 3 failed") as raised:
            mc._drive(cfg, block_fn, tmp_path / "partial.csv")
        assert raised.tb is not None
        workers_seen = [t for t in threads if t is not threading.main_thread()]
        assert workers_seen
        assert not any(t.is_alive() for t in workers_seen)

    def test_unwritable_dump_fails_before_any_block(self, monkeypatch):
        calls = []

        def counting(config, span):
            calls.append(span)
            return mc._naive_block(config, span)

        monkeypatch.setattr(mc, "_naive_block", counting)
        with pytest.raises(OSError):
            run_naive(ball_config(n=4 * BLOCK), dump="/nonexistent-dir/x.csv")
        assert calls == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dump", [False, True])
    def test_peak_memory_independent_of_n(self, monkeypatch, tmp_path, workers, dump):
        # tracemalloc sees numpy's buffers; an 8x longer run must not need
        # more than 1.5x the memory.  With a dump, each block's rows go to
        # the file as one short line: traced, the CSV rows' per-row strings
        # take about 10x their untraced second for these 590k rows, and their
        # memory is one block's lines whatever n is.
        monkeypatch.setattr(mc, "_csv_rows",
                            lambda tally, first, dim: f"{first},{tally.collisions}\n")

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
    # mc._SampleStore holds the first cap rows once, in trial order; these
    # tests hold it to the concatenated block tallies cut at the cap, with
    # the cut inside and at the edges of a block, and to memory in
    # proportion to the rows it retains

    @staticmethod
    def _assert_fold_equals_prefix(cfg, block_fn):
        got = mc._drive(cfg, block_fn, None)
        assert_prefix_of_blocks(cfg, block_fn, got)
        for field in SAMPLE_FIELDS:
            # the result holds little more memory than its own rows
            x = getattr(got, field)
            owner = x if x.base is None else x.base
            assert owner.nbytes <= 1.25 * x.nbytes
        return got

    @pytest.mark.parametrize("block_fn", [mc._naive_block, mc._conditional_block])
    @pytest.mark.parametrize("cap_offset", [-1, 0, 1])
    def test_repeated_compaction_at_block_collision_count(self, block_fn, cap_offset):
        # a cap one row short of, at and one row past the first block's
        # collisions, with 40 more blocks that only add to the counts
        sampler = "naive" if block_fn is mc._naive_block else "conditional"
        probe = ball_config(n=BLOCK, seed=28, sampler=sampler)
        per_block = block_fn(probe, next(block_spans(BLOCK))).collisions
        cfg = ball_config(n=40 * BLOCK + 77, seed=28, sampler=sampler, workers=1,
                          sample_cap=per_block + cap_offset)
        got = self._assert_fold_equals_prefix(cfg, block_fn)
        # only a cap past the first block's collisions reaches the second block
        assert (got.sample_trial[-1] >= BLOCK) == (cap_offset > 0)

    @pytest.mark.parametrize("cap", [1, 2, 7, 100])
    def test_small_caps_compact_many_times(self, cap):
        cfg = ball_config(n=40 * BLOCK + 77, seed=29, workers=2, sample_cap=cap)
        self._assert_fold_equals_prefix(cfg, mc._naive_block)

    def test_no_reservation_by_cap(self):
        # the store reserves min(cap, n) rows, never rows by the cap alone
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
        # 64 bytes are retained.  The peak is VmHWM, not ru_maxrss: a child
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
            kept = sum(a.nbytes for a in (acc.sample_trial, acc.sample_time,
                                          acc.sample_location))
            print(peak_rss() - base, kept)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(mc.__file__).parents[1])] +
            [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True)
        growth, kept = map(int, done.stdout.split())
        assert kept == 10**6 * 64
        assert growth <= 2 * kept, (growth, kept)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs the process's own high-water RSS (VmHWM)")
    def test_fresh_process_peak_follows_the_rows_written(self):
        # VmHWM growth in a fresh process, as in the test above.  Three
        # default-cap d = 6 runs, each result dropped before the next, peak at
        # about one run's retained rows: each column is allocated once and
        # each row written once.  A naive run that reserves 2 x 10^6 rows and
        # writes about 60 of them adds next to nothing, because reserved rows
        # become resident only when they are written.
        script = textwrap.dedent("""
            from collide.geometry import Ball
            from collide.montecarlo import SimConfig, run_conditional, run_naive

            def peak_rss():
                with open("/proc/self/status") as fh:
                    line = next(l for l in fh if l.startswith("VmHWM:"))
                return int(line.split()[1]) * 1024

            def conditional(n):
                acc = run_conditional(SimConfig(shape=Ball(0.1, 6), n=n, seed=31,
                                                sampler="conditional", workers=1))
                return sum(a.nbytes for a in (acc.sample_trial, acc.sample_time,
                                              acc.sample_location))

            conditional(20_000)
            base = peak_rss()
            kept = [conditional(500_000) for _ in range(3)]
            repeated = peak_rss() - base
            base = peak_rss()
            acc = run_naive(SimConfig(shape=Ball(0.01, 3), n=2 * 10**6, seed=32,
                                      workers=1, sample_cap=10**7))
            print(repeated, kept[0], peak_rss() - base, acc.collisions)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(mc.__file__).parents[1])] +
            [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True)
        repeated, kept, sparse, hits = map(int, done.stdout.split())
        assert kept == 500_000 * 64
        assert repeated <= 1.25 * kept, (repeated, kept)
        assert 0 < hits < 200
        assert sparse < 8 * 2**20, sparse


class TestProportionReport:
    def test_fields(self):
        acc = run_naive(ball_config(n=10_000, seed=30))
        rep = EstimateReport.from_counts(acc.collisions, acc.trials, 30, "naive")
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
            EstimateReport.from_counts(0, 0, 0, "naive")


class TestCsvRoundtrip:
    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "dump.csv"
        cfg = ball_config(n=4_000, seed=31)
        acc = run_naive(cfg, dump=path)
        dump = load_sample_csv(path)
        assert dump.trials == 4_000
        assert dump.collisions == acc.collisions
        # collided rows carry exact round-trip floats
        for field in SAMPLE_FIELDS:
            np.testing.assert_array_equal(getattr(dump, field), getattr(acc, field))

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
        assert dump.collisions == dump.trials == 200
        np.testing.assert_array_equal(dump.sample_trial, np.arange(200))
        assert np.all(np.isfinite(dump.sample_time))

    @pytest.mark.parametrize("row, problem", [
        ("0,TRUE,1.0,2.0,3.0", "collided field"),
        ("0,yes,1.0,2.0,3.0", "collided field"),
        ("0,,,,", "collided field"),
        ("0,false,1.0,2.0,3.0", "miss row"),
        ("0,false,,,3.0", "miss row"),
        ("0,true,,2.0,3.0", "hit row"),
        ("0,true,1.0,2.0,", "hit row"),
        ("0,true,1.0,2.0", "fields"),
        ('0,"true",1.0,2.0,3.0', "collided field"),
        ("0,true,abc,2.0,3.0", r"bad\.csv: could not convert string to float: 'abc'"),
        # float() reads these; %.17g never writes them
        ("0,true,1_0,2.0,3.0", r"bad\.csv: a hit row has a number the writer does not write"),
        ("0,true, 1.5,2.0,3.0", r"bad\.csv: a hit row has a number the writer does not write"),
        ("0,true,1.5 ,2.0,3.0", r"bad\.csv: a hit row has a number the writer does not write"),
        ("0,true,1.0,\t2,3.0", r"bad\.csv: a hit row has a number the writer does not write"),
        ("0,true,1.0,2.0,\u0661", r"bad\.csv: a hit row has a number the writer does not write"),
    ])
    def test_load_refuses_malformed_rows(self, tmp_path, row, problem):
        path = tmp_path / "bad.csv"
        path.write_text(f"trial,collided,t,c_1,c_2\n1,false,,,\n{row}\n")
        with pytest.raises(ValueError, match=problem):
            load_sample_csv(path)

    @pytest.mark.parametrize("rows, problem", [
        (["0,true,nan,2.0,3.0", "1,false,,,"], "non-finite"),
        (["0,false,,,", "1,true,1.0,inf,3.0"], "non-finite"),
        (["0,false,,,", "1,true,1.0,2.0,-inf"], "non-finite"),
        (["0,false,,,", "0,true,1.0,2.0,3.0"], "in order"),
        (["0,false,,,", "2,true,1.0,2.0,3.0"], "in order"),
        (["-1,false,,,", "0,true,1.0,2.0,3.0"], "in order"),
        (["1,false,,,", "0,true,1.0,2.0,3.0"], "in order"),
        (["0,false,,,", "x,true,1.0,2.0,3.0"], r"bad\.csv: trial indices are not"),
        ([f"{i},false,,," for i in range(5)] + ["05,true,1.0,2.0,3.0"], "in order"),
        (["+0,false,,,", "1,true,1.0,2.0,3.0"], "in order"),
        ([" 0,false,,,", "1,true,1.0,2.0,3.0"], "in order"),
    ])
    def test_load_refuses_bad_trials_and_non_finite_hits(self, tmp_path, rows, problem):
        # well-formed rows one by one; the file as a whole is not a dump
        path = tmp_path / "bad.csv"
        path.write_text("trial,collided,t,c_1,c_2\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=problem):
            load_sample_csv(path)

    @pytest.mark.parametrize("text", [
        "",
        "trial,collided,t\n0,false,\n",
        "trial,collided,t,c_1,c_3\n0,false,,,\n",
        '"trial",collided,t,c_1,c_2\n0,false,,,\n',
    ])
    def test_load_refuses_other_headers(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a sample CSV"):
            load_sample_csv(path)

    def test_crlf_dump_loads_like_its_lf_twin(self, tmp_path):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        run_naive(ball_config(n=300, seed=35), dump=lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a = load_sample_csv(lf)
        assert 0 < a.collisions < a.trials == 300
        # CR-only endings too: the loader reads with universal newlines
        cr = tmp_path / "cr.csv"
        cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
        for b in map(load_sample_csv, (crlf, cr)):
            assert (a.trials, a.collisions) == (b.trials, b.collisions)
            for field in SAMPLE_FIELDS:
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_dump_read_through_a_pipe_is_refused(self, tmp_path):
        # a pipe has no size to bound its hits, so the loader refuses it
        # rather than return fewer samples than it counts collisions
        dump, pipe = tmp_path / "dump.csv", tmp_path / "pipe.csv"
        run_naive(ball_config(n=300, seed=35), dump=dump)
        os.mkfifo(pipe)

        def feed():
            try:
                with open(pipe, "wb") as fh:
                    fh.write(dump.read_bytes())
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        with pytest.raises(ValueError) as raised:
            load_sample_csv(pipe)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert str(raised.value).startswith(f"{pipe}: "), raised.value
        assert "hit rows" in str(raised.value)

    def test_dump_of_blocks_without_collisions(self, tmp_path):
        # a d = 6 ball of radius 1e-3 is hit with probability 1.7e-16, so
        # every block's tally is empty and the writer derives every row
        path = tmp_path / "misses.csv"
        n = 2 * BLOCK + 5
        acc = run_naive(ball_config(shape=Ball(radius=1e-3, dim=6), n=n, seed=34,
                                    workers=2), dump=path)
        assert acc.collisions == 0
        dump = load_sample_csv(path)
        assert (dump.trials, dump.collisions) == (n, 0)
        assert dump.sample_location.shape == (0, 6)
        for field in SAMPLE_FIELDS:
            x, y = getattr(dump, field), getattr(acc, field)
            assert x.dtype == y.dtype and x.shape == y.shape

    @pytest.mark.parametrize("end", ["\n", ""])
    def test_header_only_dump_loads_as_a_run_without_trials(self, tmp_path, end):
        path = tmp_path / "empty.csv"
        path.write_text("trial,collided,t,c_1,c_2,c_3" + end)
        dump = load_sample_csv(path)
        assert dump.trials == dump.collisions == 0
        assert dump.sample_location.shape == (0, 3)
        acc = run_naive(ball_config(shape=Ball(radius=0.5, dim=3), n=10, sample_cap=0))
        for field in SAMPLE_FIELDS:
            x, y = getattr(dump, field), getattr(acc, field)
            assert x.dtype == y.dtype and x.shape == y.shape

    @pytest.mark.parametrize("i, row, problem", [
        # the second block's fourth row has 4 fields
        (BLOCK + 3, "{i},true,1.0,2.0", "row has 4 fields, expected 5"),
        # the third block's fifth row names the trial after it
        (2 * BLOCK + 4, "{next},false,,,", r"trial indices are not 0, 1, 2, \.\.\. in order"),
    ])
    def test_faults_past_the_first_block_are_refused(self, tmp_path, i, row, problem):
        # well-formed rows, hits among them, around the faulty one, which lies
        # inside its block and is followed by a whole block more
        rows = [f"{k},true,0.5,1.5,-2.5" if k % 7 == 0 else f"{k},false,,," for k in range(i + BLOCK)]
        rows[i] = row.format(i=i, next=i + 1)
        path = tmp_path / "bad.csv"
        path.write_text("trial,collided,t,c_1,c_2\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=problem):
            load_sample_csv(path)

    @pytest.mark.parametrize("sampler", ["naive", "conditional"])
    @pytest.mark.parametrize("d", [1, 2, 6])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dump_loads_as_the_uncapped_run(self, tmp_path, capsys, sampler, d, workers):
        # three blocks and a short last one, dumped by `simulate --out`: the
        # dump loads as the library run with no cap, field for field and bit
        # for bit, and reports what simulate reported
        n, path = 3 * BLOCK + 5, tmp_path / "dump.csv"
        assert cli.main(["simulate", "--d", str(d), "--r", "0.5", "--n", str(n), "--seed", "36",
                         "--sampler", sampler, "--workers", str(workers),
                         "--out", str(path)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        acc = run(ball_config(shape=Ball(radius=0.5, dim=d), n=n, seed=36, sampler=sampler,
                              workers=workers, sample_cap=n))
        dump = load_sample_csv(path)
        assert 0 < dump.collisions == acc.collisions and dump.trials == acc.trials == n
        for field in SAMPLE_FIELDS:
            x, y = getattr(dump, field), getattr(acc, field)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes(), field
        del results["retained_samples"]
        assert EstimateReport.from_counts(dump.collisions, dump.trials, 36, sampler).to_json() == results

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs the process's own high-water RSS (VmHWM)")
    def test_fresh_process_load_holds_one_block_of_lines(self, tmp_path):
        # VmHWM growth of a fresh process that has already loaded a one-block
        # dump, from loading a dump of 40 blocks and more: its hits and a few
        # MB, not its 327k lines as strings (36 MB when the whole file was read)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(mc.__file__).parents[1])] +
            [p for p in [os.environ.get("PYTHONPATH")] if p]))

        def load_growth(sampler, radius):
            small, big = tmp_path / f"small-{sampler}.csv", tmp_path / f"big-{sampler}.csv"
            shape = Ball(radius=radius, dim=2 if sampler == "naive" else 3)
            run(ball_config(shape=shape, n=BLOCK, seed=37, sampler=sampler, workers=1), dump=small)
            run(ball_config(shape=shape, n=40 * BLOCK + 100, seed=37, sampler=sampler, workers=1),
                dump=big)
            script = textwrap.dedent(f"""
                from collide.montecarlo import load_sample_csv

                def peak_rss():
                    with open("/proc/self/status") as fh:
                        line = next(l for l in fh if l.startswith("VmHWM:"))
                    return int(line.split()[1]) * 1024

                load_sample_csv({str(small)!r})
                base = peak_rss()
                acc = load_sample_csv({str(big)!r})
                kept = sum(a.nbytes for a in (acc.sample_trial, acc.sample_time,
                                              acc.sample_location))
                print(peak_rss() - base, kept, acc.trials)
            """)
            done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True)
            return map(int, done.stdout.split())

        growth, kept, rows = load_growth("naive", 0.5)
        assert rows == 40 * BLOCK + 100 and kept > 2**20
        assert growth <= 2 * kept + 4 * 2**20, (growth, kept)
        # every row a hit: the hits are held once, as they are folded in, not
        # again beside a concatenation of every block's columns (27.9-29.0 MB
        # of growth for these 13.1 MB of hits, against 16.3-17.7 MB held once)
        growth, kept, rows = load_growth("conditional", 0.3)
        assert rows == 40 * BLOCK + 100 and kept == 40 * rows
        assert growth <= kept + 10 * 2**20, (growth, kept)
