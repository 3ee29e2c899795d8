"""Collision solver, velocity decomposition, and body contact oracles."""

import math

import numpy as np
import pytest

from collide.geometry import (
    Ball,
    Ellipsoid,
    VelocityPair,
    collision_time,
    com_split,
    contact_scale,
)
from collide.rng import block_rng


def pair(v1, v2):
    return VelocityPair(np.asarray(v1, dtype=float), np.asarray(v2, dtype=float))


class TestVelocityPair:
    def test_dim(self):
        assert pair([1.0, 0.0], [0.0, 0.0]).v1.shape == (2,)
        # a 0-d velocity becomes a vector of one coordinate
        p = VelocityPair(np.array(1.0), np.array(2.0))
        assert p.v1.shape == p.v2.shape == (1,)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            VelocityPair(np.zeros(2), np.zeros(3))


class TestComSplit:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 6):
            p = pair(rng.standard_normal(d), rng.standard_normal(d))
            s = com_split(p)
            np.testing.assert_allclose(s.v_mean + s.v_half_diff, p.v1, atol=1e-15)
            np.testing.assert_allclose(s.v_mean - s.v_half_diff, p.v2, atol=1e-15)

    def test_frozen_split(self):
        s = com_split(pair([3.0, 1.0], [1.0, -1.0]))
        np.testing.assert_array_equal(s.v_mean, [2.0, 0.0])
        np.testing.assert_array_equal(s.v_half_diff, [1.0, 1.0])


class TestCollisionSolver:
    def test_head_on(self):
        p = pair([1.0, 0.0], [-1.0, 0.0])
        assert collision_time(p, 0.5) == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(com_split(p).v_mean * 0.5, [0.0, 0.0], atol=1e-15)

    def test_chase_d1(self):
        # left body moves right at speed 1, right body still: gap 1, contact at t=1
        p = VelocityPair(np.array(1.0), np.array(0.0))
        assert collision_time(p, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_one_sided_push(self):
        p = pair([2.0, 0.0], [0.0, 0.0])
        t = collision_time(p, 0.5)
        assert t == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(com_split(p).v_mean * t, [0.5, 0.0], atol=1e-15)

    def test_receding_misses(self):
        assert collision_time(pair([-1.0, 0.0], [1.0, 0.0]), 0.5) is None

    def test_equal_velocities_miss(self):
        assert collision_time(pair([1.0, 2.0], [1.0, 2.0]), 0.9) is None

    def test_tangential_motion_misses(self):
        assert collision_time(pair([0.0, 1.0], [0.0, -1.0]), 0.5) is None

    def test_criterion_iff_time(self):
        # the shape protocol's hit criterion (a finite entry scale of the
        # unit half velocity difference) holds exactly when the scalar
        # solver finds a contact time
        g = block_rng(123, 0)
        for d in (1, 2, 3, 5):
            ball = Ball(radius=0.3, dim=d)
            for row in g.standard_normal((400, 2 * d)):
                p = VelocityPair(row[:d], row[d:])
                half = com_split(p).v_half_diff
                hit = bool(np.isfinite(ball.contact_scales(half / np.linalg.norm(half)))[0])
                assert hit == (collision_time(p, 0.3) is not None)

    def test_time_decreases_with_radius(self):
        p = pair([1.0, 0.1], [-1.0, -0.1])
        times = [collision_time(p, r) for r in (0.2, 0.5, 0.8)]
        assert all(t is not None for t in times)
        assert times[0] > times[1] > times[2]

    def test_event_consistency(self):
        # a ball posed as an ellipsoid: its entry scale over the speed is
        # the scalar contact time of the ball
        ell = Ellipsoid.from_semi_axes(center=[-1.0, 0.0], semi_axes=[0.4, 0.4])
        g = block_rng(7, 0)
        hits = 0
        for row in g.standard_normal((300, 4)):
            p = VelocityPair(row[:2], row[2:])
            split = com_split(p)
            speed = float(np.linalg.norm(split.v_half_diff))
            scale = contact_scale(ell, split.v_half_diff / speed)
            t = collision_time(p, 0.4)
            assert (scale is None) == (t is None)
            if t is not None:
                hits += 1
                assert scale / speed == pytest.approx(t, rel=1e-12)
        assert hits > 0


class TestBall:
    def test_validation(self):
        with pytest.raises(ValueError):
            Ball(radius=0.0, dim=2)
        with pytest.raises(ValueError):
            Ball(radius=1.0, dim=2)
        with pytest.raises(ValueError):
            Ball(radius=0.5, dim=0)

    def test_cap_cosine(self):
        assert Ball(radius=0.5, dim=2).cap_cosine == pytest.approx(
            math.sqrt(0.75), rel=1e-15)
        assert Ball(radius=0.8, dim=3).cap_cosine == pytest.approx(0.6, rel=1e-15)

    def test_axis_scale(self):
        assert contact_scale(Ball(radius=0.5, dim=2), [1.0, 0.0]) == pytest.approx(
            0.5, rel=1e-15)
        # d = 1: the only hitting direction is +1, entry at 1 - r
        assert contact_scale(Ball(radius=0.3, dim=1), [1.0]) == pytest.approx(
            0.7, rel=1e-15)

    def test_perpendicular_misses(self):
        assert contact_scale(Ball(radius=0.5, dim=2), [0.0, 1.0]) is None
        assert contact_scale(Ball(radius=0.3, dim=1), [-1.0]) is None

    def test_grazing_boundary_is_double_root(self):
        # exactly on the cap edge the discriminant is zero by construction
        # and the entry scale collapses to the first coordinate itself
        for r in (0.3, 0.5, 0.9):
            b = Ball(radius=r, dim=2)
            z1 = b.cap_cosine
            z = np.array([z1, math.sqrt(max(0.0, 1.0 - z1 * z1))])
            z /= np.linalg.norm(z)
            got = contact_scale(b, z)
            assert got is not None
            assert got == pytest.approx(z1, rel=1e-12)

    def test_just_below_boundary_misses(self):
        b = Ball(radius=0.5, dim=2)
        z1 = np.nextafter(b.cap_cosine, 0.0)
        z = np.array([z1, math.sqrt(1.0 - z1 * z1)])
        assert contact_scale(b, z / np.linalg.norm(z)) is None

    def test_pointing_away_misses(self):
        b = Ball(radius=0.5, dim=2)
        assert contact_scale(b, [-1.0, 0.0]) is None
        # factored discriminant is positive for z1 <= -c; still a miss
        scales = b.contact_scales(np.array([[-1.0, 0.0], [-0.95, math.sqrt(1 - 0.95**2)]]))
        assert np.all(np.isinf(scales))

    def test_scale_bounds_on_cap(self):
        # entry scale lies in [1 - r, z1] for hitting directions
        b = Ball(radius=0.4, dim=3)
        g = block_rng(11, 0)
        z = g.standard_normal((500, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        scales = b.contact_scales(z)
        hit = np.isfinite(scales)
        assert 0 < hit.sum() < 500
        assert np.all(scales[hit] >= 1.0 - b.radius - 1e-12)
        assert np.all(scales[hit] <= z[hit, 0] + 1e-12)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            contact_scale(Ball(radius=0.5, dim=2), [0.5, 0.5])


class TestEllipsoid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Ellipsoid(np.array([-1.0, 0.0]), np.array([[1.0, 0.2], [0.3, 1.0]]))
        with pytest.raises(ValueError):
            Ellipsoid(np.array([-1.0, 0.0]), np.array([[1.0, 0.0], [0.0, -2.0]]))
        with pytest.raises(ValueError):
            # origin inside the body
            Ellipsoid(np.array([0.1, 0.0]), np.eye(2))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_refused(self):
        # a semi-axis whose 1/s^2 overflows, an infinite matrix entry and an
        # infinite center are refused before any arithmetic warns on them
        with pytest.raises(ValueError, match="finite"):
            Ellipsoid.from_semi_axes(center=[-2.0, 0.0], semi_axes=[1e-160, 0.6])
        with pytest.raises(ValueError, match="finite"):
            Ellipsoid(np.array([-2.0, 0.0]), np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            Ellipsoid.from_semi_axes(center=[-np.inf, 0.0], semi_axes=[0.3, 0.6])

    def test_from_semi_axes(self):
        e = Ellipsoid.from_semi_axes(center=[-1.0, 0.0], semi_axes=[0.3, 0.6])
        np.testing.assert_allclose(e.matrix, np.diag([1 / 0.09, 1 / 0.36]), rtol=1e-14)
        assert e.dim == 2

    def test_sphere_matches_ball(self):
        # a ball of radius r is the ellipsoid centered at -e1 with Q = I/r^2
        r = 0.5
        ball = Ball(radius=r, dim=2)
        ell = Ellipsoid.from_semi_axes(center=[-1.0, 0.0], semi_axes=[r, r])
        g = block_rng(3, 0)
        theta = g.uniform(-math.pi, math.pi, 400)
        z = np.column_stack([np.cos(theta), np.sin(theta)])
        sb = ball.contact_scales(z)
        se = ell.contact_scales(z)
        both = np.isfinite(sb) & np.isfinite(se)
        assert np.array_equal(np.isfinite(sb), np.isfinite(se))
        np.testing.assert_allclose(sb[both], se[both], rtol=1e-11)

    def test_axis_entry_scale(self):
        # center (-1, 0), semi-axes (0.3, 0.6): ray along -e1 enters at 0.7
        e = Ellipsoid.from_semi_axes(center=[-1.0, 0.0], semi_axes=[0.3, 0.6])
        assert contact_scale(e, [1.0, 0.0]) == pytest.approx(0.7, rel=1e-13)
        assert contact_scale(e, [0.0, 1.0]) is None
        assert contact_scale(e, [-1.0, 0.0]) is None


def _sphere_rows(seed: int, m: int, d: int) -> np.ndarray:
    z = block_rng(seed, 0).standard_normal((m, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _rotation(seed: int, d: int) -> np.ndarray:
    q, r = np.linalg.qr(block_rng(seed, 0).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _einsum_contact_scales(e: Ellipsoid, z: np.ndarray) -> np.ndarray:
    """Ellipsoid.contact_scales with z^T Q z as the three-operand einsum."""
    qx0 = e.matrix @ e.center
    a = np.einsum("ij,jk,ik->i", z, e.matrix, z)
    b = z @ qx0
    c0 = float(e.center @ qx0) - 1.0
    disc = b * b - a * c0
    with np.errstate(invalid="ignore"):
        scale = c0 / (-b + np.sqrt(disc))
    return np.where((b < 0.0) & (disc >= 0.0), scale, np.inf)


def _cap_edge_rows(axis: np.ndarray, c: float, seed: int, m: int) -> np.ndarray:
    """m unit rows whose angle to the axis is within 3 ulps of arccos(c)."""
    w = _sphere_rows(seed, m, axis.size)
    w -= np.outer(w @ axis, axis)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    theta = math.acos(c) + math.ulp(1.0) * np.resize(np.arange(-3.0, 4.0), m)
    return np.cos(theta)[:, None] * axis + np.sin(theta)[:, None] * w


class TestEllipsoidQuadratic:
    # contact_scales sums z^T Q z term by term; these tests pin its bits to
    # the einsum it replaced, for diagonal and dense Q, on random rows, on
    # rows at the edge of the bounding cap and on NaN rows

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("form", ["diagonal", "sphere", "rotated"])
    def test_matches_einsum_bit_for_bit(self, d, form):
        semi = np.linspace(0.2, 0.6, d)
        if form == "diagonal":
            e = Ellipsoid.from_semi_axes(center=-np.eye(d)[0], semi_axes=semi)
        elif form == "sphere":
            # its bounding cap is its hit set, so the cap-edge rows graze
            e = Ellipsoid.from_semi_axes(center=-np.eye(d)[0], semi_axes=np.full(d, 0.4))
        else:
            rot = _rotation(d, d)
            e = Ellipsoid(center=-rot[:, 0],
                          matrix=rot @ np.diag(semi**-2.0) @ rot.T)
            assert np.count_nonzero(e.matrix) == d * d
        axis, c = e.bounding_cap()
        one_nan = axis.copy()
        one_nan[-1] = np.nan
        z = np.concatenate([_sphere_rows(d, 20_000, d), _cap_edge_rows(axis, c, d, 2_000),
                            np.full((1, d), np.nan), one_nan[None, :]])
        got = e.contact_scales(z)
        assert np.array_equal(got, _einsum_contact_scales(e, z))
        assert np.isfinite(got[:-2]).sum() > 50
        assert np.all(got[-2:] == np.inf)


class TestBoundingCap:
    def test_ball_cap_is_the_hit_set(self):
        for d in (1, 2, 3, 6):
            b = Ball(radius=0.4, dim=d)
            axis, c = b.bounding_cap()
            np.testing.assert_array_equal(axis, np.eye(d)[0])
            assert c == b.cap_cosine
        b = Ball(radius=0.4, dim=3)
        z = _sphere_rows(1, 20_000, 3)
        hit = np.isfinite(b.contact_scales(z))
        assert np.array_equal(hit, z[:, 0] >= b.cap_cosine)

    def test_ellipsoid_cap_holds_every_hit(self):
        # semi-axes (0.1, 0.2, 0.3) at distance 2: cap of the radius-0.3 ball
        rot = _rotation(2, 3)
        center = rot @ np.array([-2.0, 0.0, 0.0])
        e = Ellipsoid(center=center, matrix=rot @ np.diag([100.0, 25.0, 1 / 0.09]) @ rot.T)
        axis, c = e.bounding_cap()
        np.testing.assert_allclose(axis, -center / 2.0, rtol=0.0, atol=1e-15)
        assert c == pytest.approx(math.sqrt(1.0 - 0.15**2), rel=1e-12)
        z = _sphere_rows(3, 200_000, 3)
        hit = np.isfinite(e.contact_scales(z))
        assert hit.sum() > 100
        assert np.all(z[hit] @ axis >= c)

    def test_whole_sphere_when_the_ball_holds_the_origin(self):
        e = Ellipsoid.from_semi_axes(center=[-1.0, 0.0], semi_axes=[0.3, 2.0])
        axis, c = e.bounding_cap()
        np.testing.assert_array_equal(axis, [1.0, 0.0])
        assert c == -1.0

