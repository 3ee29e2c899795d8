"""Deterministic kinematics of one trajectory pair and body-shape oracles.

Both bodies drift with constant velocity; body one starts centered at
(-1, 0, ..., 0), body two at (+1, 0, ..., 0).  Everything reduces to
the relative picture: with the center-of-mass split

    v_mean = (v1 + v2) / 2        drift of the configuration midpoint,
    v_half_diff = (v1 - v2) / 2   half the closing velocity,

the bodies touch iff the ray from the origin in direction
-v_half_diff/|v_half_diff| meets body one, and the first-contact time
divides the ray's entry scale by |v_half_diff|.  The contact point is
then v_mean * t: the midpoint, carried by the drift alone.

A body is a shape oracle; besides ``dim`` the engines use only two methods:
``contact_scales(z)`` gives the ray's entry scale for unit rows z (+inf
on a miss), and ``bounding_cap()`` gives a unit axis u and a cosine c
such that every hitting direction z satisfies z . u >= c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .analytic import _check_dim, _check_radius

__all__ = [
    "VelocityPair",
    "ComSplit",
    "Ball",
    "Ellipsoid",
    "ShapeOracle",
    "com_split",
    "collision_time",
    "contact_scale",
]

_UNIT_NORM_TOL = 1e-12


def _as_vector(name: str, v) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    # the max is NaN exactly when an entry is, and unlike a sum it raises no
    # warning for entries of both infinite signs
    if math.isnan(arr.max()):
        raise ValueError(f"{name} contains NaN")
    return arr


@dataclass(frozen=True, eq=False)
class VelocityPair:
    """Velocities of the two bodies, equal dimension, any d >= 1."""

    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self) -> None:
        v1 = _as_vector("v1", self.v1)
        v2 = _as_vector("v2", self.v2)
        if v1.shape != v2.shape:
            raise ValueError(f"velocity shapes differ: {v1.shape} vs {v2.shape}")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)

    @property
    def dim(self) -> int:
        return self.v1.size


@dataclass(frozen=True, eq=False)
class ComSplit:
    """Center-of-mass decomposition of a velocity pair."""

    v_mean: np.ndarray
    v_half_diff: np.ndarray


def com_split(pair: VelocityPair) -> ComSplit:
    """Splits (v1, v2) into midpoint drift and half the velocity difference."""
    return ComSplit(
        v_mean=0.5 * (pair.v1 + pair.v2),
        v_half_diff=0.5 * (pair.v1 - pair.v2),
    )


def collision_time(pair: VelocityPair, r: float) -> Optional[float]:
    """First time the balls of radius r touch, or None if they never do.

    The center distance passes 2r when |dv|^2 t^2 - 4 dv_1 t + 4(1-r^2)
    vanishes; the smaller positive root is returned through the
    product-of-roots form, which stays fully accurate when the two
    roots are far apart.  The balls touch iff the velocity difference dv
    has a nonnegative first component of at least sqrt(1 - r^2) |dv|.
    """
    r = _check_radius(float(r))
    dv = pair.v1 - pair.v2
    dv1 = float(dv[0])
    dvsq = float(np.dot(dv, dv))
    disc = dv1 * dv1 - (1.0 - r * r) * dvsq
    if not (dvsq > 0.0 and dv1 >= 0.0 and disc >= 0.0):
        return None
    return 2.0 * (1.0 - r * r) / (dv1 + math.sqrt(disc))


# ---------------------------------------------------------------------------
# Shape oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Ball:
    """Ball of radius r in (0, 1) centered at (-1, 0, ..., 0)."""

    radius: float
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", _check_radius(float(self.radius)))
        object.__setattr__(self, "dim", _check_dim(self.dim))

    @property
    def cap_cosine(self) -> float:
        """Smallest first coordinate of a unit direction that still hits."""
        return math.sqrt((1.0 - self.radius) * (1.0 + self.radius))

    def bounding_cap(self) -> tuple[np.ndarray, float]:
        """Axis e1 and the cap cosine: the cap is exactly the hit set."""
        axis = np.zeros(self.dim)
        axis[0] = 1.0
        return axis, self.cap_cosine

    def contact_scales(self, z: np.ndarray) -> np.ndarray:
        """Entry scale of the ray -b z into the ball for unit rows z.

        Vectorized over rows; misses (and NaN rows) come back as +inf.
        The scale b solves b^2 - 2 b z_1 + 1 - r^2 = 0; the smaller root
        is taken in product form to avoid cancellation.  The
        discriminant is kept factored as (z_1 - c)(z_1 + c) with c the
        cap cosine, so a direction sitting exactly on the cap boundary
        grazes (double root) instead of rounding to a miss.
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        z1 = z[:, 0]
        c = self.cap_cosine
        disc = (z1 - c) * (z1 + c)
        with np.errstate(invalid="ignore"):
            scale = (1.0 - self.radius) * (1.0 + self.radius) / (z1 + np.sqrt(disc))
        return np.where((z1 > 0.0) & (disc >= 0.0), scale, np.inf)


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Ellipsoid {x : (x - center)^T matrix (x - center) <= 1}.

    Args:
        center: Body-one center x0; the origin must lie strictly outside
            the body, i.e. x0^T Q x0 > 1.
        matrix: Symmetric positive definite quadratic form Q.
    """

    center: np.ndarray
    matrix: np.ndarray

    def __post_init__(self) -> None:
        x0 = _as_vector("center", self.center)
        q = np.asarray(self.matrix, dtype=float)
        if q.shape != (x0.size, x0.size):
            raise ValueError(f"matrix shape {q.shape} does not match center dimension {x0.size}")
        if not (np.isfinite(x0).all() and np.isfinite(q).all()):
            raise ValueError("center and matrix must be finite")
        if not np.allclose(q, q.T, rtol=1e-10, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        try:
            np.linalg.cholesky(q)
        except np.linalg.LinAlgError:
            raise ValueError("matrix must be positive definite") from None
        if float(x0 @ q @ x0) <= 1.0:
            raise ValueError("origin must lie strictly outside the body (center^T Q center > 1)")
        object.__setattr__(self, "center", x0)
        object.__setattr__(self, "matrix", q)

    @classmethod
    def from_semi_axes(cls, center, semi_axes) -> "Ellipsoid":
        """Axis-aligned ellipsoid with the given semi-axis lengths."""
        semi = _as_vector("semi_axes", semi_axes)
        if not (semi > 0.0).all():
            raise ValueError("semi-axes must be positive")
        with np.errstate(over="ignore", divide="ignore"):  # inf is refused by cls
            matrix = np.diag(1.0 / semi**2)
        return cls(center=center, matrix=matrix)

    @property
    def dim(self) -> int:
        return self.center.size

    def bounding_cap(self) -> tuple[np.ndarray, float]:
        """Axis and cosine of a cap that holds every hitting direction.

        The ball of radius lambda_min(Q)^(-1/2) (the longest semi-axis)
        around the center contains the body, and the directions whose
        ray meets that ball form a cap around -center/|center|.  When
        the ball holds the origin the cap is the whole sphere, cosine -1.
        """
        dist = float(np.linalg.norm(self.center))
        reach = 1.0 / math.sqrt(float(np.linalg.eigvalsh(self.matrix)[0]))
        axis = -self.center / dist
        if reach >= dist:
            return axis, -1.0
        s = reach / dist
        return axis, math.sqrt((1.0 - s) * (1.0 + s))

    def contact_scales(self, z: np.ndarray) -> np.ndarray:
        """Entry scale of the ray -b z into the ellipsoid for unit rows z.

        Solves (z^T Q z) b^2 + 2 (z^T Q x0) b + (x0^T Q x0 - 1) = 0 and
        returns the smaller positive root, +inf on a miss or a NaN row.
        A hit needs z^T Q x0 < 0 (the ray must run toward the body) and
        a real root.
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        qx0 = self.matrix @ self.center
        # z^T Q z summed term by term in row-major (j, k) order from zero, the
        # order np.einsum("ij,jk,ik->i", z, Q, z) uses, so the bits match it;
        # an exact-zero entry adds a signed zero, so it is skipped
        a = np.zeros(z.shape[0])
        for (j, k), q in np.ndenumerate(self.matrix):
            if q != 0.0:
                a += z[:, j] * q * z[:, k]
        b = z @ qx0
        c0 = float(self.center @ qx0) - 1.0
        disc = b * b - a * c0
        with np.errstate(invalid="ignore"):
            scale = c0 / (-b + np.sqrt(disc))
        return np.where((b < 0.0) & (disc >= 0.0), scale, np.inf)


ShapeOracle = Union[Ball, Ellipsoid]


def contact_scale(shape: ShapeOracle, z) -> Optional[float]:
    """Distance scale at which the ray -b z first touches the body.

    Args:
        shape: Ball or Ellipsoid oracle.
        z: Unit direction in R^d, |z| within 1e-12 of 1.

    Returns:
        The smallest b > 0 with -b z inside the body, or None when the
        ray misses.
    """
    z = _as_vector("z", z)
    if z.size != shape.dim:
        raise ValueError(f"direction has dimension {z.size}, shape has {shape.dim}")
    norm = float(np.linalg.norm(z))
    if abs(norm - 1.0) > _UNIT_NORM_TOL:
        raise ValueError(f"direction must be a unit vector, |z| = {norm}")
    value = float(shape.contact_scales(z[None, :])[0])
    return None if math.isinf(value) else value

