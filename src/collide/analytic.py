"""Closed-form collision probabilities and collision-location laws.

Model: two balls of common radius r in (0, 1) start with centers at
(-1, 0, ..., 0) and (+1, 0, ..., 0) in R^d and drift forever along
straight lines whose velocities are independent standard d-dimensional
Gaussian vectors.  The functions here answer, without simulation:

* how likely the balls are to ever touch (exactly, in closed form for
  low dimensions, and to leading order as r -> 0), and
* where in space the first contact happens, both as a defective limit
  density (total mass = collision probability) and as a proper density
  conditioned on a collision occurring.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import _float_or_array, _require_int, _require_numbers, f_cdf, log_gamma

__all__ = [
    "collision_prob_exact",
    "collision_prob_closed",
    "asymptotic_prob_coefficient",
    "location_coefficient",
    "location_density_limit",
    "conditional_location_density",
    "cauchy_cdf_1d",
    "unit_sphere_area",
]


# location_coefficient(d) in closed form, num / pi^k by d; `collide table`
# prints these and `validate` checks location_coefficient against them
_COEFF_TABLE = {
    2: (1, 2), 3: (1, 2), 4: (4, 3), 5: (6, 3), 6: (32, 4),
    7: (60, 4), 8: (384, 5), 9: (840, 5), 10: (6144, 6), 11: (15120, 6),
}


def _check_dim(d: int) -> int:
    return _require_int("dimension", d, 1)


def _check_radius(r):
    """Returns r as a float, or as an array for array input."""
    if isinstance(r, float) and 0.0 < r < 1.0:
        return float(r)
    r = np.asarray(r, dtype=float)
    inside = (r > 0.0) & (r < 1.0)
    if not inside.all():
        raise ValueError(f"radius must lie strictly inside (0, 1), got {r[~inside][0]}")
    return _float_or_array(r)


def _norm_sq(x, d: int):
    """Squared norms of a point (shape (d,)) or of the rows of an (n, d) array."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape[-1] != d:
        raise ValueError(f"point has {v.shape[-1]} coordinates, expected {d}")
    if np.isnan(v).any():
        raise ValueError("point contains NaN")
    # summing each row's squares in sorted order makes the density exactly
    # invariant under coordinate permutations and sign flips
    return np.sort(v * v, axis=-1).sum(axis=-1)


def _kernel_power(nsq, exponent: int):
    """(1 + nsq) ** exponent elementwise, through the C library's pow.

    numpy's vectorised power differs from libm pow in the last bit for
    some arguments; evaluating with Python floats keeps every density
    value, and so the ``density`` command's CSV, independent of the
    numpy build and of how many points one call evaluates.
    """
    base = np.asarray(1.0 + nsq, dtype=float)
    try:
        return np.array([b ** exponent for b in base.ravel().tolist()]).reshape(base.shape)
    except OverflowError:
        # only a positive exponent, d, overflows; the largest |x| does first
        raise OverflowError(f"d = {exponent} is too large at |x| = {math.sqrt(np.max(nsq)):g}: "
                            f"(1 + |x|^2)^d overflows a double") from None


def _normalizer(log_value: float, d: int) -> float:
    """exp(log_value) for a normalizing constant in dimension d; an overflow names d."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise OverflowError(f"d = {d} is too large: the density's normalizing "
                            f"constant overflows a double") from None


def collision_prob_exact(r, d: int):
    """Probability that the two balls ever collide; elementwise for array r.

    Equals 1/2 in dimension one; for d >= 2 it is half the F(d-1, 1)
    distribution function evaluated at r^2 / ((d-1)(1-r^2)), which is
    the mass of the spherical cap of relative directions that point one
    ball into the other.
    """
    r = _check_radius(r)
    d = _check_dim(d)
    if d == 1:
        return _float_or_array(np.full(np.shape(r), 0.5))
    x = r * r / ((d - 1) * (1.0 - r * r))
    return 0.5 * f_cdf(x, d - 1, 1)


def collision_prob_closed(r, d: int):
    """Elementary closed forms for the collision probability, d <= 3;
    elementwise for array r."""
    r = _check_radius(r)
    d = _check_dim(d)
    if d == 1:
        return _float_or_array(np.full(np.shape(r), 0.5))
    if d == 2:
        return _float_or_array(np.arctan(r / np.sqrt(1.0 - r * r)) / math.pi)
    if d == 3:
        return _float_or_array(0.5 * (1.0 - np.sqrt(1.0 - r * r)))
    raise ValueError(f"closed form is only available for d <= 3, got d={d}")


def asymptotic_prob_coefficient(d: int) -> float:
    """Leading coefficient of the small-radius law p ~ coeff * r^(d-1).

    Defined for d >= 2; the collision probability is constant in r for
    d = 1, so no power law applies there.
    """
    d = _require_int("dimension", d, 2)
    ratio = math.exp(log_gamma(0.5 * d) - log_gamma(0.5 * (d - 1)))
    return ratio / ((d - 1) * math.sqrt(math.pi))


def location_coefficient(d: int) -> float:
    """Normalizing constant of the defective limit location density."""
    d = _check_dim(d)
    ratio = _normalizer(log_gamma(float(d)) - log_gamma(0.5 * (d + 1)), d)
    return 0.5 * math.pi ** (-0.5 * (d + 1)) * ratio


def location_density_limit(x, d: int):
    """Small-radius limit density of the first-contact point at x in R^d.

    x is one point (shape (d,)), giving a float, or an (n, d) array of
    points, giving an (n,) array.

    Defective: integrating it over R^d yields the limiting ratio
    p / r^(d-1) rather than 1.  The full mass sits in the factor
    location_coefficient(d); the shape is the isotropic Cauchy-type
    kernel (1 + |x|^2)^(-d).
    """
    d = _check_dim(d)
    nsq = _norm_sq(x, d)
    return _float_or_array(location_coefficient(d) / _kernel_power(nsq, d))


def conditional_location_density(x, d: int):
    """Proper density of the first-contact point given that a collision occurs,
    in the small-radius limit; x as in ``location_density_limit``."""
    d = _check_dim(d)
    nsq = _norm_sq(x, d)
    ratio = _normalizer(log_gamma(float(d)) - log_gamma(0.5 * d), d)
    return _float_or_array(ratio * math.pi ** (-0.5 * d) * _kernel_power(nsq, -d))


def cauchy_cdf_1d(x, r: float):
    """Exact defective CDF of the contact point on the line (d = 1).

    The collision event has probability 1/2 and, on that event, the
    contact point is Cauchy with scale 1 - r, so the total mass of this
    CDF is 1/2.  Elementwise for array x.
    """
    x = _require_numbers("x", x)
    r = _check_radius(r)
    return _float_or_array(0.25 + np.arctan(x / (1.0 - r)) / (2.0 * math.pi))


def unit_sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^(d-1); equals 2 for d = 1."""
    d = _check_dim(d)
    return 2.0 * math.pi ** (0.5 * d) * math.exp(-log_gamma(0.5 * d))
