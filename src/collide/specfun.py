"""Special functions backing every probability in this package.

Implemented on top of ``math`` and numpy so that results carry no
dependency on an external numerics stack: ``log_gamma`` is the standard
library's ``math.lgamma`` behind this package's input checks (as the
normal quantile in ``stats`` is ``statistics.NormalDist``).
``reg_inc_beta`` and ``f_cdf`` are array-native: they take a scalar or
an array of evaluation points (with scalar shape parameters) through one
code path, and return a float for a scalar and an array otherwise.
``log_gamma`` and ``kolmogorov_sf`` take scalars.  The module also
holds the package's shared numerical rules: the argument checks, the
cached Gauss-Legendre rule (``_gauss_legendre``) and the short-row norm
(``_row_norms2``).  None of it aims to be a general-purpose library.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["log_gamma", "reg_inc_beta", "f_cdf", "kolmogorov_sf"]

# Continued-fraction controls for the regularized incomplete beta.
_CF_TINY = 1e-30
_CF_EPS = 1e-15
_CF_MAX_ITER = 500

# Array arguments are evaluated this many elements at a time, so the
# temporaries of the argument, its complement and the continued fraction
# stay small however long the input is.
_CHUNK = 8192


def _require_number(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{name} must be a number, got NaN")
    return value


def _require_int(name: str, value, low: int | None = None) -> int:
    """Returns value as an int, refusing one below ``low`` if given; anything
    but an int or a numpy integer is refused rather than truncated, and so
    is a bool, which Python counts as an int."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _require_numbers(name: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise ValueError(f"{name} must be a number, got NaN")
    return values


def _float_or_array(values):
    """Returns a 0-d result as a Python float and anything else as an array."""
    values = np.asarray(values, dtype=float)
    return float(values) if values.ndim == 0 else values


def _row_norms2(a: np.ndarray) -> np.ndarray:
    """Each row's squared norm, bit-identical to np.add.reduce(a * a, axis=1).

    Below 8 columns numpy adds a row's elements in order, as the column
    loop here does at a fraction of the cost; from 8 on it sums pairwise.
    """
    if a.shape[1] >= 8:
        return np.add.reduce(a * a, axis=1)
    out = a[:, 0] * a[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j] * a[:, j]
    return out


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for x inside (-1, 1), by the three-term recurrence
    j P_j = (2j - 1) x P_(j-1) - (j - 1) P_(j-2)."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        xp = x * p
        p_prev, p = p, xp + (j - 1) / j * (xp - p_prev)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


# Newton's method from Tricomi's estimate reaches double precision in three
# or four steps; the cap only bounds the loop.
_NEWTON_STEPS = 10


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from Tricomi's estimate of its roots (Davis &
    Rabinowitz, Methods of Numerical Integration, 1984), with elementwise
    numpy only: no LAPACK call and no numpy.polynomial import.  Built once
    per n and process; the arrays are shared, so they are read-only.
    """
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_STEPS):
        p, slope = _legendre(n, x)
        step = p / slope
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    _, slope = _legendre(n, x)
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for real x > 0, via ``math.lgamma``."""
    x = _require_number("x", x)
    if x <= 0.0 or math.isinf(x):
        raise ValueError(f"log_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


def _log_beta(a: float, b: float) -> float:
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def _away_from_zero(v: np.ndarray) -> np.ndarray:
    """Lentz's guard against division by zero; overwrites v in place."""
    v[np.abs(v) < _CF_TINY] = _CF_TINY
    return v


def _beta_cf(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Continued fraction for the incomplete beta, modified Lentz scheme.

    Numerical Recipes' ``betacf`` run over an array: every element takes
    the same steps as it would alone and leaves the loop at the step
    where its own increment converges.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    left = np.arange(x.size)  # positions in ``out`` still iterating
    c = np.ones_like(x)
    d = 1.0 / _away_from_zero(1.0 - qab * x / qap)
    h = d
    m = 0
    while left.size:
        m += 1
        if m > _CF_MAX_ITER:
            raise ValueError(
                f"incomplete beta continued fraction failed to converge for x={x[0]}, a={a}, b={b}"
            )
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _away_from_zero(1.0 + aa * d)
        c = _away_from_zero(1.0 + aa / c)
        h = h * (d * c)
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _away_from_zero(1.0 + aa * d)
        c = _away_from_zero(1.0 + aa / c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _CF_EPS
        if np.count_nonzero(done):
            out[left[done]] = h[done]
            going = ~done
            left, x, c, d, h = left[going], x[going], c[going], d[going], h[going]
    return out


def _reg_inc_beta_inner(x: np.ndarray, a: float, b: float, log_beta: float) -> np.ndarray:
    """I_x(a, b) for 0 < x < 1 on the continued fraction's converging side."""
    log_front = a * np.log(x) + b * np.log1p(-x) - log_beta - math.log(a)
    return np.clip(np.exp(log_front) * _beta_cf(x, a, b), 0.0, 1.0)


def _reg_inc_beta_sides(x: np.ndarray, y: np.ndarray, a: float, b: float,
                        log_beta: float) -> np.ndarray:
    """I_x(a, b) for flat arrays x and y = 1 - x, each formed by the caller.

    Past the distribution bulk the complement identity
    I_x(a, b) = 1 - I_y(b, a) keeps the continued fraction in its rapidly
    converging regime; it reads y as given, so a caller that can form y
    without cancellation keeps its accuracy next to x = 1.
    """
    vals = (y == 0.0).astype(float)  # I_0 = 0 and I_1 = 1 exactly
    inner = (x > 0.0) & (y > 0.0)
    flip = x > (a + 1.0) / (a + b + 2.0)
    low, high = inner & ~flip, inner & flip
    # a side with no elements is skipped: a scalar has one side at most
    if np.count_nonzero(low):
        vals[low] = _reg_inc_beta_inner(x[low], a, b, log_beta)
    if np.count_nonzero(high):
        vals[high] = 1.0 - _reg_inc_beta_inner(y[high], b, a, log_beta)
    return vals


def _reg_inc_beta_chunked(x: np.ndarray, a: float, b: float, sides):
    """I_u(a, b) over x, with ``reg_inc_beta``'s return convention: ``sides``
    maps a flat ``_CHUNK`` of x to u and 1 - u, so every temporary is one
    chunk long, and ``_log_beta(a, b)``, symmetric in (a, b), serves both."""
    log_beta = _log_beta(a, b)
    flat = x.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _CHUNK):
        u, y = sides(flat[start:start + _CHUNK])
        out[start:start + _CHUNK] = _reg_inc_beta_sides(u, y, a, b, log_beta)
    return _float_or_array(out.reshape(x.shape))


def reg_inc_beta(x, a: float, b: float):
    """Regularized incomplete beta function I_x(a, b).

    Args:
        x: Upper integration limit in [0, 1]; a scalar or an array.
        a: First shape parameter, > 0.
        b: Second shape parameter, > 0.

    Returns:
        I_x(a, b) elementwise with absolute error below 1e-12, as a float
        for scalar x and an array of x's shape otherwise.  The complement
        identity I_x(a, b) = 1 - I_{1-x}(b, a) is applied for x past the
        distribution bulk so the continued fraction always runs in its
        rapidly converging regime.
    """
    x = _require_numbers("x", x)
    a = _require_number("a", a)
    b = _require_number("b", b)
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    outside = (x < 0.0) | (x > 1.0)
    if outside.any():
        raise ValueError(f"x must lie in [0, 1], got {x[outside][0]}")
    return _reg_inc_beta_chunked(x, a, b, lambda xs: (xs, 1.0 - xs))


def f_cdf(x, d1: int, d2: int):
    """CDF of the F distribution with (d1, d2) degrees of freedom at x >= 0.

    Elementwise for array x, with the same return convention as
    ``reg_inc_beta``; x = inf maps to 1.
    """
    x = _require_numbers("x", x)
    d1 = _require_int("degrees of freedom", d1)
    d2 = _require_int("degrees of freedom", d2)
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    negative = x < 0.0
    if negative.any():
        raise ValueError(f"f_cdf requires x >= 0, got {x[negative][0]}")
    def sides(xs):
        dx = d1 * xs
        # The complement d2 / (d1 x + d2) is formed directly: 1 minus the
        # argument would cancel where the argument rounds next to 1.  x = inf
        # gives a NaN argument and a complement of 0, which is the CDF's 1.
        with np.errstate(invalid="ignore"):
            return dx / (dx + d2), d2 / (dx + d2)
    return _reg_inc_beta_chunked(x, 0.5 * d1, 0.5 * d2, sides)


# Below this point the alternating series for the Kolmogorov law equals 1
# to machine precision, so the loop is skipped rather than ground through
# thousands of near-unit terms.
_KOLMOGOROV_SMALL_T = 0.05
_KOLMOGOROV_TERM_FLOOR = 1e-16


def kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution.

    Q(t) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 t^2), truncated once the
    next term drops below 1e-16.  Q(0) = 1 by definition.
    """
    t = _require_number("t", t)
    if t < 0.0:
        raise ValueError(f"kolmogorov_sf requires t >= 0, got {t}")
    if t <= _KOLMOGOROV_SMALL_T:
        return 1.0
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = 2.0 * math.exp(-2.0 * (k * t) ** 2)
        if term < _KOLMOGOROV_TERM_FLOOR:
            break
        total += sign * term
        sign = -sign
        k += 1
    return min(max(total, 0.0), 1.0)
