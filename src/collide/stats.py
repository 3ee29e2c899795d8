"""Hypothesis tests and interval estimates for validating sampler output.

Only the tests the validation suites need: a one-sample KS test with the
asymptotic Kolmogorov p-value, the per-axis marginal null for directions
uniform on a sphere, a Bonferroni-combined rotation-invariance check,
and a score-type binomial confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .specfun import _reg_inc_beta_chunked, _require_int, _require_level, _row_norms2, kolmogorov_sf

__all__ = [
    "StatTestResult",
    "EstimateReport",
    "ks_test",
    "sphere_coord_cdf",
    "angular_uniformity_test",
    "binomial_ci",
]


@dataclass(frozen=True)
class StatTestResult:
    """Outcome of a single hypothesis test; passed <=> p_value >= alpha."""

    name: str
    statistic: float
    p_value: float
    n: int
    alpha: float
    passed: bool

    def to_json(self) -> dict:
        return {("pass" if key == "passed" else key): value
                for key, value in asdict(self).items()}


_CI_LEVEL = 0.9999


@dataclass(frozen=True)
class EstimateReport:
    """A Monte Carlo proportion estimate with its uncertainty: ``ci`` is the
    (low, high) ``binomial_ci`` interval at level ``ci_level``."""

    estimate: float
    successes: int
    trials: int
    std_error: float
    ci: tuple[float, float]
    ci_level: float
    seed: int
    sampler: str

    def to_json(self) -> dict:
        return {**asdict(self), "ci": list(self.ci)}

    @classmethod
    def from_counts(cls, successes: int, trials: int, seed: int, sampler: str) -> EstimateReport:
        """The estimate successes/trials with its standard error and
        ``binomial_ci`` interval at level ``_CI_LEVEL``."""
        ci = binomial_ci(successes, trials, _CI_LEVEL)  # refuses trials = 0 before the division
        p_hat = successes / trials
        return cls(
            estimate=p_hat,
            successes=successes,
            trials=trials,
            std_error=math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials),
            ci=ci,
            ci_level=_CI_LEVEL,
            seed=int(seed),
            sampler=sampler,
        )


# ks_test reads the cdf at every _KS_STRIDE-th order statistic and the last
# (the nodes), then only inside the gaps between nodes where the bound that
# monotonicity gives reaches the nodes' largest deviation less _KS_MARGIN.
# The margin is far above any rounding of the cdf or of the grid, so no
# skipped order statistic can hold the maximum.
_KS_STRIDE = 32
_KS_MARGIN = 1e-9


def _checked_cdf(cdf, points: np.ndarray) -> np.ndarray:
    f = np.asarray(cdf(points), dtype=float)
    if f.shape != points.shape:
        raise ValueError(f"cdf returned shape {f.shape} for {points.size} points; "
                         "it must evaluate the sample array elementwise")
    if not np.isfinite(f).all():
        raise ValueError("cdf returned a non-finite value")
    if f.min() < -1e-12 or f.max() > 1.0 + 1e-12:
        raise ValueError("cdf returned values outside [0, 1]")
    return f


def _max_deviation(f: np.ndarray, order: np.ndarray, n: int) -> float:
    """The largest of D+ = (i+1)/n - F_i and D- = F_i - ((i+1)/n - 1/n) over
    the 0-based order statistics i in ``order``, whose cdf values are f.
    Each term is the same float whichever points are read with it."""
    grid = order + 1.0
    grid /= n
    diff = np.subtract(grid, f)
    d_plus = float(np.max(diff))
    np.subtract(grid, 1.0 / n, out=diff)
    return max(d_plus, float(np.max(np.subtract(f, diff, out=diff))))


def ks_test(samples, cdf, alpha: float = 0.01, name: str = "ks") -> StatTestResult:
    """One-sample Kolmogorov-Smirnov test.

    Args:
        samples: At least 10 real observations.
        cdf: Hypothesized distribution function, nondecreasing with
            range inside [0, 1].  It is called at most twice, each time
            on an ascending subsequence of the sorted samples: first on
            every 32nd order statistic and the largest (the nodes), then
            on the order statistics between nodes where monotonicity
            cannot rule out the largest deviation.  Each call must return
            an array of its argument's shape with finite values, and node
            values that decrease by more than 1e-12 raise ValueError.
        alpha: Significance level inside (0, 1), or ValueError is raised;
            the test passes iff p >= alpha.
        name: Label carried into the result and JSON report.

    Returns:
        StatTestResult with statistic D_n = sup |empirical - cdf| and
        p-value kolmogorov_sf(sqrt(n) * D_n), the same floats as from
        evaluating the cdf at every order statistic.

    Besides what ``cdf`` allocates, the test holds the sorted copy of the
    samples (the input is not modified) and, for the points of each call,
    their indices, values, cdf values, grid i/n and one difference
    buffer.  For a cdf that fits, the second call reads a few percent of
    the samples; at worst it reads every one but the nodes.
    """
    alpha = _require_level("alpha", alpha)
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    n = xs.size
    if n < 10:
        raise ValueError(f"ks_test needs at least 10 samples, got {n}")
    if np.isnan(xs).any():
        raise ValueError("samples contain NaN")
    nodes = np.arange(0, n, _KS_STRIDE)
    if nodes[-1] != n - 1:
        nodes = np.append(nodes, n - 1)
    f = _checked_cdf(cdf, xs[nodes])
    if (np.diff(f) < -1e-12).any():
        raise ValueError("cdf decreases between order statistics; it must be nondecreasing")
    stat = max(_max_deviation(f, nodes, n), 0.0)
    # for nodes j < l and j < i < l: (i+1)/n - F_i <= l/n - F_j and
    # F_i - i/n <= F_l - (j+1)/n
    bound = np.maximum(nodes[1:] / n - f[:-1], f[1:] - (nodes[:-1] + 1.0) / n)
    gaps = np.flatnonzero(bound >= stat - _KS_MARGIN)
    inner = (gaps[:, None] * _KS_STRIDE + np.arange(1, _KS_STRIDE)).ravel()
    inner = inner[:np.searchsorted(inner, n - 1)]  # the last gap ends at n - 1
    if inner.size:
        stat = max(stat, _max_deviation(_checked_cdf(cdf, xs[inner]), inner, n))
    p = kolmogorov_sf(math.sqrt(n) * stat)
    return StatTestResult(name, stat, p, n, alpha, p >= alpha)


def sphere_coord_cdf(t, d: int):
    """P(u_1 <= t) for u uniform on the unit sphere in R^d, d >= 2.

    Elementwise for array t, with ``reg_inc_beta``'s return convention.
    """
    t = np.asarray(t, dtype=float)
    inside = (t >= -1.0) & (t <= 1.0)
    if not inside.all():
        raise ValueError(f"coordinate bound must lie in [-1, 1], got {t[~inside][0]}")
    d = _require_int("dimension", d, 2)
    half = 0.5 * (d - 1)
    return _reg_inc_beta_chunked(t, half, half, lambda ts: (u := 0.5 * (ts + 1.0), 1.0 - u))


def angular_uniformity_test(points, alpha: float = 0.01) -> list[StatTestResult]:
    """Tests whether directions of the given points are uniform on the sphere.

    Each point is normalized to a unit vector and every coordinate axis
    is KS-tested against its exact marginal law under uniformity, at the
    Bonferroni-corrected level alpha / d.  The combined check passes iff
    every per-axis test passes.  alpha must lie in (0, 1), or ValueError
    is raised.
    """
    alpha = _require_level("alpha", alpha)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("points must be an (n, d) array with d >= 2")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite; a NaN or infinite point has no direction")
    norms = np.sqrt(_row_norms2(pts))
    if not (norms > 0.0).all():
        raise ValueError("zero vector encountered; directions are undefined")
    d = pts.shape[1]
    # one unit-vector coordinate at a time, not the whole (n, d) unit array
    return [
        ks_test(pts[:, k] / norms, lambda t: sphere_coord_cdf(t, d), alpha=alpha / d,
                name=f"axis_{k + 1}")
        for k in range(d)
    ]


def binomial_ci(k: int, n: int, level: float) -> tuple[float, float]:
    """Score-type confidence interval for a binomial proportion.

    Continuity-corrected Wilson interval: the plain score interval's
    exact coverage dips below nominal on small-n grids, while the
    corrected form stays at or above nominal there and is only
    marginally wider for the large n used in simulation reports.  The
    interval always contains k/n.
    """
    k = _require_int("successes", k, 0)
    n = _require_int("trials", n, 1)
    if k > n:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    level = _require_level("confidence level", level)
    z = NormalDist().inv_cdf(0.5 + 0.5 * level)
    p = k / n
    z2 = z * z
    denom = 2.0 * (n + z2)
    if k == 0:
        lo = 0.0
    else:
        lo = (2.0 * n * p + z2 - 1.0 -
              z * math.sqrt(z2 - 2.0 - 1.0 / n + 4.0 * p * (n * (1.0 - p) + 1.0))) / denom
        lo = max(0.0, lo)
    if k == n:
        hi = 1.0
    else:
        hi = (2.0 * n * p + z2 + 1.0 +
              z * math.sqrt(z2 + 2.0 - 1.0 / n + 4.0 * p * (n * (1.0 - p) - 1.0))) / denom
        hi = min(1.0, hi)
    return lo, hi
