"""Hypothesis tests and interval estimates for validating sampler output.

Only the tests the validation suites need: a one-sample KS test with the
asymptotic Kolmogorov p-value, the per-axis marginal null for directions
uniform on a sphere, a Bonferroni-combined rotation-invariance check,
and a score-type binomial confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .specfun import _reg_inc_beta_chunked, _require_int, kolmogorov_sf

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
        return {
            "name": self.name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n": self.n,
            "alpha": self.alpha,
            "pass": self.passed,
        }


_CI_LEVEL = 0.9999


@dataclass(frozen=True)
class EstimateReport:
    """A Monte Carlo proportion estimate with its uncertainty."""

    estimate: float
    successes: int
    trials: int
    std_error: float
    ci_low: float
    ci_high: float
    ci_level: float
    seed: int
    sampler: str

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "successes": self.successes,
            "trials": self.trials,
            "std_error": self.std_error,
            "ci": [self.ci_low, self.ci_high],
            "ci_level": self.ci_level,
            "seed": self.seed,
            "sampler": self.sampler,
        }

    @classmethod
    def from_counts(cls, successes: int, trials: int, seed: int, sampler: str) -> EstimateReport:
        """The estimate successes/trials with its standard error and
        ``binomial_ci`` interval at level ``_CI_LEVEL``."""
        lo, hi = binomial_ci(successes, trials, _CI_LEVEL)
        p_hat = successes / trials
        return cls(
            estimate=p_hat,
            successes=successes,
            trials=trials,
            std_error=math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials),
            ci_low=lo,
            ci_high=hi,
            ci_level=_CI_LEVEL,
            seed=int(seed),
            sampler=sampler,
        )


def _make_result(name: str, statistic: float, p_value: float, n: int, alpha: float) -> StatTestResult:
    return StatTestResult(
        name=name,
        statistic=float(statistic),
        p_value=float(p_value),
        n=int(n),
        alpha=float(alpha),
        passed=bool(p_value >= alpha),
    )


def ks_test(samples, cdf, alpha: float = 0.01, name: str = "ks") -> StatTestResult:
    """One-sample Kolmogorov-Smirnov test.

    Args:
        samples: At least 10 real observations.
        cdf: Hypothesized distribution function, nondecreasing with
            range inside [0, 1].  It is called once, on the sorted
            sample array, and must return an array of the same shape
            with finite values.
        alpha: Significance level; the test passes iff p >= alpha.
        name: Label carried into the result and JSON report.

    Returns:
        StatTestResult with statistic D_n = sup |empirical - cdf| and
        p-value kolmogorov_sf(sqrt(n) * D_n).

    Besides what ``cdf`` allocates, the test holds four n-length float
    arrays: the sorted copy of the samples (the input is not modified),
    the cdf values, the empirical grid i/n, and one difference buffer
    that D+ and D- are formed in, one after the other.
    """
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    n = xs.size
    if n < 10:
        raise ValueError(f"ks_test needs at least 10 samples, got {n}")
    if np.isnan(xs).any():
        raise ValueError("samples contain NaN")
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise ValueError(f"cdf returned shape {f.shape} for {n} samples; "
                         "it must evaluate the sample array elementwise")
    if not np.isfinite(f).all():
        raise ValueError("cdf returned a non-finite value")
    if f.min() < -1e-12 or f.max() > 1.0 + 1e-12:
        raise ValueError("cdf returned values outside [0, 1]")
    grid = np.arange(1, n + 1, dtype=float) / n
    diff = np.subtract(grid, f)
    d_plus = float(np.max(diff))
    np.subtract(grid, 1.0 / n, out=diff)
    d_minus = float(np.max(np.subtract(f, diff, out=diff)))
    stat = max(d_plus, d_minus, 0.0)
    return _make_result(name, stat, kolmogorov_sf(math.sqrt(n) * stat), n, alpha)


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


def sphere_coord_cdf(t, d: int):
    """P(u_1 <= t) for u uniform on the unit sphere in R^d, d >= 2.

    Elementwise for array t, with ``reg_inc_beta``'s return convention.
    """
    t = np.asarray(t, dtype=float)
    inside = (t >= -1.0) & (t <= 1.0)
    if not inside.all():
        raise ValueError(f"coordinate bound must lie in [-1, 1], got {t[~inside][0]}")
    d = _require_int("dimension", d)
    if d < 2:
        raise ValueError(f"sphere coordinate law needs d >= 2, got {d}")
    half = 0.5 * (d - 1)
    return _reg_inc_beta_chunked(t, half, half, lambda ts: (u := 0.5 * (ts + 1.0), 1.0 - u))


def angular_uniformity_test(points, alpha: float = 0.01) -> list[StatTestResult]:
    """Tests whether directions of the given points are uniform on the sphere.

    Each point is normalized to a unit vector and every coordinate axis
    is KS-tested against its exact marginal law under uniformity, at the
    Bonferroni-corrected level alpha / d.  The combined check passes iff
    every per-axis test passes.
    """
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
    k = _require_int("successes", k)
    n = _require_int("trials", n)
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    level = float(level)
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
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
