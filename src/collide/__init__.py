"""Collision probabilities and contact-location laws for two randomly
drifting convex bodies, with a reproducible Monte Carlo validation engine."""

__version__ = "0.1.0"

from .analytic import (
    asymptotic_prob_coefficient,
    cauchy_cdf_1d,
    collision_prob_closed,
    collision_prob_exact,
    conditional_location_density,
    location_coefficient,
    location_density_limit,
    radial_cdf_conditional,
    unit_sphere_area,
)
from .geometry import (
    Ball,
    ComSplit,
    Ellipsoid,
    VelocityPair,
    collision_time,
    com_split,
    contact_scale,
)
from .montecarlo import (
    Accumulator,
    SimConfig,
    load_sample_csv,
    proportion_report,
    run,
    run_conditional,
    run_naive,
)
from .specfun import f_cdf, log_gamma, reg_inc_beta
from .stats import (
    EstimateReport,
    angular_uniformity_test,
    ks_test,
)

__all__ = [
    "__version__",
    "collision_prob_exact",
    "collision_prob_closed",
    "asymptotic_prob_coefficient",
    "location_coefficient",
    "location_density_limit",
    "conditional_location_density",
    "radial_cdf_conditional",
    "cauchy_cdf_1d",
    "unit_sphere_area",
    "Ball",
    "Ellipsoid",
    "VelocityPair",
    "ComSplit",
    "com_split",
    "collision_time",
    "contact_scale",
    "SimConfig",
    "Accumulator",
    "run",
    "run_naive",
    "run_conditional",
    "proportion_report",
    "log_gamma",
    "reg_inc_beta",
    "f_cdf",
    "EstimateReport",
    "ks_test",
    "angular_uniformity_test",
    "load_sample_csv",
]
