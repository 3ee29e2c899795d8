"""Command line interface: formulas, simulation, densities, validation.

Every command prints a single JSON report to stdout with the fields
command, params, results, seed, elapsed, version; params echoes every
argument except --seed, which is the seed field (null for commands
without one).  Numeric fields are reproduced exactly on reruns with the
same arguments (elapsed excepted).  Exit codes: 0 success, 1 validation
failure, 2 bad arguments (including a dimension whose values overflow a
double and an allocation the machine refuses), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__, analytic, validation
from .geometry import Ball
from .montecarlo import DEFAULT_SAMPLE_CAP, SimConfig, run
from .rng import BLOCK
from .stats import EstimateReport

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_USAGE = 2
_EXIT_IO = 3


def _cmd_prob(args) -> dict:
    r = analytic._check_radius(args.r)
    if args.method == "asymptotic":
        coeff = analytic.asymptotic_prob_coefficient(args.d)
        return {"method": args.method, "coefficient": coeff, "p": coeff * r ** (args.d - 1)}
    prob = analytic.collision_prob_closed if args.method == "closed" else analytic.collision_prob_exact
    return {"method": args.method, "p": prob(r, args.d)}


def _cmd_simulate(args) -> dict:
    # the report prints only how many samples a run keeping its first --cap
    # collisions holds, min(cap, collisions), so the engine stores none
    config = SimConfig(
        shape=Ball(radius=args.r, dim=args.d),
        n=args.n,
        seed=args.seed,
        sampler=args.sampler,
        workers=args.workers,
        sample_cap=0,
    )
    if args.cap < 0:
        raise ValueError(f"--cap must be >= 0, got {args.cap}")
    # one block's draws, allocated and dropped before --out is opened: numpy
    # refuses them at once for a --d the run could never hold, where the CSV
    # header would first build d column names
    rows = min(BLOCK, args.n)
    try:
        np.empty((rows, 2 * args.d))
    except (ValueError, MemoryError):
        raise ValueError(f"--d {args.d} is too large: one block's draws, {rows} x {2 * args.d} "
                         f"doubles, cannot be allocated") from None
    acc = run(config, dump=args.out)
    results = EstimateReport.from_counts(acc.collisions, acc.trials, args.seed, args.sampler).to_json()
    results["retained_samples"] = min(args.cap, acc.collisions)
    return results


def _cmd_validate(args) -> dict:
    checks = validation.run_suite(args.suite, alpha=args.alpha, seed=args.seed)
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks)}


def _cmd_density(args) -> dict:
    if not 0.0 < args.rmax < math.inf:
        raise ValueError(f"--rmax must be positive and finite, got {args.rmax}")
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    try:
        if args.mode == "limit":
            coeff = analytic.location_coefficient(args.d)
            density = analytic.location_density_limit
        else:
            coeff = analytic.conditional_location_density(np.zeros(args.d), args.d)
            density = analytic.conditional_location_density
    except OverflowError:
        raise ValueError(f"--d {args.d} is too large: the density's normalizing "
                         f"constant overflows a double") from None
    grid = np.linspace(0.0, args.rmax, args.points)
    points = np.zeros((args.points, args.d))
    points[:, 0] = grid
    try:
        values = density(points, args.d)
    except OverflowError:
        raise ValueError(f"--d {args.d} with --rmax {args.rmax:g} overflows a double: "
                         f"(1 + rmax^2)^d at the grid's end is too large") from None
    with open(args.out, "w", newline="") as fh:
        fh.write("x_norm,density\n")
        for s, v in zip(grid, values):
            fh.write(f"{s:.17g},{v:.17g}\n")
    return {"coefficient_at_zero": coeff, "rows": len(values)}


def _cmd_table(args) -> dict:
    return {"rows": [
        {"d": d, "exact": f"{num}/pi^{k}", "coefficient": analytic.location_coefficient(d)}
        for d, (num, k) in validation._COEFF_TABLE.items()
    ]}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call and shared by every later one: parsing leaves
    # the parser as it was, and each handler looks up what it calls
    # (validation.run_suite, run, ...) when it runs, not here
    parser = argparse.ArgumentParser(
        prog="collide",
        description="Collision probabilities and contact-location laws for two "
                    "randomly drifting bodies, with a reproducible Monte Carlo engine.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="collision probability from the analytic formulas")
    p.add_argument("--d", type=int, required=True, help="space dimension, >= 1")
    p.add_argument("--r", type=float, required=True, help="ball radius in (0, 1)")
    p.add_argument("--method", choices=("exact", "closed", "asymptotic"), default="exact")
    p.set_defaults(fn=_cmd_prob)

    p = sub.add_parser("simulate", help="run a Monte Carlo engine and report the hit rate")
    p.add_argument("--d", type=int, required=True, help="space dimension, >= 1")
    p.add_argument("--r", type=float, required=True, help="ball radius in (0, 1)")
    p.add_argument("--n", type=int, required=True, help="number of trials")
    p.add_argument("--sampler", choices=("naive", "conditional"), default="naive")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--workers", type=int, default=0,
                   help="worker threads; 0 = the CPUs this process may use")
    p.add_argument("--cap", type=int, default=DEFAULT_SAMPLE_CAP,
                   help="retained_samples is min(CAP, successes), what a library run keeping "
                        "its first CAP collisions holds (default 10^6); simulate keeps none")
    p.add_argument("--out", default=None, help="write per-trial sample CSV here")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("validate", help="run the validation suites")
    p.add_argument("--suite", choices=validation.SUITES, default="all")
    p.add_argument("--alpha", type=float, default=0.01, help="significance level in (0, 1)")
    p.add_argument("--seed", type=int, default=42, help="master seed for the statistical checks")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("density", help="tabulate a contact-location density on a radial grid")
    p.add_argument("--d", type=int, required=True, help="space dimension, >= 1")
    p.add_argument("--mode", choices=("limit", "conditional"), default="conditional")
    p.add_argument("--rmax", type=float, default=5.0, help="grid endpoint (default 5)")
    p.add_argument("--points", type=int, default=501, help="grid size (default 501)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("table", help="the limit-density coefficient table, d = 2..11")
    p.set_defaults(fn=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage errors
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        results = args.fn(args)
        report = {
            "command": args.command,
            "params": {k: v for k, v in vars(args).items() if k not in ("command", "fn", "seed")},
            "results": results,
            "seed": getattr(args, "seed", None),
            "elapsed": time.perf_counter() - started,
            "version": __version__,
        }
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    except (ValueError, OverflowError, MemoryError) as exc:
        # a MemoryError may carry no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    return _EXIT_OK if results.get("all_pass", True) else _EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
