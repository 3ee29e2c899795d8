"""Command line interface: formulas, simulation, densities, validation.

Every command prints a single JSON report to stdout with the fields
command, params, results, seed, elapsed, version; numeric fields are
reproduced exactly on reruns with the same arguments (elapsed excepted).
Exit codes: 0 success, 1 validation failure, 2 bad arguments, 3 I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__, analytic, validation
from .geometry import Ball
from .montecarlo import DEFAULT_SAMPLE_CAP, SimConfig, proportion_report, run

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_USAGE = 2
_EXIT_IO = 3


def _emit(command: str, params: dict, results: dict, seed, started: float) -> None:
    report = {
        "command": command,
        "params": params,
        "results": results,
        "seed": seed,
        "elapsed": time.perf_counter() - started,
        "version": __version__,
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_prob(args) -> int:
    started = time.perf_counter()
    params = {"d": args.d, "r": args.r, "method": args.method}
    results: dict = {"method": args.method}
    if args.method == "closed":
        results["p"] = analytic.collision_prob_closed(args.r, args.d)
    elif args.method == "asymptotic":
        coeff = analytic.asymptotic_prob_coefficient(args.d)
        results["coefficient"] = coeff
        results["p"] = coeff * args.r ** (args.d - 1)
    else:
        results["p"] = analytic.collision_prob_exact(args.r, args.d)
    _emit("prob", params, results, None, started)
    return _EXIT_OK


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    config = SimConfig(
        shape=Ball(radius=args.r, dim=args.d),
        n=args.n,
        seed=args.seed,
        sampler=args.sampler,
        workers=args.workers,
        sample_cap=args.cap,
    )
    acc = run(config, dump=args.out)
    report = proportion_report(acc, seed=args.seed, sampler=args.sampler)
    params = {
        "d": args.d, "r": args.r, "n": args.n, "sampler": args.sampler,
        "workers": args.workers, "cap": args.cap, "out": args.out,
    }
    results = report.to_json()
    results["retained_samples"] = int(acc.sample_trial.size)
    _emit("simulate", params, results, args.seed, started)
    return _EXIT_OK


def _cmd_validate(args) -> int:
    started = time.perf_counter()
    checks = validation.run_suite(args.suite, alpha=args.alpha, seed=args.seed)
    all_pass = all(c["pass"] for c in checks)
    params = {"suite": args.suite, "alpha": args.alpha}
    results = {"checks": checks, "all_pass": all_pass}
    _emit("validate", params, results, args.seed, started)
    return _EXIT_OK if all_pass else _EXIT_VALIDATION


def _cmd_density(args) -> int:
    started = time.perf_counter()
    if not 0.0 < args.rmax < math.inf:
        raise ValueError(f"--rmax must be positive and finite, got {args.rmax}")
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    if args.mode == "limit":
        coeff = analytic.location_coefficient(args.d)
        density = analytic.location_density_limit
    else:
        coeff = analytic.conditional_location_density(np.zeros(args.d), args.d)
        density = analytic.conditional_location_density
    grid = np.linspace(0.0, args.rmax, args.points)
    points = np.zeros((args.points, args.d))
    points[:, 0] = grid
    values = density(points, args.d)
    with open(args.out, "w", newline="") as fh:
        fh.write("x_norm,density\n")
        for s, v in zip(grid, values):
            fh.write(f"{s:.17g},{v:.17g}\n")
    params = {"d": args.d, "mode": args.mode, "rmax": args.rmax,
              "points": args.points, "out": args.out}
    results = {"coefficient_at_zero": coeff, "rows": len(values)}
    _emit("density", params, results, None, started)
    return _EXIT_OK


def _exact_coefficient_string(d: int) -> str:
    """Location coefficient as an exact integer over a power of pi."""
    k = d // 2 + 1
    if d % 2 == 1:
        num, rem = divmod(math.factorial(d - 1), 2 * math.factorial((d - 1) // 2))
    else:
        num, rem = divmod(4 ** (d // 2) * math.factorial(d // 2), 2 * d)
    if rem:
        raise ValueError(f"coefficient for d={d} is not an integer over pi^{k}")
    return f"{num}/pi^{k}"


def _cmd_table(args) -> int:
    started = time.perf_counter()
    rows = []
    for d in range(2, 12):
        rows.append({
            "d": d,
            "exact": _exact_coefficient_string(d),
            "coefficient": analytic.location_coefficient(d),
        })
    _emit("table", {}, {"rows": rows}, None, started)
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
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
                   help="worker threads; 0 = machine parallelism; COLLIDE_THREADS overrides")
    p.add_argument("--cap", type=int, default=DEFAULT_SAMPLE_CAP,
                   help="keep the first CAP collisions in trial order as samples "
                        "(default 10^6)")
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
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
