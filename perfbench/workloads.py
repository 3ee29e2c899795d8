"""The benchmark's three workloads.

Each workload is two timed parts, issued one call at a time through the
public API (``collide.cli.main`` with stdout captured, plus
``run_conditional`` where the CLI has no entry point).  A part's outputs are kept so the correctness gate can check
them after the timed region.  Every call goes through a module attribute
looked up at call time, so the tracer's patches see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from collide import cli, montecarlo
from collide.analytic import collision_prob_exact
from collide.geometry import Ellipsoid

# Input sizes actually used.  The workload definitions name 2e7 naive
# trials and 4e6 Ball and 4e5 ellipsoid trials; these are smaller so a
# run of 40 s holds ten or more iterations and its fastest one is
# steady.  (``validate`` has no size: a run holds about fourteen.)
NAIVE_N = 5_000_000
COND_BALL_N = 1_000_000
COND_ELLIPSOID_N = 100_000
SAMPLE_CAP = 1000

ELLIPSOID_CENTER = (-1.0, 0.0, 0.0)
ELLIPSOID_SEMI_AXES = (0.1, 0.2, 0.3)

# The validation suites and their checks.  The ``validate`` workload
# times ``TIMED_SUITES``, one CLI call each with one seed; a traced run
# also runs ``TRACED_SUITES`` so their layers are measured.  See
# README.md, "Left out on purpose".
SUITE_CHECKS = {
    "analytic": ("closed_form_agreement", "location_coefficient_table",
                 "asymptotic_power_law", "conditional_density_normalization"),
    "location": ("line_contact_cauchy", "radial_f_law_d2", "radial_f_law_d3"),
    "mc": ("naive_prob_d2", "naive_prob_d3", "naive_prob_d1",
           "solver_decomposition_agreement_d2", "solver_decomposition_agreement_d3",
           "estimator_consistency", "worker_count_determinism"),
    "rotation": ("rotation_invariance_ball_d2", "rotation_invariance_ball_d3",
                 "rotation_invariance_ellipsoid"),
}
TIMED_SUITES = ("analytic", "location")
TRACED_SUITES = ("mc", "rotation")
# Calls of a timed suite per iteration.  The analytic suite takes about
# 0.2 s, so it repeats, and its part's sample is its fastest call.
SUITE_REPEATS = {"analytic": 3}
# Checks whose verdict is exact arithmetic, not a hypothesis test at a
# level: a failure here means a wrong output.
DETERMINISTIC_CHECKS = frozenset(SUITE_CHECKS["analytic"]) | {
    "solver_decomposition_agreement_d2", "solver_decomposition_agreement_d3",
    "worker_count_determinism",
}


@dataclass
class CliCall:
    """One ``collide.cli.main`` call: exit code, wall time, parsed report."""

    argv: list
    code: int = -1
    seconds: float = math.nan
    report: dict | None = None


def call_cli(argv: list) -> CliCall:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        started = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - started
    call = CliCall(argv=argv, code=code, seconds=seconds)
    try:
        call.report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        call.report = None
    return call


@dataclass
class Gate:
    """Tally of the correctness gate: operations attempted and failed.

    Every failed operation is a wrong output and is listed in ``wrong``.
    A statistical verdict of a validation suite (a hypothesis test at a
    level) is the program's reported result, not an operation: it is
    recorded in ``verdicts``, and a rejection is listed in
    ``statistical_failures``.
    """

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    statistical_failures: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong.append(what)


@dataclass
class Iteration:
    """Wall times of one iteration and what the gate needs.

    ``part_seconds`` holds, for each part, the wall time of each of its
    calls, so a part of several calls can take each call's fastest time.
    """

    part_seconds: tuple
    outputs: dict


class Workload:
    """Base: two parts, each with a fixed item count and item unit."""

    name = ""
    item = ""
    part_names = ("", "")
    part_items = (0, 0)

    def __init__(self, seed: int, workers: int):
        self.seed = int(seed)
        self.workers = workers

    def warm_up(self) -> None:
        """Small untimed calls so lazy set-up is done before timing."""

    def for_trace(self) -> None:
        """Widens later iterations to every layer the workload can reach."""

    def iteration(self) -> Iteration:
        raise NotImplementedError

    def check(self, it: Iteration, gate: Gate) -> None:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def phase_workers(self) -> dict:
        return {p: 1 for p in self.part_names}


def _simulate_argv(sampler: str, d: int, r: float, n: int, seed: int, workers: int,
                   cap: int | None = None, out: str | None = None) -> list:
    argv = ["simulate", "--sampler", sampler, "--d", str(d), "--r", repr(r), "--n", str(n),
            "--workers", str(workers), "--seed", str(seed)]
    if cap is not None:
        argv += ["--cap", str(cap)]
    if out is not None:
        argv += ["--out", out]
    return argv


def _results(call: CliCall) -> dict:
    return call.report["results"] if call.report else {}


def stable_report(call: CliCall) -> str:
    """A report without its wall-clock field, as canonical JSON."""
    report = dict(call.report or {})
    report.pop("elapsed", None)
    return json.dumps(report, sort_keys=True)


class Validate(Workload):
    name = "validate"
    item = "check"
    part_names = tuple(f"suite_{s}" for s in TIMED_SUITES)
    part_items = tuple(len(SUITE_CHECKS[s]) for s in TIMED_SUITES)

    def __init__(self, seed: int, workers: int):
        super().__init__(seed, workers)
        self.suites = TIMED_SUITES
        self.repeats = SUITE_REPEATS
        self._first_reports = {}

    def _argv(self, suite: str) -> list:
        return ["validate", "--suite", suite, "--alpha", "0.01", "--seed", str(self.seed)]

    def warm_up(self) -> None:
        call_cli(["prob", "--d", "3", "--r", "0.5"])

    def for_trace(self) -> None:
        self.suites = TIMED_SUITES + TRACED_SUITES
        self.repeats = {}

    def iteration(self) -> Iteration:
        calls, seconds = {}, []
        for suite in self.suites:
            runs = [call_cli(self._argv(suite)) for _ in range(self.repeats.get(suite, 1))]
            for i, call in enumerate(runs):
                calls[suite if i == 0 else f"{suite}.{i + 1}"] = call
            if suite in TIMED_SUITES:
                seconds.append((min(c.seconds for c in runs),))
        return Iteration(tuple(seconds), calls)

    def check(self, it: Iteration, gate: Gate) -> None:
        for key, call in it.outputs.items():
            suite = key.partition(".")[0]
            checks = {c["name"]: c for c in _results(call).get("checks", [])}
            all_pass = bool(checks) and all(c["pass"] for c in checks.values())
            gate.op(call.code == (0 if all_pass else 1) and set(checks) == set(SUITE_CHECKS[suite]),
                    f"validate --suite {suite}: exit code {call.code} or check names disagree "
                    f"with its report")
            # Same seed, same report: every iteration must repeat the first.
            report = stable_report(call)
            first = self._first_reports.setdefault(suite, report)
            gate.op(report == first, f"validate --suite {suite}: report differs between iterations")
            for name in SUITE_CHECKS[suite]:
                passed = name in checks and bool(checks[name]["pass"])
                gate.verdicts.setdefault(name, []).append(passed)
                if name in DETERMINISTIC_CHECKS:
                    gate.op(passed, f"check {name} failed")
                elif not passed:
                    gate.statistical_failures.append(name)

    def sizes(self) -> dict:
        return {"suites": list(self.suites), "alpha": 0.01,
                "checks": sum(len(SUITE_CHECKS[s]) for s in self.suites)}


class NaiveBall(Workload):
    name = "naive_ball"
    item = "trial"
    part_names = ("workers_1", "workers_n")
    part_items = (NAIVE_N, NAIVE_N)

    def _argv(self, n: int, workers: int) -> list:
        return _simulate_argv("naive", 2, 0.5, n, self.seed, workers, cap=SAMPLE_CAP)

    def warm_up(self) -> None:
        for w in (1, self.workers):
            call_cli(self._argv(20_000, w))

    def iteration(self) -> Iteration:
        one = call_cli(self._argv(NAIVE_N, 1))
        many = call_cli(self._argv(NAIVE_N, self.workers))
        return Iteration(((one.seconds,), (many.seconds,)), {"one": one, "many": many})

    def check(self, it: Iteration, gate: Gate) -> None:
        exact = collision_prob_exact(0.5, 2)
        for label, call in it.outputs.items():
            res = _results(call)
            ok = (call.code == 0 and res.get("trials") == NAIVE_N
                  and res["ci"][0] <= exact <= res["ci"][1]
                  and res["retained_samples"] == min(SAMPLE_CAP, res["successes"]))
            gate.op(ok, f"naive_ball {label}: exit {call.code}, results {res}")
        same = _results(it.outputs["one"]) == _results(it.outputs["many"])
        gate.op(same, "naive_ball: results differ between worker counts")

    def sizes(self) -> dict:
        return {"d": 2, "r": 0.5, "n": NAIVE_N, "cap": SAMPLE_CAP}

    def phase_workers(self) -> dict:
        return {"workers_1": 1, "workers_n": self.workers}


class ConditionalMix(Workload):
    name = "conditional_mix"
    item = "trial"
    part_names = ("ball_d6", "ellipsoid_d3")
    part_items = (COND_BALL_N, COND_ELLIPSOID_N)

    def __init__(self, seed: int, workers: int):
        super().__init__(seed, workers)
        self.ellipsoid = Ellipsoid.from_semi_axes(center=list(ELLIPSOID_CENTER),
                                                  semi_axes=list(ELLIPSOID_SEMI_AXES))

    def _ellipsoid(self, n: int):
        config = montecarlo.SimConfig(shape=self.ellipsoid, n=n, seed=self.seed,
                                      sampler="conditional", workers=1)
        return montecarlo.run_conditional(config)

    def warm_up(self) -> None:
        call_cli(_simulate_argv("conditional", 6, 0.1, 20_000, self.seed, 1))
        self._ellipsoid(2_000)

    def iteration(self) -> Iteration:
        ball = call_cli(_simulate_argv("conditional", 6, 0.1, COND_BALL_N, self.seed, 1))
        started = time.perf_counter()
        acc = self._ellipsoid(COND_ELLIPSOID_N)
        seconds = time.perf_counter() - started
        return Iteration(((ball.seconds,), (seconds,)), {"ball": ball, "ellipsoid": acc})

    def check(self, it: Iteration, gate: Gate) -> None:
        ball = it.outputs["ball"]
        res = _results(ball)
        ok = (ball.code == 0 and res.get("trials") == COND_BALL_N
              and res["successes"] == COND_BALL_N
              and res["retained_samples"] == min(montecarlo.DEFAULT_SAMPLE_CAP, COND_BALL_N))
        gate.op(ok, f"conditional_mix ball: exit {ball.code}, results {res}")
        acc = it.outputs["ellipsoid"]
        t = acc.sample_time
        ok = (acc.trials == COND_ELLIPSOID_N and acc.collisions == COND_ELLIPSOID_N
              and t.size == COND_ELLIPSOID_N and bool(np.all(np.isfinite(t) & (t > 0.0)))
              and bool(np.all(np.isfinite(acc.sample_location))))
        gate.op(ok, "conditional_mix ellipsoid: a trial missed or a time is not finite and > 0")

    def sizes(self) -> dict:
        return {"ball": {"d": 6, "r": 0.1, "n": COND_BALL_N},
                "ellipsoid": {"center": ELLIPSOID_CENTER, "semi_axes": ELLIPSOID_SEMI_AXES,
                              "n": COND_ELLIPSOID_N}}


WORKLOADS = {w.name: w for w in (Validate, NaiveBall, ConditionalMix)}


def make(name: str, seed: int, workers: int) -> Workload:
    return WORKLOADS[name](seed, workers)
