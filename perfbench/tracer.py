"""Layer tracing of ``collide`` from outside the package.

The tracer replaces public functions with timing wrappers at every place
they are looked up: each ``collide`` module attribute that holds the
function, plus the ``contact_scales`` class attributes of the shapes.
Generators returned by the wrapped ``block_rng`` are proxies that time
each draw.  ``restore`` puts every original back.

Coarse calls (a CLI command, a suite, an engine run, a block's stream
or draw, a KS test) each keep one span: name, start, end, parent span
and thread.  Hot scalar functions (special functions, analytic laws,
the scalar contact solvers; millions of calls) keep a call count and
summed self time per thread instead.  Self time is a call's duration
minus the time its children cover.  A span started on a worker thread
with no open span of its own takes as parent the innermost open span of
the thread that installed the tracer, which is the engine run waiting
on its pool.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from workloads import SUITE_CHECKS

_clock = time.perf_counter

# A frame on a thread's stack: [child seconds, own span index (-1 for a
# hot call), index of the innermost enclosing span].  A span frame's
# child seconds collect only its hot children; span children are
# subtracted through the union of their intervals.
_CHILD, _OWN, _ENCLOSING = 0, 1, 2


class _ThreadState(threading.local):
    def __init__(self, tracer: "Tracer"):
        self.stack = []
        self.hot = {}
        with tracer.lock:
            tracer.hot_tables.append(self.hot)


class _TracedGenerator:
    """Stands in for a numpy Generator; its draws are timed spans."""

    __slots__ = ("_gen", "_draw")

    def __init__(self, gen, draw):
        self._gen = gen
        self._draw = draw

    def standard_normal(self, *args, **kwargs):
        return self._draw(self._gen.standard_normal, args, kwargs)

    def random(self, *args, **kwargs):
        return self._draw(self._gen.random, args, kwargs)

    def uniform(self, *args, **kwargs):
        return self._draw(self._gen.uniform, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.spans = []  # [name, start, end, parent, thread, hot child seconds]
        self.counters = defaultdict(int)
        self.hot_tables = []
        self.patches = []  # (owner, attribute, original)
        self.missing = []
        self._local = _ThreadState(self)
        self._root_stack = self._local.stack

    # -- wrappers ----------------------------------------------------------

    def _enclosing(self, stack) -> int:
        if stack:
            return stack[-1][_ENCLOSING]
        root = self._root_stack
        return root[-1][_ENCLOSING] if root else -1

    def count(self, name: str, value) -> None:
        with self.lock:
            self.counters[name] += value

    def span(self, name: str, fn, on_exit=None):
        local, spans, lock = self._local, self.spans, self.lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.stack
            parent = self._enclosing(stack)
            with lock:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, threading.get_ident(), 0.0])
            frame = [0.0, index, index]
            stack.append(frame)
            started = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = _clock()
                stack.pop()
                record = spans[index]
                record[1], record[2], record[5] = started, ended, frame[_CHILD]
                if stack and stack[-1][_OWN] < 0:
                    stack[-1][_CHILD] += ended - started
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return wrapper

    def hot(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.stack
            frame = [0.0, -1, self._enclosing(stack)]
            stack.append(frame)
            started = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - started
                stack.pop()
                stat = local.hot.get(name)
                if stat is None:
                    stat = local.hot[name] = [0, 0.0]
                stat[0] += 1
                stat[1] += elapsed - frame[_CHILD]
                if stack:
                    stack[-1][_CHILD] += elapsed

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_function(self, home, attr: str, make_wrapper) -> None:
        """Wraps ``home.attr`` in every collide module that holds it."""
        original = getattr(home, attr, None)
        if original is None:
            self.missing.append(f"{home.__name__}.{attr}")
            return
        wrapper = make_wrapper(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "collide" and not mod_name.startswith("collide."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, original, wrapper)

    def patch_method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._set(cls, attr, original, make_wrapper(original))

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patches collide's public functions; call ``restore`` afterwards."""
        from collide import analytic, cli, geometry, montecarlo, rng, specfun, stats, validation

        def span_of(name, on_exit=None):
            return lambda fn: self.span(name, fn, on_exit)

        def hot_of(name):
            return lambda fn: self.hot(name, fn)

        self.patch_function(cli, "main", span_of("cli.main"))
        for suite in SUITE_CHECKS:
            self.patch_function(validation, f"suite_{suite}", span_of(f"validation.suite_{suite}"))

        def on_run(args, kwargs, acc):
            self.count("montecarlo.trials", acc.trials)
            self.count("montecarlo.collisions", acc.collisions)
            self.count("montecarlo.retained", acc.sample_trial.size)

        for engine in ("run_naive", "run_conditional"):
            self.patch_function(montecarlo, engine, span_of("montecarlo.run", on_run))
        for name in ("sample_cap_direction", "sample_relative_speed"):
            self.patch_function(montecarlo, name, span_of(f"montecarlo.{name}"))

        def on_draw(args, kwargs, values):
            self.count("rng.draw.variates", np.size(values))

        draw = self.span("rng.draw", lambda method, args, kwargs: method(*args, **kwargs), on_draw)
        self.patch_function(rng, "block_rng", lambda fn: self.span(
            "rng.block_rng", lambda *a, **k: _TracedGenerator(fn(*a, **k), draw)))

        def on_scales(args, kwargs, scales):
            self.count("geometry.contact_scales.rows", scales.size)
            self.count("geometry.contact_scales.hits", int(np.isfinite(scales).sum()))

        for shape in (geometry.Ball, geometry.Ellipsoid):
            self.patch_method(shape, "contact_scales", span_of("geometry.contact_scales", on_scales))
        for name in ("collision_time", "com_split", "contact_scale"):
            self.patch_function(geometry, name, hot_of("geometry.scalar"))

        for name in ("log_gamma", "reg_inc_beta", "f_cdf", "kolmogorov_sf"):
            self.patch_function(specfun, name, hot_of(f"specfun.{name}"))
        for name in analytic.__all__:
            if inspect.isfunction(getattr(analytic, name)):
                self.patch_function(analytic, name, hot_of("analytic"))

        def on_ks(args, kwargs, result):
            self.count("stats.ks_test.samples", result.n)

        self.patch_function(stats, "ks_test", span_of("stats.ks_test", on_ks))
        self.patch_function(stats, "angular_uniformity_test", span_of("stats.angular_uniformity_test"))

    # -- results -----------------------------------------------------------

    def span_totals(self) -> dict:
        """Per span name: calls, summed duration and summed self time."""
        children = defaultdict(list)
        for index, record in enumerate(self.spans):
            if record[3] >= 0:
                children[record[3]].append(index)
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _parent, _thread, hot_child) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children[index]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += (end - start) - covered - hot_child
        return dict(totals)

    def hot_totals(self) -> dict:
        """Per hot name: calls and summed self time, over every thread."""
        totals = defaultdict(lambda: [0, 0.0])
        for table in self.hot_tables:
            for name, (calls, self_s) in list(table.items()):
                totals[name][0] += calls
                totals[name][1] += self_s
        return dict(totals)

    def span_records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "thread": t}
                for n, s, e, p, t, _h in self.spans]


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    spans = tracer.span_totals()
    hot = tracer.hot_totals()
    counters = tracer.counters

    def span(name, field):
        return spans.get(name, (0, 0.0, 0.0))[{"calls": 0, "s": 1, "self_s": 2}[field]]

    def hot_calls(name):
        return hot.get(name, (0, 0.0))[0]

    def hot_self(name):
        return hot.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    rows = counters["geometry.contact_scales.rows"]
    hits = counters["geometry.contact_scales.hits"]
    engine = ("montecarlo.run", "montecarlo.sample_cap_direction", "montecarlo.sample_relative_speed")
    suites = [f"validation.suite_{s}" for s in SUITE_CHECKS]
    metrics = {
        "rng.block_rng.calls": (span("rng.block_rng", "calls"), "count"),
        "rng.block_rng.s": (span("rng.block_rng", "s"), "s"),
        "rng.draw.calls": (span("rng.draw", "calls"), "count"),
        "rng.draw.variates": (counters["rng.draw.variates"], "count"),
        "rng.draw.s": (span("rng.draw", "s"), "s"),
        "montecarlo.run.s": (span("montecarlo.run", "s"), "s"),
        "montecarlo.self_s": (sum(span(n, "self_s") for n in engine), "s"),
        "montecarlo.sample_cap_direction.s": (span("montecarlo.sample_cap_direction", "s"), "s"),
        "montecarlo.sample_relative_speed.s": (span("montecarlo.sample_relative_speed", "s"), "s"),
        "montecarlo.collisions": (counters["montecarlo.collisions"], "count"),
        "montecarlo.hit_ratio": (ratio(counters["montecarlo.collisions"],
                                       counters["montecarlo.trials"]), "ratio"),
        "montecarlo.retained": (counters["montecarlo.retained"], "count"),
        "geometry.contact_scales.calls": (span("geometry.contact_scales", "calls"), "count"),
        "geometry.contact_scales.rows": (rows, "count"),
        "geometry.contact_scales.hits": (hits, "count"),
        "geometry.contact_scales.self_s": (span("geometry.contact_scales", "self_s"), "s"),
        "geometry.accept_ratio": (ratio(hits, rows), "ratio"),
        "geometry.scalar.calls": (hot_calls("geometry.scalar"), "count"),
        "geometry.scalar.self_s": (hot_self("geometry.scalar"), "s"),
        "specfun.log_gamma.calls": (hot_calls("specfun.log_gamma"), "count"),
        "specfun.log_gamma.self_s": (hot_self("specfun.log_gamma"), "s"),
        "specfun.reg_inc_beta.calls": (hot_calls("specfun.reg_inc_beta"), "count"),
        "specfun.reg_inc_beta.self_s": (hot_self("specfun.reg_inc_beta"), "s"),
        "specfun.f_cdf.calls": (hot_calls("specfun.f_cdf"), "count"),
        "specfun.kolmogorov_sf.calls": (hot_calls("specfun.kolmogorov_sf"), "count"),
        "analytic.calls": (hot_calls("analytic"), "count"),
        "analytic.self_s": (hot_self("analytic"), "s"),
        "stats.ks_test.calls": (span("stats.ks_test", "calls"), "count"),
        "stats.ks_test.samples": (counters["stats.ks_test.samples"], "count"),
        "stats.ks_test.self_s": (span("stats.ks_test", "self_s"), "s"),
        "stats.angular_uniformity_test.s": (span("stats.angular_uniformity_test", "s"), "s"),
    }
    for suite in suites:
        metrics[f"{suite}_s"] = (span(suite, "s"), "s")
    metrics["validation.self_s"] = (sum(span(s, "self_s") for s in suites), "s")
    metrics["cli.self_s"] = (span("cli.main", "self_s"), "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics
