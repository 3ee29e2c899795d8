"""Benchmark of the collide library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload naive_ball --seed 1 --seconds 20 --trace 0

The library is imported from the checkout's ``src`` directory and from
nowhere else.  The workload's inputs come from ``--seed``; its two parts
repeat, one call at a time, until ``--seconds`` would be exceeded, and
the correctness gate checks every output after the timed region.

With ``--trace 0`` the last stdout line is the result with the
end-to-end metrics, each timed on its fastest sample.  With
``--trace 1`` an untraced, a traced and an untraced iteration run, and
the result holds the per-layer metrics of the traced one and the
tracing overhead;
every span is written to ``.perfbench-spans/<workload>-seed<seed>.json``.
The line before the result is a detail report: provenance, per-part
samples, the gate's verdicts and the sizes used.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SPANS_DIR = ROOT / ".perfbench-spans"
SETUP_PROBES = 15
MAX_WORKERS = 2
NAMES = ("validate", "naive_ball", "conditional_mix")


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _import_collide():
    """Imports collide from the checkout's src, refusing any other copy."""
    if not (SRC / "collide" / "__init__.py").is_file():
        raise SystemExit(f"error: no collide package under {SRC}")
    sys.path.insert(0, str(SRC))
    import collide

    if Path(collide.__file__).resolve().parent != (SRC / "collide").resolve():
        raise SystemExit(f"error: collide imported from {collide.__file__}, not from {SRC}")
    return collide


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "collide").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _provenance(collide, cleared_threads, workload) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "collide_version": collide.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "block": collide.rng.BLOCK,
        "phase_workers": workload.phase_workers(),
        "collide_threads_cleared": cleared_threads,
    }


def _setup_seconds(workload: str, seed: int, workers: int) -> list:
    """Set-up time of fresh interpreters: import collide, build the inputs."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workers)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _summary(values: list) -> dict:
    return {"median": statistics.median(values), "samples": len(values), "values": values}


def _run_iterations(work, seconds: float, gate) -> list:
    """Iterates until the next iteration would end past ``seconds``.

    An iteration that raises counts as one failed operation, a wrong
    output, and ends the loop: its inputs are those of every iteration,
    so the next one would most likely raise too.  The iterations before
    it are kept.
    """
    done = []
    started = time.perf_counter()
    while True:
        try:
            it = work.iteration()
            work.check(it, gate)
        except Exception as exc:
            traceback.print_exc()
            gate.op(False, f"iteration {len(done) + 1} raised {type(exc).__name__}: {exc}")
            return done
        done.append(it.part_seconds)
        del it  # let the outputs go before the next iteration allocates
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(done) > seconds:
            return done


def _wall(part_seconds: tuple) -> float:
    return sum(map(sum, part_seconds))


def _best_part_seconds(parts: list, i: int) -> float:
    """Part ``i``'s time: the fastest time of each of its calls, summed."""
    return sum(min(call) for call in zip(*(p[i] for p in parts)))


def _end_to_end(work, parts: list, setup: list) -> tuple:
    """End-to-end metrics of a run.

    Timings are the fastest samples: of the set-up probes, and of each
    call across iterations.  On a shared host, co-tenants slow every call
    for seconds at a time, so a run's median mostly measures them; the
    fastest sample estimates the program's own cost.  The detail report
    keeps every sample and their median.
    """
    walls = [_wall(p) for p in parts]
    part_seconds = [[sum(p[i]) for p in parts] for i in range(len(work.part_items))]
    best = [_best_part_seconds(parts, i) for i in range(len(work.part_items))]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (min(setup), "s"),
        "part1_items_per_s": (work.part_items[0] / best[0], "item/s"),
        "part2_items_per_s": (work.part_items[1] / best[1], "item/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    detail = {
        "setup_s": _summary(setup),
        "wall_s": _summary(walls),
        "item": work.item,
        "parts": {name: {"items": items, "seconds": _summary(part_seconds[i]),
                         f"best_{work.item}s_per_s": items / best[i]}
                  for i, (name, items) in enumerate(zip(work.part_names, work.part_items))},
    }
    return metrics, detail


def _timed_iteration(work) -> tuple:
    started = time.perf_counter()
    it = work.iteration()
    return it, time.perf_counter() - started


def _traced(work, gate, spans_path: Path) -> tuple:
    """Untraced, traced, untraced iterations; per-layer metrics of the traced one.

    The tracing overhead is the traced wall time minus the faster of the
    two untraced ones around it, so the first full-size iteration's own
    start-up cost does not hide it.
    """
    from tracer import Tracer, layer_metrics

    work.for_trace()
    plain, plain_wall = _timed_iteration(work)
    work.check(plain, gate)
    before = _attribute_snapshot()
    tracer = Tracer()
    tracer.install()
    patched = len(tracer.patches)
    try:
        traced, traced_wall = _timed_iteration(work)
    finally:
        tracer.restore()
    if _attribute_snapshot() != before:
        raise RuntimeError("tracer left a patched attribute behind")
    work.check(traced, gate)
    gate.op(_public_results(plain) == _public_results(traced),
            "tracing changed a workload output")
    after, after_wall = _timed_iteration(work)
    work.check(after, gate)
    plain_wall = min(plain_wall, after_wall)
    overhead = traced_wall - plain_wall
    metrics = layer_metrics(tracer, overhead)
    SPANS_DIR.mkdir(exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump(tracer.span_records(), fh)
    detail = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "patched_attributes": patched,
        "missing_names": tracer.missing,
        "span_totals": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                        for k, v in tracer.span_totals().items()},
        "hot_totals": {k: {"calls": v[0], "self_s": v[1]} for k, v in tracer.hot_totals().items()},
    }
    return metrics, detail


def _attribute_snapshot() -> dict:
    """Identity of every attribute of every collide module and shape class."""
    from collide import geometry

    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "collide" or name.startswith("collide."):
            for attr, value in list(vars(module).items()):
                snap[(name, attr)] = id(value)
    for cls in (geometry.Ball, geometry.Ellipsoid):
        for attr, value in list(vars(cls).items()):
            snap[(cls.__name__, attr)] = id(value)
    return snap


def _public_results(it) -> list:
    """An iteration's outputs without wall-clock fields, for comparison."""
    from workloads import stable_report

    out = []
    for key, value in sorted(it.outputs.items()):
        if hasattr(value, "report"):
            out.append((key, value.code, stable_report(value)))
        elif hasattr(value, "sample_time"):
            out.append((key, value.trials, value.collisions, value.sample_trial.tobytes(),
                        value.sample_time.tobytes(), value.sample_location.tobytes()))
        else:
            out.append((key, value.trial.tobytes(), value.collided.tobytes(),
                        value.times.tobytes(), value.locations.tobytes()))
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    # COLLIDE_THREADS overrides --workers inside the library, which would
    # silently change every phase's worker count.
    cleared_threads = os.environ.pop("COLLIDE_THREADS", None)
    collide = _import_collide()
    import workloads

    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    gate = workloads.Gate()
    work = workloads.make(args.workload, args.seed, workers)
    provenance = _provenance(collide, cleared_threads, work)
    setup = [] if args.trace else _setup_seconds(args.workload, args.seed, workers)
    work.warm_up()
    try:
        if args.trace:
            spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.json"
            metrics, detail = _traced(work, gate, spans_path)
        else:
            parts = _run_iterations(work, args.seconds, gate)
            if not parts:
                print(f"error: no iteration completed; gate: {gate.wrong}", file=sys.stderr)
                return 1
            metrics, detail = _end_to_end(work, parts, setup)
    except Exception:
        traceback.print_exc()
        return 1

    correct = not gate.wrong
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_model": "closed loop, one process, one call at a time",
        "sizes": work.sizes(),
        "provenance": provenance,
        "fail_share": gate.failed / gate.attempted,
        "wrong_outputs": gate.wrong,
        "verdicts": gate.verdicts,
        "statistical_failures": gate.statistical_failures,
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
