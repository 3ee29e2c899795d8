"""Monte Carlo engines for the two-body collision model.

Two samplers share one reproducibility contract:

* ``run_naive`` draws independent Gaussian velocity pairs, screens them
  against the body's bounding cap, and solves only the candidates for
  which collide, at what time, and where.  Its hit rate estimates the
  collision probability directly, which becomes hopeless for small radii.
* ``run_conditional`` generates only colliding trajectories by
  factoring the motion into the hitting direction, the approach speed,
  and the independent midpoint drift.  Hitting directions come from
  bounding-cap proposals: uniform directions on the body's bounding cap,
  kept where the ray meets the body.  For a ball the cap is exactly the
  hit set, so every proposal is kept.  Every trial is a collision;
  multiply conditional expectations by the collision probability to
  recover unconditional ones.

Reproducibility: trials are processed in fixed blocks of ``rng.BLOCK``;
block i draws from a Philox stream keyed by (seed, i).  The result is a
pure function of (seed, n, sampler, shape) - the number of worker
threads only changes how blocks are scheduled, never a single output
bit.  Retained samples are capped: a run keeps its first ``sample_cap``
collisions in trial order.  Which trials are kept depends only on the
collision indicators, never on the times or locations, and trials are
i.i.d., so the kept (time, location) rows are an i.i.d. sample of the
law given a collision, whatever the worker count.

Memory: a block returns one record, the tally of its collisions.  Tallies
are folded into the sample store in trial order as blocks finish, with at
most 2 x workers blocks in flight, and a dump writes a block's rows (its
misses are the trials its tally does not list) as the block comes up.
The store reserves address space for min(sample_cap, n) rows once and
writes each retained sample once; that space becomes resident only as
rows arrive.  Peak memory is therefore at most sample_cap retained rows
plus the blocks in flight (workers x BLOCK trials computing, and at most
as many finished ones waiting their turn): independent of n, with or
without a dump.  The sample CSV format, its
writer and its reader ``load_sample_csv``, lives in this module alone.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .analytic import _check_dim
from .geometry import ShapeOracle
from .rng import BLOCK, block_rng, block_spans, check_seed
from .specfun import _require_int
from .stats import EstimateReport

__all__ = [
    "SimConfig",
    "Accumulator",
    "sample_cap_direction",
    "sample_relative_speed",
    "run_naive",
    "run_conditional",
    "run",
    "proportion_report",
    "SampleDump",
    "load_sample_csv",
]

_SQRT_HALF = math.sqrt(0.5)

# Bounding-cap proposals abort when they are clearly going nowhere:
# fewer than one hit per million proposals after this many draws inside
# a single block.
_REJECTION_PROPOSAL_LIMIT = 10_000_000
_REJECTION_MIN_RATE = 1e-6

DEFAULT_SAMPLE_CAP = 1_000_000


@dataclass(frozen=True, eq=False)
class SimConfig:
    """One simulation run: body shape, trial count, seed, engine choice.

    workers = 0 means machine parallelism; any value is superseded by
    the COLLIDE_THREADS environment variable when that is set, and no
    more threads than blocks, or than 8 per CPU, are started.  The worker
    count never affects results, only wall time.  The seed lies in
    [0, 2**64).
    """

    shape: ShapeOracle
    n: int
    seed: int
    sampler: str = "naive"
    workers: int = 0
    sample_cap: int = DEFAULT_SAMPLE_CAP

    def __post_init__(self) -> None:
        if not all(hasattr(self.shape, a) for a in ("dim", "contact_scales", "bounding_cap")):
            raise ValueError(f"shape must be a shape oracle, got {type(self.shape).__name__}")
        n = _require_int("trial count", self.n)
        if n < 1:
            raise ValueError(f"trial count must be >= 1, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.sampler not in ("naive", "conditional"):
            raise ValueError(f"sampler must be 'naive' or 'conditional', got {self.sampler!r}")
        workers = _require_int("workers", self.workers)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        object.__setattr__(self, "workers", workers)
        cap = _require_int("sample cap", self.sample_cap)
        if cap < 0:
            raise ValueError(f"sample cap must be >= 0, got {cap}")
        object.__setattr__(self, "sample_cap", cap)

    @property
    def dim(self) -> int:
        return self.shape.dim


# ---------------------------------------------------------------------------
# Accumulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Accumulator:
    """Tally of a simulation run.

    Counts are exact; the time/location samples are the run's first
    ``sample_cap`` collisions, sorted by trial index (see the module docstring).
    """

    trials: int
    collisions: int
    sample_trial: np.ndarray
    sample_time: np.ndarray
    sample_location: np.ndarray

    @property
    def location_samples(self) -> np.ndarray:
        return self.sample_location

    @property
    def p_hat(self) -> float:
        return self.collisions / self.trials if self.trials else math.nan


# ---------------------------------------------------------------------------
# Elementary samplers
# ---------------------------------------------------------------------------


def sample_relative_speed(rng: np.random.Generator, d: int, size: int) -> np.ndarray:
    """Norm of the half velocity difference: sqrt(S/2) with S chi-square(d).

    Sampled exactly as the norm of d independent centered normals with
    variance 1/2.
    """
    d = _check_dim(d)
    m = _require_int("size", size)
    if m < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    normals = rng.standard_normal((m, d))
    normals *= _SQRT_HALF
    return np.linalg.norm(normals, axis=1)


def _unit_rows(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """m uniform random unit vectors in R^k via normalized Gaussians."""
    out = rng.standard_normal((m, k))
    norms = np.linalg.norm(out, axis=1)
    while True:
        bad = norms == 0.0
        if not bad.any():
            break
        out[bad] = rng.standard_normal((int(bad.sum()), k))
        norms = np.linalg.norm(out, axis=1)
    out /= norms[:, None]
    return out


def _cap_first_coordinate(rng: np.random.Generator, d: int, c: float, m: int) -> np.ndarray:
    """First coordinate of a uniform cap direction for d >= 4.

    Target density on [c, 1] is proportional to (1 - x^2)^((d-3)/2),
    decreasing there, so a uniform proposal accepted with probability
    ((1 - x^2) / (1 - c^2))^((d-3)/2) is exact.
    """
    exponent = 0.5 * (d - 3)
    base = (1.0 - c) * (1.0 + c)
    out = np.empty(m)
    have = 0
    while have < m:
        k = max(128, 2 * (m - have))
        proposal = rng.uniform(c, 1.0, k)
        u = rng.random(k)
        accepted = proposal[u <= ((1.0 - proposal * proposal) / base) ** exponent]
        take = min(accepted.size, m - have)
        out[have:have + take] = accepted[:take]
        have += take
    return out


def sample_cap_direction(rng: np.random.Generator, d: int, c: float, size: int) -> np.ndarray:
    """Uniform direction on the spherical cap {z on S^(d-1) : z_1 >= c}.

    d = 2 draws the polar angle uniformly on [-arccos c, arccos c];
    d = 3 uses the exact uniformity of the first coordinate on [c, 1];
    d >= 4 rejection-samples the first coordinate and attaches an
    independent uniform direction for the remaining components.
    """
    d = _require_int("dimension", d)
    if d < 2:
        raise ValueError(f"cap sampling needs d >= 2, got {d}")
    c = float(c)
    if math.isnan(c) or not 0.0 < c < 1.0:
        raise ValueError(f"cap cosine must lie in (0, 1), got {c}")
    m = _require_int("size", size)
    if m < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    z = np.empty((m, d))
    if d == 2:
        theta_max = math.acos(c)
        theta = rng.uniform(-theta_max, theta_max, m)
        # cos(acos(c)) can land one ulp below c; clamp so every sampled
        # direction stays inside the cap it was drawn from.
        np.maximum(np.cos(theta), c, out=z[:, 0])
        z[:, 1] = np.sin(theta)
        return z
    z1 = rng.uniform(c, 1.0, m) if d == 3 else _cap_first_coordinate(rng, d, c, m)
    z[:, 0] = z1
    s = np.sqrt(np.maximum(1.0 - z1 * z1, 0.0))
    if d == 3:
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        np.multiply(s, np.cos(phi), out=z[:, 1])
        np.multiply(s, np.sin(phi), out=z[:, 2])
    else:
        np.multiply(s[:, None], _unit_rows(rng, m, d - 1), out=z[:, 1:])
    return z


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def _cap_proposals(rng: np.random.Generator, axis: np.ndarray, c: float, k: int) -> np.ndarray:
    """k uniform directions on the cap {z : z . axis >= c}; c = -1 is the sphere.

    In one dimension a cap with c > 0 is the single point axis.
    Otherwise cap directions are drawn around e1 and carried onto the
    axis by the Householder reflection along v = axis - e1, which maps
    e1 to the axis and is skipped when they coincide.
    """
    d = axis.size
    if d == 1:
        return np.tile(axis, (k, 1))
    if c <= -1.0:
        return _unit_rows(rng, k, d)
    z = sample_cap_direction(rng, d, c, k)
    v = axis.copy()
    v[0] -= 1.0
    vv = float(v @ v)
    if vv > 0.0:
        z -= np.outer(z @ v, v * (2.0 / vv))
    return z


def _hits(shape: ShapeOracle, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Colliding rows of the velocity pairs ``v`` = (v1 | v2) and their contact
    times: the entry scale along the half velocity difference over its speed.
    Only rows inside the bounding cap are solved, each as a solve of all rows would."""
    d = shape.dim
    half = np.empty((d, v.shape[0]))
    np.subtract(v[:, :d].T, v[:, d:].T, out=half)
    half *= 0.5
    axis, cosine = shape.bounding_cap()
    # A hit's exact direction lies in the cap z . axis >= cosine.  The
    # solve's rounding (of z and of the body's quadratic) and the screen's
    # (of this projection and speed) move a row by a few ulps times d, far
    # inside the 1e-9 margin, so no hit is screened out.  Cosine -1 keeps
    # every row; a zero speed is kept, and its NaN direction misses.
    speed = np.sqrt(np.einsum("ij,ij->j", half, half))
    rows = np.flatnonzero(axis @ half >= (cosine - 1e-9) * speed)
    # C-contiguous (k, d) rows, as a full solve reads them: same sums, same bits
    half = half.T[rows]
    speed = np.sqrt(np.einsum("ij,ij->i", half, half))
    with np.errstate(invalid="ignore", divide="ignore"):
        t = shape.contact_scales(half / speed[:, None]) / speed
    hit = np.isfinite(t)
    return rows[hit], t[hit]


def _naive_block(config: SimConfig, span: tuple[int, int, int]) -> Accumulator:
    block, start, m = span
    d = config.dim
    v = block_rng(config.seed, block).standard_normal((m, 2 * d))
    hit, t = _hits(config.shape, v)
    c = 0.5 * (v[:, :d][hit] + v[:, d:][hit]) * t[:, None]
    return Accumulator(
        trials=m, collisions=int(hit.size),
        sample_trial=start + hit.astype(np.int64), sample_time=t, sample_location=c,
    )


def _conditional_block(config: SimConfig, span: tuple[int, int, int]) -> Accumulator:
    block, start, m = span
    shape = config.shape
    d = shape.dim
    g = block_rng(config.seed, block)
    axis, cosine = shape.bounding_cap()
    # the first round draws one proposal per trial, so a body whose cap is
    # its hit set (a ball) takes that round alone; later rounds fill the
    # rows whose proposal missed, each with an independent hit
    z = _cap_proposals(g, axis, cosine, m)
    scale = shape.contact_scales(z)
    proposals = m
    missing = np.flatnonzero(~np.isfinite(scale))
    while missing.size:
        k = max(256, 2 * missing.size)
        unit = _cap_proposals(g, axis, cosine, k)
        proposals += k
        scales = shape.contact_scales(unit)
        hit = np.flatnonzero(np.isfinite(scales))[:missing.size]
        fill, missing = missing[:hit.size], missing[hit.size:]
        z[fill] = unit[hit]
        scale[fill] = scales[hit]
        have = m - missing.size
        if proposals >= _REJECTION_PROPOSAL_LIMIT and have < _REJECTION_MIN_RATE * proposals:
            raise RuntimeError(
                f"bounding-cap proposals stalled in block {block}: {have} hits in "
                f"{proposals} proposals (cap cosine {cosine}); the body is practically "
                f"unreachable from the origin"
            )
    speed = sample_relative_speed(g, d, m)
    # the midpoint drift, carried in place to the contact point
    c = g.standard_normal((m, d))
    c *= _SQRT_HALF
    t = scale / speed
    c *= t[:, None]
    return Accumulator(
        trials=m, collisions=m,
        sample_trial=start + np.arange(m, dtype=np.int64), sample_time=t, sample_location=c,
    )


def _resolve_workers(requested: int, blocks: int) -> int:
    """Worker threads for a run of ``blocks`` blocks: COLLIDE_THREADS if
    set, else the request, else the CPU count, never more than blocks or
    8 per CPU."""
    env = os.environ.get("COLLIDE_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"COLLIDE_THREADS must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"COLLIDE_THREADS must be >= 1, got {value}")
    elif requested > 0:
        value = requested
    else:
        value = os.cpu_count() or 1
    return min(value, blocks, 8 * (os.cpu_count() or 1))


def _block_outputs(config: SimConfig, block_fn, spans, workers: int):
    """Yields each block's tally in trial order.

    With several workers at most 2 x workers blocks are submitted and not
    yet yielded; when the consumer stops early or a block raises, the
    blocks not yet started are cancelled and the running ones awaited.
    """
    if workers == 1:
        for span in spans:
            yield block_fn(config, span)
        return
    todo = iter(spans)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(block_fn, config, span)
                        for span in itertools.islice(todo, 2 * workers))
        try:
            while pending:
                yield pending.popleft().result()
                span = next(todo, None)
                if span is not None:
                    pending.append(pool.submit(block_fn, config, span))
        finally:
            for future in pending:
                future.cancel()


class _SampleStore:
    """The first ``cap`` collisions of a stream of block tallies, in one column store.

    Blocks arrive in trial order, so copying each block's rows in after the
    last keeps the store (trial, time and location columns) sorted by trial;
    once it holds ``cap`` rows, later blocks only add to the counts.  A run of
    n trials has at most n collisions, so each column is allocated once, for
    min(cap, n) rows, and each sample is written once.  The
    operating system maps a page only when it is first written, so resident
    memory follows the rows that arrive; ``result`` gives back the rows never
    written.
    """

    def __init__(self, dim: int, cap: int, n: int) -> None:
        self.cap = cap
        rows = min(cap, n)
        self.trials = self.collisions = self.size = 0
        self.columns = [np.empty(rows, dtype=np.int64), np.empty(rows), np.empty((rows, dim))]

    def add(self, tally: Accumulator) -> None:
        self.trials += tally.trials
        self.collisions += tally.collisions
        take = min(self.cap - self.size, tally.sample_trial.size)
        end = self.size + take
        parts = (tally.sample_trial, tally.sample_time, tally.sample_location)
        for column, part in zip(self.columns, parts):
            column[self.size:end] = part[:take]
        self.size = end

    def result(self) -> Accumulator:
        if self.columns[0].shape[0] > self.size + self.size // 4:
            # no view of the store is alive here, so each buffer can shrink
            # in place (realloc) instead of being copied next to itself
            for column in self.columns:
                column.resize((self.size,) + column.shape[1:], refcheck=False)
        trial, times, locations = (column[:self.size] for column in self.columns)
        return Accumulator(
            trials=self.trials, collisions=self.collisions,
            sample_trial=trial, sample_time=times, sample_location=locations,
        )


def _drive(config: SimConfig, block_fn, dump) -> Accumulator:
    workers = _resolve_workers(config.workers, -(-config.n // BLOCK))
    # a block's tally holds every collision of the block; the cap applies
    # here, so no caller sees a tally over it
    store = _SampleStore(config.dim, config.sample_cap, config.n)
    tallies = _block_outputs(config, block_fn, block_spans(config.n), workers)

    def stored():
        for tally in tallies:
            store.add(tally)
            yield tally

    try:
        if dump is None:
            for _ in stored():
                pass
        else:
            # opens the file before the first block runs, then writes each
            # block's rows as that block comes up in trial order
            _write_sample_csv(dump, config.dim, stored())
    finally:
        tallies.close()
    return store.result()


def run_naive(config: SimConfig, dump=None) -> Accumulator:
    """Runs the direct engine: every trial an independent velocity pair.

    Optionally dumps one CSV row per trial to ``dump`` (path or open
    text file); rows appear in trial order regardless of worker count.
    """
    if config.sampler != "naive":
        raise ValueError(f"config requests sampler {config.sampler!r}, not 'naive'")
    return _drive(config, _naive_block, dump)


def run_conditional(config: SimConfig, dump=None) -> Accumulator:
    """Runs the collision-only engine; every recorded trial collides.

    Trials compose the hitting direction, the approach speed, and the
    midpoint drift; contact time is the body entry scale divided by the
    speed and the contact point is the drift times that.  Estimates made
    from these samples are conditional on collision; multiply by the
    collision probability for unconditional quantities.
    """
    if config.sampler != "conditional":
        raise ValueError(f"config requests sampler {config.sampler!r}, not 'conditional'")
    return _drive(config, _conditional_block, dump)


def run(config: SimConfig, dump=None) -> Accumulator:
    """Dispatches on config.sampler."""
    if config.sampler == "naive":
        return run_naive(config, dump)
    return run_conditional(config, dump)


def proportion_report(acc: Accumulator, seed: int, sampler: str) -> EstimateReport:
    """Collision-fraction estimate with its confidence interval."""
    return EstimateReport.from_counts(acc.collisions, acc.trials, seed, sampler)


# ---------------------------------------------------------------------------
# Sample CSV
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleDump:
    """Parsed contents of a simulation sample CSV."""

    trial: np.ndarray
    collided: np.ndarray
    times: np.ndarray
    locations: np.ndarray


def _csv_header(dim: int) -> list[str]:
    return ["trial", "collided", "t"] + [f"c_{i + 1}" for i in range(dim)]


def _write_sample_csv(path_or_file, dim: int, tallies: Iterable[Accumulator]) -> None:
    """Writes one CSV row per trial: trial,collided,t,c_1,...,c_d.

    ``tallies`` are a run's block tallies in trial order, each holding
    every collision of its block; blocks are consecutive from trial 0, so
    the trials a tally does not list are its block's misses, which leave
    the time and location fields empty.  A run's capped Accumulator is not
    such a tally: its collisions past the cap would be written as misses.
    """
    own = isinstance(path_or_file, (str, os.PathLike))
    fh = open(path_or_file, "w", newline="") if own else path_or_file
    try:
        fh.write(",".join(_csv_header(dim)) + "\n")
        # %.17g round-trips every double; a miss leaves t and c empty
        hit_row = "%d,true," + ",".join(["%.17g"] * (dim + 1))
        miss_tail = ",false," + "," * dim
        first = 0
        for tally in tallies:
            # every trial of the block a miss, then its collisions written over
            lines = [f"{i}{miss_tail}" for i in range(first, first + tally.trials)]
            for row in zip(tally.sample_trial.tolist(), tally.sample_time.tolist(),
                           *tally.sample_location.T.tolist()):
                lines[row[0] - first] = hit_row % row
            first += tally.trials
            fh.write("\n".join(lines) + "\n")
    finally:
        if own:
            fh.close()


def load_sample_csv(path) -> SampleDump:
    """Reads a sample dump written by the simulation engine.

    Expects the header trial,collided,t,c_1,...,c_d.  A hit row (collided
    true) fills every field with a finite number; a miss row (false) leaves
    t and c empty, read back as NaN.  Trials must be 0, 1, 2, ... in order.
    Any other row is refused.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        d = len(header) - 3
        if d < 1 or header != _csv_header(d):
            raise ValueError(f"{path}: not a sample CSV (header {header!r})")
        trial, collided, times, locs = [], [], [], []
        miss = [math.nan] * d
        for row in reader:
            if len(row) != 3 + d:
                raise ValueError(f"{path}: row has {len(row)} fields, expected {3 + d}")
            # a hit fills every time and location field, a miss none of them
            flag, fields = row[1], row[2:]
            if flag == "true" and all(fields):
                times.append(float(fields[0]))
                locs.append([float(v) for v in fields[1:]])
            elif flag == "false" and not any(fields):
                times.append(math.nan)
                locs.append(miss)
            elif flag not in ("true", "false"):
                raise ValueError(f"{path}: collided field {flag!r} is not 'true' or 'false'")
            else:
                kind = "hit row with an empty" if flag == "true" else "miss row with a filled"
                raise ValueError(f"{path}: trial {row[0]}: {kind} time or location field")
            trial.append(int(row[0]))
            collided.append(flag == "true")
    dump = SampleDump(
        trial=np.asarray(trial, dtype=np.int64),
        collided=np.asarray(collided, dtype=bool),
        times=np.asarray(times, dtype=float),
        locations=np.asarray(locs, dtype=float).reshape(len(trial), d),
    )
    # run once the rows are read, so a malformed row is named first
    if not np.array_equal(dump.trial, np.arange(len(trial))):
        raise ValueError(f"{path}: trial indices are not 0, 1, 2, ... in order")
    finite = np.isfinite(dump.times) & np.isfinite(dump.locations).all(axis=1)
    if not finite[dump.collided].all():
        raise ValueError(f"{path}: a hit row has a non-finite time or location")
    return dump
