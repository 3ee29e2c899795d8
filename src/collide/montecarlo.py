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
  recover unconditional ones.  At d >= 4 a direction is built from
  Gaussian normals, whose squared norm is independent of it, and the
  trial's speed reuses that norm (see ``sample_relative_speed``).

Reproducibility: trials are processed in fixed blocks of ``rng.BLOCK``;
block i draws from a Philox stream keyed by (seed, i).  The result is a
pure function of (seed, n, sampler, shape) - the number of worker
threads only changes how blocks are scheduled, never a single output
bit.  Retained samples are capped: a run keeps its first ``sample_cap``
collisions in trial order.  Which trials are kept depends only on the
collision indicators, never on the times or locations, and trials are
i.i.d., so the kept (time, location) rows are an i.i.d. sample of the
law given a collision, whatever the worker count.

Memory: a block returns one record, the tally of its collisions.  ``_drive``
folds tallies into the sample store in trial order as blocks finish, with
at most 2 x workers blocks in flight, and writes each block's rows to the
dump (its misses are the trials its tally does not list) as it folds them.
The store reserves address space for min(sample_cap, n) rows once and
writes each retained sample once; that space becomes resident only as
rows arrive.  Peak memory is therefore at most sample_cap retained rows
plus the blocks in flight (workers x BLOCK trials computing, and at most
as many finished ones waiting their turn): independent of n, with or
without a dump.  The sample CSV format, its writer and its reader
``load_sample_csv`` live in this module alone.  The reader splits only the lines
unlike their miss row, in one pass over each block of lines, and folds the
block's hits into a sample store: it holds one block's strings plus the hits, once.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass

import numpy as np

from .analytic import _check_dim
from .geometry import ShapeOracle
from .rng import BLOCK, block_rng, block_spans, check_seed
from .specfun import _require_int, _row_norms2

__all__ = [
    "SimConfig",
    "Accumulator",
    "sample_cap_direction",
    "sample_relative_speed",
    "run_naive",
    "run_conditional",
    "run",
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

    workers = 0 means the CPUs this process may use; no more threads than
    blocks, or than 8 per CPU, are started.  The worker count never
    affects results, only wall time.  The seed lies in [0, 2**64).
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
        object.__setattr__(self, "n", _require_int("trial count", self.n, 1))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.sampler not in ("naive", "conditional"):
            raise ValueError(f"sampler must be 'naive' or 'conditional', got {self.sampler!r}")
        object.__setattr__(self, "workers", _require_int("workers", self.workers, 0))
        object.__setattr__(self, "sample_cap", _require_int("sample cap", self.sample_cap, 0))

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
    variance 1/2.  The collision-only engine calls this at d <= 3.  At
    d >= 4 it reuses the radius of the direction it already drew: the
    normals behind a direction have a squared norm independent of it,
    so the engine adds the squares of only the normals that bring their
    count to d (one for a cap direction, none for a whole-sphere one).
    """
    d = _check_dim(d)
    m = _require_int("size", size, 1)
    normals = rng.standard_normal((m, d))
    normals *= _SQRT_HALF
    return np.sqrt(_row_norms2(normals))


def _unit_rows(rng: np.random.Generator, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """m uniform random unit vectors in R^k via normalized Gaussians, and
    each row's squared Gaussian norm: chi-square(k), independent of the row."""
    out = rng.standard_normal((m, k))
    norms2 = _row_norms2(out)
    while True:
        bad = norms2 == 0.0
        if not bad.any():
            break
        out[bad] = rng.standard_normal((int(bad.sum()), k))
        norms2 = _row_norms2(out)
    out /= np.sqrt(norms2)[:, None]
    return out, norms2


def _cap_first_coordinate(rng: np.random.Generator, d: int, c: float, m: int) -> np.ndarray:
    """w = 1 - z_1^2 of m uniform directions on the cap z_1 >= c, d >= 4.

    On the cap z_1 has density proportional to (1 - z_1^2)^((d-3)/2) on
    [c, 1].  Two exact rejection samplers draw it:

    * Wood's (Simulation of the von Mises Fisher distribution, 1994)
      proposes w = (1 - c^2) U^(2/(d-1)), whose z_1 has density
      proportional to z_1 (1 - z_1^2)^((d-3)/2), and keeps it with
      probability c / z_1, at least c;
    * a z_1 uniform on [c, 1] is kept with probability
      ((1 - z_1^2) / (1 - c^2))^((d-3)/2).

    The shares they keep stand in the ratio c (d - 1) / (1 + c), so
    Wood's is used when c (d - 2) >= 1, which holds for every cap but
    the widest (c near 0, a ball of radius near 1).  The share kept is
    then at least max(c, 1/sqrt(d)): Wood's keeps at least c, and the
    uniform proposal, used below c = 1/(d - 2), keeps more than
    1/sqrt(d) (checked numerically on a grid up to d = 1000).
    """
    base = (1.0 - c) * (1.0 + c)
    wood = c * (d - 2) >= 1.0
    kept_share = max(c, 1.0 / math.sqrt(d))
    w = np.empty(m)
    have = 0
    while have < m:
        need = m - have
        # enough proposals to fill every row in the usual case: at most
        # about 2 sqrt(d) uniforms per row, within the block's own memory
        k = math.ceil((need + 4.0 * math.sqrt(need) + 8.0) / kept_share)
        u = rng.random((2, k))
        if wood:
            proposal = base * u[0] ** (2.0 / (d - 1))
            keep = u[1] * np.sqrt(1.0 - proposal) <= c
        else:
            z1 = c + (1.0 - c) * u[0]
            proposal = (1.0 - z1) * (1.0 + z1)
            keep = u[1] <= (proposal / base) ** (0.5 * (d - 3))
        kept = proposal[keep]
        take = min(kept.size, need)
        w[have:have + take] = kept[:take]
        have += take
    return w


def _cap_rows(rng: np.random.Generator, d: int, c: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m uniform directions on the cap z_1 >= c for d >= 4, and the squared
    norm of the d - 1 normals behind each row's other components: a
    chi-square(d - 1) variate independent of the row."""
    w = _cap_first_coordinate(rng, d, c, m)
    unit, radius2 = _unit_rows(rng, m, d - 1)
    z = np.empty((m, d))
    # 1 - w >= c^2 up to rounding; clamp so every row stays inside its cap
    np.maximum(np.sqrt(1.0 - w), c, out=z[:, 0])
    np.multiply(np.sqrt(w)[:, None], unit, out=z[:, 1:])
    return z, radius2


def sample_cap_direction(rng: np.random.Generator, d: int, c: float, size: int) -> np.ndarray:
    """Uniform direction on the spherical cap {z on S^(d-1) : z_1 >= c}.

    c = 1 is the point cap e1, which a ball's cap cosine rounds to below
    a radius of about 1e-8; its rows take the same draws as any other c.

    d = 2 draws the polar angle uniformly on [-arccos c, arccos c];
    d = 3 uses the exact uniformity of the first coordinate on [c, 1];
    d >= 4 draws w = 1 - z_1^2 by Wood's rejection sampler, which
    usually takes one round (a uniform proposal for the widest caps),
    and sets the other components to sqrt(w) times a uniform direction
    built from d - 1 normals.  The collision-only engine draws its d >= 4
    cap directions the same way and keeps the squared norm of those
    normals for the trial's speed (see ``sample_relative_speed``).
    """
    d = _require_int("dimension", d)
    if d < 2:
        raise ValueError(f"cap sampling needs d >= 2, got {d}")
    c = float(c)
    if not 0.0 < c <= 1.0:  # NaN fails too
        raise ValueError(f"cap cosine must lie in (0, 1], got {c}")
    m = _require_int("size", size, 1)
    if d >= 4:
        return _cap_rows(rng, d, c, m)[0]
    z = np.empty((m, d))
    if d == 2:
        theta_max = math.acos(c)
        theta = rng.uniform(-theta_max, theta_max, m)
        # cos(acos(c)) can land one ulp below c; clamp so every sampled
        # direction stays inside the cap it was drawn from.
        np.maximum(np.cos(theta), c, out=z[:, 0])
        z[:, 1] = np.sin(theta)
        return z
    z1 = rng.uniform(c, 1.0, m)
    z[:, 0] = z1
    s = np.sqrt(np.maximum(1.0 - z1 * z1, 0.0))
    phi = rng.uniform(0.0, 2.0 * math.pi, m)
    np.multiply(s, np.cos(phi), out=z[:, 1])
    np.multiply(s, np.sin(phi), out=z[:, 2])
    return z


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def _cap_proposals(rng: np.random.Generator, axis: np.ndarray, c: float,
                   k: int) -> tuple[np.ndarray, np.ndarray | None]:
    """k uniform directions on the cap {z : z . axis >= c}; c = -1 is the sphere.

    In one dimension a cap with c > 0 is the single point axis.
    Otherwise cap directions are drawn around e1 and carried onto the
    axis by the Householder reflection along v = axis - e1, which maps
    e1 to the axis and is skipped when they coincide.  At d >= 4 the
    rows come with the squared norm of the normals each was built from
    (d - 1 on a cap, d on the sphere), which is independent of the row;
    at d <= 3 that radius is None.
    """
    d = axis.size
    if d == 1:
        return np.tile(axis, (k, 1)), None
    if c <= -1.0:
        z, radius2 = _unit_rows(rng, k, d)
        return z, (radius2 if d >= 4 else None)
    z, radius2 = _cap_rows(rng, d, c, k) if d >= 4 else (sample_cap_direction(rng, d, c, k), None)
    v = axis.copy()
    v[0] -= 1.0
    vv = float(v @ v)
    if vv > 0.0:
        z -= np.outer(z @ v, v * (2.0 / vv))
    return z, radius2


def _hits(shape: ShapeOracle, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Colliding rows of the velocity pairs ``v`` = (v1 | v2), their contact
    times (the entry scale along the half velocity difference over its speed)
    and contact points (the midpoint drift times the contact time).  Only
    rows inside the bounding cap are solved, each as a solve of all rows would."""
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
    rows, t = rows[hit], t[hit]
    return rows, t, 0.5 * (v[:, :d][rows] + v[:, d:][rows]) * t[:, None]


def _naive_block(config: SimConfig, span: tuple[int, int, int]) -> Accumulator:
    block, start, m = span
    d = config.dim
    v = block_rng(config.seed, block).standard_normal((m, 2 * d))
    hit, t, c = _hits(config.shape, v)
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
    z, radius2 = _cap_proposals(g, axis, cosine, m)
    scale = shape.contact_scales(z)
    proposals = m
    missing = np.flatnonzero(~np.isfinite(scale))
    while missing.size:
        k = max(256, 2 * missing.size)
        unit, radii2 = _cap_proposals(g, axis, cosine, k)
        proposals += k
        scales = shape.contact_scales(unit)
        hit = np.flatnonzero(np.isfinite(scales))[:missing.size]
        fill, missing = missing[:hit.size], missing[hit.size:]
        scale[fill] = scales[hit]
        if radius2 is not None:
            radius2[fill] = radii2[hit]
        have = m - missing.size
        if proposals >= _REJECTION_PROPOSAL_LIMIT and have < _REJECTION_MIN_RATE * proposals:
            raise RuntimeError(
                f"bounding-cap proposals stalled in block {block}: {have} hits in "
                f"{proposals} proposals (cap cosine {cosine}); the body is practically "
                f"unreachable from the origin"
            )
    if radius2 is None:
        speed = sample_relative_speed(g, d, m)
    else:
        # sqrt(S/2) with S the squared norm of d normals: a direction's own
        # normals give d - 1 of them on a cap (all d on the sphere)
        if cosine > -1.0:
            radius2 += np.square(g.standard_normal(m))
        speed = np.sqrt(0.5 * radius2)
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
    """Worker threads for a run of ``blocks`` blocks: the request, or for 0
    the CPUs this process may use, never more than blocks or 8 per CPU."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(requested or cpus, blocks, 8 * cpus)


def _block_outputs(config: SimConfig, block_fn, spans, workers: int):
    """Yields each block's tally in trial order.

    With several workers at most 2 x workers blocks are submitted and not
    yet yielded; when the consumer stops early or a block raises, the
    blocks not yet started are cancelled and the running ones awaited.
    """
    if workers == 1:
        # no pool for one worker: for 3e6 counts-only naive Ball(0.5, 2) trials a 1-thread
        # pool took 0.300-0.420 s, this loop 0.283-0.290 s (fastest of 5, 2 vCPUs)
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
    """The first ``rows`` collisions of a stream of block tallies, in one column store.

    Blocks arrive in trial order, so copying each block's rows in after the
    last keeps the store (trial, time and location columns) sorted by trial;
    once its columns are full, later blocks only add to the counts.  A run
    takes rows = min(sample_cap, n), since it has at most n collisions, so
    each column is allocated once and each sample is written once.  The
    operating system maps a page only when it is first written, so resident
    memory follows the rows that arrive; ``result`` gives back the rows never
    written.
    """

    def __init__(self, dim: int, rows: int) -> None:
        self.trials = self.collisions = self.size = 0
        self.columns = [np.empty(rows, dtype=np.int64), np.empty(rows), np.empty((rows, dim))]

    def add(self, tally: Accumulator) -> None:
        self.trials += tally.trials
        self.collisions += tally.collisions
        take = min(len(self.columns[0]) - self.size, tally.sample_trial.size)
        end = self.size + take
        parts = (tally.sample_trial, tally.sample_time, tally.sample_location)
        for column, part in zip(self.columns, parts):
            column[self.size:end] = part[:take]
        self.size = end

    def result(self) -> Accumulator:
        # no view of the store is alive here, so each buffer shrinks in place
        # (realloc) instead of being copied next to itself
        for column in self.columns:
            column.resize((self.size,) + column.shape[1:], refcheck=False)
        trial, times, locations = self.columns
        return Accumulator(
            trials=self.trials, collisions=self.collisions,
            sample_trial=trial, sample_time=times, sample_location=locations,
        )


def _drive(config: SimConfig, block_fn, dump) -> Accumulator:
    workers = _resolve_workers(config.workers, -(-config.n // BLOCK))
    # a block's tally holds every collision of the block; the cap applies
    # here, so no caller sees a tally over it
    store = _SampleStore(config.dim, min(config.sample_cap, config.n))
    # a dump is opened before the first block runs, so an unwritable path
    # fails at once; closing the block stream cancels the blocks not yet
    # started when a write raises (a block that raises closes the stream)
    with (open(dump, "w", newline="") if dump is not None else nullcontext() as fh,
          closing(_block_outputs(config, block_fn, block_spans(config.n), workers)) as tallies):
        if fh is not None:
            fh.write(_csv_header(config.dim) + "\n")
        for tally in tallies:
            if fh is not None:
                fh.write(_csv_rows(tally, store.trials, config.dim))
            store.add(tally)
    return store.result()


def run_naive(config: SimConfig, dump=None) -> Accumulator:
    """Runs the direct engine: every trial an independent velocity pair.

    Optionally dumps one CSV row per trial to the path ``dump``; rows
    appear in trial order regardless of worker count.
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


# ---------------------------------------------------------------------------
# Sample CSV
# ---------------------------------------------------------------------------


def _csv_header(dim: int) -> str:
    return ",".join(["trial", "collided", "t"] + [f"c_{i + 1}" for i in range(dim)])


def _csv_rows(tally: Accumulator, first: int, dim: int) -> str:
    """CSV rows of a block whose trials start at ``first``; the trials its
    tally (every collision of the block) does not list are its misses."""
    # %.17g round-trips every double; a miss leaves t and c empty
    hit_row = "%d,true," + ",".join(["%.17g"] * (dim + 1))
    miss_tail = ",false," + "," * dim
    # every trial of the block a miss, then its collisions written over
    lines = [f"{i}{miss_tail}" for i in range(first, first + tally.trials)]
    for row in zip(tally.sample_trial.tolist(), tally.sample_time.tolist(),
                   *tally.sample_location.T.tolist()):
        lines[row[0] - first] = hit_row % row
    return "\n".join(lines) + "\n"


def load_sample_csv(path) -> Accumulator:
    """Reads a sample dump back as the Accumulator of the uncapped run that wrote it.

    Expects the header trial,collided,t,c_1,...,c_d, then, read one ``BLOCK``
    at a time, row i in the writer's form: a miss is ``i,false,`` and d more
    commas; a hit (collided true) fills every field with a finite number as
    %.17g writes it.  Any other row is refused, quoted fields and ``05`` too.
    """
    in_order = True
    with open(path) as fh:
        header = next(fh, "").removesuffix("\n")
        d = header.count(",") - 2
        if d < 1 or header != _csv_header(d):
            raise ValueError(f"{path}: not a sample CSV (header {header!r})")
        miss_tail = ",false," + "," * d + "\n"
        # a hit row has at least 2d + 9 characters, so the file's size bounds its hits;
        # as for a run's min(sample_cap, n) rows, pages are mapped as hits arrive
        store = _SampleStore(d, os.fstat(fh.fileno()).st_size // (2 * d + 9))
        while block := list(itertools.islice(fh, BLOCK)):
            hits, fields = [], []
            for i, line in enumerate(block, store.trials):
                if line == f"{i}{miss_tail}":
                    continue
                row = line.removesuffix("\n").split(",")
                if len(row) != 3 + d:
                    raise ValueError(f"{path}: row has {len(row)} fields, expected {3 + d}")
                hit = row[1] == "true"
                if not hit and row[1] != "false":
                    raise ValueError(f"{path}: collided field {row[1]!r} is not 'true' or 'false'")
                # a hit fills every time and location field, a miss none of them
                if ("" in row[2:]) if hit else any(row[2:]):
                    kind = "hit row with an empty" if hit else "miss row with a filled"
                    raise ValueError(f"{path}: trial {row[0]}: {kind} time or location field")
                in_order &= row[0] == str(i)
                if hit:
                    hits.append(i)
                    fields += row[2:]
            try:
                values = np.array(fields, dtype=float).reshape(-1, 1 + d)
                # float() also reads whitespace, underscores and non-ASCII digits;
                # beside what %.17g writes, only the non-finite words pass here
                if "".join(fields).encode().translate(None, b"0123456789+-.eEaAfFiInNtTyY"):
                    raise ValueError("a hit row has a number the writer does not write")
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            store.add(Accumulator(trials=len(block), collisions=len(hits),
                                  sample_trial=np.array(hits, dtype=np.int64),
                                  sample_time=values[:, 0], sample_location=values[:, 1:]))
            # free this block's strings, so that the next block is not read beside them
            del block, fields
    acc = store.result()
    if acc.sample_trial.size < acc.collisions:
        raise ValueError(f"{path}: more hit rows than its size allows (a pipe, or a growing file)")
    # run once the rows are read, so a malformed row is named first
    if not in_order:
        raise ValueError(f"{path}: trial indices are not 0, 1, 2, ... in order")
    if not (np.isfinite(acc.sample_time).all() and np.isfinite(acc.sample_location).all()):
        raise ValueError(f"{path}: a hit row has a non-finite time or location")
    return acc
