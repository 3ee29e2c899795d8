"""Deterministic random-stream derivation for reproducible sampling.

Trials are organized into fixed-size blocks.  Block i of a run with
master seed s draws from a counter-based Philox generator keyed by the
pair (s, i), so every trial's randomness is a pure function of the
master seed and its own index range.  Work can then be distributed over
any number of workers, in any order, without changing a single bit of
the output.

BLOCK is part of that contract: changing it changes which stream a
given trial reads, i.e. produces a different (still valid) realization.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .specfun import _require_int

__all__ = ["BLOCK", "block_rng", "block_spans", "check_seed", "offset_seed"]

BLOCK = 8192

_SEED_LIMIT = 1 << 64


def check_seed(seed: int) -> int:
    """Returns seed as an int; a master seed is one Philox key word, [0, 2**64)."""
    seed = _require_int("seed", seed)
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def offset_seed(seed: int, k: int) -> int:
    """Seed of a run's k-th derived stream: seed + k, wrapped into [0, 2**64)."""
    return (check_seed(seed) + _require_int("seed offset", k)) % _SEED_LIMIT


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Generator for one trial block, keyed by (seed, block index)."""
    block = _require_int("block index", block, 0)
    key = np.array([check_seed(seed), block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_spans(n: int) -> Iterator[tuple[int, int, int]]:
    """Split n trials into (block index, first trial index, count) spans, lazily."""
    n = _require_int("trial count", n, 0)
    return ((block, start, min(BLOCK, n - start))
            for block, start in enumerate(range(0, n, BLOCK)))
