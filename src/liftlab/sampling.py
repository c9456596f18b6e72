"""Seeded sample-point protocol used by every sampled-equality check.

Checks in this package compare fields by evaluating both sides on a
deterministic batch of points drawn from a box that stays away from the
coordinate singularities of the built-in charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

DEFAULT_SEED = 42
DEFAULT_COUNT = 64
DEFAULT_BOX = (0.2, 1.5)

# The tolerance of every check unless the caller gives another.
DEFAULT_TOL = 1e-9


def sample_points(
    dim: int,
    *,
    seed: int = DEFAULT_SEED,
    count: int = DEFAULT_COUNT,
    box: tuple[float, float] = DEFAULT_BOX,
    screen: Callable[[np.ndarray], np.ndarray] | None = None,
    max_tries: int = 10,
) -> np.ndarray:
    """Draw count points uniformly from box**dim with a fixed seed.

    Candidates come in (k, dim) blocks from one generator, so the stream
    is the same as drawing them one at a time.  screen(block) returns a
    bool mask (k,), True where a row is unusable (for example a chart
    singularity).  Slots fill in draw order, each from the first usable
    candidate after the previous slot's; a slot gives up after max_tries
    consecutive rejected redraws, counted across blocks.
    """
    lo, hi = box
    if not (np.isfinite(hi - lo) and lo < hi):
        raise ValueError(f"invalid sampling box {box}")
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    if screen is None:
        return rng.uniform(lo, hi, size=(count, dim))
    points = np.empty((count, dim), dtype=np.float64)
    filled = misses = 0
    while filled < count:
        # one candidate per open slot: a block never outruns the slots
        block = rng.uniform(lo, hi, size=(count - filled, dim))
        kept = np.flatnonzero(~np.asarray(screen(block), dtype=bool))
        # rejected rows in front of each kept row and after the last one;
        # the last run carries into the next block
        runs = np.diff(kept, prepend=-1, append=len(block)) - 1
        runs[0] += misses
        if runs.max() > max_tries:
            raise RuntimeError(
                f"could not sample a regular point after {max_tries} redraws"
            )
        misses = runs[-1]
        points[filled : filled + len(kept)] = block[kept]
        filled += len(kept)
    return points


def worst_point(points: np.ndarray, residuals: Sequence[float]) -> np.ndarray:
    """Point attaining the largest residual; ties go to the earliest draw."""
    idx = int(np.argmax(np.asarray(residuals)))
    return np.asarray(points)[idx]


def max_per_point(values: np.ndarray) -> np.ndarray:
    """Largest |component| at each point of a batch evaluation."""
    return np.abs(values).max(axis=tuple(range(1, np.ndim(values))))


def sampled_check(points, per_point, tol: float, detail: dict | None = None) -> "SampledCheck":
    """Verdict on the largest per-point residual, with the point attaining
    it; points None marks residuals that name no point."""
    residual = float(np.max(per_point))
    worst = None if points is None else tuple(worst_point(points, per_point))
    return SampledCheck(residual <= tol, residual, tol, worst, detail or {})


@dataclass(frozen=True)
class SampledCheck:
    """Outcome of one check: the verdict, the largest residual against
    tol, the point attaining it, and the named residuals behind it."""

    passed: bool
    residual: float
    tol: float
    worst_point: tuple | None = None
    detail: dict = field(default_factory=dict)
