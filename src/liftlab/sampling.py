"""Seeded sample-point protocol used by every sampled-equality check.

Checks in this package compare fields by evaluating both sides on a
deterministic batch of points drawn from a box that stays away from the
coordinate singularities of the built-in charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .expr import SingularPointError

DEFAULT_SEED = 42
DEFAULT_COUNT = 64
DEFAULT_BOX = (0.2, 1.5)

# The tolerance of every check unless the caller gives another.
DEFAULT_TOL = 1e-9
# The tolerance of what must hold to rounding: lift zeros, Gamma's symmetry.
STRUCTURAL_TOL = 1e-12


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
    consecutive rejected redraws, counted across blocks.  A block the
    screen keeps whole fills the open slots as drawn, with no count of
    rejected runs, and ends the draw.
    """
    lo, hi = box
    if not (np.isfinite(hi - lo) and lo < hi):
        raise ValueError(f"invalid sampling box {box}")
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    if screen is None:
        return rng.uniform(lo, hi, size=(count, dim))
    taken, filled, misses = [], 0, 0
    while filled < count:
        # one candidate per open slot: a block never outruns the slots
        block = rng.uniform(lo, hi, size=(count - filled, dim))
        rejected = np.asarray(screen(block), dtype=bool)
        if rejected.any():
            kept = np.flatnonzero(~rejected)
            # rejected rows in front of each kept row and after the last one;
            # the last run carries into the next block
            runs = np.diff(kept, prepend=-1, append=len(block)) - 1
            runs[0] += misses
            if runs.max() > max_tries:
                raise RuntimeError(
                    f"could not sample a regular point after {max_tries} redraws"
                )
            misses = runs[-1]
            block = block[kept]
        taken.append(block)  # a block kept whole fills every open slot as drawn
        filled += len(block)
    return np.concatenate(taken)


def sampled_check(points, residuals, tol: float, detail: dict | None = None) -> "SampledCheck":
    """The one place a residual becomes a verdict.

    residuals are signed values: one array, or a list of arrays, each
    with the point axis of points first.  The largest |value| over the
    component axes (an axis tuple, so a points-fastest array is not
    copied) is the residual at a point, a list combines per point by max,
    and the check passes when the largest is <= tol; one that is not
    finite raises SingularPointError.  The worst point attains it, ties
    going to the earliest draw."""
    parts = [np.maximum.reduce(np.abs(r), axis=tuple(range(1, np.ndim(r))))
             for r in (residuals if isinstance(residuals, list) else [residuals])]
    per_point = parts[0]
    for part in parts[1:]:  # pairwise: no stacked copy, and a NaN still wins
        per_point = np.maximum(per_point, part)
    worst = int(np.argmax(per_point))  # a NaN is its own argmax
    residual = float(per_point[worst])
    point = tuple(np.asarray(points)[worst])
    if not math.isfinite(residual):
        at = tuple(map(float, point))
        raise SingularPointError(f"residual evaluated {residual} at point {at}; "
                                 "the inputs overflow or the point is singular")
    return SampledCheck(residual <= tol, residual, tol, point, detail or {})


@dataclass(frozen=True)
class SampledCheck:
    """Outcome of one check: the verdict, the largest residual against
    tol, the sample point attaining it, and the named residuals behind it."""

    passed: bool
    residual: float
    tol: float
    worst_point: tuple
    detail: dict = field(default_factory=dict)
