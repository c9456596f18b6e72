import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liftlab import sampling
from liftlab.cli import _sample_scenario_points, load_scenario, main
from liftlab.expr import Tape


def reference_sample(dim, seed, count, box, reject, max_tries):
    """The sampler one candidate at a time: slot by slot, up to max_tries
    redraws each, reject(point) -> True marking a candidate unusable."""
    lo, hi = box
    rng = np.random.default_rng(seed)
    points = np.empty((count, dim))
    for i in range(count):
        for _ in range(max_tries + 1):
            p = rng.uniform(lo, hi, size=dim)
            if not reject(p):
                points[i] = p
                break
        else:
            raise RuntimeError(f"could not sample a regular point after {max_tries} redraws")
    return points


class ByDrawIndex:
    """Rejects the candidates whose index in the draw stream is listed,
    whether they arrive one at a time or in blocks."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.drawn = 0
        self.calls = 0

    def _take(self, k):
        window = self.pattern[self.drawn : self.drawn + k]
        self.drawn += k
        self.calls += 1
        return np.array(window + [False] * (k - len(window)), dtype=bool)

    def one(self, p):
        return bool(self._take(1)[0])

    def block(self, rows):
        return self._take(len(rows))


def runs_pattern(runs):
    """Each run of rejections is followed by one accepted candidate."""
    return [bool(x) for r in runs for x in [1] * r + [0]]


def _both(dim, seed, count, max_tries, pattern, box=(0.2, 1.5)):
    try:
        want = reference_sample(dim, seed, count, box, ByDrawIndex(pattern).one, max_tries)
    except RuntimeError:
        want = None
    screen = ByDrawIndex(pattern)
    if want is None:
        with pytest.raises(RuntimeError, match="could not sample"):
            sampling.sample_points(
                dim, seed=seed, count=count, box=box, screen=screen.block, max_tries=max_tries
            )
        return None, screen
    got = sampling.sample_points(
        dim, seed=seed, count=count, box=box, screen=screen.block, max_tries=max_tries
    )
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got, screen


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**31),
    count=st.integers(1, 12),
    max_tries=st.integers(0, 4),
    runs=st.lists(st.integers(0, 6), max_size=20),
)
# exactly max_tries rejections in a row: the slot still fills
@example(dim=2, seed=1, count=3, max_tries=3, runs=[3])
# one more: the sampler gives up
@example(dim=2, seed=1, count=3, max_tries=3, runs=[4])
# two slots fill from the first block of three; the third slot's four
# misses spread over four blocks, one row each after the first
@example(dim=2, seed=1, count=3, max_tries=4, runs=[0, 0, 4])
@example(dim=2, seed=1, count=3, max_tries=3, runs=[0, 0, 4])
def test_block_sampler_matches_per_candidate_loop(dim, seed, count, max_tries, runs):
    _both(dim, seed, count, max_tries, runs_pattern(runs))


def test_misses_carry_across_blocks():
    # block 1 (3 rows): hit, hit, miss; block 2 (1 row): miss; block 3: miss;
    # so the third slot sees three misses in a row spread over three blocks
    pattern = [False, False, True, True, True]
    got, screen = _both(2, 5, 3, 3, pattern)
    assert got is not None and screen.calls == 4
    _both(2, 5, 3, 2, pattern)  # the same run one try over the limit raises


def test_screen_sees_one_block_when_nothing_is_rejected():
    screen = ByDrawIndex([])
    points = sampling.sample_points(3, seed=9, count=20, screen=screen.block)
    assert screen.calls == 1 and screen.drawn == 20
    assert points.tobytes() == sampling.sample_points(3, seed=9, count=20).tobytes()


def test_unscreened_sampler_matches_per_candidate_loop():
    for dim in (1, 2, 3, 4):
        want = reference_sample(dim, 11, 40, (-1.0, 2.0), lambda p: False, 10)
        got = sampling.sample_points(dim, seed=11, count=40, box=(-1.0, 2.0))
        assert got.tobytes() == want.tobytes()


def test_screen_by_value_matches_per_candidate_loop():
    # a region screen, the way the CLI uses it: reject a corner of the box
    def bad(p):
        return (p[..., 0] > 1.0) & (p[..., 1] < 0.8)

    want = reference_sample(2, 3, 64, (0.2, 1.5), bad, 10)
    got = sampling.sample_points(2, seed=3, count=64, screen=bad)
    assert got.tobytes() == want.tobytes()
    assert not bad(got).any()


@pytest.mark.parametrize("count", [0, -3])
def test_sample_count_below_one_is_rejected(count):
    with pytest.raises(ValueError, match="at least 1"):
        sampling.sample_points(2, count=count)


def test_cli_screen_matches_per_candidate_loop(tmp_path):
    # xi overflows where 700*x1 > log(float max), x1 > 1.014: part of the
    # default box, so the screen rejects some draws
    doc = {
        "n": 2,
        "checks": ["purity"],
        "phi": {"1,2": "-1", "2,1": "1"},
        "xi": {"1": "exp(700*x1)*1e-300", "2": "x2"},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(str(path))
    points = _sample_scenario_points(sc, 42, 64, sampling.DEFAULT_BOX)

    tape = Tape([c for f in (sc.phi, sc.xi) for c in f.comps])
    want = reference_sample(
        2, 42, 64, sampling.DEFAULT_BOX, lambda p: not np.isfinite(tape(p)).all(), 10
    )
    assert points.tobytes() == want.tobytes()
    assert points[:, 0].max() < 1.02
    # without the screen the same seed lands in the overflow region
    assert sampling.sample_points(2, seed=42, count=64)[:, 0].max() > 1.02
    assert main(["run", str(path)]) == 0
