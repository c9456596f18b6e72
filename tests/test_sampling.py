import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liftlab import bundle, sampling
from liftlab.cli import _sample_scenario_points, load_scenario, main
from liftlab.expr import SingularPointError, Tape
from liftlab.presets import standard_complex_r2
from liftlab.sampling import SampledCheck, sampled_check
from liftlab.tensor import CovariantField


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
# the first block of four keeps two rows and ends on two misses; the
# second block, two rows, is kept whole after them
@example(dim=2, seed=1, count=4, max_tries=2, runs=[0, 0, 2, 0])
# one slot, and nothing rejected
@example(dim=3, seed=1, count=1, max_tries=0, runs=[])
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


@pytest.mark.parametrize(
    "box", [(0.2, float("inf")), (float("nan"), 1.0), (1.5, 0.2), (-1e308, 1e308)]
)
def test_invalid_box_is_rejected(box):
    # the last has finite ends, but its width overflows a float
    with pytest.raises(ValueError, match="invalid sampling box"):
        sampling.sample_points(2, box=box)


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

    tape = Tape([(str(c), 2) for f in (sc.phi, sc.xi) for c in f.comps])
    want = reference_sample(
        2, 42, 64, sampling.DEFAULT_BOX, lambda p: not np.isfinite(tape(p)).all(), 10
    )
    assert points.tobytes() == want.tobytes()
    assert points[:, 0].max() < 1.02
    # without the screen the same seed lands in the overflow region
    assert sampling.sample_points(2, seed=42, count=64)[:, 0].max() > 1.02
    assert main(["run", str(path)]) == 0


# ---------------------------------------------------------------------------
# sampled_check: the one place a residual becomes a verdict

PTS = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])


def test_sampled_check_reduces_every_component_axis_of_signed_values():
    values = np.zeros((3, 2, 2))
    values[1, 0, 1] = -0.5
    values[2, 1, 1] = 0.25
    assert sampled_check(PTS, values, 0.5) == SampledCheck(True, 0.5, 0.5, (2.0, 3.0), {})
    # a points-fastest array gives the same verdict
    assert sampled_check(PTS, np.asfortranarray(values), 0.5) == sampled_check(PTS, values, 0.5)


def test_sampled_check_combines_a_list_per_point_by_max():
    # per point: 3, 0, 2 from the first array and 0, -4, 2.5 from the
    # second, whose component shape differs
    first = np.array([[1.0, -3.0], [0.0, 0.0], [2.0, 0.0]])
    second = np.zeros((3, 4, 1, 2))
    second[1, 3, 0, 1] = -4.0
    second[2, 0, 0, 0] = 2.5
    check = sampled_check(PTS, [first, second], 3.5, {"k": 1})
    assert check == SampledCheck(False, 4.0, 3.5, (2.0, 3.0), {"k": 1})
    assert sampled_check(PTS, [first, second[:, :2]], 3.0).worst_point == (0.0, 1.0)


def test_sampled_check_takes_bare_per_point_values():
    # values with no component axes are the residuals at the points
    assert sampled_check(PTS, np.zeros(3), 0.0) == SampledCheck(True, 0.0, 0.0, (0.0, 1.0), {})
    check = sampled_check(PTS, [np.array([0.5, -2.0, 1.0]), np.ones((3, 1, 2, 1))], 1.0)
    assert check == SampledCheck(False, 2.0, 1.0, (2.0, 3.0), {})
    # one point, as a batch of one
    assert sampled_check(PTS[2:], np.full((1, 2), -1.5), 1.5) == SampledCheck(
        True, 1.5, 1.5, (4.0, 5.0), {})


def test_sampled_check_always_names_a_point():
    with pytest.raises(IndexError):
        sampled_check(None, np.zeros((3, 2)), 1.0)
    with pytest.raises(TypeError):
        SampledCheck(True, 0.0, 1.0)  # a check without its worst point


def test_sampled_check_passes_a_residual_equal_to_tol():
    tol = 1e-9
    check = sampled_check(PTS, np.full((3, 2), -tol), tol)
    assert check.passed and check.residual == tol
    assert not sampled_check(PTS, np.full((3, 2), np.nextafter(tol, 1.0)), tol).passed


@pytest.mark.parametrize("where", ["first", "second", "bare"])
def test_sampled_check_fails_on_nan_anywhere(where):
    # a non-finite residual gives no verdict, not even under tol = inf:
    # it raises at the point of the first NaN
    first, second = np.zeros((3, 2)), np.zeros((3, 2, 2))
    if where == "bare":
        first = np.array([0.0, np.inf, np.nan])
    else:
        (first if where == "first" else second)[2, 1] = np.nan
    with pytest.raises(SingularPointError) as err:
        sampled_check(PTS, [first, second], np.inf)
    assert str(err.value) == ("residual evaluated nan at point (4.0, 5.0); "
                              "the inputs overflow or the point is singular")
    assert err.value.subtree is None


def test_sampled_check_ties_name_the_earliest_point():
    assert sampled_check(PTS, np.zeros((3, 2)), 0.0).worst_point == (0.0, 1.0)
    values = np.array([[0.5], [-1.0], [1.0]])
    assert sampled_check(PTS, values, 1.0).worst_point == (2.0, 3.0)


@pytest.mark.parametrize(
    "residual", [0.0, 1e-9, np.nextafter(1e-9, 1.0), 1.0, np.inf, np.nan],
    ids=["zero", "at_tol", "past_tol", "one", "inf", "nan"],
)
def test_tachibana_gate_raises_where_the_purity_verdict_fails(residual, monkeypatch):
    # the purity residual, [point, slot, slot, *shape], peaks at the last point
    values = np.zeros((3, 2, 2, 2, 2))
    values[2, 0, 1, 1, 0] = residual
    monkeypatch.setattr(bundle, "purity_residual", lambda *args: values)
    phi, xi = standard_complex_r2(), CovariantField(2, 2, {(1, 1): "x1"})
    if not np.isfinite(residual):
        # no verdict and no NotPureError: both stop at the worst point
        for gate in (bundle.is_almost_analytic, bundle.tachibana):
            with pytest.raises(SingularPointError, match=r"at point \(4\.0, 5\.0\)"):
                gate(phi, xi, PTS, 1e-9)
        return
    verdict = bundle.is_almost_analytic(phi, xi, PTS, 1e-9)
    impure = verdict.detail == {"reason": "tensor is not pure"}
    if impure:
        assert verdict.worst_point == (4.0, 5.0)
    try:
        bundle.tachibana(phi, xi, PTS, 1e-9)
    except bundle.NotPureError as exc:
        raised = True
        assert exc.residual == verdict.residual
    else:
        raised = False
    assert raised == impure == (not residual <= 1e-9)
