"""Smoke test of the benchmark at a small size.

    python3 -m pytest perfbench -q

Every workload, untraced and traced, must emit exactly the metrics that
BENCHMARK.json names, with their units, and grade its outputs correct.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

import liftlab.cli  # noqa: E402
import liftlab.connection_lift  # noqa: E402
import liftlab.tensor  # noqa: E402

with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(name, trace):
    result = run.run(name, seed=3, seconds=0.01, trace=bool(trace), small=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_inputs_repeat_for_a_seed(tmp_path):
    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        inputs = workloads.Inputs(workloads.WORKLOADS["dense_points"], 7, str(tmp_path / sub))
        cases = inputs.next_round() + inputs.next_round()
        texts.append([(c.seed, open(c.path).read()) for c in cases])
    assert texts[0] == texts[1]


def test_shipped_expects_documented_exit_codes(tmp_path):
    cases = workloads.Inputs(workloads.WORKLOADS["shipped"], 1, str(tmp_path)).next_round()
    assert [0 if all(c.expected.values()) else 1 for c in cases] == [0, 0, 1, 0, 0, 1]


def test_tracer_restores_every_namespace():
    before = (liftlab.cli.run_scenario, liftlab.cli.curvature, liftlab.connection_lift.curvature,
              liftlab.cli.Report.to_json)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert liftlab.cli.curvature is liftlab.connection_lift.curvature
        assert liftlab.cli.curvature is not before[1]
    finally:
        tracer.uninstall()
    after = (liftlab.cli.run_scenario, liftlab.cli.curvature, liftlab.connection_lift.curvature,
             liftlab.cli.Report.to_json)
    assert after == before


def test_expression_counts_share_subtrees():
    field = liftlab.tensor.CovariantField(1, 1, ["(x1 + 1)*(x1 + 1)"])
    # Mul(Add(x1, 1), Add(x1, 1)): two separate Add trees with equal shape
    assert spans.expression_counts([field]) == (7, 7, 4)


def test_raising_or_wrong_cases_are_counted_and_the_run_goes_on(tmp_path):
    good = workloads.Inputs(workloads.WORKLOADS["shipped"], 1, str(tmp_path)).next_round()[0]
    missing = workloads.Case(str(tmp_path / "missing.json"), 1, good.expected)
    flipped = workloads.Case(good.path, good.seed, {k: not v for k, v in good.expected.items()})

    class OneRound:
        def next_round(self):
            return [missing, flipped, good]

    grader = run.Grader()
    rounds = run.run_rounds(liftlab.cli, OneRound(), grader, rounds=1)
    assert len(rounds[0]) == 2
    assert (grader.cases, grader.errors, grader.bad_cases) == (3, 1, 1)
    assert grader.mismatches == len(good.expected)
    assert not grader.ok(liftlab.cli.DEFAULT_TOL)
