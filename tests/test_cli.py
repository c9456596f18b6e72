import json
from pathlib import Path

import pytest

from liftlab.cli import (
    CHECK_IDS,
    ScenarioError,
    load_scenario,
    main,
    run_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, name="s.json", **overrides):
    doc = {
        "name": "inline",
        "n": 2,
        "q": 1,
        "phi": {"1,2": "-1", "2,1": "1"},
        "xi": {"1": "x1", "2": "-x2"},
        "checks": ["purity", "tachibana_zero", "theorem1"],
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# shipped scenarios drive the whole pipeline


@pytest.mark.parametrize(
    "name,code",
    [
        ("theorem1_analytic.json", 0),
        ("analytic_pair_q2.json", 0),
        ("sphere_cross_section.json", 0),
        ("flat_affine_geodesic.json", 0),
        ("theorem1_necessity.json", 1),  # almost-analyticity fails by design
        ("flat_quadratic.json", 1),  # not totally geodesic by design
    ],
)
def test_shipped_scenarios_exit_codes(name, code, capsys):
    assert main(["run", str(SCENARIOS / name)]) == code
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_run_prints_one_line_per_check(capsys):
    main(["run", str(SCENARIOS / "theorem1_analytic.json")])
    out = capsys.readouterr().out.splitlines()
    body = [line for line in out if line.startswith(("PASS", "FAIL"))]
    report = run_scenario(str(SCENARIOS / "theorem1_analytic.json"))
    assert len(body) == len(report.results)
    assert all(line.startswith("PASS") for line in body)


def test_necessity_scenario_reports_failing_check():
    report = run_scenario(str(SCENARIOS / "theorem1_necessity.json"))
    by_id = {r.check: r for r in report.results}
    assert by_id["purity"].passed
    assert not by_id["tachibana_zero"].passed
    assert by_id["tachibana_zero"].residual > 1.0
    # the lift still squares to minus the identity: constant structure
    assert by_id["theorem1"].passed
    assert not report.passed


# ---------------------------------------------------------------------------
# report files and determinism


def test_json_report_deterministic(tmp_path, capsys):
    target = SCENARIOS / "theorem1_analytic.json"
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", str(target), "--json", str(out1)]) == 0
    assert main(["run", str(target), "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["passed"] is True
    assert doc["seed"] == 42
    assert {c["id"] for c in doc["checks"]} == set(
        json.loads(target.read_text())["checks"]
    )
    for c in doc["checks"]:
        assert c["status"] == "pass"
        assert c["residual"] <= c["tolerance"]


def test_json_report_shape(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["run", str(SCENARIOS / "sphere_cross_section.json"), "--json", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["box", "checks", "n", "passed", "points", "q", "scenario", "seed"]


# ---------------------------------------------------------------------------
# seed precedence


def test_seed_default_is_42(tmp_path, capsys):
    path = write_scenario(tmp_path)
    report = run_scenario(path)
    assert report.seed == 42


def test_scenario_seed_beats_default(tmp_path):
    path = write_scenario(tmp_path, seed=7)
    assert run_scenario(path).seed == 7


def test_env_seed_beats_scenario(tmp_path, monkeypatch):
    path = write_scenario(tmp_path, seed=7)
    monkeypatch.setenv("LIFTLAB_SEED", "11")
    assert run_scenario(path).seed == 11


def test_flag_seed_beats_env(tmp_path, monkeypatch):
    path = write_scenario(tmp_path, seed=7)
    monkeypatch.setenv("LIFTLAB_SEED", "11")
    assert run_scenario(path, seed=13).seed == 13


def test_bad_env_seed_is_an_error(tmp_path, monkeypatch):
    path = write_scenario(tmp_path)
    monkeypatch.setenv("LIFTLAB_SEED", "not-a-number")
    with pytest.raises(ScenarioError):
        run_scenario(path)


def test_points_override(tmp_path):
    path = write_scenario(tmp_path)
    assert run_scenario(path, count=8).count == 8


# ---------------------------------------------------------------------------
# scenario validation -> exit code 2


def test_missing_file_is_usage_error(capsys):
    assert main(["run", "no-such-file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"checks": ["no_such_check"]},
        {"n": 5},
        {"q": 0},
        {"q": 4},
        {"unknown_key": 1},
        {"xi": {"1": "x3", "2": "0"}},
        {"checks": ["gauss_consistency"]},  # needs gamma
        {"n": True},  # JSON true is not an integer
        {"points": True},
        {"box": [0.2, float("inf")]},  # written as Infinity
        {"q": True},
        {"seed": False},
        {"xi": {"1": True, "2": "0"}},
    ],
)
def test_scenario_validation_errors(tmp_path, overrides, capsys):
    path = write_scenario(tmp_path, **overrides)
    assert main(["run", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_asymmetric_gamma_rejected(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        gamma={"1,1,2": "x1"},
        checks=["gauss_consistency"],
    )
    # from_dict fills only (1,1,2); its mirror stays zero, so the declared
    # symmetry fails on the probe points
    assert main(["run", str(path)]) == 2
    assert "symmetric" in capsys.readouterr().err


@pytest.mark.parametrize(
    "check",
    [
        "characterization",
        "gauss_consistency",
        "totally_geodesic",
        "curvature_tangency",
        "induced_equals_base",
    ],
)
def test_overflowing_input_is_an_error_not_a_fail(check, tmp_path, capsys):
    # xi passes the sampler's screen, but its derivatives overflow
    path = write_scenario(
        tmp_path,
        q=2,
        xi={"1,1": "1e308*x1^2", "2,2": "x2"},
        gamma="flat",
        checks=[check],
    )
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_load_scenario_defaults(tmp_path):
    path = write_scenario(tmp_path)
    sc = load_scenario(path)
    assert sc.q == 1
    assert sc.seed is None and sc.count is None


# ---------------------------------------------------------------------------
# auxiliary commands


def test_presets_lists_names(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("standard_complex_r2", "sphere_chart", "flat"):
        assert name in out


@pytest.mark.parametrize("check", CHECK_IDS)
def test_explain_known_checks(check, capsys):
    assert main(["explain", check]) == 0
    assert capsys.readouterr().out.strip()


def test_explain_unknown_check(capsys):
    assert main(["explain", "bogus"]) == 2
    assert "unknown check" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# inline scenarios exercising the remaining checks


def test_inline_full_connection_scenario(tmp_path):
    path = write_scenario(
        tmp_path,
        q=2,
        xi="sphere_chart",
        gamma="sphere_chart",
        checks=[
            "lift_connection_zeros",
            "induced_equals_base",
            "gauss_consistency",
            "curvature_tangency",
        ],
    )
    report = run_scenario(path)
    assert report.passed


def test_inline_characterization(tmp_path):
    path = write_scenario(
        tmp_path,
        checks=["characterization", "nijenhuis_zero"],
        v={"1": "x2", "2": "1"},
        a={"1": "x1*x2", "2": "0"},
    )
    report = run_scenario(path)
    assert report.passed


def test_tolerance_override_fails_loose_check(tmp_path):
    # the necessity instance passes purity but not tachibana at any tol <= 1
    path = write_scenario(tmp_path, xi={"1": "x1^2", "2": "0"})
    report = run_scenario(path, tol=1e-3)
    by_id = {r.check: r for r in report.results}
    assert not by_id["tachibana_zero"].passed
    assert by_id["tachibana_zero"].tolerance == 1e-3
