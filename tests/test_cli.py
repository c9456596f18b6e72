import json
from pathlib import Path

import pytest

from _fields import generic_scenario
from liftlab import bundle, expr, sampling
from liftlab.cli import (
    CHECK_IDS,
    ScenarioError,
    _sample_scenario_points,
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
    by_id = dict(report.results)
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


@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_seed_is_a_usage_error(source, tmp_path, monkeypatch, capsys):
    # numpy's generators take no negative seed; the run stops before sampling
    path = write_scenario(tmp_path)
    flags = ["--seed", "-1"] if source == "flag" else []
    if source == "env":
        monkeypatch.setenv("LIFTLAB_SEED", "-3")
    assert main(["run", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: seed must be non-negative")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


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
        {"box": [-1e308, 1e308]},  # both ends finite, the width is not
        {"seed": -5},
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


@pytest.mark.parametrize("component", ["exp(1000)*x1", "10^400*x1"])
def test_constant_overflow_at_load_names_the_field(component, tmp_path, capsys):
    # the constant folds out of float range while the scenario loads: a
    # malformed scenario, not a check meeting a non-finite value
    path = write_scenario(tmp_path, xi={"1": component, "2": "0"})
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: xi: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("component", ["10^400*x1", "exp(1000)*x1", "1e999*x1", "1e308*10"])
def test_constant_out_of_float_range_is_a_bad_expression(component, tmp_path, capsys):
    # a ParseError with its position, not a sampling failure or a bare overflow
    path = write_scenario(tmp_path, xi={"1": component, "2": "0"})
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: xi: bad component expression: ")
    assert "out of float range (at position" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("number", ["1e999", "NaN", "Infinity"])
def test_non_finite_numeric_component_names_the_field(number, tmp_path, capsys):
    # Python's json reads all three as floats: inf, nan, inf
    path = tmp_path / "s.json"
    path.write_text(Path(write_scenario(tmp_path)).read_text().replace('"-x2"', number))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: xi: component '2' is not a finite number\n"


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "impure"])
def test_tachibana_zero_has_one_purity_gate(pure, tmp_path, monkeypatch):
    calls = []
    residual = bundle.purity_residual

    def counting(*args):
        calls.append(residual(*args))
        return calls[-1]

    monkeypatch.setattr(bundle, "purity_residual", counting)
    xi = {"1,1": "x1", "1,2": "-x2", "2,1": "-x2", "2,2": "-x1"}
    if not pure:
        xi["2,1"] = "0"
    path = write_scenario(tmp_path, q=2, xi=xi, checks=["tachibana_zero"])
    (result,) = run_scenario(path).to_dict()["checks"]
    assert len(calls) == 1
    if pure:
        assert calls == [0.0] and result["status"] == "pass" and result["detail"] == {}
    else:
        assert calls[0] > 1e-3
        assert result == {"id": "tachibana_zero", "status": "fail", "residual": calls[0],
                          "tolerance": 1e-9, "worst_point": None,
                          "detail": {"reason": "tensor is not pure"}}


@pytest.mark.parametrize("component", ["x١ + 1", "x1²", "x²"])
def test_variable_with_non_ascii_digits_is_malformed(component, tmp_path, capsys):
    path = write_scenario(tmp_path, xi={"1": component, "2": "0"})
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: xi: ") and "unknown identifier" in err


def _count_tapes(monkeypatch) -> list:
    """Record every Tape compile from here on, one entry each."""
    compiles = []
    init = expr.Tape.__init__

    def counting(self, exprs):
        compiles.append(self)
        init(self, exprs)

    monkeypatch.setattr(expr.Tape, "__init__", counting)
    return compiles


def test_each_input_field_compiles_one_tape(monkeypatch):
    compiles = _count_tapes(monkeypatch)
    report = run_scenario(str(SCENARIOS / "sphere_cross_section.json"))
    assert report.passed
    assert len(compiles) == 2  # gamma and xi; every check reads those two


def test_sample_screen_compiles_no_tape(monkeypatch):
    sc = load_scenario(str(SCENARIOS / "sphere_cross_section.json"))
    compiles = _count_tapes(monkeypatch)
    _sample_scenario_points(sc, 42, 64, sampling.DEFAULT_BOX)
    assert compiles == []


def test_lift_zeros_names_its_worst_point(tmp_path):
    # an all-zero residual still names a point, the earliest draw
    report = run_scenario(str(SCENARIOS / "flat_quadratic.json"))
    check = next(c for c in report.to_dict()["checks"] if c["id"] == "lift_connection_zeros")
    assert check["residual"] == 0.0
    assert check["worst_point"] is not None


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
    by_id = dict(report.results)
    assert not by_id["tachibana_zero"].passed
    assert by_id["tachibana_zero"].tol == 1e-3


# ---------------------------------------------------------------------------
# sampling: screened points, counts and tolerances


def test_always_singular_field_cannot_be_sampled(tmp_path, capsys):
    path = write_scenario(tmp_path, phi={"1,1": "1/(x1-x1)"}, checks=["nijenhuis_zero"])
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: could not sample") and len(err.splitlines()) == 1


def test_symmetry_probe_reads_screened_points(tmp_path, capsys):
    # gamma overflows for x1 > 1.014, inside the default box; the screen
    # keeps those draws out of the sample, and so out of the probe
    path = write_scenario(
        tmp_path,
        points=32,
        checks=["lift_connection_zeros"],
        gamma={"1,1,1": "exp(700*x1)*1e-300"},
    )
    assert main(["run", path]) == 0
    assert "PASS lift_connection_zeros" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [
        ["--points", "0"],
        ["--points", "-3"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--tol=-1e-9"],
    ],
)
def test_invalid_points_or_tol_is_a_usage_error(flags, capsys):
    assert main(["run", str(SCENARIOS / "theorem1_analytic.json"), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "checks passed" not in captured.out


def test_every_check_at_the_top_of_the_envelope(tmp_path):
    # n=4, q=3 at 64 points: constant J, a generic degree-2 xi and a
    # generic degree-1 symmetric connection.  By construction J is
    # integrable (nijenhuis), the connection identities hold (lift zeros,
    # induced, gauss), and theorem1 holds vacuously; a generic xi is
    # impure (purity, characterization) and not almost analytic, the
    # section is not totally geodesic and curvature is not tangent.
    path = write_scenario(
        tmp_path, points=64, checks=list(CHECK_IDS), **generic_scenario(43, 4, 3)
    )
    report = run_scenario(path, seed=5)
    verdicts = {check: r.passed for check, r in report.results}
    assert verdicts == {
        "purity": False,
        "tachibana_zero": False,
        "nijenhuis_zero": True,
        "theorem1": True,
        "characterization": False,
        "lift_connection_zeros": True,
        "induced_equals_base": True,
        "gauss_consistency": True,
        "totally_geodesic": False,
        "curvature_tangency": False,
    }


@pytest.mark.parametrize("check", CHECK_IDS)
def test_report_entry_of_every_check(check, tmp_path):
    # a generic (2,2) scenario with phi, xi and gamma; xi is impure
    path = write_scenario(tmp_path, checks=[check], **generic_scenario(11, 2, 2))
    (entry,) = run_scenario(path).to_dict()["checks"]
    assert entry["id"] == check
    assert entry["tolerance"] == (1e-12 if check == "lift_connection_zeros" else 1e-9)
    assert (entry["worst_point"] is None) == (check in ("purity", "tachibana_zero"))
    keys = {
        "theorem1": {"square_residual", "purity_residual", "tachibana_residual",
                     "nijenhuis_residual", "lift_square_residual", "hypotheses_hold"},
        "characterization": {"complete_residual", "vertical_residual"},
        "tachibana_zero": {"reason"},
    }
    assert set(entry["detail"]) == keys.get(check, set())
