import collections
import contextlib
import gc
import hashlib
import io
import json
import math
import re
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _fields import flipped_curvature, generic_scenario
from liftlab import bundle, cli, connection_lift, expr, sampling, tensor
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


# names with quotes, backslashes, control and non-ASCII characters
_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\xe9 \U0001f600'), st.characters()),
                max_size=6)
_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]))
_CHECKS = st.builds(
    sampling.SampledCheck, st.booleans(), _FLOATS, _FLOATS,
    st.lists(_FLOATS, min_size=1, max_size=4).map(tuple),
    st.dictionaries(_TEXT, st.one_of(_TEXT, st.booleans(), st.integers(), _FLOATS, st.none()),
                    max_size=3))


@settings(deadline=None)
@given(name=_TEXT, n=st.integers(1, 4), q=st.integers(1, 3), seed=st.integers(0, 2**64),
       count=st.integers(1, 10**6), box=st.tuples(_FLOATS, _FLOATS),
       results=st.lists(st.tuples(_TEXT, _CHECKS), min_size=1, max_size=10))
@example(name="", n=2, q=1, seed=0, count=1, box=(0.2, 1.5),
         results=[("purity", sampling.SampledCheck(True, 0.0, 1e-9, (0.5,), {}))])
def test_the_report_is_json_dumps_sorted_indent_2_byte_for_byte(name, n, q, seed, count, box,
                                                                results):
    report = cli.Report(name, n, q, seed, count, box, results)
    assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


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


@pytest.mark.parametrize("checks", [["gauss_consistency", "gauss_consistency"],
                                    ["lift_connection_zeros", "gauss_consistency",
                                     "lift_connection_zeros"]])
def test_a_check_listed_twice_is_a_usage_error(checks, tmp_path, capsys):
    # reported twice, it would give two entries of one id in the JSON report
    doc = {"n": 2, "q": 2, "gamma": "flat", "xi": {"1,2": "x1*x2"}, "checks": checks}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: duplicate check {checks[0]!r}\n" and captured.out == ""


@pytest.mark.parametrize("env", ["٧", "1_0", "+7", "7.0", "", "--7"])
def test_env_seed_takes_ascii_digits_only(env, tmp_path, monkeypatch, capsys):
    # int() alone would read "٧" (Arabic-Indic seven) as 7 and "1_0" as 10
    monkeypatch.setenv("LIFTLAB_SEED", env)
    assert main(["run", write_scenario(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: LIFTLAB_SEED must be an integer, got {env!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--seed", "--points"])
@pytest.mark.parametrize("value", ["٧", "1_0"])
def test_flags_take_ascii_digits_only(flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", write_scenario(tmp_path), flag, value])
    assert exit_.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["١", "1_0", "１e-9"])
def test_tol_takes_ascii_text_only(value, capsys):
    # float() alone reads these as 1.0, 10.0 and 1e-9; at tol 10 the
    # negative control would pass
    with pytest.raises(SystemExit) as exit_:
        main(["run", str(SCENARIOS / "theorem1_necessity.json"), "--tol", value])
    assert exit_.value.code == 2
    assert "argument --tol: invalid" in capsys.readouterr().err


def test_tol_in_ascii_text_is_read(capsys):
    assert main(["run", str(SCENARIOS / "theorem1_necessity.json"), "--tol", "1e-9"]) == 1
    assert "tol=1.0e-09" in capsys.readouterr().out


@pytest.mark.parametrize("env", [" 11 ", "011"])
def test_env_seed_in_ascii_digits_is_read(env, tmp_path, monkeypatch):
    monkeypatch.setenv("LIFTLAB_SEED", env)
    assert run_scenario(write_scenario(tmp_path)).seed == 11


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


# json.load raises ValueError subclasses other than JSONDecodeError for
# these two: the integer-digit limit of int(), and UnicodeDecodeError
@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace('"points": 1', '"points": 1' + "0" * 5000).encode("utf-8"),
        lambda text: text.replace('"inline"', '"caf\xe9"').encode("latin-1"),
    ],
    ids=["integer-past-digit-limit", "not-utf8"],
)
def test_malformed_file_is_a_usage_error(edit, tmp_path, capsys):
    path = write_scenario(tmp_path, points=1)
    with open(path, encoding="utf-8") as fh:
        raw = edit(fh.read())
    with open(path, "wb") as fh:
        fh.write(raw)
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: scenario is not valid JSON: ")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


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


@pytest.mark.parametrize("box", [[0, 10**400], [-(10**400), 0]], ids=["hi", "lo"])
def test_box_end_beyond_float_range_is_a_usage_error(box, tmp_path, capsys):
    # JSON keeps the 401-digit integer exact; float() of it overflows
    path = write_scenario(tmp_path, box=box)
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: box ends must be within float range\n"
    assert captured.out == ""


# numpy refuses both counts before it allocates anything: 10**15 points
# need 16 PiB, and 10**400 exceeds its largest array dimension.  A count
# that could really be allocated is never tried here.
@pytest.mark.parametrize("count", [10**15, 10**400], ids=["1e15", "1e400"])
@pytest.mark.parametrize("source", ["scenario", "flag"])
def test_point_count_too_large_to_hold_is_a_usage_error(source, count, tmp_path, capsys):
    path = write_scenario(tmp_path, **({"points": count} if source == "scenario" else {}))
    flags = ["--points", str(count)] if source == "flag" else []
    assert main(["run", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: points: cannot hold that many sample points")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_asymmetric_gamma_rejected(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        gamma={"1,1,2": "x1"},
        checks=["gauss_consistency"],
    )
    # only (1,1,2) is set and its mirror stays zero, so the symmetry that
    # the connection functions measure fails on the screened points
    assert main(["run", str(path)]) == 2
    assert "must be symmetric" in capsys.readouterr().err


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
    report = run_scenario(path)
    (result,) = report.to_dict()["checks"]
    assert len(calls) == 1
    impurity = np.abs(calls[0]).reshape(len(calls[0]), -1).max(axis=1)
    if pure:
        assert not impurity.any() and result["status"] == "pass" and result["detail"] == {}
    else:
        points = _sample_scenario_points(load_scenario(path), report.seed, report.count,
                                         report.box)
        worst = int(np.argmax(impurity))
        assert impurity[worst] > 1e-3
        assert result == {"id": "tachibana_zero", "status": "fail", "residual": impurity[worst],
                          "tolerance": 1e-9, "worst_point": list(points[worst]),
                          "detail": {"reason": "tensor is not pure"}}


def test_checks_of_a_case_share_one_symmetry_reduction(monkeypatch):
    # run_scenario's gate looks at the points; the lift, H and the tangency
    # check find them passed
    reductions = []
    check = sampling.sampled_check

    def counting(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "require_symmetric":
            reductions.append(args[1].shape)
        return check(*args, **kwargs)

    monkeypatch.setattr(sampling, "sampled_check", counting)
    report = run_scenario(str(SCENARIOS / "sphere_cross_section.json"))
    assert report.passed and len(report.results) == 4
    assert reductions == [(64, 2, 2, 2)]


def test_checks_of_a_case_share_one_tachibana_field(monkeypatch):
    built = []
    tachibana_field = bundle._tachibana_field
    monkeypatch.setattr(bundle, "_tachibana_field",
                        lambda *ops: built.append(tachibana_field(*ops)) or built[-1])
    report = run_scenario(str(SCENARIOS / "theorem1_analytic.json"))
    assert report.passed and len(built) > 1
    assert all(f is built[0] for f in built)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_purity_and_theorem1_contract_phi_into_the_first_slot_once(q, tmp_path, monkeypatch):
    # the purity defect contracts phi's values into xi's first slot, and the
    # Tachibana image takes only that contraction's partials, by the
    # product rule from phi's and xi's jets: the einsum runs once
    specs = collections.Counter()
    einsum = tensor.einsum
    monkeypatch.setattr(tensor, "einsum",
                        lambda spec, *ops, **kw: specs.update([spec]) or einsum(spec, *ops, **kw))
    doc = generic_scenario(5, 2, q)
    path = write_scenario(tmp_path, q=q, phi=doc["phi"], xi=doc["xi"], checks=["purity", "theorem1"])
    run_scenario(path)
    first_slot = {1: "...mA,...m->...A", 2: "...mA,...mB->...AB", 3: "...mA,...mBC->...ABC"}
    assert specs[first_slot[q]] == 1


def _case_tables(monkeypatch) -> list:
    """The case table of each run from here on, copied as the case ends."""
    tables = []

    @contextlib.contextmanager
    def inspected():
        with tensor.one_case():
            yield
            tables.append(dict(tensor._CASE.get()))

    monkeypatch.setattr(cli, "one_case", inspected)
    return tables


def test_a_case_keeps_its_points_by_identity(monkeypatch):
    # the case's points are its own read-only copy: every input field has
    # its jets entry at that array, and the symmetry gate keys by it
    cases = []
    sample = cli._sample_scenario_points
    monkeypatch.setattr(cli, "_sample_scenario_points",
                        lambda sc, *args: cases.append((sc, sample(sc, *args))) or cases[-1][1])
    tables = _case_tables(monkeypatch)
    for name in ("theorem1_analytic.json", "sphere_cross_section.json"):
        assert run_scenario(str(SCENARIOS / name)).passed
    for (sc, points), table in zip(cases, tables):
        fields = [f for f in (sc.phi, sc.xi, sc.v, sc.a, sc.gamma) if f is not None]
        assert len(fields) == 2 and not points.flags.writeable
        assert table[tensor.enter] is points and all(f in table for f in fields)
    gate = connection_lift.require_symmetric.__wrapped__
    gates = [[entry[1] for key, entry in table.items()
              if isinstance(key, tuple) and key[0] is gate]
             for table in tables]
    assert gates[0] == [] and len(gates[1]) == 1
    assert gates[1][0][0] is cases[1][0].gamma and gates[1][0][1] is cases[1][1]


def test_a_case_leaves_no_reference_cycle(monkeypatch):
    # the derived fields of a run, and the jets they keep, go when it
    # returns by reference counting alone, with the cyclic collector off
    rules = []
    for module, name in [(bundle, "nijenhuis"), (bundle, "_tachibana_field"),
                         (connection_lift, "gauss_second_fundamental"),
                         (connection_lift, "curvature"), (cli, "curvature")]:
        def capturing(*ops, build=getattr(module, name)):
            field = build(*ops)
            rules.append(weakref.ref(field._rule))  # a field alone holds its rule
            return field

        monkeypatch.setattr(module, name, capturing)
    gc.disable()
    try:
        for name in ("theorem1_analytic.json", "sphere_cross_section.json"):
            assert run_scenario(str(SCENARIOS / name)).passed
        assert rules and not [r for r in rules if r() is not None]
    finally:
        gc.enable()


@pytest.mark.parametrize("key", ["١", "0_1", "1_", "+1", "1.0", "²", "2, ١"])
def test_index_key_takes_ascii_digits_only(key, tmp_path, capsys):
    # int() alone would read "١" (Arabic-Indic one) and "0_1" as index 1
    path = write_scenario(tmp_path, phi={key if "," in key else "1,2": "-1", "2,1": "1"},
                          xi={key if "," not in key else "1": "x1"})
    assert main(["run", path]) == 2
    what = "phi" if "," in key else "xi"
    assert capsys.readouterr().err == f"error: {what}: non-integer index in key {key!r}\n"


@pytest.mark.parametrize("key,index", [("-1", -1), ("0", 0), ("3", 3)])
def test_index_key_outside_the_chart_is_named(key, index, tmp_path, capsys):
    path = write_scenario(tmp_path, xi={key: "x1"})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: xi: index {index} in key {key!r} outside 1..2\n"


def test_overflow_reaches_stderr_as_one_error_line(tmp_path, capsys):
    # the lift's fibre block and a sum of jets overflow, and the run stops
    # at the first check whose residual is not finite; numpy must not warn
    # about any of them
    path = write_scenario(
        tmp_path,
        q=2,
        gamma="sphere_chart",
        xi={"1,1": "1e308*x1*x2", "2,2": "x1"},
        checks=["lift_connection_zeros", "induced_equals_base", "gauss_consistency",
                "curvature_tangency"],
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", path]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    # the line names the check that stopped the run
    assert captured.err.startswith("error: induced_equals_base: residual evaluated nan at point (")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_singular_point_in_a_check_is_named_and_keeps_its_subtree(tmp_path):
    # the values pass the screen, the partials that tachibana_zero takes overflow
    path = write_scenario(tmp_path, xi={"1": "1e308*x1^2", "2": "x2"},
                          checks=["purity", "tachibana_zero"])
    with pytest.raises(expr.SingularPointError,
                       match=r"^tachibana_zero: tensor field partials evaluated non-finite") as err:
        run_scenario(path)
    assert str(err.value.subtree) == "1e+308*x1^2"


OVERFLOWING_XI = {"1,1":"1e308*x1*x2", "1,2": "1e308*x1", "2,1": "1e308", "2,2": "1e308*x2"}


@pytest.mark.parametrize(
    "fields,checks,residual",
    [
        ({"gamma": "sphere_chart", "xi": {"1,1": "1e308*x1*x2", "2,2": "x1"}},
         ["induced_equals_base"], "nan"),
        ({"gamma": "sphere_chart", "xi": {"1,1": "1e308*x1*x2", "2,2": "x1"}},
         ["curvature_tangency"], "nan"),
        ({"phi": "standard_complex_r2", "xi": OVERFLOWING_XI}, ["purity", "tachibana_zero"],
         "inf"),
    ],
    ids=["induced_equals_base", "curvature_tangency", "purity"],
)
def test_overflowing_residual_is_an_error_not_a_fail(fields, checks, residual, tmp_path, capsys):
    # every field value is finite at the sample points, but the residual
    # overflows: no verdict and no report with a NaN or an Infinity in it
    path = write_scenario(tmp_path, q=2, checks=checks, **fields)
    report = tmp_path / "report.json"
    assert main(["run", path, "--json", str(report)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {checks[0]}: residual evaluated {residual} at point (")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not report.exists()


def test_theorem1_names_the_residual_that_went_non_finite(tmp_path, capsys):
    # the Tachibana image among theorem1's hypotheses overflows: the line
    # names the check, then the residual
    path = write_scenario(tmp_path, q=2, phi="standard_complex_r2", xi=OVERFLOWING_XI,
                          checks=["theorem1"])
    assert main(["run", path]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: theorem1: tachibana_residual: tensor field values "
                                   "evaluated non-finite at component (1, 2, 2), point (")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_characterization_names_the_array_that_went_non_finite(tmp_path, capsys):
    # the Tachibana image inside the lift of phi overflows: the line names
    # the check, then the lift
    path = write_scenario(tmp_path, q=2, phi="standard_complex_r2", xi=OVERFLOWING_XI,
                          checks=["characterization"])
    assert main(["run", path]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: characterization: lift: tensor field values "
                                   "evaluated non-finite at component (1, 2, 2), point (")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


@pytest.mark.parametrize("check,line", [("theorem1", "theorem1: tachibana_residual"),
                                        ("characterization", "characterization: lift")])
def test_the_line_names_the_derived_field_that_went_non_finite(check, line, tmp_path, capsys):
    # the Tachibana image overflows: the line names it after the point
    path = write_scenario(tmp_path, q=2, phi="standard_complex_r2", xi=OVERFLOWING_XI,
                          checks=[check])
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {line}: tensor field values evaluated non-finite at component "
                        r"\(1, 2, 2\), point \([^)]*\), in tachibana_field; the point is singular\n",
                        err)


@pytest.mark.parametrize("probe,residual", [("v", "complete_residual"),
                                            ("a", "vertical_residual")])
def test_characterization_names_the_residual_that_went_non_finite(probe, residual,
                                                                  tmp_path, capsys):
    # a probe with two large components enters one residual only, and
    # the fields derived from it there overflow
    path = write_scenario(tmp_path, phi={"1,1": "1", "1,2": "1", "2,1": "1", "2,2": "1"},
                          checks=["characterization"],
                          **{probe: {"1": "1e308*x1", "2": "1e308*x1"}})
    assert main(["run", path]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: characterization: {residual}: tensor field values evaluated non-finite at "
        "component (1,), point (")


@pytest.mark.parametrize("given,line", [
    ({}, "complete_residual: probe vector field"),
    ({"v": {"1": "1", "2": "1"}}, "vertical_residual: probe tensor field"),
])
def test_characterization_names_the_drawn_probe_that_went_non_finite(given, line,
                                                                     tmp_path, capsys):
    # x1*x1 overflows in every drawn probe component on this box; the
    # line says the field is the probe, with no subtree, as one line
    path = write_scenario(tmp_path, phi="standard_complex_r2", xi={"1": "1", "2": "1"},
                          checks=["characterization"], box=[1e160, 2e160], points=4, **given)
    assert main(["run", path]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: characterization: {line} values evaluated non-finite at component (1,), "
        "point (1.7739560485559633e+160, 1.4388784397520524e+160); the point is singular\n")
    assert captured.out == ""


def test_theorem1_residual_name_keeps_the_error_and_its_subtree(tmp_path):
    # the values pass the screen, the partials the Tachibana image takes overflow
    path = write_scenario(tmp_path, xi={"1": "1e308*x1^2", "2": "x2"}, checks=["theorem1"])
    with pytest.raises(expr.SingularPointError, match=r"^theorem1: tachibana_residual: tensor "
                       r"field partials evaluated non-finite") as err:
        run_scenario(path)
    assert str(err.value.subtree) == "1e+308*x1^2"


@pytest.mark.parametrize("component", ["x١ + 1", "x1²", "x²"])
def test_variable_with_non_ascii_digits_is_malformed(component, tmp_path, capsys):
    path = write_scenario(tmp_path, xi={"1": component, "2": "0"})
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: xi: ") and "unknown identifier" in err


def test_variable_name_of_5000_digits_is_malformed(tmp_path, capsys):
    path = write_scenario(tmp_path, xi={"1": "x" + "1" * 5000, "2": "0"})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: xi: bad component expression: variable x111")
    assert err.endswith("1 out of range for dimension 2 (at position 0)\n")


def _count_tapes(monkeypatch) -> list:
    """Record every Tape compile from here on, one entry each."""
    compiles = []
    init = expr.Tape.__init__

    def counting(self, exprs):
        compiles.append(self)
        init(self, exprs)

    monkeypatch.setattr(expr.Tape, "__init__", counting)
    return compiles


def _count_nodes(monkeypatch) -> list:
    """Record every expression node built from here on."""
    made = []
    todo = [expr.ScalarExpr]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if "__init__" in vars(cls):
            def counting(self, *args, init=cls.__init__):
                made.append(self)
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
    return made


def test_loading_builds_no_tree(tmp_path, monkeypatch):
    # text goes straight to the tapes; comps renders trees on first read
    doc = _connection_scenario(19, 4, 1)
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(doc))
    made = _count_nodes(monkeypatch)
    sc = load_scenario(str(path))
    assert made == []
    for field, kind in ((sc.gamma, "gamma"), (sc.xi, "xi")):
        comps = field.comps
        assert made and len(comps) == len(field.tape.outputs)
        made.clear()
        assert field.comps is comps and made == []
        texts = [doc[kind][",".join(str(i + 1) for i in idx)] for idx in np.ndindex(field.shape)]
        assert [str(c) for c in comps] == [str(expr.parse(t, 4)) for t in texts]


@pytest.mark.parametrize("depth", [150, 1000, 10_000])
@pytest.mark.parametrize("form", ["parentheses", "calls", "minuses"])
def test_deep_nesting_exits_0_or_2(form, depth, tmp_path):
    # a deep component parses, or is a malformed scenario past the
    # nesting limit; never a RecursionError's traceback and exit 1
    text = {"parentheses": "(" * depth + "x1" + ")" * depth,
            "calls": "sin(" * depth + "x1" + ")" * depth,
            "minuses": "-" * depth + "x1"}[form]
    doc = {"n": 1, "q": 1, "phi": {"1,1": "1"}, "xi": {"1": text}, "checks": ["purity"]}
    code, err = _run_doc(doc, tmp_path)
    if form == "minuses" or depth <= expr.MAX_NESTING:
        assert (code, err) == (0, "")
    else:
        assert code == 2 and err.startswith("error: xi: bad component expression: "
                                            "expression nested too deeply"), err


def test_each_input_field_compiles_one_tape(monkeypatch):
    compiles = _count_tapes(monkeypatch)
    report = run_scenario(str(SCENARIOS / "sphere_cross_section.json"))
    assert report.passed
    assert len(compiles) == 2  # gamma and xi; every check reads those two


@pytest.mark.parametrize("name", ["theorem1_analytic.json", "analytic_pair_q2.json"])
def test_drawn_probes_build_no_tree_and_compile_no_tape(name, monkeypatch):
    # the scenario gives no v or a: the probes are evaluated in closed form
    made, compiles = _count_nodes(monkeypatch), _count_tapes(monkeypatch)
    report = run_scenario(str(SCENARIOS / name))
    assert report.passed and "characterization" in dict(report.results)
    assert made == []
    assert len(compiles) == 2  # phi and xi


def test_a_given_probe_compiles_its_tape_and_is_screened(tmp_path, capsys, monkeypatch):
    # a pole at every point of v leaves the screen nothing to keep
    compiles = _count_tapes(monkeypatch)
    path = write_scenario(tmp_path, checks=["characterization"], v={"1": "1/(x1-x1)", "2": "1"})
    assert main(["run", path]) == 2
    assert len(compiles) == 3  # phi, xi and v
    err = capsys.readouterr().err
    assert err.startswith("error: could not sample") and len(err.splitlines()) == 1


def test_sample_screen_compiles_no_tape(monkeypatch):
    sc = load_scenario(str(SCENARIOS / "sphere_cross_section.json"))
    compiles = _count_tapes(monkeypatch)
    _sample_scenario_points(sc, 42, 64, sampling.DEFAULT_BOX)
    assert compiles == []


def _count_tape_runs(monkeypatch) -> collections.defaultdict:
    """Record every Tape.jets run from here on, per tape: its row count
    and order."""
    runs = collections.defaultdict(list)
    jets = expr.Tape.jets

    def counting(self, points, order):
        runs[self].append((len(points), order))
        return jets(self, points, order)

    monkeypatch.setattr(expr.Tape, "jets", counting)
    return runs


def _connection_scenario(seed: int, n: int, q: int) -> dict:
    """A generic degree-1 symmetric gamma and degree-2 xi at 8 points under
    the three connection checks, as the benchmark's connection grid draws."""
    doc = generic_scenario(seed, n, q)
    del doc["phi"]
    return doc | {"points": 8, "checks": ["totally_geodesic", "gauss_consistency",
                                          "curvature_tangency"]}


@pytest.mark.parametrize("fields", [None, _connection_scenario(61, 3, 2)],
                         ids=["sphere_cross_section", "generic-3x2"])
def test_a_case_runs_each_input_tape_once(fields, tmp_path, monkeypatch):
    # the screen takes every field's jets as far as the checks read them
    # on its first block, which is the case's point set when it rejects
    # nothing; every check reads them from the fields' caches
    path = SCENARIOS / "sphere_cross_section.json"
    if fields is not None:
        path = tmp_path / "generic.json"
        path.write_text(json.dumps(fields))
    compiles = _count_tapes(monkeypatch)
    runs = _count_tape_runs(monkeypatch)
    run_scenario(str(path))
    assert len(compiles) == 2  # gamma and xi
    assert {tape: len(r) for tape, r in runs.items()} == dict.fromkeys(compiles, 1)


SHIPPED = sorted(p.name for p in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("name", SHIPPED)
def test_a_warm_run_compiles_nothing_and_reports_as_a_cold_one(name, monkeypatch):
    # a second case of the same fields takes every tape from those kept;
    # what depends on the points is computed afresh, each input tape once
    path = str(SCENARIOS / name)
    cold = run_scenario(path).to_json()
    compiles = _count_tapes(monkeypatch)
    runs = _count_tape_runs(monkeypatch)
    sc = load_scenario(path)
    tapes = [f.tape for f in (sc.phi, sc.xi, sc.gamma, sc.v, sc.a) if f is not None]
    assert run_scenario(path).to_json() == cold
    assert compiles == []
    assert {tape: len(r) for tape, r in runs.items()} == dict.fromkeys(tapes, 1)


@pytest.mark.parametrize("name", ["sphere_cross_section.json", "flat_quadratic.json"])
def test_the_checks_of_a_case_share_one_lift_along_the_section(name, monkeypatch):
    # induced_equals_base and gauss_consistency both read d_j B + L B B at
    # the section; lift_connection_zeros lifts at fibre points of its own
    lifts, read = [], []
    lift, along = connection_lift.complete_lift_connection, connection_lift._lift_along_section
    monkeypatch.setattr(connection_lift, "complete_lift_connection",
                        lambda gamma, at: lifts.append(at) or lift(gamma, at))
    monkeypatch.setattr(connection_lift, "_lift_along_section",
                        lambda *ops: read.append(along(*ops)) or read[-1])
    report = run_scenario(str(SCENARIOS / name))
    checks = dict(report.results)
    assert "induced_equals_base" in checks and "gauss_consistency" in checks
    xi = load_scenario(str(SCENARIOS / name)).xi
    on_section = [at for at in lifts
                  if np.array_equal(at.fibre, xi.evaluate(at.base).reshape(at.fibre.shape))]
    assert len(on_section) == 1 and len(lifts) == 2
    # formed once for both: each read is that one output, and the arrays it
    # keeps go with the case
    assert len(read) == 2 and read[1] is read[0]
    refs = [weakref.ref(a) for a in read.pop()]
    read.clear()
    assert all(ref() is None for ref in refs)


def test_a_case_forms_what_its_checks_share_once(tmp_path, monkeypatch):
    # the lift terms (lift_connection_zeros twice, the section lift once),
    # the lifted phi (characterization, theorem1) and the purity defect
    # (purity, the tachibana_zero gate, theorem1); all three go with the case
    read = collections.defaultdict(list)
    for module, name in ((connection_lift, "_slot_terms"), (bundle, "complete_lift_endo_on_section"),
                         (bundle, "purity_residual")):
        def counting(*args, form=getattr(module, name), name=name):
            read[name].append(form(*args))
            return read[name][-1]
        monkeypatch.setattr(module, name, counting)
    checks = ["purity", "tachibana_zero", "nijenhuis_zero", "theorem1", "characterization",
              "lift_connection_zeros", "induced_equals_base"]
    run_scenario(write_scenario(tmp_path, checks=checks, **generic_scenario(27, 3, 2)))
    # a form read more than once, formed once: every read is its first output
    formed = {name: len({id(out) for out in outs}) for name, outs in read.items()}
    assert formed == {"_slot_terms": 1, "complete_lift_endo_on_section": 1, "purity_residual": 1}
    assert min(map(len, read.values())) >= 2
    refs = [weakref.ref(a) for outs in read.values()
            for a in (outs[0] if isinstance(outs[0], tuple) else (outs[0],))]
    read.clear()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("name", ["sphere_cross_section", "theorem1_analytic"])
def test_a_case_finds_its_points_by_identity_not_by_contents(name, monkeypatch):
    # the screen reads the case's copy of its first block, and the points
    # enter the case as that copy, so every read of a field at the case's
    # points passes that array itself, which the case table holds by
    # identity, never an equal copy, which it would compute again
    cases, reads = [], []
    sample = cli._sample_scenario_points
    monkeypatch.setattr(cli, "_sample_scenario_points",
                        lambda sc, *args: cases.append(sample(sc, *args)) or cases[-1])
    for method in ("jets", "finite_rows"):
        def reading(field, points, *args, read=getattr(tensor.Field, method)):
            reads.append(points)
            return read(field, points, *args)
        monkeypatch.setattr(tensor.Field, method, reading)
    run_scenario(str(SCENARIOS / f"{name}.json"))
    (points,) = cases
    equal = [p for p in reads if np.shape(p) == points.shape and np.array_equal(p, points)]
    assert equal and all(p is points for p in equal)


def test_the_sign_flipped_lift_is_not_served_the_kept_terms():
    # every lift of the case negates R, so no check reads the terms of +R
    path = str(SCENARIOS / "sphere_cross_section.json")
    with flipped_curvature():
        flipped = dict(run_scenario(path).results)
    assert flipped["gauss_consistency"].residual > 1.0
    assert flipped["lift_connection_zeros"].residual > 1.0
    assert flipped["induced_equals_base"].passed and flipped["curvature_tangency"].passed


@pytest.mark.parametrize("checks, orders", [
    (["purity"], [0, 0]),
    (["nijenhuis_zero"], [1, 0]),
    (["purity", "tachibana_zero"], [1, 1]),
    (["theorem1", "nijenhuis_zero"], [1, 1]),
])
def test_the_screen_fills_to_the_order_the_checks_read(checks, orders, tmp_path, monkeypatch):
    # phi and xi run once each on the 64 points, no higher than a check reads them
    path = write_scenario(tmp_path, checks=checks)
    runs = _count_tape_runs(monkeypatch)
    run_scenario(path)
    assert list(runs.values()) == [[(64, k)] for k in orders]


def _jet_reads(monkeypatch) -> dict:
    """The highest jet order read of each scenario field from here on,
    outside the sampling screen, by field name."""
    fields, reads = {}, {}
    load, jets = cli.load_scenario, tensor.Field.jets

    def loading(path):
        sc = load(path)
        # keyed by the fields themselves, which stay alive: an id could be reused
        fields.update({getattr(sc, kind): kind for kind in ("phi", "xi", "gamma", "v", "a")})
        return sc

    def reading(self, points, order):
        if self in fields:
            kind = fields[self]
            reads[kind] = max(reads.get(kind, 0), order)
        return jets(self, points, order)

    monkeypatch.setattr(cli, "load_scenario", loading)
    monkeypatch.setattr(tensor.Field, "jets", reading)
    return reads


@pytest.mark.parametrize("check", CHECK_IDS)
def test_each_check_reads_its_fields_to_the_declared_order(check, tmp_path, monkeypatch):
    # the screen fills each field's cache to the declared order: a check
    # that reads further runs a tape again, one that reads less wastes it.
    # A check may stop early on some fields (an impure xi fails the
    # Tachibana check unread), so the order is the most any case reads.
    generic = generic_scenario(5, 2, 2) | {
        "v": {"1": "x1*x2", "2": "x2^2"}, "a": {"1,1": "x1^2", "2,1": "x2"}}
    docs = [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))] + [generic]
    reads = _jet_reads(monkeypatch)
    declared, most = cli._CHECKS[check][0], {}
    for doc in docs:
        if all(kind in doc for kind in declared if kind not in ("v", "a")):
            path = tmp_path / "case.json"
            path.write_text(json.dumps(doc | {"checks": [check]}))
            reads.clear()
            run_scenario(str(path), count=8)
            if "gamma" not in declared:
                reads.pop("gamma", None)  # the symmetry gate reads its values
            assert reads.keys() <= declared.keys()
            for kind, k in reads.items():
                most[kind] = max(most.get(kind, 0), k)
    assert most == declared


def test_a_rejecting_screen_keeps_its_points_and_report(tmp_path, monkeypatch):
    # xi overflows where x1 > 1.014, so the screen rejects draws and the
    # case's points are not its first block: each tape runs once per block,
    # at the order screened, and once more on the points
    path = write_scenario(tmp_path, checks=["purity"],
                          xi={"1": "exp(700*x1)*1e-300", "2": "x2"})
    sc = load_scenario(path)
    points = _sample_scenario_points(sc, 42, 64, sampling.DEFAULT_BOX)
    runs = _count_tape_runs(monkeypatch)
    report = run_scenario(path)
    # phi and xi: five screened blocks of 64, 23, 6, 3 and 2 rows, then the points
    blocks = [(64, 0), (23, 0), (6, 0), (3, 0), (2, 0), (64, 0)]
    assert list(runs.values()) == [blocks, blocks]
    # frozen: the screen masks the same rows as one reading each tape directly
    assert hashlib.sha256(points.tobytes()).hexdigest()[:16] == "60c15a4f94987065"
    assert report.to_dict()["checks"] == [{
        "detail": {}, "id": "purity", "residual": 0.0, "status": "pass", "tolerance": 1e-09,
        "worst_point": [0.3224305522539444, 1.4683090571277826],
    }]


def test_a_rejecting_screen_runs_each_tape_once_more_on_the_points(tmp_path, monkeypatch):
    # xi overflows where x1 > 1.18: the first block, filled to the orders
    # the checks read, is dropped, a later block is screened only, and
    # the points run once, at those orders
    path = write_scenario(tmp_path, box=[0.2, 1.25], xi={"1": "exp(600*x1)*1e-300", "2": "x2"},
                          checks=["purity", "tachibana_zero", "theorem1"])
    runs = _count_tape_runs(monkeypatch)
    run_scenario(path)
    assert list(runs.values()) == [[(64, 1), (1, 0), (64, 1)]] * 2


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


def test_presets_output_is_pinned(capsys):
    assert main(["presets"]) == 0
    assert capsys.readouterr().out == (
        "standard_complex_r2  phi    n=2 rotation structure, phi^2 = -id\n"
        "sphere_chart         gamma  n=2 round-sphere polar-chart connection\n"
        "sphere_chart         xi     n=2 round metric diag(1, sin(x1)^2), q=2\n"
        "flat                 gamma  zero connection (any n)\n"
    )


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"phi": "sphere_chart"}, "no preset 'sphere_chart' provides field 'phi'"),
        ({"gamma": "nowhere"}, "no preset 'nowhere' provides field 'gamma'"),
        ({"n": 3, "phi": "standard_complex_r2"},
         "preset 'standard_complex_r2' requires n=2, scenario has n=3"),
        ({"n": 1, "phi": {}, "xi": {"1": "x1"}, "gamma": "sphere_chart"},
         "preset 'sphere_chart' requires n=2, scenario has n=1"),
        ({"q": 3, "xi": "sphere_chart"},
         "preset sphere_chart provides a (0,2) field, scenario has q=3"),
    ],
)
def test_preset_errors_are_pinned(overrides, message, tmp_path, capsys):
    assert main(["run", write_scenario(tmp_path, **overrides)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("n", [1, 3, 4])
def test_flat_preset_takes_any_n(n, tmp_path):
    path = write_scenario(tmp_path, n=n, phi={}, gamma="flat", xi={"1": "x1"},
                          checks=["lift_connection_zeros"])
    assert load_scenario(path).gamma.n == n


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
    report = run_scenario(path)
    (entry,) = report.to_dict()["checks"]
    assert entry["id"] == check
    assert entry["tolerance"] == (1e-12 if check == "lift_connection_zeros" else 1e-9)
    points = _sample_scenario_points(load_scenario(path), report.seed, report.count, report.box)
    assert entry["worst_point"] in points.tolist()
    keys = {
        "theorem1": {"square_residual", "purity_residual", "tachibana_residual",
                     "nijenhuis_residual", "lift_square_residual", "hypotheses_hold"},
        "characterization": {"complete_residual", "vertical_residual"},
        "tachibana_zero": {"reason"},
    }
    assert set(entry["detail"]) == keys.get(check, set())


# ---------------------------------------------------------------------------
# known scale defects: absolute tolerances make verdicts depend on units

SCALE_DEFECT = ("absolute tolerances make the verdict depend on the units of the input; "
                "relative verdicts are ROADMAP item 1")


@pytest.mark.xfail(strict=True, reason=SCALE_DEFECT)
def test_symmetric_gamma_at_large_coordinates_is_accepted(tmp_path, capsys):
    # the mirrored entries agree as functions but round differently at
    # coordinates near 3000: the symmetry gate reads 3.815e-06 > 1e-12
    gamma = {"1,1,2": "x1*x2*x3 + x3", "1,2,1": "x3*x2*x1 + x3"}
    path = write_scenario(tmp_path, n=3, gamma=gamma, box=[1000, 3000],
                          checks=["induced_equals_base"])
    assert main(["run", path]) == 0, capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason=SCALE_DEFECT)
@pytest.mark.parametrize("name", ["theorem1_necessity", "flat_quadratic"])
def test_negative_control_fails_with_xi_scaled_down(name, tmp_path):
    # scaled by 1e-12, tachibana_zero reads 2.924e-12 and totally_geodesic
    # 1.000e-12, both under the absolute 1e-9
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    doc["xi"] = {k: f"1e-12*({v})" for k, v in doc["xi"].items()}
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 1


# ---------------------------------------------------------------------------
# exit codes of mutated shipped scenarios: no traceback, no exit 1 on bad input

SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}
KEYS = ("name", "n", "q", "phi", "xi", "gamma", "v", "a", "checks", "seed", "points", "box")
# integers past float range
HUGE = st.integers(2**1024, 10**400) | st.integers(-(10**400), -(2**1024))
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=4,
)
# JSON values that are neither an integer nor null
NOT_INT = st.booleans() | st.floats() | st.text(max_size=5) | st.dictionaries(
    st.text(max_size=2), st.integers(), max_size=2)
# a value of the wrong JSON type for each key; null is a valid seed,
# points, box and name (the default)
WRONG_TYPE = {
    "n": NOT_INT | st.none() | st.lists(st.integers(1, 4), max_size=2),
    "q": NOT_INT | st.none() | st.lists(st.integers(1, 3), max_size=2),
    "checks": NOT_INT | st.none() | st.integers() | st.lists(st.integers() | st.none(),
                                                              min_size=1, max_size=2),
    "seed": NOT_INT | st.lists(st.integers(), max_size=2),
    "points": NOT_INT | st.lists(st.integers(), max_size=2),
    "box": NOT_INT | st.integers() | st.lists(st.text(max_size=3) | st.booleans(), max_size=3),
    "name": st.booleans() | st.integers() | st.floats() | st.lists(st.text(max_size=3),
                                                                  max_size=2),
}
WRONG_TYPE.update(dict.fromkeys(("phi", "xi", "gamma"), st.none() | st.booleans() | st.integers()
                                | st.floats() | st.lists(st.integers(), max_size=2)))
WRONG_COMPONENT = st.none() | st.booleans() | st.lists(st.integers(), max_size=2) | st.just({})
# component text that overflows, has a pole in the box, or is non-finite
WILD_TEXT = st.one_of(
    st.floats(1e100, 1.7e308).map(lambda c: f"{c!r}*x1"),
    st.sampled_from(["1e308*x1*x2", "exp(700)*x1", "exp(900*x1)", "1e200*x1^2 + 1e200"]),
    st.floats(0.2, 1.5).map(lambda a: f"1/(x1 - {a!r})"),
    st.sampled_from(["1/(x1 - x1)", "x2/(x1 - x2)", "1/sin(x1 - 1)", "x1/(x2*x2 - x1*x1)"]),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


def _run_doc(doc, directory, *flags) -> tuple[int, str]:
    path = directory / "mutated.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path), *flags])
    return code, err.getvalue()


def _strict_constant(name):
    """json.loads hook for NaN and Infinity, which RFC 8259 JSON lacks."""
    raise ValueError(f"report holds {name}, which is not JSON")


@st.composite
def _component_site(draw, doc, kinds=("phi", "xi", "gamma")):
    """A field of doc (present, or added) and an index key of it."""
    kind = draw(st.sampled_from([k for k in kinds if k in doc] or list(kinds)))
    n = doc["n"] if isinstance(doc.get("n"), int) else 2
    length = {"phi": 2, "gamma": 3}.get(kind, doc.get("q", 1))
    index = draw(st.lists(st.integers(1, n), min_size=length, max_size=length))
    return kind, ",".join(map(str, index))


def _set_component(doc, kind, key, value):
    comps = doc.get(kind) if isinstance(doc.get(kind), dict) else {}
    doc[kind] = {**comps, key: value}


@st.composite
def malformed_scenarios(draw):
    doc = dict(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    how = draw(st.sampled_from(["unknown_key", "wrong_type", "wrong_component", "huge"]))
    if how == "unknown_key":
        doc[draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in KEYS))] = draw(JSON)
    elif how == "wrong_type":
        key = draw(st.sampled_from(sorted(WRONG_TYPE)))
        doc[key] = draw(WRONG_TYPE[key])
    elif how == "wrong_component":
        _set_component(doc, *draw(_component_site(doc)), draw(WRONG_COMPONENT))
    else:
        where = draw(st.sampled_from(["n", "q", "points", "box", "component"]))
        if where == "box":
            doc["box"] = draw(st.permutations([draw(HUGE), 1.0]))
        elif where == "component":
            _set_component(doc, *draw(_component_site(doc)), draw(HUGE))
        else:
            doc[where] = draw(HUGE)
    return doc


@st.composite
def wild_scenarios(draw):
    doc = dict(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for how in draw(st.lists(st.sampled_from(["component", "asymmetric_gamma", "seed", "box"]),
                             min_size=1, max_size=3)):
        if how == "component":
            _set_component(doc, *draw(_component_site(doc)), draw(WILD_TEXT))
        elif how == "asymmetric_gamma":
            h, (j, i) = draw(st.integers(1, 2)), draw(st.permutations([1, 2]))
            _set_component(doc, "gamma", f"{h},{j},{i}", draw(st.sampled_from(["x1", "1", "x2^2"])))
        elif how == "seed":
            doc["seed"] = draw(st.integers(2**1024, 10**400))
        else:
            doc["box"] = draw(st.permutations([draw(st.sampled_from(
                [float("nan"), float("inf"), 1e308, -1e308, 0.2])), 1.5]))
    return doc


@settings(max_examples=40, deadline=None)
@given(doc=malformed_scenarios())
def test_malformed_scenario_exits_2(doc, tmp_path_factory):
    code, err = _run_doc(doc, tmp_path_factory.mktemp("fuzz"))
    assert code == 2 and err.startswith("error: "), (code, err)


@settings(max_examples=30, deadline=None)
@given(doc=wild_scenarios())
@example(doc={"n": 2, "q": 2, "phi": "standard_complex_r2", "xi": OVERFLOWING_XI,
              "checks": ["purity"]})
def test_wild_scenario_exits_with_a_documented_code(doc, tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    report = directory / "report.json"
    code, err = _run_doc(doc, directory, "--json", str(report))
    assert code in (0, 1, 2, 3), code
    assert (code >= 2) == ("error: " in err), (code, err)
    if code < 2:
        checks = json.loads(report.read_text(), parse_constant=_strict_constant)["checks"]
        assert all(math.isfinite(c["residual"]) for c in checks), checks
