"""Memory layout of batched arrays: the point axis is the fastest one.

Every batched array keeps its leading point axis, but stores it with
stride one item, so that the contractions over index extents of 2 to 4
run their inner loop over the points.  tensor.einsum is the one entry
point that keeps contraction outputs that way; it must give the numbers
that np.einsum gives on the row-major arrays of the same values.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from _fields import generic_scenario, random_covariant_field, random_symmetric_connection
from liftlab import bundle, connection_lift, presets, sampling, tensor
from liftlab.cli import CHECK_IDS, run_scenario
from liftlab.tensor import EndomorphismField, curvature

SRC = Path(tensor.__file__).resolve().parent
# the einsum entry points of the package, by the position of their spec
ENTRY_POINTS = {"einsum": 0, "jet_einsum": 0, "slot_einsum": 0, "sum_over_slots": 0,
                "contraction": 2}
MODULES = (tensor, bundle, connection_lift)


def _np_einsum_sites() -> tuple[set, set]:
    """Spec literals of the einsum entry points in src/, and the functions
    that call np.einsum itself, as (literals, callers)."""
    literals, callers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Attribute) and f.attr == "einsum":
                    callers.add(f"{path.stem}.{fn.name}")
                elif isinstance(f, ast.Name) and f.id in ENTRY_POINTS:
                    args = node.args[ENTRY_POINTS[f.id]:]
                    if args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
                        literals.add(args[0].value)
    return literals, callers


def test_np_einsum_only_in_the_helper():
    literals, callers = _np_einsum_sites()
    assert callers == {"tensor.einsum"}
    assert len(literals) > 30


POINTS = sampling.sample_points(3, count=64)


def _layout_fields():
    rng = np.random.default_rng(8)
    phi = EndomorphismField(3, [["x1*x2", "1", "x3^2"], ["-1", "x2", "0"], ["x3", "x1", "x1*x3"]])
    xi = random_covariant_field(rng, 3, 2)
    gamma = random_symmetric_connection(rng, 3)
    return phi, xi, gamma


def _points_fastest(a: np.ndarray) -> bool:
    return a.shape[0] == len(POINTS) and a.strides[0] == a.itemsize


@pytest.mark.parametrize("q", [1, 2, 3])
def test_slot_apply_writes_the_points_fastest(q):
    # the slot action of the lift, with matrix axes behind the points and
    # with the columns of a matrix as extra batch axes of t
    rng = np.random.default_rng(20 + q)
    mats = rng.normal(size=(len(POINTS), 3, 2, 3, 3))
    for slot in range(q):
        out = connection_lift._slot_apply(mats, slot, q, rng.normal(size=(len(POINTS), 3**q)))
        assert out.shape == (len(POINTS), 3, 2, 3**q) and _points_fastest(out)
        cols = rng.normal(size=(len(POINTS), 5, 3**q))
        out = connection_lift._slot_apply(mats[:, None, 0], slot, q, cols)
        assert out.shape == (len(POINTS), 5, 2, 3**q) and _points_fastest(out)


def test_input_field_arrays_store_the_points_fastest():
    for field in _layout_fields():
        assert all(_points_fastest(a) for a in field.jets(POINTS, 2))
        assert _points_fastest(field.evaluate(POINTS))
        assert _points_fastest(field.partials_at(POINTS))


@pytest.mark.parametrize("output,order", [("curvature", 1), ("H", 0), ("tachibana", 0),
                                          ("nijenhuis", 1), ("probe v", 1), ("probe a", 1)])
def test_operator_outputs_store_the_points_fastest(output, order):
    # H and the Tachibana field differentiate operator outputs, so they
    # carry values only; the drawn probes of the characterization check
    # are outputs of no operands
    phi, xi, gamma = _layout_fields()
    field = {
        "curvature": lambda: curvature(gamma),
        "H": lambda: connection_lift.gauss_second_fundamental(gamma, xi),
        "tachibana": lambda: bundle._tachibana_field(phi, xi),
        "nijenhuis": lambda: bundle.nijenhuis(phi),
        "probe v": lambda: presets.random_probe(np.random.default_rng(9), 3),
        "probe a": lambda: presets.random_probe(np.random.default_rng(9), 3, 2),
    }[output]()
    assert all(_points_fastest(a) for a in field.jets(POINTS, order))
    assert _points_fastest(field.evaluate(POINTS))
    if order:
        assert _points_fastest(field.partials_at(POINTS))


@pytest.mark.parametrize("n,q", [(2, 1), (2, 3), (3, 2), (4, 3)])
def test_einsum_matches_row_major_np_einsum_on_every_spec(n, q, tmp_path, monkeypatch):
    # Every call of tensor.einsum while all ten checks run is repeated by
    # np.einsum at its default order on row-major copies of the operands,
    # the layout the arrays had before they stored the points fastest.  At
    # n = 2 the two agree bit for bit; at n >= 3 einsum may sum in another
    # order, so they agree within 4 ulps of the |a|.|b| term scale.
    helper, seen, calls = tensor.einsum, set(), []

    def checked(spec, *ops, out=None):
        out = helper(spec, *ops, out=out)
        ref = np.einsum(spec, *(np.ascontiguousarray(a) for a in ops))
        if n == 2:
            assert np.array_equal(out, ref), spec
        else:
            scale = np.einsum(spec, *(np.abs(a) for a in ops))
            assert np.all(np.abs(out - ref) <= 4 * np.finfo(float).eps * scale), spec
        calls.append(spec)
        return out

    def recording(fn):
        def wrapped(spec, *args, **kwargs):
            seen.add(spec)
            return fn(spec, *args, **kwargs)
        return wrapped

    # contraction hands its spec on to tensor's own slot_einsum or jet_einsum
    wrapped = {"einsum": recording(checked)}
    for name in ("jet_einsum", "slot_einsum", "sum_over_slots"):
        wrapped[name] = recording(getattr(tensor, name))
    for module in MODULES:
        for name, fn in wrapped.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    doc = dict(generic_scenario(11, n, q), name="layout", points=64, checks=list(CHECK_IDS))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    run_scenario(str(path), seed=3)
    assert calls
    if q > 1:  # q = 1 has no pair of fibre slots for the quadratic part of the lift
        literals, _ = _np_einsum_sites()
        assert literals <= seen
