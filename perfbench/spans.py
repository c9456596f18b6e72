"""Spans around liftlab's public functions, installed from outside.

Tracer.install() replaces each traced function with a wrapper in every
liftlab namespace that binds it (connection_lift and cli import
curvature by name, for example), and methods on their classes;
uninstall() puts the originals back.  A span records its name, parent
span, case id, start and end, plus two work counts; spans stay in memory
until the run ends.  Self time is a span's duration minus that of its
children.
"""

from __future__ import annotations

import gzip
import json
import sys
from functools import partial
from time import perf_counter

import numpy as np

# (module, attribute, group).  A group sums the inclusive time of its
# outermost spans and counts every call; the span name is
# "<module>.<attribute>".
_TENSOR_BUILDERS = (
    "curvature", "covariant_derivative_cov", "lie_derivative_cov", "lie_derivative_endo",
    "apply_endo_cov", "apply_endo_vec", "compose_endo", "contract_slot_endo",
    "CovariantField.partials",
)
# Components behind one evaluate call, by field class and method.
_EVALUATE = {
    "CovariantField.evaluate": lambda f: f.n**f.q,
    "VectorField.evaluate": lambda f: f.n,
    "EndomorphismField.evaluate": lambda f: f.n**2,
    "OneTwoTensorField.evaluate": lambda f: f.n**3,
    "ConnectionField.evaluate": lambda f: f.n**3,
    "ConnectionField.partials_at": lambda f: f.n**4,
    "CurvatureField.evaluate": lambda f: f.n**4,
    "CurvatureField.partials_at": lambda f: f.n**5,
}
TARGETS = (
    [
        ("sampling", "sample_points", "sampling.sample_points"),
        ("expr", "parse", "expr.parse"),
        ("cli", "load_scenario", "cli.load_scenario"),
        ("cli", "run_scenario", "cli.run_scenario"),
        ("cli", "Report.to_json", "cli.to_json"),
    ]
    + [("tensor", a, "tensor.build") for a in _TENSOR_BUILDERS]
    + [("tensor", a, "tensor.evaluate") for a in _EVALUATE]
    + [
        ("bundle", a, "bundle." + a)
        for a in (
            "complete_lift_endo_on_section", "verify_theorem1", "verify_characterization",
            "is_almost_analytic", "purity_residual", "adapted_frame", "cross_section_point",
        )
    ]
    + [("bundle", a, "bundle.build") for a in ("nijenhuis", "contract_one_two_cov")]
    + [
        ("connection_lift", a, "connection_lift." + a)
        for a in (
            "complete_lift_connection", "gauss_second_fundamental", "gauss_consistency",
            "is_totally_geodesic", "curvature_tangency", "induced_connection",
        )
    ]
)
# Builders whose first result in each case is kept for the expression
# statistics.  The Tachibana image has no public builder on the check
# path (complete_lift_endo_on_section rebuilds it at every point), so the
# private helper is wrapped for capture only, without a span.
CAPTURE = {
    "tensor.curvature": "curvature",
    "connection_lift.gauss_second_fundamental": "gauss",
    "bundle.nijenhuis": "nijenhuis",
}
CAPTURE_ONLY = ("bundle", "_tachibana_field", "tachibana")

# Span record fields.
NAME, PARENT, CASE, START, END, OUTER, WORK_A, WORK_B = range(8)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.current = -1
        self.case = -1
        self.captured: dict[int, dict] = {}
        self._patches: list[tuple] = []
        self._groups: dict[str, list] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, group: str, work=None, capture=None):
        nid = self._name_id(name)
        depth = self._groups.setdefault(group, [0])
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.current
            rec = [nid, parent, tracer.case, 0.0, 0.0, depth[0] == 0, 0, 0]
            tracer.current = len(spans)
            spans.append(rec)
            depth[0] += 1
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                depth[0] -= 1
                tracer.current = parent
            if work is not None:
                rec[WORK_A], rec[WORK_B] = work(args, kwargs, result)
            if capture is not None:
                tracer.captured.setdefault(tracer.case, {}).setdefault(capture, result)
            return result

        return wrapper

    def begin_case(self, case_id: int) -> list:
        """Open the root span of a case; the caller closes it with end_case."""
        self.case = case_id
        rec = [self._case_name, -1, case_id, 0.0, 0.0, True, 0, 0]
        self.current = len(self.spans)
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def end_case(self, rec: list) -> None:
        rec[END] = perf_counter()
        self.current = -1

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _install_one(self, modname: str, attr: str, new_for) -> None:
        module = sys.modules["liftlab." + modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            self._patch(cls, meth, new_for(getattr(cls, meth)))
            return
        original = getattr(module, attr)
        wrapped = new_for(original)
        for name, mod in list(sys.modules.items()):
            if (name == "liftlab" or name.startswith("liftlab.")) and (
                getattr(mod, attr, None) is original
            ):
                self._patch(mod, attr, wrapped)

    def install(self) -> None:
        self._case_name = self._name_id("case")
        for modname, attr, group in TARGETS:
            name = f"{modname}.{attr}"
            if name == "sampling.sample_points":
                make = partial(self._wrap_sampler, name=name)
            else:
                work = _evaluate_work(_EVALUATE[attr]) if group == "tensor.evaluate" else None
                make = partial(self._wrap, name=name, group=group, work=work,
                               capture=CAPTURE.get(name))
            self._install_one(modname, attr, make)
        modname, attr, key = CAPTURE_ONLY
        self._install_one(modname, attr, partial(self._capture_only, key=key))

    def _wrap_sampler(self, fn, name):
        """sample_points with its reject callback counted: WORK_A is the
        number of candidates screened, WORK_B the points accepted."""
        screened = [0]

        def counting(reject):
            def counted(p):
                screened[0] += 1
                return reject(p)
            return counted

        def work(args, kwargs, result):
            return (screened[0] if "reject" in kwargs else len(result)), len(result)

        inner = self._wrap(fn, name, name, work)

        def sampler(*args, **kwargs):
            screened[0] = 0
            if kwargs.get("reject") is not None:
                kwargs["reject"] = counting(kwargs["reject"])
            else:
                kwargs.pop("reject", None)
            return inner(*args, **kwargs)

        return sampler

    def _capture_only(self, fn, key):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.captured.setdefault(tracer.case, {}).setdefault(key, result)
            return result

        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        spans = self.spans
        own = np.array([r[END] - r[START] for r in spans])
        out = own.copy()
        for i, r in enumerate(spans):
            if r[PARENT] >= 0:
                out[r[PARENT]] -= own[i]
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "parent", "case", "start", "end",
                                "outermost_in_group", "work_a", "work_b"],
                    "spans": self.spans,
                },
                fh,
            )


def _evaluate_work(components):
    def work(args, kwargs, result):
        ndim = np.ndim(args[1])
        points = 1 if ndim == 1 else int(np.shape(args[1])[0])
        return points, components(args[0])
    return work


# ---------------------------------------------------------------------------
# Aggregation


def _flatten(comps):
    for c in comps:
        if isinstance(c, tuple):
            yield from _flatten(c)
        else:
            yield c


def _field_roots(field):
    field = getattr(field, "field", field)  # GaussTensor wraps a CovariantField
    return _flatten(field.comps)


_PAYLOAD = {"Const": "c", "Var": "axis", "IntPow": "k"}


def expression_counts(fields) -> tuple[int, int, int]:
    """(tree nodes, identity-unique nodes, structurally unique nodes) over
    every component of the given fields.  Tree nodes count a shared
    subtree once per path to it, as a tree walk visits it."""
    size: dict[int, int] = {}
    struct: dict[int, int] = {}
    table: dict[tuple, int] = {}
    tree = 0
    for root in (r for f in fields for r in _field_roots(f)):
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            key = id(node)
            if key in size:
                continue
            kids = node.children
            if not expanded:
                stack.append((node, True))
                stack.extend((c, False) for c in kids if id(c) not in size)
                continue
            size[key] = 1 + sum(size[id(c)] for c in kids)
            kind = type(node).__name__
            attr = _PAYLOAD.get(kind)
            skey = (kind, getattr(node, attr) if attr else None) + tuple(
                struct[id(c)] for c in kids
            )
            struct[key] = table.setdefault(skey, len(table))
        tree += size[id(root)]
    return tree, len(size), len(table)


def layer_metrics(tracer: Tracer, case_ids: list[int], overhead: float) -> dict:
    """Per-layer metrics, averaged per traced case."""
    spans = tracer.spans
    names = tracer.names
    group_of = {f"{m}.{a}": g for m, a, g in TARGETS}
    selft = tracer.self_times()
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work_a: dict[str, int] = {}
    work_b: dict[str, int] = {}
    for i, r in enumerate(spans):
        name = names[r[NAME]]
        group = group_of.get(name, name)
        dur = r[END] - r[START]
        if r[OUTER]:
            incl[group] = incl.get(group, 0.0) + dur
        calls[group] = calls.get(group, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selft[i]
        work_a[group] = work_a.get(group, 0) + r[WORK_A]
        work_b[group] = work_b.get(group, 0) + r[WORK_B]

    ncase = max(len(case_ids), 1)

    def per_case(table, key):
        return table.get(key, 0) / ncase

    counts = [expression_counts(tracer.captured.get(c, {}).values()) for c in case_ids]
    tree, unique, struct = np.mean(counts, axis=0) if counts else (0.0, 0.0, 0.0)

    ev = "tensor.evaluate"
    sp = "sampling.sample_points"
    out = {
        "sampling.sample_points.s": (per_case(incl, sp), "s/case", "lower"),
        "sampling.candidates": (per_case(work_a, sp), "points/case", "lower"),
        "sampling.accept_ratio": (work_b.get(sp, 0) / max(work_a.get(sp, 0), 1), "ratio", "higher"),
        "cli.load_scenario.s": (per_case(incl, "cli.load_scenario"), "s/case", "lower"),
        "expr.parse.calls": (per_case(calls, "expr.parse"), "calls/case", "lower"),
        "expr.parse.s": (per_case(incl, "expr.parse"), "s/case", "lower"),
        "cli.run_scenario.self_s": (per_case(self_s, "cli.run_scenario"), "s/case", "lower"),
        "cli.to_json.s": (per_case(incl, "cli.to_json"), "s/case", "lower"),
        "tensor.build.s": (per_case(incl, "tensor.build"), "s/case", "lower"),
        "tensor.build.calls": (per_case(calls, "tensor.build"), "calls/case", "lower"),
        "tensor.evaluate.s": (per_case(incl, ev), "s/case", "lower"),
        "tensor.evaluate.calls": (per_case(calls, ev), "calls/case", "lower"),
        "tensor.evaluate.points_per_call": (
            work_a.get(ev, 0) / max(calls.get(ev, 0), 1), "points/call", "higher"),
        "tensor.evaluate.component_evals": (per_case(work_b, ev), "evals/case", "lower"),
        "expr.tree_nodes": (float(tree), "nodes/case", "lower"),
        "expr.unique_nodes": (float(unique), "nodes/case", "lower"),
        "expr.struct_unique_nodes": (float(struct), "nodes/case", "lower"),
        "bundle.build.s": (per_case(incl, "bundle.build"), "s/case", "lower"),
        "trace.overhead": (overhead, "ratio", "higher"),
    }
    for fn in ("complete_lift_endo_on_section",):
        out[f"bundle.{fn}.calls"] = (per_case(calls, f"bundle.{fn}"), "calls/case", "lower")
        out[f"bundle.{fn}.self_s"] = (per_case(self_s, f"bundle.{fn}"), "s/case", "lower")
    for fn in ("verify_theorem1", "verify_characterization"):
        out[f"bundle.{fn}.self_s"] = (per_case(self_s, f"bundle.{fn}"), "s/case", "lower")
    for fn in ("is_almost_analytic", "purity_residual"):
        out[f"bundle.{fn}.s"] = (per_case(incl, f"bundle.{fn}"), "s/case", "lower")
    for fn in ("adapted_frame", "cross_section_point"):
        out[f"bundle.{fn}.calls"] = (per_case(calls, f"bundle.{fn}"), "calls/case", "lower")
    cl = "connection_lift."
    out[cl + "complete_lift_connection.calls"] = (
        per_case(calls, cl + "complete_lift_connection"), "calls/case", "lower")
    for fn in ("complete_lift_connection", "gauss_consistency", "is_totally_geodesic",
               "curvature_tangency", "induced_connection"):
        out[f"{cl}{fn}.self_s"] = (per_case(self_s, cl + fn), "s/case", "lower")
    out[cl + "gauss_second_fundamental.s"] = (
        per_case(incl, cl + "gauss_second_fundamental"), "s/case", "lower")
    return out


def check_self_times(tracer: Tracer) -> float:
    """Largest gap, over cases, between a case span and the sum of the
    self times of every span inside it (zero up to rounding)."""
    selft = tracer.self_times()
    total: dict[int, float] = {}
    root: dict[int, float] = {}
    for i, r in enumerate(tracer.spans):
        total[r[CASE]] = total.get(r[CASE], 0.0) + selft[i]
        if r[PARENT] < 0:
            root[r[CASE]] = r[END] - r[START]
    return max((abs(total[c] - root[c]) for c in root), default=0.0)
