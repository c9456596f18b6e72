"""liftlab benchmark: time to verdict on seeded scenario files.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a liftlab checkout.  One process, one client, a
closed loop: each case (one scenario file run through cli.run_scenario
and Report.to_json) starts when the previous one has finished.  Whole
rounds of the workload's shapes run until the next round would end
after --seconds.

--trace 0 reports the end-to-end metrics in GATED; the lines above the
result print every other end-to-end and correctness figure.  --trace 1
runs half the time untraced, then as many rounds again with spans around
liftlab's public functions, and reports the per-layer metrics; the spans
are written to .perfbench/ in the checkout.

Every case's verdicts are checked against the answers known by
construction, and the first case is re-run for byte-identical JSON.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exits 2 without a result when the checkout has no liftlab
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The end-to-end metrics of the result object: the ones steady enough
# across runs on a shared host to bound.  The others are printed.
GATED = ("case_cost_ref", "setup_s", "peak_rss_mb")
# Allowed gap between a case span and the sum of the self times in it.
SELF_TIME_TOL = 1e-6

# A child process that pays the set-up a user pays: start Python, import
# liftlab, write the first round of the workload's scenario files.
SETUP_CHILD = """
import sys
here, name, seed, workdir, small = sys.argv[1:]
sys.path[:0] = [here]
import workloads
sys.path.insert(0, workloads.ROOT + "/src")
import liftlab.cli
workloads.Inputs(workloads.WORKLOADS[name], int(seed), workdir, small == "1").next_round()
"""


def measure_setup(name: str, seed: int, small: bool) -> float:
    """Median wall time of SETUP_RUNS fresh set-up processes."""
    times = []
    for k in range(SETUP_RUNS):
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            t0 = perf_counter()
            subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, HERE, name, str(seed + k), workdir,
                 "1" if small else "0"],
                check=True,
            )
            times.append(perf_counter() - t0)
    return statistics.median(times)


class _Var:
    __slots__ = ("i",)

    def __init__(self, i):
        self.i = i

    def value(self, p):
        return p[self.i]


class _Const:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def value(self, p):
        return self.c


class _Add:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def value(self, p):
        return self.a.value(p) + self.b.value(p)


class _Mul(_Add):
    def value(self, p):
        return self.a.value(p) * self.b.value(p)


def _tree(depth: int, k: int):
    if depth == 0:
        return _Var(k % 3) if k % 2 else _Const(0.5 + k)
    return (_Add if depth % 2 else _Mul)(_tree(depth - 1, 2 * k), _tree(depth - 1, 2 * k + 1))


class Reference:
    """A fixed piece of interpreter-bound work, timed between cases.

    On a shared host the speed of the whole machine drifts by tens of
    percent from one minute to the next, and every case time drifts with
    it.  After each case the reference runs for SHARE of that case's time,
    so its chunks sample the host's speed across the run in proportion to
    the cases.  A case time divided by the mean chunk time then no longer
    depends on that drift.  The work is the benchmark's own (a small
    expression tree evaluated on numpy rows, as liftlab's per-point loops
    do), so no change to liftlab moves it.
    """

    SHARE = 0.1
    TREE = _tree(7, 1)
    ROWS = np.linspace(0.2, 1.5, 12).reshape(4, 3)

    def __init__(self):
        self.spent = 0.0
        self.chunks = 0

    def _chunk(self) -> float:
        t0 = perf_counter()
        for row in self.ROWS:
            self.TREE.value(row)
        return perf_counter() - t0

    def pace(self, case_s: float) -> None:
        target = self.spent + self.SHARE * case_s
        while True:
            self.spent += self._chunk()
            self.chunks += 1
            if self.spent >= target:
                break

    @property
    def chunk_s(self) -> float:
        return self.spent / self.chunks


class Grader:
    """Compares each report with the verdicts known by construction."""

    def __init__(self):
        self.cases = 0
        self.errors = 0
        self.bad_cases = 0
        self.checks = 0
        self.mismatches = 0
        self.worst_pass_residual = 0.0
        self.min_fail_margin = float("inf")

    def error(self) -> None:
        self.cases += 1
        self.errors += 1

    def grade(self, case: workloads.Case, text: str) -> None:
        self.cases += 1
        report = json.loads(text)
        seen = {c["id"]: c for c in report["checks"]}
        bad = seen.keys() != case.expected.keys() or report["passed"] != all(
            case.expected.values()
        )
        for check, should_pass in case.expected.items():
            self.checks += 1
            got = seen.get(check)
            if got is None or (got["status"] == "pass") != should_pass:
                self.mismatches += 1
                bad = True
                continue
            if not should_pass:
                self.min_fail_margin = min(
                    self.min_fail_margin, got["residual"] / got["tolerance"]
                )
            elif check != "theorem1" or got["detail"]["hypotheses_hold"]:
                # a theorem1 pass with failed hypotheses is vacuous, and its
                # residual measures nothing that should vanish
                self.worst_pass_residual = max(self.worst_pass_residual, got["residual"])
        self.bad_cases += bad

    def summary(self) -> dict:
        return {
            "error_rate": (self.errors / max(self.cases, 1), "ratio"),
            "verdict_mismatch_rate": (self.mismatches / max(self.checks, 1), "ratio"),
            "worst_pass_residual": (self.worst_pass_residual, "abs"),
            "min_fail_margin": (self.min_fail_margin, "ratio"),
        }

    def ok(self, tol: float) -> bool:
        return (
            self.errors == 0
            and self.mismatches == 0
            and self.worst_pass_residual <= tol
            and self.min_fail_margin > 1.0
        )


def run_case(cli, case: workloads.Case) -> str:
    return cli.run_scenario(case.path, seed=case.seed).to_json()


def run_rounds(cli, inputs, grader, budget=None, rounds=None, tracer=None, first=None,
               reference=None):
    """Run whole rounds: a fixed number, or until the next round (judged by
    the last) would end after budget seconds.  Returns, per round, the
    wall time of every completed case; first[0] keeps the first case and
    its JSON for the determinism re-run, and reference is paced after
    every completed case."""
    rounds_times = []
    start = perf_counter()
    while True:
        cases = inputs.next_round()
        t_round = perf_counter()
        times = []
        rounds_times.append(times)
        for case in cases:
            root = tracer.begin_case(grader.cases) if tracer else None
            t0 = perf_counter()
            try:
                text = run_case(cli, case)
            except Exception:
                # a raising case counts as an error; the run goes on
                traceback.print_exc(file=sys.stderr)
                grader.error()
                continue
            finally:
                if tracer:
                    tracer.end_case(root)
            times.append(perf_counter() - t0)
            if reference is not None:
                reference.pace(times[-1])
            if first is not None and not first:
                first.append((case, text))
            grader.grade(case, text)
        last = perf_counter() - t_round
        if rounds is not None:
            if len(rounds_times) >= rounds:
                break
        elif perf_counter() - start + last > budget:
            break
    return rounds_times


def throughput(rounds_times) -> float:
    times = [t for r in rounds_times for t in r]
    return len(times) / sum(times)


def tail(times) -> tuple[float, float, int]:
    """The highest of TAIL_LADDER's percentiles with at least 10 cases
    beyond it, as (percentile, value, cases beyond).  A run too short for
    any falls back to p90 with the few cases beyond it."""
    for pct in TAIL_LADDER:
        value = float(np.percentile(times, pct))
        beyond = sum(t > value for t in times)
        if beyond >= 10:
            return pct, value, beyond
    value = float(np.percentile(times, 90.0))
    return 90.0, value, sum(t > value for t in times)


def end_to_end(rounds_times, reference, setup_s) -> dict:
    """Every end-to-end figure with its unit.  The median is taken per
    round and then over rounds: with a fixed mix of shapes, the pooled
    median sits on the edge between two shapes' blocks of times, where
    single slow cases move it most."""
    times = [t for r in rounds_times for t in r]
    pct, value, beyond = tail(times)
    return {
        "cases_per_s": (throughput(rounds_times), "1/s"),
        "case_cost_ref": (1.0 / (throughput(rounds_times) * reference.chunk_s), "ref"),
        "ref_chunk_s": (reference.chunk_s, "s"),
        "case_p50_s": (statistics.median(statistics.median(r) for r in rounds_times if r), "s"),
        "case_tail_s": (value, "s"),
        "case_tail_pct": (pct, "percentile"),
        "case_tail_beyond": (beyond, "cases"),
        "cases": (len(times), "cases"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One benchmark run; returns the result object printed last."""
    workload = workloads.WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    setup_s = measure_setup(name, seed, small)

    import liftlab.cli as cli

    grader = Grader()
    first: list = []
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        inputs = workloads.Inputs(workload, seed, workdir, small)
        budget = seconds / 2 if trace else seconds
        reference = Reference()
        untraced = run_rounds(cli, inputs, grader, budget=budget, first=first,
                              reference=reference)
        if not first:
            raise SystemExit("error: every case raised; no time to report")
        metrics = end_to_end(untraced, reference, setup_s)

        layers = {}
        gap = 0.0
        if trace:
            tracer = spans.Tracer()
            traced_from = grader.cases
            tracer.install()
            try:
                traced = run_rounds(cli, inputs, grader, rounds=len(untraced), tracer=tracer)
            finally:
                tracer.uninstall()
            overhead = throughput(traced) / metrics["cases_per_s"][0]
            layers = spans.layer_metrics(tracer, list(range(traced_from, grader.cases)), overhead)
            gap = spans.check_self_times(tracer)
            tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.json.gz"))

        case, text = first[0]
        deterministic = run_case(cli, case) == text

    correct = grader.ok(cli.DEFAULT_TOL) and deterministic and gap <= SELF_TIME_TOL
    report = {**metrics, **grader.summary(), "deterministic": (deterministic, "bool")}
    if trace:
        report["self_time_gap_s"] = (gap, "s")
    for key, (value, unit) in report.items():
        text = str(value) if isinstance(value, bool) else f"{value:.6g}"
        print(f"{name:<16} {key:<24} {text} {unit}")
    chosen = layers or {k: metrics[k] for k in GATED}
    return {
        "correct": bool(correct),
        "attempted": grader.cases,
        "failed": grader.errors + grader.bad_cases,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in chosen.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # leave through SystemExit on SIGTERM, so temporary inputs are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "liftlab", "__init__.py")):
        print(f"error: no liftlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
