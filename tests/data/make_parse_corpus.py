"""Write parse_corpus.json, the golden record of the expression parser.

    PYTHONPATH=src python tests/data/make_parse_corpus.py

For each seeded text the record holds either the printed tree and the
slot count of the tape parsed from that print, with a sha256 of the
tape's jets to order 2 at fixed points, or the ParseError's message and
position.  The jet
digests hold only where numpy evaluates sin, cos, exp and powers with
the same kernels, so the file also records the numpy version and the
CPU features they were taken with.
tests/test_parse_corpus.py requires the parser to reproduce every entry.
The entries pin the behaviour of a parser already trusted, so regenerate
them only from such a parser, never to make a changed one pass.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

import numpy as np

from liftlab.expr import ParseError, Tape, parse

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "parse_corpus.json")


def points(n: int) -> np.ndarray:
    """Generic points in the default box, plus the origin and the unit
    point, where poles and 0^-k turn values non-finite."""
    rng = np.random.default_rng(20261019 + n)
    return np.vstack([rng.uniform(0.2, 1.5, size=(4, n)), np.zeros(n), np.ones(n)])


def environment() -> dict:
    """The numpy version and the CPU features its kernels dispatch on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return {"numpy": np.__version__, "cpu_features": sorted(k for k, on in features.items() if on)}


def jets_digest(tape: Tape, n: int) -> str:
    h = hashlib.sha256()
    for a in tape.jets(points(n), 2):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def poly(rng, n: int, degree: int, scale: float) -> str:
    """A dense random polynomial printed to six decimals, in the shape the
    benchmark's generator writes."""
    monomials = [""] + [f"x{i}" for i in range(1, n + 1)] * (degree >= 1)
    if degree >= 2:
        monomials += [f"x{i}^2" if i == j else f"x{i}*x{j}"
                      for i in range(1, n + 1) for j in range(i, n + 1)]
    coefs = rng.uniform(-scale, scale, size=len(monomials))
    text = f"{coefs[0]:.6f}"
    for c, m in zip(coefs[1:], monomials[1:]):
        text += f" {'-' if c < 0 else '+'} {abs(c):.6f}*{m}"
    return text


TRANSCENDENTAL = [
    "sin(x1)*exp(x2)/(x1 - x2)", "x1^-3 + x2^-2*cos(x1)", "exp(-x1^2)/x2",
    "(x1 + x2)^-1*sin(x2/x1)", "1/x1 - x2^-1", "exp(709*x1)*1e-300",
    "exp(700*x2)*1e-300", "x1^-2*0", "1e308*x1*x2", "1/(x1 - 2)",
]

FOLDS = [
    "10^400*x1", "exp(1000)", "exp(1000)*x1", "x1*0", "0*x1", "- -x1", "--x1", "---x1",
    "2^-1", "0*x1 + x2", "2*3 + x1 - 0", "1*x1", "x1*1", "x1^1", "x1^0", "0^0", "-0",
    "0*-1", "-0*x1", "x1 - -x1", "x1 - - -x1", "1e308*10", "1e308*x1*10", "10*1e308*x1",
    "exp(709)", "exp(710)", "exp(-1000)", "sin(0)", "cos(0)*x1", "sin(1e300)",
    "0^-1", "0^-1*x1", "(0)^-2", "x1*0^-1", "2^1024", "2^1023", "0.5^-1100", "0.5^1100",
    "(-2)^3", "-2^2", "(-2)^-3", "1/0", "0/0", "x1/0", "0/x1", "x1/1", "1/x1", "2/4",
    "1e308/1e-308", "1e-320*1e-10", "x1^2^3", "x1^-1^-1", "(x1^2)^0", "1*1", "0*0",
    "-x1*0", "x1 + 0", "0 + x1", "0 - x1", "x1 - 0", "1 - 1", "x1 - x1", "-(-(x1))",
    "-(1 + 2)", "-(x1 + 0)", "exp(0)*x2", "exp(1)^2", "cos(x1)^0", "2^-1074", "2^-1075",
    "2^99999999999", "1^99999999999", "1e308 + 1e308", "1e308 - -1e308", "-1e308 - 1e308",
    "x1 + 1e308 + 1e308", "1.7976931348623157e308*1.0000000000000002", "5e-324/2",
    "1e-320^2*x1", "(1e154*1e154)*1e154", "x1*(2*3)*(4*5)", "(x1 + 1)*(x1 + 1)",
    "x1*x2 + x1*x2", "sin(x1)*sin(x1) + cos(x1)*cos(x1)", "x1^2 - x1^2",
    "2.5e+3*x1", "2.5E-3*x2", ".5*x1", "5.*x1", "0.000000*x1", "-0.000000*x1 + 1",
]

ERRORS = [
    "x3", "x0", "2*", "sin(x1", "", "   ", "2**x1", "x1 + + x2", "foo(x1)", "x١ + 1",
    "x1²", "x²", "1 + x1²", "١ + 1", "x1^١", "١٢.5",
    "1e999*x1", "1e308*10", "x1 + + é", "2 * 1..5 é", "x1 $ 1..5", "1.2e-05*x1",
    "2E2", "x1^1.5", "x1^1e2", "x1^x2", "x1^(2)", "x1^--2", "x1^-", "x1^", "sin x1",
    "sin()", "sin(x1))", "(x1", "((x1)", "x1)", ")", "(", "x1 x2", "2 3", "x1 (x2)",
    "sin(x1)(x2)", "sin", "exp(", "exp(1000) $", "1e308*10 $", "10^400 $", "x3 + $",
    "$ + x3", "x1 + x3 $", "1..2", "1.2.3*x1", "1e", "1e+", "x1 +", "* x1", "/x1",
    "x1 /", "^2", "x1 ^ ^ 2", "sin(x1, x2)", "x1,x2", "x1\tx2", "x1\n+\nx2", "x1_2",
    "X1", "xx1", "x01", "x1e2", "_x1", "é", "1 + é + $", "sin(é)", "cos)",
    "x2 + x3*0", "x3*0", "0*x3", "x1^99999999999999999999", "2^-99999999999999999999",
    "(" * 20 + "x1" + ")" * 19, "(" * 20 + "x1" + ")" * 20, "sin(" * 20 + "x1" + ")" * 20,
    "-" * 40 + "x1", "-" * 41 + "2", "x1" + "^2" * 12, "x1" + " + x2" * 200,
]


def wild(rng) -> list[str]:
    """The component texts the exit-code fuzz of the CLI tests draws."""
    out = [f"{c!r}*x1" for c in rng.uniform(1e100, 1.7e308, size=8)]
    out += ["1e308*x1*x2", "exp(700)*x1", "exp(900*x1)", "1e200*x1^2 + 1e200"]
    out += [f"1/(x1 - {a!r})" for a in rng.uniform(0.2, 1.5, size=8)]
    out += ["1/(x1 - x1)", "x2/(x1 - x2)", "1/sin(x1 - 1)", "x1/(x2*x2 - x1*x1)"]
    out += [f"1e-12*({t})" for t in ("x1^2 + x2", "x1*x2", "sin(x1)")]
    return out


def random_expression(rng, depth: int) -> str:
    """A random expression of the grammar, parenthesised where needed."""
    if depth == 0 or rng.random() < 0.25:
        return str(rng.choice(["x1", "x2", "1", "0", "2.5", "0.5", "3", "1e3", "-1"]))
    kind = rng.integers(0, 9)
    a = random_expression(rng, depth - 1)
    if kind < 4:
        b = random_expression(rng, depth - 1)
        return f"({a}) {'+-*/'[kind]} ({b})" if rng.random() < 0.5 else f"{a} {'+-*/'[kind]} {b}"
    if kind == 4:
        return f"-({a})" if rng.random() < 0.5 else f"-{a}"
    if kind == 5:
        return f"({a})^{int(rng.integers(-3, 4))}"
    return f"{['sin', 'cos', 'exp'][kind - 6]}({a})"


SOUP = ["x1", "x2", "x3", "1", "0", "2.5", "1e308", "1..2", "(", ")", "+", "-", "*", "/",
        "^", "sin", "cos", "exp", "$", " ", "2", "-1", "foo", "é", "^-"]


def soup(rng, length: int) -> str:
    """Random tokens, mostly not in the grammar's order: error positions."""
    return "".join(str(t) for t in rng.choice(SOUP, size=length))


def corpus() -> list[tuple[str, int]]:
    rng = np.random.default_rng(19)
    texts = [(poly(rng, n, degree, scale), n)
             for n, degree, scale in itertools.product((1, 2, 3, 4), (0, 1, 2), (0.5, 0.4))
             for _ in range(3)]
    texts += [(t, 2) for t in TRANSCENDENTAL + FOLDS + ERRORS + wild(rng)]
    texts += [(t, 3) for t in ("x3 + x1", "x3*0 + x2", "sin(x3)^2")]
    texts += [(random_expression(rng, int(rng.integers(1, 6))), 2) for _ in range(150)]
    texts += [(soup(rng, int(rng.integers(1, 9))), 2) for _ in range(150)]
    return texts


def record(text: str, n: int) -> dict:
    entry = {"text": text, "n": n}
    try:
        e = parse(text, n)
    except ParseError as exc:
        entry["error"] = [str(exc), exc.position]
        return entry
    tape = Tape([(str(e), n)])
    entry.update(tree=str(e), slots=len(tape))
    try:
        with np.errstate(all="ignore"):
            entry["jets"] = jets_digest(tape, n)
    except OverflowError as exc:  # an exponent past the C long range
        entry["jets"] = f"raises {type(exc).__name__}"
    return entry


def main() -> None:
    entries = [record(t, n) for t, n in corpus()]
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump({"recorded_with": environment(), "entries": entries}, fh, indent=0,
                  ensure_ascii=True)
        fh.write("\n")
    print(f"{len(entries)} entries, {sum('error' in e for e in entries)} errors -> {PATH}")


if __name__ == "__main__":
    main()
