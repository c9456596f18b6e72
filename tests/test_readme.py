"""The README's library example runs as written."""

import re
from pathlib import Path

from liftlab import expr

README = Path(__file__).resolve().parent.parent / "README.md"


def _run_library_example():
    text = README.read_text()
    start = text.index("## Library example")
    block = re.search(r"```python\n(.*?)```", text[start:], re.DOTALL)
    # blank lines in front, so that a traceback names the README's own line
    line = text.count("\n", 0, start + block.start(1))
    exec(compile("\n" * line + block.group(1), str(README), "exec"), {})


def test_library_example_runs():
    _run_library_example()


def test_library_example_runs_each_input_tape_twice(monkeypatch):
    # verify_theorem1 runs in a case of its own on its points: phi and xi are
    # read at order 0 (its square, the purity defect) and then at order 1
    # (the Tachibana image), each tape once at each
    runs = []
    tape_jets = expr.Tape.jets
    monkeypatch.setattr(expr.Tape, "jets",
                        lambda tape, p, k: runs.append(k) or tape_jets(tape, p, k))
    _run_library_example()
    assert sorted(runs) == [0, 0, 1, 1]
