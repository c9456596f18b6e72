"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    start = text.index("## Library example")
    block = re.search(r"```python\n(.*?)```", text[start:], re.DOTALL)
    # blank lines in front, so that a traceback names the README's own line
    line = text.count("\n", 0, start + block.start(1))
    exec(compile("\n" * line + block.group(1), str(README), "exec"), {})
