import pytest

import _acceptance_log
from liftlab import expr


@pytest.fixture(autouse=True)
def no_kept_tapes():
    """Every test starts with no compiled tape kept, so what it counts
    does not depend on the tests that ran before it."""
    expr._TAPES.clear()


def pytest_terminal_summary(terminalreporter):
    if _acceptance_log.lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_log.lines:
            terminalreporter.write_line(line)
