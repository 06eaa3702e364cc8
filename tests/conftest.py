"""Shared pytest plumbing: collect acceptance-criterion lines for the summary,
and the environment of the child interpreters that tests start."""

import os
from pathlib import Path

ACCEPTANCE_LINES: list[str] = []


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def child_env() -> dict[str, str]:
    """os.environ with the src directory of the hahncalc imported here first on
    PYTHONPATH, so a child interpreter runs this checkout without an install."""
    import hahncalc

    src = str(Path(hahncalc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
