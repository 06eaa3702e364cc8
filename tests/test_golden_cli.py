"""Golden CLI panel: replay small invocations and compare stdout byte for byte.

Each case in golden/cases.json names an argv and its exit code.  A case that
exits 1 (usage error) must print nothing to standard output; every other case
must print exactly golden/<name>.out.  The arguments live in the JSON file,
not in this module, so the panel contributes no float literals to the
constants Hypothesis draws from.

After a deliberate change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from hahncalc.cli import EXIT_USAGE, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run(argv):
    """Run the CLI in-process; return (stdout, exit code)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), code


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_invocation(case):
    stdout, code = run(case["argv"])
    assert code == case["exit"]
    if case["exit"] == EXIT_USAGE:
        assert stdout == ""
    else:
        expected = (GOLDEN / f"{case['name']}.out").read_text()
        assert stdout == expected


def regenerate():
    for case in CASES:
        stdout, code = run(case["argv"])
        if code != case["exit"]:
            sys.exit(f"{case['name']}: exit {code}, manifest says {case['exit']}")
        if code != EXIT_USAGE:
            (GOLDEN / f"{case['name']}.out").write_text(stdout)


if __name__ == "__main__":
    regenerate()
