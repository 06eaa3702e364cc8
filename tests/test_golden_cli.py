"""Golden CLI panel: replay small invocations and compare stdout byte for byte.

Each case in golden/cases.json names an argv and its exit code.  A case that
exits 1 (usage error) must print nothing to standard output, its usage
line must name the command given, and its standard error must hold the
case's "error" text where it gives one; every other case must print exactly
golden/<name>.out.  The arguments live in the JSON file, not in this module,
so the panel contributes no float literals to the constants Hypothesis draws
from.

After a deliberate change of output, see what moved with

    PYTHONPATH=src python tests/test_golden_cli.py --diff

which writes nothing and reports, per golden file, the lines changed, the
numeric table cells moved, the worst relative move, and the columns whose
cells moved (for verify, each field with its identity, such as
max_residual[power-rule]) or, when none did, the metadata keys that moved.
It exits 1 when any case differs and 0 when none does, so "nothing moved"
can be checked by its exit status.  A cell's move is |new - old| /
max(1, |old|, |new|), the error scale of the CLI's agreement rule and of
the benchmark's reference errors, so a cell near 0 that moves by rounding
reads as a small move; then regenerate
the files with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import difflib
import io
import json
import pathlib
import sys

import pytest

from hahncalc.cli import BASES, EXIT_USAGE, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run(argv, err=None):
    """Run the CLI in-process; return (stdout, exit code).

    Standard error goes to err when given, else it is discarded.
    """
    out = io.StringIO()
    err = io.StringIO() if err is None else err
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), code


def command_words(argv):
    """The words that argv's usage line starts with.

    hahncalc, then the command given, then after sweep the base given.
    """
    words = ["hahncalc"]
    if argv[:1] and argv[0] in (*BASES, "verify", "sweep"):
        words.append(argv[0])
        if argv[0] == "sweep" and argv[1:2] and argv[1] in BASES:
            words.append(argv[1])
    return words


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_invocation(case):
    err = io.StringIO()
    stdout, code = run(case["argv"], err)
    assert code == case["exit"]
    if case["exit"] == EXIT_USAGE:
        assert stdout == ""
        usage = "usage: " + " ".join(command_words(case["argv"])) + " [-h]"
        assert err.getvalue().startswith(usage)
        assert case.get("error", "") in err.getvalue()
    else:
        expected = (GOLDEN / f"{case['name']}.out").read_text()
        assert stdout == expected


def test_golden_files_match_the_cases_one_to_one():
    names = [case["name"] for case in CASES]
    assert len(names) == len(set(names))
    expected = {f"{case['name']}.out" for case in CASES if case["exit"] != EXIT_USAGE}
    assert {path.name for path in GOLDEN.glob("*.out")} == expected


def test_entries_reads_verify_lines_by_identity():
    text = (
        "# identity-suite\n"
        "# seed=3\n"
        "power-rule    cases=207   max_residual=3.410605e-13 tol=1.0e-10 PASS\n"
        "q-number-sum  cases=207   max_residual=5.8e-11 tol=1.0e-12 FAIL\n"
    )
    assert entries(text) == {
        ("metadata", "identity-suite"): "",
        ("metadata", "seed"): "3",
        ("cases", "power-rule"): "207",
        ("max_residual", "power-rule"): "3.410605e-13",
        ("tol", "power-rule"): "1.0e-10",
        ("status", "power-rule"): "PASS",
        ("cases", "q-number-sum"): "207",
        ("max_residual", "q-number-sum"): "5.8e-11",
        ("tol", "q-number-sum"): "1.0e-12",
        ("status", "q-number-sum"): "FAIL",
    }


def regenerate():
    for case in CASES:
        stdout, code = run(case["argv"])
        if code != case["exit"]:
            sys.exit(f"{case['name']}: exit {code}, manifest says {case['exit']}")
        if code != EXIT_USAGE:
            (GOLDEN / f"{case['name']}.out").write_text(stdout)


def entries(text):
    """An output as {key: value}: ("metadata", name) and (column, row) keys.

    JSON outputs are parsed as such; CSV metadata comes from the `# key=value`
    lines and cells from the rows under the header, all kept as strings.
    A verify output has no header: each `name cases=... max_residual=...
    tol=... STATUS` line gives the cells (key, name) of its key=value fields
    and ("status", name).
    """
    if text.startswith("{"):
        payload = json.loads(text)
        out = {("metadata", key): value for key, value in payload["metadata"].items()}
        for name, column in [*payload["columns"].items(), ("flag", payload["flags"])]:
            out.update(((name, row), value) for row, value in enumerate(column))
        return out
    lines = text.splitlines()
    out = {("metadata", line[2:].partition("=")[0]): line.partition("=")[2]
           for line in lines if line.startswith("# ")}
    rows = [line for line in lines if not line.startswith("#")]
    if lines[:1] == ["# identity-suite"]:
        for line in rows:
            name, *fields, status = line.split()
            out.update(((key, name), value) for key, _, value in
                       (field.partition("=") for field in fields))
            out["status", name] = status
        return out
    rows = [line.split(",") for line in rows]
    for row, cells in enumerate(rows[1:]):
        out.update(((name, row), cell) for name, cell in zip(rows[0], cells))
    return out


def as_number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def diff_report(old, new):
    """One line on how the output new differs from the golden text old."""
    changed = sum(
        max(i2 - i1, j2 - j1)
        for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(
            None, old.splitlines(), new.splitlines(), autojunk=False
        ).get_opcodes()
        if tag != "equal"
    )
    before, after = entries(old), entries(new)
    moved = [key for key in before.keys() | after.keys() if before.get(key) != after.get(key)]
    cells = [key for key in moved if key[0] != "metadata"]
    pairs = [(as_number(before.get(key)), as_number(after.get(key))) for key in cells]
    numeric = [(x, y) for x, y in pairs if x is not None and y is not None]
    worst = max((abs(y - x) / max(1.0, abs(x), abs(y)) for x, y in numeric), default=0)
    line = f"{changed} lines changed, {len(numeric)} numeric cells moved"
    if numeric:
        line += f", worst relative move {worst:.2g}"
    if len(numeric) < len(cells):
        line += f", {len(cells) - len(numeric)} other cells changed"
    if cells:
        # Table rows are numbered and only their columns are named; verify's
        # rows are identities, named with the field that moved.
        line += ", in " + ",".join(sorted(
            {key[0] if isinstance(key[1], int) else f"{key[0]}[{key[1]}]" for key in cells}
        ))
    else:
        names = sorted(key[1] for key in moved)
        line += ", metadata only: " + ",".join(names)
    return line


def diff():
    """Report what moved against the golden files; write nothing.

    Returns the number of cases that differ.
    """
    differ = 0
    for case in CASES:
        stdout, code = run(case["argv"])
        if code != case["exit"]:
            print(f"{case['name']}: exit {code}, manifest says {case['exit']}")
            differ += 1
        elif code != EXIT_USAGE:
            golden = (GOLDEN / f"{case['name']}.out").read_text()
            if stdout != golden:
                print(f"{case['name']}: {diff_report(golden, stdout)}")
                differ += 1
    print(f"{differ} of {len(CASES)} cases differ")
    return differ


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(1 if diff() else 0)
    else:
        regenerate()
