"""Tests of the command line interface: end to end via subprocess, and in
process for the names it binds and the functions the benchmark's trace wraps."""

import json
import math
import subprocess
import sys

import pytest

BASE = [sys.executable, "-m", "hahncalc"]


def run_cli(*args):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=120
    )


def parse_csv(text):
    """Split CSV output into (metadata dict, header list, row lists)."""
    meta = {}
    rows = []
    header = None
    for line in text.strip().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# ---------------------------------------------------------------------------
# usage errors


def test_missing_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 1


def test_bad_q_is_usage_error():
    proc = run_cli(
        "kinematics", "--q", "1.5", "--x0", "0", "--v0", "1", "--a", "0",
        "--t-start", "0", "--t-end", "1", "--samples", "2",
    )
    assert proc.returncode == 1
    assert "q" in proc.stderr


def test_unknown_flag_is_usage_error():
    proc = run_cli("kinematics", "--q", "0.5", "--frequency", "3")
    assert proc.returncode == 1


def test_unknown_route_is_usage_error():
    proc = run_cli(
        "kinematics", "--q", "0.5", "--routes", "closed,psychic",
        "--t-start", "0", "--t-end", "1", "--samples", "2",
    )
    assert proc.returncode == 1


# ---------------------------------------------------------------------------
# kinematics command


KIN_ARGS = [
    "kinematics", "--q", "0.5", "--w", "0.1",
    "--x0", "1", "--v0", "2", "--a", "3",
    "--t-start", "0", "--t-end", "2", "--samples", "5",
]


def test_kinematics_schema():
    proc = run_cli(*KIN_ARGS)
    assert proc.returncode == 0
    meta, header, rows = parse_csv(proc.stdout)
    assert meta["command"] == "kinematics"
    assert meta["q"] == "0.5"
    assert meta["w0"] == "0.2"
    assert header == ["t", "closed", "iterative", "second-order", "classical", "flag"]
    assert len(rows) == 5
    assert all(row[-1] == "ok" for row in rows)


def test_kinematics_route_agreement_summary():
    proc = run_cli(*KIN_ARGS, "--routes", "closed,iterative")
    meta, header, rows = parse_csv(proc.stdout)
    assert header == ["t", "closed", "iterative", "classical", "flag"]
    assert float(meta["agreement_closed_iterative"]) < 1e-9


def test_kinematics_constant_column_at_rest():
    proc = run_cli(
        "kinematics", "--q", "0.5", "--w", "0.1",
        "--x0", "1.5", "--v0", "0", "--a", "0",
        "--t-start", "0", "--t-end", "2", "--samples", "4",
    )
    _, header, rows = parse_csv(proc.stdout)
    closed = header.index("closed")
    assert all(float(row[closed]) == pytest.approx(1.5, abs=1e-12) for row in rows)


def test_kinematics_classical_limit_column():
    # The closed/classical gap is a t^2 (1-q)/(2(1+q)); keep a t^2 small
    # enough that the 1e-5 bound is a real margin, not luck.
    proc = run_cli(
        "kinematics", "--q", "0.999", "--w", "1e-6",
        "--x0", "0", "--v0", "1", "--a", "0.5",
        "--t-start", "0", "--t-end", "0.25", "--samples", "5",
    )
    _, header, rows = parse_csv(proc.stdout)
    closed, classical = header.index("closed"), header.index("classical")
    for row in rows:
        assert abs(float(row[closed]) - float(row[classical])) < 1e-5


def test_kinematics_json_schema():
    proc = run_cli(*KIN_ARGS, "--format", "json")
    payload = json.loads(proc.stdout)
    assert set(payload) == {"metadata", "columns", "flags"}
    assert payload["metadata"]["command"] == "kinematics"
    assert set(payload["columns"]) == {
        "t", "closed", "iterative", "second-order", "classical"
    }
    assert payload["flags"] == ["ok"] * 5


def test_kinematics_deterministic_output():
    first = run_cli(*KIN_ARGS)
    second = run_cli(*KIN_ARGS)
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# drag command


DRAG_ARGS = [
    "drag", "--q", "0.5", "--w", "0.1",
    "--m", "1", "--k", "0.5", "--g", "9.8", "--v0", "0",
    "--t-start", "0", "--t-end", "2", "--samples", "4",
]


def test_drag_schema_and_agreement():
    proc = run_cli(*DRAG_ARGS, "--routes", "closed,series,iterative")
    assert proc.returncode == 0
    meta, header, rows = parse_csv(proc.stdout)
    assert header == ["t", "closed", "series", "iterative", "flag"]
    assert float(meta["agreement_closed_series"]) < 1e-9
    assert float(meta["agreement_closed_iterative"]) < 1e-6


def test_drag_zero_column_without_forcing():
    proc = run_cli(
        "drag", "--q", "0.5", "--w", "0.1",
        "--m", "1", "--k", "0.5", "--g", "0", "--v0", "0",
        "--t-start", "0", "--t-end", "2", "--samples", "3",
        "--routes", "closed,series",
    )
    _, header, rows = parse_csv(proc.stdout)
    for row in rows:
        assert float(row[header.index("closed")]) == 0.0
        assert float(row[header.index("series")]) == 0.0


def test_drag_classical_limit_column():
    proc = run_cli(
        "drag", "--q", "0.999", "--w", "1e-6",
        "--m", "1", "--k", "0.5", "--g", "9.8", "--v0", "0",
        "--t-start", "1", "--t-end", "1", "--samples", "1",
    )
    _, header, rows = parse_csv(proc.stdout)
    closed, classical = header.index("closed"), header.index("classical")
    assert abs(float(rows[0][closed]) - float(rows[0][classical])) < 5e-2


def test_drag_pole_row_flagged_and_emptied():
    # For these parameters v has a pole at t = (w - 1/kappa)/(1 - q) = -5.8,
    # where e_{q,w}(-kappa t) has one, and every deformed route flags it.
    # At t = (w + 1/kappa)/(1 - q) = 6.2 only e_{q,w}(kappa t) has a pole;
    # it enters v through its reciprocal, so v is finite (0 at g = 0).
    proc = run_cli(
        "drag", "--q", "0.5", "--w", "0.1",
        "--m", "1", "--k", "0.5", "--g", "0", "--v0", "2",
        "--t-start", "-5.8", "--t-end", "6.2", "--samples", "2",
        "--routes", "closed,series,iterative",
    )
    assert proc.returncode == 0
    _, header, rows = parse_csv(proc.stdout)
    assert rows[0][1:] == ["", "", "", "pole"]
    assert rows[1][1:] == ["0.0", "0.0", "0.0", "ok"]


def test_drag_all_pole_rows_exit_3():
    proc = run_cli(
        "drag", "--q", "0.5", "--w", "0.1",
        "--m", "1", "--k", "0.5", "--g", "0", "--v0", "2",
        "--t-start", "-5.8", "--t-end", "-5.8", "--samples", "1",
        "--routes", "closed",
    )
    assert proc.returncode == 3


def test_drag_nonconvergent_budget_exit_3():
    proc = run_cli(
        "drag", "--q", "0.999", "--w", "1e-6",
        "--m", "1", "--k", "0.5", "--g", "0", "--v0", "2",
        "--t-start", "1", "--t-end", "1", "--samples", "1",
        "--routes", "series", "--max-terms", "3",
    )
    assert proc.returncode == 3
    _, _, rows = parse_csv(proc.stdout)
    assert rows[0][-1] == "nonconvergent"


def test_drag_classical_limit_fits_small_budget():
    # Near q = 1 the product needs ~3000 factors; the log series needs < 30 terms.
    proc = run_cli(
        "drag", "--q", "0.99", "--w", "0.5", "--g", "9.8", "--v0", "1",
        "--t-start", "0", "--t-end", "2", "--samples", "9",
        "--routes", "closed,series", "--max-terms", "500",
    )
    assert proc.returncode == 0
    _, _, rows = parse_csv(proc.stdout)
    assert len(rows) == 9
    assert all(row[-1] == "ok" for row in rows)


def test_pure_drag_iteration_budget_flags_nonconvergent():
    # Near q = 1 the iteration at g = 0 takes about 200 steps plus series
    # terms, past a budget of 150 that the closed form fits in; a budget of
    # 4000 fills every cell.
    args = [
        "drag", "--q", "0.99", "--w", "0.5", "--g", "0", "--v0", "1",
        "--t-start", "0", "--t-end", "2", "--samples", "5",
        "--routes", "closed,iterative",
    ]
    proc = run_cli(*args, "--max-terms", "150")
    assert proc.returncode == 3
    _, header, rows = parse_csv(proc.stdout)
    assert header == ["t", "closed", "iterative", "flag"]
    assert len(rows) == 5
    assert all(row[1] and not row[2] and row[3] == "nonconvergent" for row in rows)
    proc = run_cli(*args, "--max-terms", "4000")
    assert proc.returncode == 0
    _, _, rows = parse_csv(proc.stdout)
    assert all(row[2] and row[3] == "ok" for row in rows)


def test_gravity_iteration_budget_flags_nonconvergent():
    # At q = 0.99, w0 = 2000 the walk toward the fixed point alone takes about
    # 550 steps, past a budget of 500; a larger budget fills every cell.
    args = [
        "drag", "--q", "0.99", "--w", "20", "--g", "9.8", "--v0", "1",
        "--t-start", "0", "--t-end", "2", "--samples", "5",
        "--routes", "iterative,classical",
    ]
    proc = run_cli(*args, "--max-terms", "500")
    assert proc.returncode == 3
    _, header, rows = parse_csv(proc.stdout)
    assert header == ["t", "iterative", "classical", "flag"]
    assert len(rows) == 5
    assert all(not row[1] and row[2] and row[3] == "nonconvergent" for row in rows)
    proc = run_cli(*args, "--max-terms", "1000")
    assert proc.returncode == 0
    _, _, rows = parse_csv(proc.stdout)
    assert all(row[1] and row[3] == "ok" for row in rows)


# ---------------------------------------------------------------------------
# verify command


def test_verify_defaults_pass():
    proc = run_cli("verify")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if not l.startswith("#")]
    assert len(lines) == 10
    assert all(line.endswith("PASS") for line in lines)


def test_verify_echoes_q_grid():
    proc = run_cli("verify", "--q-grid", "0.3,0.5,0.9")
    assert "0.3,0.5,0.9" in proc.stdout


def test_verify_unsatisfiable_tolerance_fails():
    proc = run_cli("verify", "--tol", "1e-30")
    assert proc.returncode == 2
    lines = [l for l in proc.stdout.splitlines() if not l.startswith("#")]
    assert all(line.endswith("FAIL") for line in lines)


# ---------------------------------------------------------------------------
# sweep command


@pytest.mark.parametrize("args", [KIN_ARGS, DRAG_ARGS], ids=["kinematics", "drag"])
def test_single_point_sweep_matches_base(args):
    # sweep <base> takes its base's options as they are; its table is the
    # base's with q,w columns prepended, and its metadata differs only in
    # command, base and w0.
    base = run_cli(*args)
    sweep = run_cli("sweep", *args)
    assert base.returncode == sweep.returncode == 0
    base_meta, base_header, base_rows = parse_csv(base.stdout)
    sweep_meta, sweep_header, sweep_rows = parse_csv(sweep.stdout)
    assert (base_meta["command"], sweep_meta["command"]) == (args[0], "sweep")
    assert sweep_meta["base"] == args[0]
    assert "w0" in base_meta and "w0" not in sweep_meta
    for key in ("command", "base", "w0"):
        base_meta.pop(key, None)
        sweep_meta.pop(key, None)
    assert sweep_meta == base_meta
    assert sweep_header == ["q", "w"] + base_header
    assert [row[2:] for row in sweep_rows] == base_rows


def test_sweep_row_order_is_q_major():
    proc = run_cli(
        "sweep", "kinematics",
        "--sweep", "q=0.3:0.9:3", "--sweep", "w=0:1:2",
        "--x0", "0", "--v0", "1", "--a", "1",
        "--t-start", "0", "--t-end", "1", "--samples", "2",
    )
    _, header, rows = parse_csv(proc.stdout)
    keys = [(float(r[0]), float(r[1]), float(r[2])) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 3 * 2 * 2


def test_sweep_quadratic_term_tracks_q():
    # At fixed t the closed-form position is x0 + v0 t + a t^2/(1+q).
    proc = run_cli(
        "sweep", "kinematics", "--sweep", "q=0.2:0.8:4",
        "--w", "0", "--x0", "0", "--v0", "0", "--a", "2",
        "--t-start", "2", "--t-end", "2", "--samples", "1",
        "--routes", "closed",
    )
    _, header, rows = parse_csv(proc.stdout)
    closed = header.index("closed")
    for row in rows:
        q = float(row[0])
        assert float(row[closed]) == pytest.approx(8.0 / (1 + q), rel=1e-12)


def test_sweep_deterministic():
    args = [
        "sweep", "drag", "--sweep", "q=0.4:0.8:3",
        "--m", "1", "--k", "0.5", "--g", "9.8", "--v0", "0",
        "--t-start", "0", "--t-end", "1", "--samples", "3",
    ]
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_sweep_bad_axis_is_usage_error():
    proc = run_cli(
        "sweep", "kinematics", "--sweep", "m=1:2:2",
        "--t-start", "0", "--t-end", "1", "--samples", "2",
    )
    assert proc.returncode == 1


def test_sweep_option_before_base_names_the_option():
    proc = run_cli("sweep", "--samples", "2", "kinematics", "--q", "0.5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "options follow the base: hahncalc sweep <base> --samples ..." in proc.stderr
    assert "invalid choice" not in proc.stderr


def test_option_before_command_names_the_option():
    # python -m hahncalc calls main() with no argv, so the parser reads sys.argv.
    proc = run_cli("--samples=3", "drag", "--q", "0.5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: hahncalc [-h]")
    assert "options follow the command: hahncalc <command> --samples ..." in proc.stderr


# ---------------------------------------------------------------------------
# in process: route names and the trace's seams


def test_route_names_resolve_to_route_object_attributes():
    from hahncalc import cli
    from hahncalc.kinematics import _KinematicRoutes
    from hahncalc.resist import _DragRoutes

    for names, routes in ((cli.KINEMATICS_ROUTES, _KinematicRoutes), (cli.DRAG_ROUTES, _DragRoutes)):
        for name in names:
            assert hasattr(routes, name.replace("-", "_")), (routes.__name__, name)


def test_evaluate_block_takes_a_dict_of_callables():
    # perfbench/child.py times rows by wrapping cli._evaluate_block(ts,
    # route_names, evaluators) and passing it a dict of callables.
    from hahncalc import cli
    from hahncalc.errors import NonConvergentError, PoleEncounteredError

    def pole_at_1(t):
        if t == 1.0:
            raise PoleEncounteredError("pole")
        return 2.0 * t

    def budget_at_2(t):
        if t == 2.0:
            raise NonConvergentError("budget")
        return t + 0.5

    columns, flags = cli._evaluate_block(
        [0.0, 1.0, 2.0], ["a", "b"], {"a": pole_at_1, "b": budget_at_2}
    )
    assert columns == {"a": [0.0, None, 4.0], "b": [0.5, 1.5, None]}
    assert flags == ["ok", "pole", "nonconvergent"]


def test_qpochhammer_inf_returns_value_and_zero_factor_hit():
    # perfbench/child.py counts product factors by wrapping
    # core._qpochhammer_inf(a, q, policy), which returns (value, hit).
    from hahncalc import core

    value, hit = core._qpochhammer_inf(0.5, 0.5, core.DEFAULT_POLICY)
    assert value == pytest.approx(math.prod(1.0 - 0.5 * 0.5**k for k in range(80)), rel=1e-14)
    assert hit is False
    value, hit = core._qpochhammer_inf(2.0, 0.5, core.DEFAULT_POLICY)
    assert (value, hit) == (0.0, True)
