"""hahncalc benchmark: four workloads, output checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from the
checkout's src/ and nothing is built.  All load comes from this one process,
which starts one child at a time and never imports hahncalc itself:

* CLI workloads spawn `python -m hahncalc sweep ...` repeatedly for S
  seconds; the library workload spawns perfbench/child.py with a seeded
  call list instead.
* With --trace 0 the metrics are the end-to-end ones: set-up time, rows (or
  calls) per second, child CPU time, child peak RSS, failed cells, silently
  disagreeing rows, and each route's worst error against a 40-digit mpmath
  reference (perfbench/reference.py) on a fixed accuracy panel.
* With --trace 1 one child runs the same work in-process, alternately
  untraced and with span wrappers installed (perfbench/spans.py), and the
  metrics are per layer.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md for why each
workload and metric exists.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

# Every invocation set is at least this long, so medians and the
# byte-identity check have something to work with even at --seconds 1.
MIN_INVOCATIONS = 3
SETUP_PROBES = 11
# Route cells whose deformed routes differ by more than this, relative to
# max(1, |value|), disagree.
AGREE_RTOL = 1e-6
# A closed-form cell or a primitive further than this from the reference
# makes the run incorrect.
CORRECT_RTOL = 1e-9
# Errors below this are reported as this: the resolution of max_rel_err.
ERR_FLOOR = 1e-15
# The accuracy panel is fixed: the same points on every run and seed.
PANEL_SEED = 1212
PANEL_SAMPLES = 4
PANEL_T = ["--t-start", "0.1", "--t-end", "1.9", "--samples", str(PANEL_SAMPLES)]
# The panel's drag sweeps start from v0 = 1, so the homogeneous factor
# e(-kt)/e(kt), which multiplies v0 and drops out at the workloads' v0 = 0,
# is checked too.
PANEL_V0 = 1.0
PANEL_DRAG_ROWS = 160
CHECK_ROWS = 16

ROUTES = {
    "drag": ("closed", "series", "iterative", "classical"),
    "kinematics": ("closed", "iterative", "second-order", "classical"),
}
DEFORMED = {base: routes[:3] for base, routes in ROUTES.items()}
# Defaults of the CLI's physical parameters, which the workloads keep.
DRAG_DEFAULTS = {"m": 1.0, "k": 0.5, "g": 9.8, "v0": 0.0}
KIN_DEFAULTS = {"x0": 0.0, "v0": 0.0, "a": 1.0}

END_TO_END = [
    ("setup_s", "s"),
    ("rows_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cell_ok_frac", "ratio"),
    ("honest_row_frac", "ratio"),
    ("max_rel_err.closed", "ratio"),
    ("max_rel_err.series", "ratio"),
    ("max_rel_err.iterative", "ratio"),
    ("max_rel_err.second-order", "ratio"),
    ("max_rel_err.primitives", "ratio"),
]
PER_LAYER = [
    ("core.qpoch_inf.calls", "count"),
    ("core.qpoch_inf.self_s", "s"),
    ("core.qpoch_inf.factors", "count"),
    ("qexp.exp_qw.calls", "count"),
    ("qexp.exp_qw.self_s", "s"),
    ("qexp.exp_qw.distinct_frac", "ratio"),
    ("qexp.exp_qinv_series.self_s", "s"),
    ("qexp.exp_q_series.self_s", "s"),
    ("qexp.odd_part_qinv.self_s", "s"),
    ("core.hahn_integral.calls", "count"),
    ("core.hahn_integral.self_s", "s"),
    ("core.hahn_derivative.self_s", "s"),
    ("core.q_shifted_factorial_inf.self_s", "s"),
    ("resist.closed.calls", "count"),
    ("resist.closed.self_s", "s"),
    ("resist.series.calls", "count"),
    ("resist.series.self_s", "s"),
    ("resist.iterative.calls", "count"),
    ("resist.iterative.self_s", "s"),
    ("resist.iterative.steps", "count"),
    ("resist.iterative.useful_step_frac", "ratio"),
    ("resist.classical.self_s", "s"),
    ("resist.failed", "count"),
    ("kinematics.closed.self_s", "s"),
    ("kinematics.iterative.calls", "count"),
    ("kinematics.iterative.self_s", "s"),
    ("kinematics.iterative.steps", "count"),
    ("kinematics.second_order.calls", "count"),
    ("kinematics.second_order.self_s", "s"),
    ("kinematics.second_order.steps", "count"),
    ("cli.self_s", "s"),
    ("cli.rows", "count"),
    ("cli.row_us.p50", "us"),
    ("cli.row_us.p99", "us"),
    ("table.render_s", "s"),
    ("table.bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
]


# ---------------------------------------------------------------------------
# workloads


def _grid(spec: str) -> list[float]:
    """Values of a START:STOP:COUNT sweep grid, as the CLI builds them."""
    start, stop, count = spec.split(":")
    start_f, stop_f, n = float(start), float(stop), int(count)
    if n == 1:
        return [start_f]
    step = (stop_f - start_f) / (n - 1)
    return [start_f + i * step for i in range(n - 1)] + [stop_f]


@dataclass(frozen=True)
class Workload:
    """One workload: a CLI sweep (base set) or the library call list."""

    name: str
    q_specs: tuple[str, ...]
    w_spec: str
    base: str | None = None
    options: tuple[str, ...] = ()
    fmt: str = "csv"
    samples: int = 0
    draws: int = 0
    drag: dict = field(default_factory=lambda: dict(DRAG_DEFAULTS))

    @property
    def q_values(self) -> list[float]:
        return [q for spec in self.q_specs for q in _grid(spec)]

    @property
    def w_values(self) -> list[float]:
        return _grid(self.w_spec)

    def argv(self, seed: int) -> list[str]:
        """The sweep command; seed 0 keeps the CLI's default t-window."""
        argv = ["sweep", self.base, *self.options]
        argv += ["--sweep", f"q={self.q_specs[0]}", "--sweep", f"w={self.w_spec}"]
        argv += ["--samples", str(self.samples)]
        if self.fmt != "csv":
            argv += ["--format", self.fmt]
        shift = t_shift(seed)
        if shift:
            argv += ["--t-start", repr(shift), "--t-end", repr(2.0 + shift)]
        return argv

    def rows(self) -> int:
        return len(self.q_values) * len(self.w_values) * self.samples


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP's reference sweep: Pochhammer-bound, holds the silent wrong rows.
        Workload(
            "drag-sweep",
            ("0.3:0.99:10",), "0:1:5", base="drag", samples=50,
        ),
        # Short products: CLI dispatch, JSON rendering and the fixed-depth
        # pure-drag iteration dominate.
        Workload(
            "drag-bulk",
            ("0.05:0.5:40",), "0:1:10", base="drag", samples=50,
            options=("--g", "0"), fmt="json", drag=dict(DRAG_DEFAULTS, g=0.0),
        ),
        # Lattice telescoping and no Pochhammer products at all.
        Workload(
            "kinematics-lattice",
            ("0.5:0.99:10",), "0:1:5", base="kinematics", samples=40,
        ),
        # The public primitives up to q = 0.999, through the library alone.
        Workload(
            "library-primitives",
            ("0.5:0.5:1", "0.9:0.9:1", "0.99:0.99:1", "0.999:0.999:1"), "0:0.1:2",
            draws=20,
        ),
    )
}


def t_shift(seed: int) -> float:
    """Offset of the t-window for a seed: 0 at seed 0, else in [0, 0.05)."""
    return 0.05 * ((seed * 0.6180339887498949) % 1.0)


def make_calls(pairs, draws: int, rng: random.Random):
    """Seeded calls of every primitive at each (q, w), kept clear of w0.

    Returns (calls, pairs_of_indices): each index pair names two calls that
    compute the same number by independent routes, e_{q,w}(a t) against the
    series e_q(a (t - w0)).  The products stay at |x| <= 0.6, clear of poles.
    """
    calls: list[list] = []
    agree: list[tuple[int, int]] = []
    for q, w in pairs:
        w0 = w / (1.0 - q)
        for _ in range(draws):
            t = w0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.2)
            a = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            agree.append((len(calls), len(calls) + 1))
            calls += [
                ["exp_qw", a, t, q, w],
                ["exp_q_series", a * (t - w0), q],
                ["q_shifted_factorial_inf", rng.uniform(-0.6, 0.6), q],
                ["exp_qinv_series", rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0), q],
                ["odd_part_qinv", rng.uniform(0.2, 2.0), q],
                ["hahn_integral", coeffs, t, q, w],
                ["hahn_derivative", coeffs, t, q, w],
            ]
    return calls, agree


def library_calls(wl: Workload, seed: int):
    pairs = [(q, w) for q in wl.q_values for w in wl.w_values]
    return make_calls(pairs, wl.draws, random.Random(seed))


# ---------------------------------------------------------------------------
# children


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    out: bytes


def spawn(argv: list[str], stdin: bytes = b"") -> Invocation:
    """Run one child to completion; wall, CPU and peak RSS are the child's own."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        if stdin:
            proc.stdin.write(stdin)
        proc.stdin.close()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        out=out,
    )


def cli(argv: list[str]) -> Invocation:
    return spawn(["-m", "hahncalc", *argv])


def measure_setup() -> float:
    """Median time from spawn until hahncalc and its CLI are imported."""
    walls = []
    for _ in range(SETUP_PROBES):
        run = spawn([str(CHILD), "ready"])
        if run.code != 0:
            sys.exit(f"hahncalc does not import from {ROOT / 'src'} (exit {run.code})")
        walls.append(run.wall_s)
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# output checks


class Table:
    """Parsed sweep output: columns by name (None for empty cells) and flags."""

    def __init__(self, columns: dict[str, list[float | None]], flags: list[str]) -> None:
        self.columns = columns
        self.flags = flags

    @classmethod
    def parse(cls, text: str, fmt: str) -> "Table":
        if fmt == "json":
            payload = json.loads(text)
            return cls(payload["columns"], payload["flags"])
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        reader = csv.reader(lines)
        header = next(reader)
        if header[-1] != "flag":
            raise ValueError("CSV header does not end in flag")
        columns: dict[str, list[float | None]] = {name: [] for name in header[:-1]}
        flags: list[str] = []
        for cells in reader:
            if len(cells) != len(header):
                raise ValueError(f"ragged CSV row of {len(cells)} cells")
            for name, cell in zip(header, cells):
                if name != "flag":
                    columns[name].append(float(cell) if cell else None)
            flags.append(cells[-1])
        return cls(columns, flags)

    def row(self, i: int) -> dict[str, float | None]:
        return {name: col[i] for name, col in self.columns.items()}


def check_table(run: Invocation, fmt: str, base: str, rows: int) -> Table | None:
    """The parsed table if the invocation passes every check, else None."""
    if run.code != 0:
        return None
    try:
        table = Table.parse(run.out.decode(), fmt)
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None
    needed = ("q", "w", "t", *ROUTES[base])
    if any(len(table.columns.get(name, ())) != rows for name in needed):
        return None
    return table if len(table.flags) == rows else None


def disagrees(values: list[float | None]) -> bool:
    present = [v for v in values if v is not None]
    if len(present) < 2:
        return False
    scale = max(1.0, *(abs(v) for v in present))
    return max(present) - min(present) > AGREE_RTOL * scale


def silent_wrong_rows(table: Table, base: str) -> int:
    """Rows flagged ok whose deformed routes disagree."""
    cols = [table.columns[name] for name in DEFORMED[base]]
    return sum(
        1
        for i, flag in enumerate(table.flags)
        if flag == "ok" and disagrees([col[i] for col in cols])
    )


def parse_call_lines(text: str, count: int) -> list[list[float] | None] | None:
    """Values per call line (None for an error line); None if malformed."""
    lines = text.splitlines()
    if len(lines) != count:
        return None
    values: list[list[float] | None] = []
    try:
        for line in lines:
            values.append(None if line.startswith("error:") else [float(x) for x in line.split()])
    except ValueError:
        return None
    return values


# ---------------------------------------------------------------------------
# reference values


def drag_reference(drag: dict, row: dict):
    return ref.drag_velocity(
        drag["m"], drag["k"], drag["g"], drag["v0"], row["t"], row["q"], row["w"]
    )


def kin_reference(row: dict):
    kin = KIN_DEFAULTS
    return ref.accel_position(kin["x0"], kin["v0"], kin["a"], row["t"], row["q"])


CALL_REFERENCE = {
    "exp_qw": ref.exp_qw,
    "exp_q_series": ref.exp_q,
    "q_shifted_factorial_inf": ref.qpoch_inf,
    "exp_qinv_series": ref.exp_qinv,
    "odd_part_qinv": ref.odd_part_qinv,
    "hahn_integral": ref.hahn_integral_poly,
    "hahn_derivative": ref.hahn_derivative_poly,
}


def call_errors(calls: list, values: list) -> list[float]:
    """Worst reference error of each call; a failed call counts as 1."""
    errors = []
    for (name, *args), got in zip(calls, values):
        if got is None:
            errors.append(1.0)
            continue
        truth = CALL_REFERENCE[name](*args)
        errors.append(max(ref.rel_err(v, truth) for v in got))
    return errors


def route_errors(table: Table, base: str, drag: dict, indices) -> dict[str, float]:
    """Worst reference error of each deformed route over the given rows."""
    worst = {route: 0.0 for route in DEFORMED[base]}
    for i in indices:
        row = table.row(i)
        truth = drag_reference(drag, row) if base == "drag" else kin_reference(row)
        for route in worst:
            worst[route] = max(worst[route], ref.rel_err(row[route], truth))
    return worst


# ---------------------------------------------------------------------------
# runs


@dataclass
class Tally:
    """Cells attempted and failed, and whether every check passed."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def timed_invocations(start_child, seconds: float) -> list[Invocation]:
    runs: list[Invocation] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        run = start_child()
        # Identical outputs share one copy, which keeps the driver small.
        if runs and run.out == runs[0].out:
            run.out = runs[0].out
        runs.append(run)
    return runs


def panel_argv(wl: Workload, base: str, q_spec: str) -> list[str]:
    options = wl.options if base == wl.base else ()
    if base == "drag":
        options = (*options, "--v0", repr(PANEL_V0))
    return ["sweep", base, *options, "--sweep", f"q={q_spec}", "--sweep", f"w={wl.w_spec}", *PANEL_T]


def accuracy_panel(wl: Workload, tally: Tally) -> dict[str, float]:
    """Worst error of every route and primitive on the workload's fixed panel.

    Routes come from small sweeps of both bases over the workload's (q, w)
    grid at four fixed times; a route missing from the workload's own base
    is taken from the other base.  Primitives are called through the library
    at up to four q values of the grid and its extreme w values.
    """
    rng = random.Random(PANEL_SEED)
    errors: dict[str, dict[str, float]] = {}
    for base in ("drag", "kinematics"):
        worst = {route: 0.0 for route in DEFORMED[base]}
        for q_spec in wl.q_specs:
            rows = len(_grid(q_spec)) * len(wl.w_values) * PANEL_SAMPLES
            table = check_table(cli(panel_argv(wl, base, q_spec)), "csv", base, rows)
            if table is None:
                tally.correct = False
                worst = {route: 1.0 for route in worst}
                break
            limit = PANEL_DRAG_ROWS // len(wl.q_specs) if base == "drag" else rows
            picked = sorted(rng.sample(range(rows), min(rows, limit)))
            drag = dict(wl.drag if base == wl.base else DRAG_DEFAULTS, v0=PANEL_V0)
            for route, err in route_errors(table, base, drag, picked).items():
                worst[route] = max(worst[route], err)
        errors[base] = worst
        if worst["closed"] > CORRECT_RTOL:
            tally.correct = False
    own = errors["kinematics" if wl.base == "kinematics" else "drag"]
    other = errors["drag" if wl.base == "kinematics" else "kinematics"]
    merged = {**other, **own}

    qs = wl.q_values
    q_pick = sorted({qs[round(i * (len(qs) - 1) / 3)] for i in range(4)})
    w_pick = sorted({wl.w_values[0], wl.w_values[-1]})
    calls, _ = make_calls([(q, w) for q in q_pick for w in w_pick], 1, rng)
    run = spawn([str(CHILD), "calls"], json.dumps(calls).encode())
    values = parse_call_lines(run.out.decode(), len(calls)) if run.code == 0 else None
    if values is None:
        tally.correct = False
        primitive_err = 1.0
    else:
        primitive_err = max(call_errors(calls, values))
    if primitive_err > CORRECT_RTOL:
        tally.correct = False
    merged["primitives"] = primitive_err
    return {f"max_rel_err.{name}": max(err, ERR_FLOOR) for name, err in merged.items()}


def run_cli_workload(wl: Workload, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    rows = wl.rows()
    routes = len(ROUTES[wl.base])
    argv = wl.argv(seed)
    runs = timed_invocations(lambda: cli(argv), seconds)
    first = check_table(runs[0], wl.fmt, wl.base, rows)
    for run in runs:
        table = first if run.out == runs[0].out else None
        if table is None:
            tally.add(rows * routes, rows * routes)
            tally.correct = False
            continue
        empty = sum(v is None for name in ROUTES[wl.base] for v in table.columns[name])
        tally.add(rows * routes, empty)
    honest = 0.0
    if first is not None:
        honest = 1.0 - silent_wrong_rows(first, wl.base) / rows
        picked = random.Random(seed).sample(range(rows), CHECK_ROWS)
        if route_errors(first, wl.base, wl.drag, picked)["closed"] > CORRECT_RTOL:
            tally.correct = False
    return {
        "rows_per_s": statistics.median(rows / run.wall_s for run in runs),
        "cpu_s": statistics.median(run.cpu_s for run in runs),
        "peak_rss_mb": statistics.median(run.rss_mb for run in runs),
        "honest_row_frac": honest,
    }


def run_library_workload(wl: Workload, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    calls, agree = library_calls(wl, seed)
    payload = json.dumps(calls).encode()
    runs = timed_invocations(lambda: spawn([str(CHILD), "calls"], payload), seconds)
    first = parse_call_lines(runs[0].out.decode(), len(calls)) if runs[0].code == 0 else None
    for run in runs:
        if first is None or run.out != runs[0].out:
            tally.add(len(calls), len(calls))
            tally.correct = False
        else:
            tally.add(len(calls), sum(v is None for v in first))
    honest = 0.0
    if first is not None:
        wrong = sum(
            1
            for i, j in agree
            if first[i] is not None and first[j] is not None and disagrees([first[i][0], first[j][0]])
        )
        wrong += sum(
            1 for call, v in zip(calls, first) if call[0] == "odd_part_qinv" and v and disagrees(v)
        )
        rows = len(agree) + sum(call[0] == "odd_part_qinv" for call in calls)
        honest = 1.0 - wrong / rows
        picked = random.Random(seed).sample(range(len(calls)), CHECK_ROWS)
        if max(call_errors([calls[i] for i in picked], [first[i] for i in picked])) > CORRECT_RTOL:
            tally.correct = False
    return {
        "rows_per_s": statistics.median(len(calls) / run.wall_s for run in runs),
        "cpu_s": statistics.median(run.cpu_s for run in runs),
        "peak_rss_mb": statistics.median(run.rss_mb for run in runs),
        "honest_row_frac": honest,
    }


def end_to_end(wl: Workload, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    metrics = {"setup_s": measure_setup()}
    if wl.base is None:
        metrics.update(run_library_workload(wl, seed, seconds, tally))
    else:
        metrics.update(run_cli_workload(wl, seed, seconds, tally))
    metrics["cell_ok_frac"] = 1.0 - tally.failed / tally.attempted
    metrics.update(accuracy_panel(wl, tally))
    return metrics


def per_layer(wl: Workload, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    """One plain child run for reference bytes, then the in-process traced runs."""
    if wl.base is None:
        calls, _ = library_calls(wl, seed)
        reference_run = spawn([str(CHILD), "calls"], json.dumps(calls).encode())
        ok = parse_call_lines(reference_run.out.decode(), len(calls)) is not None
        job = {"kind": "calls", "calls": calls}
        cells = len(calls)
    else:
        job = {"kind": "cli", "argv": wl.argv(seed)}
        reference_run = cli(job["argv"])
        ok = check_table(reference_run, wl.fmt, wl.base, wl.rows()) is not None
        cells = wl.rows() * len(ROUTES[wl.base])
    ok = ok and reference_run.code == 0
    job["seconds"] = seconds
    traced = spawn([str(CHILD), "trace"], json.dumps(job).encode())
    result = json.loads(traced.out) if traced.code == 0 else None
    digest = hashlib.sha256(reference_run.out).hexdigest()
    runs = 1 + (len(result["digests"]) if result else 0)
    same = result is not None and all(
        d == digest and c == 0 for d, c in zip(result["digests"], result["codes"])
    )
    tally.add(cells * runs, 0 if ok and same else cells * runs)
    if not (ok and same):
        tally.correct = False
    metrics = result["metrics"] if result else {}
    return {name: metrics.get(name, 0.0) for name, _ in PER_LAYER}


def context() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hahncalc" / "__init__.py").is_file():
        print(f"no hahncalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        values, units = per_layer(wl, args.seed, args.seconds, tally), PER_LAYER
    else:
        values, units = end_to_end(wl, args.seed, args.seconds, tally), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(json.dumps({"workload": wl.name, "seed": args.seed, "context": context()}))
    for name, unit in units:
        print(f"{name:<40} {values[name]:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
