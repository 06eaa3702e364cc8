"""Child process of the benchmark: the only code here that imports hahncalc.

Usage (PYTHONPATH must put the checkout's src first):

    python3 perfbench/child.py ready    import hahncalc and its CLI, then exit
    python3 perfbench/child.py calls    run the JSON call list on stdin
    python3 perfbench/child.py trace    run the JSON job on stdin in-process,
                                        untraced and traced, print JSON

A call is a JSON list [name, *args] naming a public hahncalc function; the
polynomial integrand of hahn_integral and hahn_derivative is given by its
coefficients.  `calls` prints one line per call: the repr of the value (two
values for odd_part_qinv), or `error:<ExceptionName>`.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path

from spans import SpanStats, Tracer, qpoch_factors, steps_needed

ROOT = Path(__file__).resolve().parent.parent


def _import_hahncalc():
    import hahncalc
    import hahncalc.cli

    source = Path(hahncalc.__file__).resolve()
    if (ROOT / "src") not in source.parents:
        sys.exit(f"hahncalc imported from {source}, not from this checkout's src/")
    return hahncalc


def _polynomial(coeffs):
    c0, c1, c2 = coeffs
    return lambda s: c0 + s * (c1 + s * c2)


def run_calls(hc, calls) -> list[str]:
    """Evaluate each call through the hahncalc package attribute of its name."""
    lines = []
    for name, *args in calls:
        fn = getattr(hc, name)
        try:
            if name in ("hahn_integral", "hahn_derivative"):
                coeffs, t, q, w = args
                value = fn(_polynomial(coeffs), t, hc.DeformationParams(q, w))
            elif name == "exp_qw":
                a, t, q, w = args
                value = fn(a, t, hc.DeformationParams(q, w))
            else:
                value = fn(*args)
        except ArithmeticError as exc:  # the library's errors subclass it
            lines.append(f"error:{type(exc).__name__}")
            continue
        if isinstance(value, tuple):
            lines.append(" ".join(repr(v) for v in value))
        else:
            lines.append(repr(value))
    return lines


def render_lines(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# traced runs


class _Probe:
    """Installs every span wrapper and the per-row timer; owns their state."""

    def __init__(self, hc) -> None:
        from hahncalc import cli, core, kinematics, qexp, resist, table

        self.tracer = Tracer()
        self.row_times: list[float] = []
        self.exp_keys: set[tuple] = set()
        tol = core.DEFAULT_POLICY.tol
        tr = self.tracer

        def factors(stat, args, kwargs, result):
            a, q, policy = args[:3]
            stat.add("factors", qpoch_factors(a, q, policy.tol, policy.max_terms))

        def exp_key(stat, args, kwargs, result):
            a, t, params = args[:3]
            policy = args[3] if len(args) > 3 else kwargs.get("policy")
            self.exp_keys.add((a, t, params.q, params.w, getattr(policy, "tol", None)))

        def drag_steps(stat, args, kwargs, result):
            t, params = args[1], args[2]
            n_steps = args[3] if len(args) > 3 else kwargs.get("n_steps")
            if n_steps is not None:
                stat.add("steps", n_steps)
            stat.add("needed", steps_needed(t, params.q, params.w0, tol))

        def report_steps(stat, args, kwargs, result):
            stat.add("steps", getattr(result, "steps", 0))

        def rendered(stat, args, kwargs, result):
            stat.add("bytes", len(result.encode()))

        for module in (core, qexp):
            tr.install(module, "_qpochhammer_inf", "core.qpoch_inf", factors)
        for owner in (resist, hc):
            tr.install(owner, "exp_qw", "qexp.exp_qw", exp_key)
        for owner in (resist, qexp, hc):
            tr.install(owner, "exp_qinv_series", "qexp.exp_qinv_series")
        for attr in ("exp_q_series", "odd_part_qinv"):
            tr.install(hc, attr, f"qexp.{attr}")
        for attr in ("hahn_integral", "hahn_derivative", "q_shifted_factorial_inf"):
            tr.install(hc, attr, f"core.{attr}")
        for attr in ("drag_velocity", "gravity_drag_velocity"):
            tr.install(cli, attr, "resist.closed")
        tr.install(cli, "gravity_drag_velocity_series", "resist.series")
        for attr in ("drag_velocity_iterative", "gravity_drag_velocity_iterative"):
            tr.install(cli, attr, "resist.iterative", drag_steps)
        tr.install(cli, "classical_drag_velocity", "resist.classical")
        tr.install(cli, "uniform_accel_position", "kinematics.closed")
        tr.install(cli, "iterate_first_order", "kinematics.iterative", report_steps)
        tr.install(cli, "solve_second_order_constant_accel", "kinematics.second_order")
        # Stage 1 of the second-order route joins its span and reports its steps.
        tr.install(kinematics, "iterate_first_order", "kinematics.second_order", report_steps)
        for attr in ("to_csv", "to_json"):
            tr.install(table.TrajectoryTable, attr, "table", rendered)
        tr.install(cli, "main", "cli")
        self._time_rows(cli)

    def _time_rows(self, cli) -> None:
        """Time each output row: the sum of its cells' evaluations."""
        rows = self.row_times
        clock = time.perf_counter

        def timing(block):
            def timed_block(ts, route_names, evaluators, *rest, **kwargs):
                width = len(route_names)
                state = {"cells": 0, "acc": 0.0}

                def timed(fn):
                    def cell(t):
                        start = clock()
                        try:
                            return fn(t)
                        finally:
                            state["acc"] += clock() - start
                            state["cells"] += 1
                            if state["cells"] % width == 0:
                                rows.append(state["acc"])
                                state["acc"] = 0.0

                    return cell

                timed_evaluators = {name: timed(fn) for name, fn in evaluators.items()}
                return block(ts, route_names, timed_evaluators, *rest, **kwargs)

            return timed_block

        self.tracer.replace(cli, "_evaluate_block", timing)

    def reset(self) -> None:
        self.tracer.reset()
        self.row_times.clear()
        self.exp_keys.clear()

    def metrics(self, wall: float) -> dict[str, float]:
        stats = self.tracer.stats
        empty = SpanStats()

        def s(name):
            return stats.get(name, empty)

        out: dict[str, float] = {}
        for name in (
            "core.qpoch_inf", "qexp.exp_qw", "core.hahn_integral",
            "resist.closed", "resist.series", "resist.iterative",
            "kinematics.iterative", "kinematics.second_order",
        ):
            out[f"{name}.calls"] = s(name).calls
        for name in (
            "core.qpoch_inf", "qexp.exp_qw", "qexp.exp_qinv_series",
            "qexp.exp_q_series", "qexp.odd_part_qinv", "core.hahn_integral",
            "core.hahn_derivative", "core.q_shifted_factorial_inf",
            "resist.closed", "resist.series", "resist.iterative",
            "resist.classical", "kinematics.closed", "kinematics.iterative",
            "kinematics.second_order", "cli",
        ):
            out[f"{name}.self_s"] = s(name).self_s
        out["core.qpoch_inf.factors"] = s("core.qpoch_inf").counters.get("factors", 0)
        calls = s("qexp.exp_qw").calls
        out["qexp.exp_qw.distinct_frac"] = len(self.exp_keys) / calls if calls else 0.0
        iterative = s("resist.iterative").counters
        steps = iterative.get("steps", 0)
        out["resist.iterative.steps"] = steps
        out["resist.iterative.useful_step_frac"] = (
            iterative.get("needed", 0) / steps if steps else 0.0
        )
        out["resist.failed"] = sum(
            s(name).failed
            for name in ("resist.closed", "resist.series", "resist.iterative", "resist.classical")
        )
        for name in ("kinematics.iterative", "kinematics.second_order"):
            out[f"{name}.steps"] = s(name).counters.get("steps", 0)
        rows = sorted(self.row_times)
        out["cli.rows"] = len(rows)
        out["cli.row_us.p50"] = _percentile(rows, 0.50) * 1e6
        out["cli.row_us.p99"] = _percentile(rows, 0.99) * 1e6
        out["table.render_s"] = s("table").total_s
        out["table.bytes"] = s("table").counters.get("bytes", 0)
        self_sum = sum(stat.self_s for stat in stats.values())
        out["trace.wall_s"] = wall
        out["trace.unattributed_frac"] = 1.0 - self_sum / wall
        return out


def _percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def trace(hc, job) -> dict:
    """Alternate untraced and traced runs of one job for job['seconds'] seconds."""
    from hahncalc import cli

    if job["kind"] == "cli":
        argv = job["argv"]

        def once() -> tuple[str, int]:
            saved, sys.stdout = sys.stdout, io.StringIO()
            try:
                code = cli.main(argv)
                return sys.stdout.getvalue(), code
            finally:
                sys.stdout = saved

    else:
        calls = job["calls"]

        def once() -> tuple[str, int]:
            return render_lines(run_calls(hc, calls)), 0

    probe = _Probe(hc)
    probe.tracer.disable()
    clock = time.perf_counter
    plain_walls: list[float] = []
    runs: list[dict[str, float]] = []
    digests: list[str] = []
    codes: list[int] = []
    deadline = clock() + job["seconds"]
    while len(runs) < 2 or clock() < deadline:
        for traced in (False, True):
            if traced:
                probe.reset()
                probe.tracer.enable()
            start = clock()
            try:
                text, code = once()
            finally:
                wall = clock() - start
                probe.tracer.disable()
            if traced:
                runs.append(probe.metrics(wall))
            else:
                plain_walls.append(wall)
            digests.append(hashlib.sha256(text.encode()).hexdigest())
            codes.append(code)
    metrics = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    metrics["trace.overhead_frac"] = (
        metrics["trace.wall_s"] / statistics.median(plain_walls) - 1.0
    )
    return {"metrics": metrics, "digests": digests, "codes": codes}


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode not in ("ready", "calls", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    hc = _import_hahncalc()
    if mode == "calls":
        sys.stdout.write(render_lines(run_calls(hc, json.load(sys.stdin))))
    elif mode == "trace":
        json.dump(trace(hc, json.load(sys.stdin)), sys.stdout)
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
