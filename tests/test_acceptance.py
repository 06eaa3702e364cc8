"""Acceptance suite: one test per published criterion, each timed and reported.

Every test computes a worst-case figure of merit, compares it against the
criterion's stated bound, checks the runtime budget, and records a single
pass/fail line that pytest prints in its terminal summary.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

from conftest import record_criterion

from hahncalc import (
    DeformationParams,
    DragParams,
    KinematicState,
    accel_quotient_velocity,
    classical_drag_velocity,
    exp_qw,
    gravity_drag_velocity,
    gravity_drag_velocity_iterative,
    gravity_drag_velocity_series,
    gravity_kernel_iteration_sum,
    gravity_kernel_resummed,
    hahn_derivative,
    hahn_integral,
    iterate_first_order,
    odd_part_qinv,
    position_at_fixed_point,
    run_suite,
    solve_second_order_constant_accel,
    uniform_accel_position,
)

Q_GRID = (0.3, 0.5, 0.9)
W_GRID = (0.0, 0.1, 1.0)

OPERATOR_IDENTITIES = (
    "leibniz-rule",
    "quotient-rule",
    "power-rule",
    "shifted-power-rule",
    "lattice-polynomial-derivative",
    "q-number-sum",
    "weighted-q-number-sum",
)


def finish(number, name, worst, bound, elapsed, limit):
    ok = worst < bound and elapsed < limit
    line = (
        f"criterion {number} {name:<34} worst={worst:.3e} bound={bound:.0e} "
        f"runtime={elapsed:.2f}s/{limit:.0f}s {'PASS' if ok else 'FAIL'}"
    )
    record_criterion(line)
    assert ok, line


def test_criterion_1_operator_identity_suite():
    start = time.perf_counter()
    results = {r.name: r for r in run_suite(seed=0)}
    worst = max(results[name].max_residual for name in OPERATOR_IDENTITIES)
    cases = min(results[name].cases for name in OPERATOR_IDENTITIES)
    elapsed = time.perf_counter() - start
    assert cases >= 200
    finish(1, "operator-identity-suite", worst, 1e-10, elapsed, 1.0)


def test_criterion_2_fundamental_theorem():
    start = time.perf_counter()
    rng = random.Random(0)
    grid = list(itertools.product(Q_GRID, W_GRID))
    worst = 0.0
    for i in range(50):
        q, w = grid[i % len(grid)]
        params = DeformationParams(q=q, w=w)
        coeffs = [rng.uniform(-2, 2) for _ in range(6)]

        def f(s):
            return sum(c * s**k for k, c in enumerate(coeffs))

        t = params.w0 + rng.uniform(-2, 2)
        value = hahn_derivative(lambda u: hahn_integral(f, u, params), t, params)
        worst = max(worst, abs(value - f(t)))
    elapsed = time.perf_counter() - start
    finish(2, "fundamental-theorem", worst, 1e-8, elapsed, 1.0)


def test_criterion_3_galilei_equivalence():
    start = time.perf_counter()
    state = KinematicState(x0=1.0, v0=2.0, a=3.0)
    worst = 0.0
    for q, w in itertools.product(Q_GRID, W_GRID):
        params = DeformationParams(q=q, w=w)
        x_w0 = position_at_fixed_point(state, params)
        rhs = accel_quotient_velocity(state, params)
        for t in (0.0, 0.5, 1.0, 2.0, 4.0):
            closed = uniform_accel_position(state, t, q)
            iterated = iterate_first_order(rhs, t, params, x_at_w0=x_w0).value
            second = solve_second_order_constant_accel(state, t, params)
            worst = max(
                worst,
                abs(closed - iterated),
                abs(closed - second),
                abs(iterated - second),
            )
    elapsed = time.perf_counter() - start
    finish(3, "galilei-route-equivalence", worst, 1e-9, elapsed, 1.0)


def test_criterion_4_exponential_defining_property():
    start = time.perf_counter()
    worst = 0.0
    for a, q, (w, t) in itertools.product(
        (-1.0, 0.3, 0.7), Q_GRID, ((0.0, 0.5), (0.1, 1.5), (1.0, 3.0))
    ):
        params = DeformationParams(q=q, w=w)
        derivative = hahn_derivative(lambda s: exp_qw(a, s, params), t, params)
        worst = max(worst, abs(derivative - a * exp_qw(a, t, params)))
    elapsed = time.perf_counter() - start
    finish(4, "exponential-defining-property", worst, 1e-9, elapsed, 1.0)


def test_criterion_5_drag_three_route_agreement():
    start = time.perf_counter()
    pure = DragParams(m=1.0, k=0.5, g=0.0, v0=2.0)
    grav = DragParams(m=1.0, k=0.5, g=9.8, v0=0.0)
    worst = 0.0
    for q, w in itertools.product(Q_GRID, (0.01, 0.1)):
        params = DeformationParams(q=q, w=w)
        # Pure drag is the gravity routes at g = 0.  The iteration runs at
        # its default depth, from the power series about w0.
        for t in (0.5, 1.0):
            closed = gravity_drag_velocity(pure, t, params)
            iterated = gravity_drag_velocity_iterative(pure, t, params)
            worst = max(worst, abs(closed - iterated))
            g_closed = gravity_drag_velocity(grav, t, params)
            g_series = gravity_drag_velocity_series(grav, t, params)
            g_iter = gravity_drag_velocity_iterative(grav, t, params)
            worst = max(
                worst,
                abs(g_closed - g_series),
                abs(g_closed - g_iter),
                abs(g_series - g_iter),
            )
    elapsed = time.perf_counter() - start
    finish(5, "drag-three-route-agreement", worst, 1e-6, elapsed, 5.0)


def test_criterion_6_kernel_resummation_identity():
    start = time.perf_counter()
    rng = random.Random(0)
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(-0.6, 0.6)
        q = rng.choice(Q_GRID)
        n_steps = rng.randint(1, 25)
        lhs = gravity_kernel_iteration_sum(z, q, n_steps)
        rhs = gravity_kernel_resummed(z, q, n_steps)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    finish(6, "kernel-resummation-identity", worst, 1e-10, elapsed, 1.0)


def test_criterion_7_odd_part_identity():
    start = time.perf_counter()
    worst = 0.0
    for a, q in itertools.product((0.25, 0.5, 1.0, 2.0), Q_GRID):
        lhs, rhs = odd_part_qinv(a, q)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    finish(7, "odd-part-identity", worst, 1e-12, elapsed, 1.0)


def test_criterion_8_classical_limits():
    start = time.perf_counter()
    state = KinematicState(x0=0.0, v0=1.0, a=0.5)
    pure = DragParams(m=1.0, k=0.5, g=0.0, v0=2.0)
    grav = DragParams(m=1.0, k=0.5, g=9.8, v0=0.0)
    t_kin, t_drag = 0.25, 1.0
    newton = state.v0 * t_kin + state.a * t_kin**2 / 2
    pure_limit = pure.v0 * math.exp(-pure.k * t_drag / pure.m)
    grav_limit = (grav.m * grav.g / grav.k) * (1 - math.exp(-grav.k * t_drag / grav.m))
    # Each family's closed route, and next to it the kinematics' second-order
    # route and the gravity series route.
    kin_errors, kin_second_errors, pure_errors = [], [], []
    grav_errors, grav_series_errors = [], []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        params = DeformationParams(q=1 - eps, w=eps * eps)
        kin_errors.append(
            abs(uniform_accel_position(state, t_kin, params.q) - newton)
        )
        kin_second_errors.append(
            abs(solve_second_order_constant_accel(state, t_kin, params) - newton)
        )
        pure_errors.append(abs(gravity_drag_velocity(pure, t_drag, params) - pure_limit))
        grav_errors.append(
            abs(gravity_drag_velocity(grav, t_drag, params) - grav_limit)
        )
        grav_series_errors.append(
            abs(gravity_drag_velocity_series(grav, t_drag, params) - grav_limit)
        )
    elapsed = time.perf_counter() - start
    for errors in (
        kin_errors, kin_second_errors, pure_errors, grav_errors, grav_series_errors
    ):
        assert all(a > b for a, b in zip(errors, errors[1:])), errors
    # Report the dominant terminal error scaled by its own bound so one
    # number summarizes the three families.
    kin_worst = max(kin_errors[-1], kin_second_errors[-1])
    worst = max(
        kin_worst / 1e-5 * 1e-2,  # kinematics bound 1e-5, margin in units of 5e-2
        pure_errors[-1],
        grav_errors[-1],
        grav_series_errors[-1],
    )
    assert kin_worst < 1e-5
    finish(8, "classical-limits", worst, 5e-2, elapsed, 2.0)


CLI = [sys.executable, "-m", "hahncalc"]


def cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=60)


def csv_cells(text):
    meta, header, rows = {}, None, []
    for line in text.strip().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_criterion_9_cli_contract():
    start = time.perf_counter()
    worst = 0.0

    # verify passes on defaults
    proc = cli("verify")
    assert proc.returncode == 0, proc.stdout + proc.stderr

    # determinism and schema stability
    kin_args = (
        "kinematics", "--q", "0.5", "--w", "0.1", "--x0", "1", "--v0", "2",
        "--a", "3", "--t-start", "0", "--t-end", "2", "--samples", "5",
    )
    first, second = cli(*kin_args), cli(*kin_args)
    assert first.stdout == second.stdout
    _, header, _ = csv_cells(first.stdout)
    assert header == ["t", "closed", "iterative", "second-order", "classical", "flag"]

    # route equivalence (criterion 3) from flags alone, via one (q, w) sweep
    proc = cli(
        "sweep", "kinematics", "--sweep", "q=0.3:0.9:3", "--sweep", "w=0:1:3",
        "--x0", "1", "--v0", "2", "--a", "3",
        "--t-start", "0", "--t-end", "4", "--samples", "5",
    )
    assert proc.returncode == 0, proc.stderr
    meta, _, _ = csv_cells(proc.stdout)
    for key in (
        "agreement_closed_iterative",
        "agreement_closed_second-order",
        "agreement_iterative_second-order",
    ):
        worst = max(worst, float(meta[key]) / 1e-9 * 1e-6)
        assert float(meta[key]) < 1e-9, (key, meta[key])

    # drag route agreement (criterion 5) via sweeps over the same grid
    proc = cli(
        "sweep", "drag", "--sweep", "q=0.3:0.9:3", "--sweep", "w=0.01:0.1:2",
        "--m", "1", "--k", "0.5", "--g", "9.8", "--v0", "0",
        "--t-start", "0.5", "--t-end", "1", "--samples", "2",
        "--routes", "closed,series,iterative",
    )
    assert proc.returncode == 0, proc.stderr
    meta, _, _ = csv_cells(proc.stdout)
    for key in (
        "agreement_closed_series",
        "agreement_closed_iterative",
        "agreement_series_iterative",
    ):
        worst = max(worst, float(meta[key]))
        assert float(meta[key]) < 1e-6, (key, meta[key])

    proc = cli(
        "sweep", "drag", "--sweep", "q=0.3:0.9:3", "--sweep", "w=0.01:0.1:2",
        "--m", "1", "--k", "0.5", "--g", "0", "--v0", "2",
        "--t-start", "0.5", "--t-end", "1", "--samples", "2",
        "--routes", "closed,iterative",
    )
    assert proc.returncode == 0, proc.stderr
    meta, _, _ = csv_cells(proc.stdout)
    worst = max(worst, float(meta["agreement_closed_iterative"]))
    assert float(meta["agreement_closed_iterative"]) < 1e-6

    # pure drag (g = 0) at the default depth, end to end
    proc = cli(
        "drag", "--q", "0.5", "--w", "0.1", "--m", "1", "--k", "0.5",
        "--g", "0", "--v0", "2",
        "--t-start", "0", "--t-end", "3", "--samples", "4",
        "--routes", "closed,iterative",
    )
    assert proc.returncode == 0, proc.stderr
    meta, _, _ = csv_cells(proc.stdout)
    assert float(meta["agreement_closed_iterative"]) < 1e-8

    # classical limits (criterion 8) from flags alone
    kin_err, pure_err, grav_err = [], [], []
    for eps in (1e-1, 1e-2, 1e-3):
        q, w = repr(1 - eps), repr(eps * eps)
        proc = cli(
            "kinematics", "--q", q, "--w", w, "--x0", "0", "--v0", "1",
            "--a", "0.5", "--t-start", "0.25", "--t-end", "0.25",
            "--samples", "1", "--routes", "closed",
        )
        _, header, rows = csv_cells(proc.stdout)
        kin_err.append(
            abs(
                float(rows[0][header.index("closed")])
                - float(rows[0][header.index("classical")])
            )
        )
        proc = cli(
            "drag", "--q", q, "--w", w, "--m", "1", "--k", "0.5",
            "--g", "0", "--v0", "2", "--t-start", "1", "--t-end", "1",
            "--samples", "1", "--routes", "closed,classical",
        )
        _, header, rows = csv_cells(proc.stdout)
        pure_err.append(
            abs(
                float(rows[0][header.index("closed")])
                - float(rows[0][header.index("classical")])
            )
        )
        proc = cli(
            "drag", "--q", q, "--w", w, "--m", "1", "--k", "0.5",
            "--g", "9.8", "--v0", "0", "--t-start", "1", "--t-end", "1",
            "--samples", "1", "--routes", "closed,classical",
        )
        _, header, rows = csv_cells(proc.stdout)
        grav_err.append(
            abs(
                float(rows[0][header.index("closed")])
                - float(rows[0][header.index("classical")])
            )
        )
    for errors in (kin_err, pure_err, grav_err):
        assert errors[0] > errors[1] > errors[2], errors
    assert kin_err[-1] < 1e-5
    assert pure_err[-1] < 5e-2
    assert grav_err[-1] < 5e-2

    elapsed = time.perf_counter() - start
    # worst already folds the route-agreement metadata margins; the binary
    # checks above guard the rest.
    finish(9, "cli-contract", worst, 1e-6, elapsed, 10.0)
