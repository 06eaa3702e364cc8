"""Tests of the benchmark's own machinery: spans, counters, reference, output."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

pytest.importorskip("mpmath")

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# Hypothesis draws example values from the literals of every local module
# loaded in the test process.  The benchmark's modules are imported only
# inside this file's tests and unloaded after them, so that their literals
# never steer the repository's property tests.
BENCH_MODULES = ("run", "reference", "spans")


@pytest.fixture(scope="module", autouse=True)
def _unload_bench_modules():
    yield
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def _busy(n: int) -> int:
    return sum(i * i for i in range(n))


def _layers():
    """A three-layer fake program whose layers call each other by module attribute."""
    mod = SimpleNamespace()
    mod.leaf = lambda n: _busy(n)
    mod.middle = lambda n: mod.leaf(n) + mod.leaf(n) + _busy(n)
    mod.top = lambda n: mod.middle(n) + _busy(n)
    return mod


def test_spans_nest():
    from spans import Tracer

    mod = _layers()
    tracer = Tracer()
    for name in ("leaf", "middle", "top"):
        tracer.install(mod, name, name)
    mod.top(20000)
    top, middle, leaf = (tracer.stats[n] for n in ("top", "middle", "leaf"))
    assert (top.calls, middle.calls, leaf.calls) == (1, 1, 2)
    for stat in (top, middle, leaf):
        assert 0.0 <= stat.self_s <= stat.total_s
    assert leaf.total_s <= middle.total_s <= top.total_s
    assert middle.self_s == pytest.approx(middle.total_s - leaf.total_s)
    assert top.self_s == pytest.approx(top.total_s - middle.total_s)
    assert leaf.self_s == leaf.total_s
    self_sum = top.self_s + middle.self_s + leaf.self_s
    assert self_sum == pytest.approx(top.total_s, rel=1e-9)


def test_disable_restores_and_enable_reapplies():
    from spans import Tracer

    mod = _layers()
    original = mod.leaf
    tracer = Tracer()
    tracer.install(mod, "leaf", "leaf")
    tracer.disable()
    assert mod.leaf is original
    tracer.enable()
    mod.leaf(10)
    assert tracer.stats["leaf"].calls == 1
    assert tracer.install(mod, "missing", "missing") is False


def test_same_name_call_joins_span_and_failures_count():
    from spans import Tracer

    mod = SimpleNamespace()
    mod.helper = lambda n: n + 1
    mod.route = lambda n: mod.helper(n) * 2
    mod.broken = lambda: 1 / 0
    seen = []
    tracer = Tracer()
    tracer.install(mod, "route", "route")
    tracer.install(mod, "helper", "route", lambda stat, args, kw, result: seen.append(result))
    tracer.install(mod, "broken", "broken")
    assert mod.route(1) == 4
    assert tracer.stats["route"].calls == 1
    assert seen == [2]
    with pytest.raises(ZeroDivisionError):
        mod.broken()
    assert tracer.stats["broken"].failed == 1


def _loop_count(a: float, q: float, tol: float) -> int:
    """Factors hahncalc's (a;q)_inf loop multiplies, counted the loop's way."""
    count = 0
    scaled = a
    while abs(scaled) >= tol:
        count += 1
        scaled *= q
    return count


@pytest.mark.parametrize(
    "a,q",
    [(0.3, 0.5), (-0.7, 0.9), (0.05, 0.99), (0.9, 0.999), (1e-15, 0.9), (0.25, 0.3)],
)
def test_factor_count_matches_loop(a, q):
    from spans import qpoch_factors

    assert qpoch_factors(a, q, 1e-14, 100_000) == _loop_count(a, q, 1e-14)


def test_factor_count_matches_traced_library():
    hahncalc = pytest.importorskip("hahncalc")
    from hahncalc import qexp
    from spans import Tracer, qpoch_factors

    tracer = Tracer()
    tracer.install(
        qexp,
        "_qpochhammer_inf",
        "qpoch",
        lambda stat, args, kw, result: stat.add(
            "factors", qpoch_factors(args[0], args[1], args[2].tol, args[2].max_terms)
        ),
    )
    try:
        params = hahncalc.DeformationParams(0.9, 0.1)
        hahncalc.exp_qw(0.4, 1.3, params)
    finally:
        tracer.disable()
    x = -0.4 * ((0.9 - 1.0) * 1.3 + 0.1)
    assert tracer.stats["qpoch"].counters["factors"] == _loop_count(x, 0.9, 1e-14)


def test_steps_needed():
    from spans import steps_needed

    assert steps_needed(1.0, 0.5, 0.0, 1e-14) == 47
    assert 0.5**47 < 1e-14 <= 0.5**46
    assert steps_needed(0.2, 0.5, 0.2, 1e-14) == 0


@pytest.mark.parametrize("a,t,w", [(0.7, 1.3, 0.0), (-0.4, 0.2, 0.1), (1.5, 2.0, 0.3)])
def test_reference_matches_exp_qw_at_half(a, t, w):
    import reference as ref

    hahncalc = pytest.importorskip("hahncalc")
    value = hahncalc.exp_qw(a, t, hahncalc.DeformationParams(0.5, w))
    assert ref.rel_err(value, ref.exp_qw(a, t, 0.5, w)) < 1e-12


def test_reference_product_matches_mpmath_qp_where_it_converges():
    import reference as ref

    import mpmath

    with mpmath.workdps(45):
        expected = mpmath.qp(0.3, 0.5)
    assert abs(ref.qpoch_inf(0.3, 0.5) - expected) < mpmath.mpf(10) ** -38


@pytest.mark.parametrize("q,w,t", [(0.5, 0.0, 1.3), (0.9, 0.5, 0.7), (0.9, 1.0, 1.9)])
def test_reference_drag_solves_equation_of_motion(q, w, t):
    import reference as ref
    from spans import steps_needed

    closed = ref.drag_velocity(1.0, 0.5, 9.8, 1.0, t, q, w)
    steps = steps_needed(t, q, w / (1 - q), 1e-60)
    iterated = ref.drag_velocity_recursion(1.0, 0.5, 9.8, 1.0, t, q, w, steps)
    assert ref.rel_err(float(iterated), closed) < 1e-15
    assert abs(iterated - closed) / max(1, abs(closed)) < 1e-30


def test_reference_primitives_agree_with_each_other():
    import reference as ref

    # Euler: e_q(x) e_{1/q}(-x) = 1.
    for q in (0.5, 0.99):
        assert abs(ref.exp_q(0.8, q) * ref.exp_qinv(-0.8, q) - 1) < 1e-38
    # The Hahn integral of a constant c from w0 to t is c (t - w0).
    assert abs(ref.hahn_integral_poly([2.0, 0.0, 0.0], 1.5, 0.5, 0.25) - 2.0) < 1e-38
    # The Hahn derivative of s^2 is (q + 1) t + w.
    assert abs(ref.hahn_derivative_poly([0.0, 0.0, 1.0], 2.0, 0.5, 0.25) - 3.25) < 1e-38


def test_seed_zero_runs_the_reference_commands():
    import run

    wl = run.WORKLOADS
    assert " ".join(wl["drag-sweep"].argv(0)) == (
        "sweep drag --sweep q=0.3:0.99:10 --sweep w=0:1:5 --samples 50"
    )
    assert " ".join(wl["drag-bulk"].argv(0)) == (
        "sweep drag --g 0 --sweep q=0.05:0.5:40 --sweep w=0:1:10 --samples 50 --format json"
    )
    assert " ".join(wl["kinematics-lattice"].argv(0)) == (
        "sweep kinematics --sweep q=0.5:0.99:10 --sweep w=0:1:5 --samples 40"
    )
    assert [wl[n].rows() for n in ("drag-sweep", "drag-bulk", "kinematics-lattice")] == [
        2500, 20000, 2000,
    ]
    assert wl["drag-sweep"].argv(7) != wl["drag-sweep"].argv(8)
    assert run.library_calls(wl["library-primitives"], 5) == run.library_calls(
        wl["library-primitives"], 5
    )


def test_table_parse_and_silent_wrong_rows():
    import run

    text = (
        "# command=sweep\n"
        "q,w,t,closed,series,iterative,classical,flag\n"
        "0.5,0.0,1.0,2.0,2.0,2.0,2.1,ok\n"
        "0.5,0.0,1.5,3.0,3.0,2.0,3.1,ok\n"
        "0.5,0.0,2.0,,4.0,1.0,4.1,pole\n"
    )
    table = run.Table.parse(text, "csv")
    assert table.columns["closed"] == [2.0, 3.0, None]
    assert run.silent_wrong_rows(table, "drag") == 1
    payload = {"metadata": {}, "columns": table.columns, "flags": table.flags}
    assert run.Table.parse(json.dumps(payload), "json").flags == ["ok", "ok", "pole"]


def test_metric_lists_match_benchmark_json():
    import run

    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in SPEC["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for _, u in run.PER_LAYER]
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "kinematics-lattice",
         "--seed", "2", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
