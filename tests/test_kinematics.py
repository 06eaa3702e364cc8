"""Tests for deformed uniform-velocity and constant-acceleration motion."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hahncalc import (
    DEFAULT_POLICY,
    DeformationParams,
    KinematicState,
    TruncationPolicy,
    accel_quotient_velocity,
    hahn_derivative,
    iterate_first_order,
    position_at_fixed_point,
    q_number,
    solve_second_order_constant_accel,
    uniform_accel_position,
    uniform_accel_velocity,
    uniform_velocity_position,
)
from hahncalc.core import _lattice_sum, lattice_step
from hahncalc.errors import HahnCalcError
from hahncalc.kinematics import _KinematicRoutes

P = DeformationParams(q=0.5, w=0.1)
STATE = KinematicState(x0=1.0, v0=2.0, a=3.0)


# ---------------------------------------------------------------------------
# closed forms


def test_uniform_velocity_initial_condition():
    assert uniform_velocity_position(STATE, 0.0) == STATE.x0


def test_uniform_velocity_at_rest():
    state = KinematicState(x0=1.5, v0=0.0, a=0.0)
    for t in (0.0, 1.0, 7.0):
        assert uniform_velocity_position(state, t) == 1.5


@given(t=st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=100, deadline=None)
def test_uniform_velocity_quotient(t):
    value = hahn_derivative(lambda s: uniform_velocity_position(STATE, s), t, P)
    assert value == pytest.approx(STATE.v0, abs=1e-12 * (1 + abs(STATE.v0)))


def test_uniform_accel_velocity_initial_condition():
    assert uniform_accel_velocity(STATE, 0.0) == STATE.v0


def test_uniform_accel_velocity_zero_accel():
    state = KinematicState(x0=0.0, v0=2.0, a=0.0)
    for t in (0.0, 1.0, 7.0):
        assert uniform_accel_velocity(state, t) == 2.0


@given(t=st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=100, deadline=None)
def test_uniform_accel_velocity_quotient(t):
    value = hahn_derivative(lambda s: uniform_accel_velocity(STATE, s), t, P)
    assert value == pytest.approx(STATE.a, abs=1e-12 * (1 + abs(STATE.a)))


def test_uniform_accel_position_classical_limit():
    state = KinematicState(x0=0.0, v0=1.0, a=2.0)
    value = uniform_accel_position(state, 3.0, 1 - 1e-9)
    assert value == pytest.approx(0.0 + 1.0 * 3.0 + 2.0 * 9.0 / 2.0, abs=1e-8)


def test_uniform_accel_position_oracle():
    state = KinematicState(x0=0.0, v0=0.0, a=3.0)
    assert uniform_accel_position(state, 1.0, 0.5) == pytest.approx(2.0, abs=1e-15)


def test_initial_condition_relation_at_fixed_point():
    # x(0) = x(w0) - v0 w0 - a w0^2 / (1+q)
    x_w0 = uniform_accel_position(STATE, P.w0, P.q)
    reconstructed = x_w0 - STATE.v0 * P.w0 - STATE.a * P.w0**2 / (1 + P.q)
    assert reconstructed == pytest.approx(STATE.x0, abs=1e-12)


def test_position_at_fixed_point_matches_closed_form():
    assert position_at_fixed_point(STATE, P) == pytest.approx(
        uniform_accel_position(STATE, P.w0, P.q), abs=1e-14
    )


def test_bad_state_rejected():
    with pytest.raises(ValueError):
        KinematicState(x0=math.nan, v0=0.0, a=0.0)
    with pytest.raises(ValueError):
        KinematicState(x0=0.0, v0=math.inf, a=0.0)


# ---------------------------------------------------------------------------
# first-order iteration


def test_iteration_zero_rhs_returns_boundary_datum():
    for t in (0.0, 1.0, 5.0):
        report = iterate_first_order(lambda _: 0.0, t, P, x_at_w0=4.25)
        assert report.value == 4.25


def test_iteration_constant_rhs_matches_linear_motion():
    v = 1.7
    x_w0 = 0.9
    for t in (0.0, 0.6, 3.0):
        report = iterate_first_order(lambda _: v, t, P, x_at_w0=x_w0)
        assert report.value == pytest.approx(x_w0 + v * (t - P.w0), abs=1e-10)


@pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
def test_iteration_with_quotient_velocity_matches_closed_form(t):
    rhs = accel_quotient_velocity(STATE, P)
    x_w0 = position_at_fixed_point(STATE, P)
    report = iterate_first_order(rhs, t, P, x_at_w0=x_w0)
    assert report.value == pytest.approx(uniform_accel_position(STATE, t, P.q), abs=1e-10)


@pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
def test_iteration_with_plain_linear_rhs(t):
    # rhs(s) = v0 + a s telescopes to a trajectory whose quadratic term couples
    # t to the lattice shift: x(w0) + (t - w0) (v0 + a (t + q w0) / (1 + q)).
    rhs = lambda s: STATE.v0 + STATE.a * s
    x_w0 = position_at_fixed_point(STATE, P)
    report = iterate_first_order(rhs, t, P, x_at_w0=x_w0)
    expected = x_w0 + (t - P.w0) * (
        STATE.v0 + STATE.a * (t + P.q * P.w0) / (1 + P.q)
    )
    assert report.value == pytest.approx(expected, abs=1e-10)


def test_iteration_report_residual_is_lattice_gap():
    report = iterate_first_order(lambda s: 1.0 + s, 3.0, P, x_at_w0=0.0)
    assert report.residual == pytest.approx(
        P.q**report.steps * abs(3.0 - P.w0), rel=1e-12
    )


def test_iteration_solves_the_difference_equation():
    # x(qt+w) - x(t) must equal ((q-1)t + w) rhs(t) for the returned values.
    rhs = accel_quotient_velocity(STATE, P)
    x_w0 = position_at_fixed_point(STATE, P)

    def x(t):
        return iterate_first_order(rhs, t, P, x_at_w0=x_w0).value

    for t in (0.0, 0.7, 2.0):
        lhs = x(P.q * t + P.w) - x(t)
        assert lhs == pytest.approx(((P.q - 1) * t + P.w) * rhs(t), abs=1e-11)


# ---------------------------------------------------------------------------
# second-order route


def test_second_order_rest_solution():
    state = KinematicState(x0=1.0, v0=0.0, a=0.0)
    for t in (0.0, 1.0, 4.0):
        assert solve_second_order_constant_accel(state, t, P) == pytest.approx(
            1.0, abs=1e-12
        )


def test_second_order_matches_first_order_route():
    value = solve_second_order_constant_accel(STATE, 2.0, P)
    assert value == pytest.approx(uniform_accel_position(STATE, 2.0, P.q), abs=1e-9)


@given(t=st.floats(min_value=-2.0, max_value=4.0))
@example(t=0.2)  # w0 itself, where a nested difference quotient read 3.0000693
@settings(max_examples=60, deadline=None)
def test_second_order_quotient_is_constant_accel(t):
    # D^2 x = a across the two lattice hops t -> t1 -> t2 is the exact
    # three-point identity x(t2) - (1+q) x(t1) + q x(t) = q a ((q-1)t + w)^2,
    # checked to a few roundings of its terms.  A nested difference quotient
    # would lose its digits within about 2e-4 of w0, where the hops vanish.
    q, w = P.q, P.w
    t1 = q * t + w
    t2 = q * t1 + w
    x0, x1, x2 = (solve_second_order_constant_accel(STATE, s, P) for s in (t, t1, t2))
    residual = x2 - (1 + q) * x1 + q * x0 - q * STATE.a * ((q - 1) * t + w) ** 2
    eps = 2.0**-52
    assert abs(residual) <= 8 * eps * (abs(x2) + (1 + q) * abs(x1) + q * abs(x0))


def test_second_order_keeps_the_quadratic_part_next_to_the_fixed_point():
    # At q = 0.999 and s = t - w0 = 1e-5 every increment of h lies below tol,
    # so the plain rule stopped after three of them and lost a s^2/(1+q), the
    # whole quadratic part: 1.5e-10.  Such sums take the Gauss rule.
    state = KinematicState(x0=1.0, v0=0.5, a=3.0)
    params = DeformationParams(q=0.999, w=2e-4)
    t = params.w0 + 1e-5
    closed = uniform_accel_position(state, t, params.q)
    assert abs(solve_second_order_constant_accel(state, t, params) - closed) <= 1e-15


def test_second_order_expansion_identity():
    # x(q^2 t + (1+q) w) - (1+q) x(qt+w) + q x(t) = q a ((q-1)t + w)^2
    q, w, a = P.q, P.w, STATE.a

    def x(s):
        return uniform_accel_position(STATE, s, q)

    for t in (-1.0, 0.3, 1.0, 2.5):
        lhs = x(q * q * t + (1 + q) * w) - (1 + q) * x(q * t + w) + q * x(t)
        rhs = q * a * ((q - 1) * t + w) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-11 * (1 + abs(rhs)))


# ---------------------------------------------------------------------------
# route equivalence and classical limit


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("w", [0.0, 0.1, 1.0])
def test_three_routes_agree(q, w):
    params = DeformationParams(q=q, w=w)
    x_w0 = position_at_fixed_point(STATE, params)
    rhs = accel_quotient_velocity(STATE, params)
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        closed = uniform_accel_position(STATE, t, q)
        iterated = iterate_first_order(rhs, t, params, x_at_w0=x_w0).value
        second = solve_second_order_constant_accel(STATE, t, params)
        assert abs(closed - iterated) < 1e-9
        assert abs(closed - second) < 1e-9
        assert abs(iterated - second) < 1e-9


def test_classical_limit_shrinks_along_eps():
    state = KinematicState(x0=0.5, v0=1.0, a=2.0)
    t = 1.5
    newton = 0.5 + 1.0 * t + 2.0 * t * t / 2.0
    errors = []
    for eps in (1e-1, 1e-2, 1e-3):
        params = DeformationParams(q=1 - eps, w=eps * eps)
        closed = uniform_accel_position(state, t, params.q)
        second = solve_second_order_constant_accel(state, t, params)
        errors.append(max(abs(closed - newton), abs(second - newton)))
    assert errors[0] > errors[1] > errors[2]


# ---------------------------------------------------------------------------
# the route object against the per-cell composition it replaced


def composed_second_order(state, t, params, policy):
    """The second-order route composed per cell, as before the route object.

    Stage 1 went through iterate_first_order with x(w0) = 0 and the anchor
    passed apart, so its increment is 0.0 + the lattice sum.
    """
    q = params.q
    s = t - params.w0
    slope = state.v0 + 2.0 * state.a * params.w0 / (1.0 + q)
    x_at_w0 = position_at_fixed_point(state, params)
    qa = q * state.a
    q_minus_1 = q - 1.0
    w = params.w

    def rhs_h(u):
        return qa * (q_minus_1 * u + w)

    factor = q * q_minus_1
    linear = x_at_w0 + slope * s
    anchor = linear * factor
    total, _, _ = _lattice_sum(
        rhs_h, t, params, policy, -lattice_step(t, params), anchor,
        "first-order iteration at t={!r}", t,
    )
    delta_h = 0.0 + total
    return linear + delta_h / factor


def composed_routes(state, params, policy):
    """Each kinematic route composed per cell from the public functions."""
    rhs = accel_quotient_velocity(state, params)
    x_w0 = position_at_fixed_point(state, params)
    return {
        "closed": lambda t: uniform_accel_position(state, t, params.q),
        "iterative": lambda t: iterate_first_order(rhs, t, params, x_w0, policy).value,
        "second_order": lambda t: composed_second_order(state, t, params, policy),
        "classical": lambda t: state.x0 + state.v0 * t + 0.5 * state.a * t * t,
    }


def outcome(fn, t):
    """repr of fn(t), or the type of the exception it raised."""
    try:
        return repr(fn(t))
    except (HahnCalcError, ArithmeticError) as exc:
        return type(exc)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7722, 0.9, 0.99])
@pytest.mark.parametrize("w", [0.0, 0.1, 1.0])
def test_route_object_matches_the_per_cell_composition(q, w):
    params = DeformationParams(q=q, w=w)
    ts = [-1.0 + 0.25 * i for i in range(17)] + [params.w0 - 1e-9, params.w0 + 1e-9]
    for state in (STATE, KinematicState(x0=0.3, v0=-1.7, a=2.5)):
        for policy in (DEFAULT_POLICY, TruncationPolicy(max_terms=50)):
            routes = _KinematicRoutes(state, params, policy)
            for name, oracle in composed_routes(state, params, policy).items():
                method = getattr(routes, name)
                for t in ts:
                    assert outcome(method, t) == outcome(oracle, t), (name, state, policy, t)
