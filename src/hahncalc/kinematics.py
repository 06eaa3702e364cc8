"""Deformed kinematics on the (q,w) lattice.

Uniform-velocity and constant-acceleration motion where the time derivative
is the Hahn difference quotient.  Three independent routes to the
constant-acceleration trajectory are provided:

* the closed form x(t) = x0 + v0 t + a t^2/(1+q) (uniform_accel_position),
* a generic fixed-point iteration that telescopes the defining first-order
  difference equation down the lattice (iterate_first_order),
* a second-order pipeline that substitutes h(t) = x(qt+w) - q x(t), solves
  the resulting first-order equation for the increment h(t) - h(w0), and
  reconstructs x from it with no division by a power of t - w0
  (solve_second_order_constant_accel).

All three agree within truncation error; the iteration is deliberately
ignorant of the closed forms so it can serve as an oracle for them.

Boundary data are anchored at the fixed point w0 = w/(1-q) of the lattice
map t -> qt + w, where the difference quotient degenerates and every
trajectory's value is pinned by x(w0) = x0 + v0 w0 + a w0^2/(1+q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    DEFAULT_POLICY,
    DeformationParams,
    ScalarFunction,
    TruncationPolicy,
    _check_q,
    _lattice_sum,
    advance_n,
    lattice_step,
)

__all__ = [
    "KinematicState",
    "IterationReport",
    "uniform_velocity_position",
    "uniform_accel_velocity",
    "uniform_accel_position",
    "accel_quotient_velocity",
    "position_at_fixed_point",
    "iterate_first_order",
    "solve_second_order_constant_accel",
]


@dataclass(frozen=True)
class KinematicState:
    """Initial data of a one-dimensional trajectory: x(0), v(0), and a."""

    x0: float
    v0: float
    a: float

    def __post_init__(self) -> None:
        for name in ("x0", "v0", "a"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class IterationReport:
    """Result of a lattice iteration.

    value is the computed x(t); steps is the number of evaluations of the
    right-hand side, the count held against max_terms; residual is
    |t_K - w0| = q**K |t - w0| for the first lattice point
    t_K = q^K t + [K]_{q,w} whose increment was not summed term by term.

    On the plain route K is the number of increments summed, and steps also
    counts the probes past them that confirmed the stop; with no probe,
    K = steps and residual = q**steps * |t - w0|.  On the Gauss route no
    increment is summed term by term: K = 0 and residual = |t - w0|, while
    steps counts the evaluations at the rule's nodes and the probes.  On the
    head-and-tail route K = ceil(3/(1 - q)) increments are summed and the
    series from t_K on is taken by the Gauss rule, so residual =
    q**K |t - w0|, and steps also counts the nodes and probes of the rule
    declined on the whole sum and of the one on the tail: K < steps.  When a
    declined rule sends a call back to the plain route, K <= steps likewise.
    """

    value: float
    steps: int
    residual: float


def uniform_velocity_position(state: KinematicState, t: float) -> float:
    """Position under constant deformed velocity: x0 + v0 t.

    The linear form is undeformed; it satisfies D_t x = v0 exactly because
    the Hahn quotient of a linear function is its slope.
    """
    return state.x0 + state.v0 * t


def uniform_accel_velocity(state: KinematicState, t: float) -> float:
    """Velocity under constant deformed acceleration: v0 + a t."""
    return state.v0 + state.a * t


def uniform_accel_position(state: KinematicState, t: float, q: float) -> float:
    """Closed-form position under constant acceleration.

    x(t) = x0 + v0 t + a t^2 / (1+q).  The quadratic coefficient carries
    1/[2]_q rather than 1/2 because the Hahn derivative of t^2 is
    (1+q)t - (...) rather than 2t; as q -> 1 the classical parabola returns.
    """
    _check_q(q)
    return state.x0 + state.v0 * t + state.a * t * t / (1.0 + q)


def accel_quotient_velocity(
    state: KinematicState, params: DeformationParams
) -> ScalarFunction:
    """Difference-quotient velocity of the closed constant-acceleration form.

    The Hahn quotient of x0 + v0 t + a t^2/(1+q) is

        v0 + a w/(1+q) + a t,

    which exceeds the deformed velocity v0 + a t by a constant that
    vanishes on the unshifted (w = 0) lattice.  This is the right-hand
    side whose first-order difference equation the closed trajectory
    actually satisfies, so feeding it to iterate_first_order reconstructs
    the closed form from the fixed-point anchor alone; feeding v0 + a t
    instead solves a different equation whose solution is
    x0 + v0 t + a t (t - w)/(1+q).
    """
    offset = state.v0 + state.a * params.w / (1.0 + params.q)

    def rhs(s: float) -> float:
        return offset + state.a * s

    return rhs


def position_at_fixed_point(state: KinematicState, params: DeformationParams) -> float:
    """x(w0) for the constant-acceleration trajectory.

    Evaluates the closed form at the lattice fixed point; this is the
    boundary datum every iterative route is anchored to.
    """
    return uniform_accel_position(state, params.w0, params.q)


def iterate_first_order(
    rhs: ScalarFunction,
    t: float,
    params: DeformationParams,
    x_at_w0: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
    *,
    anchor: float | None = None,
) -> IterationReport:
    """Solve x(qt+w) - x(t) = ((q-1)t + w) rhs(t) for x(t), given x(w0).

    Writing the equation at the successive lattice points t_k = q^k t + [k]w
    and summing telescopes the unknown down to the fixed point:

        x(t) = x(w0) - sum_k u_k rhs(t_k),   u_k = q^k ((q-1)t + w).

    The sum is core._lattice_sum with weight -u_0.  On the plain route the
    increments are summed in ascending k until CONSECUTIVE_SMALL successive
    ones are below policy.tol.  When that takes many increments (q near 1),
    or the first is already below tol, and q > 1/2, the Gauss route
    evaluates rhs at the nodes of the Gauss rule of the lattice measure, a
    number of them that does not depend on q.  It is taken only where its
    rounding fits the value returned: anchor, x_at_w0 unless given, is what
    the caller adds to the sum, and a sum that cancels against it sums its
    first ceil(3/(1 - q)) increments one by one and takes only the rest by
    the rule.  The rule assumes rhs analytic at w0, and probes of rhs down
    to the plain route's depth check that and send the call back to the
    plain route when they disagree.  See IterationReport for what steps and
    residual mean on each route.

    Every evaluation of rhs counts against policy.max_terms; raises
    NonConvergentError if they run out before the plain stopping rule is met.
    """
    u0 = lattice_step(t, params)
    if anchor is None:
        anchor = x_at_w0
    total, steps, summed = _lattice_sum(
        rhs, t, params, policy, -u0, anchor, "first-order iteration at t={!r}", t
    )
    residual = abs(advance_n(t, summed, params) - params.w0)
    return IterationReport(value=x_at_w0 + total, steps=steps, residual=residual)


def solve_second_order_constant_accel(
    state: KinematicState,
    t: float,
    params: DeformationParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Constant-acceleration position via the second-order reduction.

    The substitution h(t) = x(qt+w) - q x(t) turns the second-order lattice
    equation with constant right-hand side a into a first-order equation
    for h whose own right-hand side is q a ((q-1)s + w).  Stage 1 solves
    that equation by lattice telescoping, for the increment h(t) - h(w0)
    alone, anchored at (x(w0) + C s)(q^2 - q), the part of the returned x
    that it is added to, in units of h.  Stage 2 inverts the substitution:
    for a trajectory of the form x(w0) + C s + g s^2, s = t - w0, the
    substitution maps the linear part to a constant and scales the quadratic
    one by q^2 - q, so

        g s^2 = (h(t) - h(w0)) / (q^2 - q),
        C = v0 + 2 a w0 / (1+q),

    and x(t) = x(w0) + C s + (h(t) - h(w0))/(q^2 - q).  No quotient by a
    power of s is taken, so there is no 0/0 at the fixed point.
    """
    q = params.q
    s = t - params.w0
    slope = state.v0 + 2.0 * state.a * params.w0 / (1.0 + q)
    x_at_w0 = position_at_fixed_point(state, params)
    qa = q * state.a
    q_minus_1 = q - 1.0
    w = params.w

    def rhs_h(u: float) -> float:
        return qa * (q_minus_1 * u + w)

    # q^2 - q as q (q - 1), where q - 1 is exact for q >= 1/2: q*q would round
    # before the subtraction cancels.
    factor = q * q_minus_1
    linear = x_at_w0 + slope * s
    anchor = linear * factor
    delta_h = iterate_first_order(rhs_h, t, params, 0.0, policy, anchor=anchor).value
    return linear + delta_h / factor
