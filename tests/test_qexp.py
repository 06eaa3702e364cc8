"""Tests for the deformed exponentials and the odd-part series identity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahncalc import qexp, resist
from hahncalc import (
    DeformationParams,
    DragParams,
    HahnCalcError,
    OutOfRadiusError,
    PoleEncounteredError,
    TruncationPolicy,
    exp_q_series,
    exp_qinv_series,
    exp_qw,
    hahn_derivative,
    odd_part_qinv,
    q_factorial,
)

P = DeformationParams(q=0.5, w=0.1)


# ---------------------------------------------------------------------------
# product-form exponential


def test_exp_qw_at_fixed_point():
    for a in (-2.0, 0.3, 1.0):
        assert exp_qw(a, P.w0, P) == pytest.approx(1.0, abs=1e-15)


def test_exp_qw_zero_rate():
    for t in (-1.0, 0.0, 2.5):
        assert exp_qw(0.0, t, P) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("a", [-1.0, 0.7])
@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
def test_exp_qw_eigenfunction_property(a, t):
    value = hahn_derivative(lambda s: exp_qw(a, s, P), t, P)
    assert value == pytest.approx(a * exp_qw(a, t, P), abs=1e-9)


def test_exp_qw_pole_raises():
    # The first product factor 1 + a((q-1)t + w) vanishes at t = (w + 1/a)/(1-q).
    a = 1.0
    t_pole = (P.w + 1.0 / a) / (1.0 - P.q)
    with pytest.raises(PoleEncounteredError):
        exp_qw(a, t_pole, P)


def test_exp_qw_classical_limit_monotone():
    errors = []
    for eps in (1e-1, 1e-2, 1e-3):
        params = DeformationParams(q=1 - eps, w=eps * eps)
        errors.append(abs(exp_qw(1.0, 1.0, params) - math.e))
    assert errors[0] > errors[1] > errors[2]


# ---------------------------------------------------------------------------
# series exponentials


def test_exp_q_series_at_zero():
    assert exp_q_series(0.0, 0.5) == 1.0


def test_exp_q_series_classical_limit():
    assert exp_q_series(1.0, 0.999) == pytest.approx(math.e, abs=2e-3)


def test_exp_q_series_out_of_radius():
    with pytest.raises(OutOfRadiusError):
        exp_q_series(3.0, 0.5)


def test_exp_q_series_matches_horner_oracle():
    # Reference: the same 100 leading terms evaluated highest-order first.
    x, q = 0.5, 0.5
    coeffs = [1.0 / q_factorial(n, q) for n in range(100)]
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    assert exp_q_series(x, q) == pytest.approx(acc, rel=1e-12)


def test_exp_qinv_series_at_zero():
    assert exp_qinv_series(0.0, 0.5) == 1.0


def test_exp_qinv_series_classical_limit():
    assert exp_qinv_series(1.0, 0.999) == pytest.approx(math.e, abs=2e-3)


def test_exp_qinv_series_matches_term_oracle():
    # Independent accumulation: explicit q^{n(n-1)/2} x^n / [n]_q! terms,
    # summed in reverse order.
    x, q = 2.0, 0.5
    terms = [q ** (n * (n - 1) // 2) * x**n / q_factorial(n, q) for n in range(80)]
    reference = math.fsum(reversed(terms))
    assert exp_qinv_series(x, q) == pytest.approx(reference, rel=1e-12)


@given(x=st.floats(min_value=-30.0, max_value=30.0))
@settings(max_examples=100, deadline=None)
def test_exp_qinv_series_entire(x):
    # The q^{n(n-1)/2} damping makes the series converge for every real x.
    value = exp_qinv_series(x, 0.5)
    assert math.isfinite(value)


def test_series_nonconvergent_budget():
    from hahncalc import NonConvergentError

    with pytest.raises(NonConvergentError):
        exp_qinv_series(5.0, 0.9, TruncationPolicy(tol=1e-14, max_terms=3))


# ---------------------------------------------------------------------------
# odd-part identity


def test_odd_part_at_zero():
    lhs, rhs = odd_part_qinv(0.0, 0.5)
    assert lhs == 0.0
    assert rhs == 0.0


@given(a=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=100, deadline=None)
def test_odd_part_antisymmetry(a):
    lhs_pos, rhs_pos = odd_part_qinv(a, 0.5)
    lhs_neg, rhs_neg = odd_part_qinv(-a, 0.5)
    assert lhs_neg == pytest.approx(-lhs_pos, abs=1e-12)
    assert rhs_neg == pytest.approx(-rhs_pos, abs=1e-12)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_odd_part_two_paths_agree(a, q):
    lhs, rhs = odd_part_qinv(a, q)
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("a", [100.0, -100.0])
def test_odd_part_is_finite_far_out(a):
    # The value is about 4.9e35, but a^m and [m]_q! formed whole for the
    # odd terms m would overflow.
    lhs, rhs = odd_part_qinv(a, 0.99)
    assert math.isfinite(lhs) and math.isfinite(rhs)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_odd_part_lhs_is_series_difference():
    a, q = 1.0, 0.5
    lhs, _ = odd_part_qinv(a, q)
    assert lhs == pytest.approx(exp_qinv_series(a, q) - exp_qinv_series(-a, q), rel=1e-13)


# ---------------------------------------------------------------------------
# one pass for the values at a and -a


def outcome(evaluate, *args):
    """repr of the value, or the type and message of the library error raised."""
    try:
        return repr(evaluate(*args))
    except HahnCalcError as exc:
        return f"{type(exc).__name__}: {exc}"


def exp_qw_two_calls(a, t, params, policy):
    """exp_qw(-a, t) and exp_qw(a, t), one call each; a pole of the second reads inf."""
    e_minus = exp_qw(-a, t, params, policy)
    try:
        e_plus = exp_qw(a, t, params, policy)
    except PoleEncounteredError:
        e_plus = math.inf
    return e_minus, e_plus


def drag_pair(routes, t):
    """The pair e(-kappa t), e(kappa t) a drag route object forms at t, read from its memo.

    closed(t) raises OverflowError where e(kappa t) is 0, its product past
    the double range (at t = 3600 for q = 0.99 and 0.999 here), after the
    memo holds the pair.
    """
    try:
        routes.closed(t)
    except OverflowError:
        pass
    return routes._last[1:]


@pytest.mark.parametrize("q, w", [(0.3, 0.0), (0.5, 0.1), (0.9, 0.5), (0.99, 0.5), (0.999, 0.0)])
def test_exp_qw_pair_is_bit_identical_to_two_calls(q, w):
    # A drag route object takes e(-+kappa t) from one pass of its block's
    # (a; q)_inf kernel.  Times over both signs of the step, the poles of
    # either exponential (a factor q^k kappa step = +-1 vanishes), and at
    # q = 0.999, t = 3600 a pair past the double range: 0 and inf.
    params = DeformationParams(q=q, w=w)
    for a in (0.25, 1.0, 2.5):
        dp = DragParams(m=1.0, k=a * (1.0 + q), g=0.0, v0=1.0)
        for max_terms in (3, 40, 100_000):
            policy = TruncationPolicy(max_terms=max_terms)
            routes = resist._DragRoutes(dp, params, policy)
            rate = routes._rate
            poles = [(w + sign / (rate * q**k)) / (1.0 - q) for sign in (1.0, -1.0) for k in range(3)]
            for t in [-60.0 + 3.0 * i for i in range(41)] + poles + [3600.0]:
                got = outcome(drag_pair, routes, t)
                assert got == outcome(exp_qw_two_calls, rate, t, params, policy)
    dp = DragParams(m=1.0, k=0.5, g=0.0, v0=1.0)
    routes = resist._DragRoutes(dp, DeformationParams(q=0.999), TruncationPolicy())
    assert drag_pair(routes, 3600.0) == (0.0, math.inf)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.99])
def test_odd_part_lhs_is_the_closed_bracket(q):
    # The identity's left side is the closed drag route's bracket, bit for
    # bit, and a budget too small for it raises what e_{1/q}(x) raises.
    raised = 0
    for x in [-30.0 + 1.5 * i for i in range(41)] + [1e-300, 0.37, -2.9]:
        for max_terms in (1, 3, 10, 100_000):
            policy = TruncationPolicy(max_terms=max_terms)
            got = outcome(lambda: odd_part_qinv(x, q, policy)[0])
            assert got == outcome(qexp._exp_qinv_odd_sum, x, q, policy)
            series = outcome(exp_qinv_series, x, q, policy)
            if series.startswith("NonConvergentError"):
                assert got == series
                raised += 1
    assert raised
