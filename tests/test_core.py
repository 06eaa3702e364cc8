"""Tests for deformation parameters, q-numbers, products, and the Hahn operators."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahncalc import core
from hahncalc import (
    CONSECUTIVE_SMALL,
    DeformationParams,
    DragParams,
    NonConvergentError,
    PoleEncounteredError,
    TruncationPolicy,
    ZeroFactorWarning,
    advance,
    advance_n,
    hahn_derivative,
    exp_q_series,
    exp_qw,
    exp_qinv_series,
    gravity_drag_velocity_series,
    hahn_integral,
    iterate_first_order,
    odd_part_qinv,
    q_factorial,
    q_inv_factorial,
    q_number,
    q_shifted_factorial,
    q_shifted_factorial_inf,
    qw_number,
    qw_polynomial,
)

P = DeformationParams(q=0.5, w=0.1)


# ---------------------------------------------------------------------------
# parameter validation


def test_fixed_point_value():
    assert P.w0 == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("q", [0.0, 1.0, 1.5, -0.3])
def test_bad_q_rejected(q):
    with pytest.raises(ValueError):
        DeformationParams(q=q, w=0.1)


def test_negative_w_rejected():
    with pytest.raises(ValueError):
        DeformationParams(q=0.5, w=-0.1)


def test_w_zero_allowed():
    params = DeformationParams(q=0.5, w=0.0)
    assert params.w0 == 0.0


def test_w0_past_the_double_range_rejected():
    # w is finite, but w/(1-q) overflows to inf.
    with pytest.raises(ValueError, match="w0"):
        DeformationParams(q=0.5, w=1e308)


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(tol=0.0)
    with pytest.raises(ValueError):
        TruncationPolicy(max_terms=0)


# ---------------------------------------------------------------------------
# q-numbers and factorials


def test_q_number_zero():
    assert q_number(0, 0.5) == 0.0


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_q_number_one(q):
    assert q_number(1, q) == pytest.approx(1.0, abs=1e-15)


def test_q_number_partial_geometric_sum():
    # 1 + 0.5 + 0.25
    assert q_number(3, 0.5) == pytest.approx(1.75, abs=1e-15)


def test_qw_number_zero_index():
    assert qw_number(0, P) == 0.0


def test_qw_number_w_zero():
    params = DeformationParams(q=0.5, w=0.0)
    for k in range(6):
        assert qw_number(k, params) == 0.0


def test_qw_number_oracle():
    params = DeformationParams(q=0.5, w=1.0)
    assert qw_number(2, params) == pytest.approx(1.5, abs=1e-15)


def test_q_factorial_base_cases():
    assert q_factorial(0, 0.7) == 1.0
    assert q_factorial(1, 0.7) == 1.0


def test_q_factorial_oracle():
    # 1 * 1.5 * 1.75
    assert q_factorial(3, 0.5) == pytest.approx(2.625, abs=1e-15)


def test_q_inv_factorial_base():
    assert q_inv_factorial(0, 0.5) == 1.0


def test_q_inv_factorial_oracle():
    # [2]_{1/q} = 1 + 2 = 3, also (1 - q^-2)/(1 - q^-1) = 3 at q = 0.5
    assert q_inv_factorial(2, 0.5) == pytest.approx(3.0, rel=1e-14)


def test_q_inv_factorial_overflow_names_the_prefactor():
    # 0.5^(-19900) is far past the double range.
    with pytest.raises(OverflowError, match=r"q\^\(-19900\) exceeds double range"):
        q_inv_factorial(200, 0.5)


@given(
    n=st.integers(min_value=0, max_value=12),
    q=st.floats(min_value=0.2, max_value=0.95),
)
@settings(max_examples=200, deadline=None)
def test_q_inv_factorial_matches_direct_product(n, q):
    qi = 1.0 / q
    direct = 1.0
    for k in range(1, n + 1):
        direct *= (1.0 - qi**k) / (1.0 - qi)
    assert q_inv_factorial(n, q) == pytest.approx(direct, rel=1e-9)


# ---------------------------------------------------------------------------
# q-shifted factorials


def test_shifted_factorial_empty_product():
    assert q_shifted_factorial(0.3, 0.5, 0) == 1.0


def test_shifted_factorial_zero_argument():
    assert q_shifted_factorial(0.0, 0.5, 7) == 1.0


def test_shifted_factorial_unit_argument():
    assert q_shifted_factorial(1.0, 0.5, 4) == 0.0


def test_shifted_factorial_inf_zero_argument():
    assert q_shifted_factorial_inf(0.0, 0.5) == 1.0


@pytest.mark.parametrize("a", [-1.0, -0.3, 0.2, 0.8])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_shifted_factorial_inf_matches_long_finite_product(a, q):
    # The finite oracle must include every factor the truncated product kept:
    # at q = 0.9 and tol = 1e-15 the stopping index is ~330, so use N = 600.
    policy = TruncationPolicy(tol=1e-15)
    inf_value = q_shifted_factorial_inf(a, q, policy)
    finite = q_shifted_factorial(a, q, 600)
    assert inf_value == pytest.approx(finite, rel=policy.tol * abs(a) / (1 - q) + 1e-13)


def test_shifted_factorial_inf_500_term_oracle():
    policy = TruncationPolicy(tol=1e-15)
    value = q_shifted_factorial_inf(-1.0, 0.5, policy)
    assert value == pytest.approx(q_shifted_factorial(-1.0, 0.5, 500), abs=1e-12)


def test_shifted_factorial_inf_zero_factor_flags_and_returns_zero():
    with pytest.warns(ZeroFactorWarning):
        value = q_shifted_factorial_inf(1.0, 0.5)
    assert value == 0.0


def test_shifted_factorial_inf_nonconvergent_on_tiny_budget():
    with pytest.raises(NonConvergentError):
        q_shifted_factorial_inf(0.9, 0.99, TruncationPolicy(tol=1e-14, max_terms=5))


# ---------------------------------------------------------------------------
# the two routes of (a; q)_inf


@pytest.fixture
def log_series_calls(monkeypatch):
    """Record each call of the log-series route of (a; q)_inf."""
    calls = []
    original = core._QPochKernel._log_terms

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(core._QPochKernel, "_log_terms", spy)
    return calls


@pytest.mark.parametrize(
    "a, q, log_route",
    [
        (0.3, 0.999, True),
        (-0.6, 0.99, True),
        (0.9, 0.99, True),
        (0.01, 0.5, True),
        (0.3, 0.3, False),  # |a| >= q: the product is never longer
        (0.6, 0.5, False),
        (0.999, 0.99, False),  # series needs ~36000 terms as |a| -> 1
        (1e-6, 0.3, False),  # a handful of factors beats the series' fixed cost
        (1e-15, 0.999, False),  # below tol: no factor at all
    ],
)
def test_log_series_route_taken_only_where_cheaper(a, q, log_route, log_series_calls):
    q_shifted_factorial_inf(a, q)
    assert bool(log_series_calls) == log_route


@pytest.mark.parametrize("q", [0.5, 0.999])
@pytest.mark.parametrize("a", [0.0, 1e-15, -9e-15])
def test_shifted_factorial_inf_below_tol_is_exactly_one(a, q, log_series_calls):
    assert q_shifted_factorial_inf(a, q) == 1.0
    assert not log_series_calls


def test_exp_qw_pole_still_raises_near_classical_limit():
    # The argument -a (q - 1) t equals 1 at t = 1/(a (1 - q)): factor k = 0 vanishes.
    params = DeformationParams(q=0.99, w=0.0)
    with pytest.raises(PoleEncounteredError):
        exp_qw(1.0, 100.0, params)


@pytest.mark.parametrize("k", [0, 3])
def test_shifted_factorial_inf_zero_factor_near_classical_limit(k):
    q = 0.99
    with pytest.warns(ZeroFactorWarning):
        value = q_shifted_factorial_inf(q**-k, q)
    assert value == 0.0


def test_log_series_route_nonconvergent_on_tiny_budget():
    with pytest.raises(NonConvergentError, match="log series"):
        q_shifted_factorial_inf(0.3, 0.999, TruncationPolicy(max_terms=3))


def test_log_series_route_overflows_to_inf_like_the_product(log_series_calls):
    # log (-0.9; q)_inf ~ 0.75/(1 - q) exceeds the double range at q = 0.999.
    assert q_shifted_factorial(-0.9, 0.999, 40_000) == math.inf
    assert q_shifted_factorial_inf(-0.9, 0.999) == math.inf
    assert log_series_calls


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
@pytest.mark.parametrize("a", [-0.6, -0.05, 0.05, 0.3, 0.6])
def test_both_routes_agree(a, q):
    policy = TruncationPolicy(max_terms=10**6)
    log_series = math.exp(-math.fsum(core._QPochKernel(q, policy)._log_terms(a)))
    product = q_shifted_factorial(a, q, math.ceil(math.log(1e-17) / math.log(q)))
    assert log_series == pytest.approx(product, rel=1e-12)


def first_written_product(a, q, policy):
    """The product route of (a; q)_inf as first written: every factor tested."""
    product, scaled = 1.0, a
    for _ in range(policy.max_terms):
        if abs(scaled) < policy.tol:
            return product, False
        factor = 1.0 - scaled
        if abs(factor) < core.ZERO_FACTOR_TOL:
            return 0.0, True
        product *= factor
        scaled *= q
    return "nonconvergent"


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("tol", [1e-14, 0.7])
def test_head_only_zero_factor_test_changes_nothing(q, tol):
    # |a| >= q always takes the product; q^-k are its zero factors.  A tol
    # above 1/2 puts stopping indices inside the head as well.
    sizes = [q + i * (4.0 - q) / 30 for i in range(31)] + [q**-k for k in range(4)]
    for a in sizes + [-size for size in sizes]:
        for max_terms in (1, 2, 3, 5, 100_000):
            policy = TruncationPolicy(tol=tol, max_terms=max_terms)
            try:
                got = core._qpochhammer_inf(a, q, policy)
            except NonConvergentError:
                got = "nonconvergent"
            assert got == first_written_product(a, q, policy)


def one_at_a_time(a, q, policy):
    """What the one-pass pair must give, from one reference evaluation per sign.

    The references share no loop with pair: first_written_product on the
    product route, and exp(-fsum) of the log series' terms at a and at -a on
    the other.  The message where the evaluation at a runs out of max_terms,
    (0.0, 0.0, True) where a factor of (a; q)_inf vanishes, else the two
    values and False; a vanishing factor of (-a; q)_inf reads 0.0.
    """
    kernel = core._QPochKernel(q, policy)
    results = []
    for x in (a, -a):
        if kernel._series_route(abs(x)):
            try:
                results.append((math.exp(-math.fsum(kernel._log_terms(x))), False))
            except NonConvergentError as exc:
                results.append(str(exc))
        else:
            result = first_written_product(x, q, policy)
            results.append(kernel._product_failure(x) if result == "nonconvergent" else result)
    if isinstance(results[0], str):
        return results[0]
    if results[0][1]:
        return 0.0, 0.0, True
    return results[0][0], results[1][0], False


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_plus_minus_pair_is_bit_identical_to_two_calls(q):
    # Log-series sizes, products with |a| >= q, the zero factors q^-k of
    # either sign, products past the double range, and sizes below tol.
    sizes = [1e-15, 1e-6, 0.01, 0.05, 0.3, 0.6, 0.95, 1.7, 40.0, 1e5]
    sizes += [q**-k for k in range(4)]
    routes = set()
    for a in sizes + [-size for size in sizes]:
        for tol in (1e-14, 0.7):
            for max_terms in (1, 2, 3, 5, 40, 100_000):
                policy = TruncationPolicy(tol=tol, max_terms=max_terms)
                kernel = core._QPochKernel(q, policy)
                routes.add(kernel._series_route(abs(a)))
                try:
                    got = kernel.pair(a)
                except NonConvergentError as exc:
                    got = str(exc)
                assert repr(got) == repr(one_at_a_time(a, q, policy))
    assert routes == {True, False}


# ---------------------------------------------------------------------------
# lattice advance


def test_advance_fixed_point():
    assert advance(P.w0, P) == pytest.approx(P.w0, abs=1e-15)


def test_advance_n_identity():
    assert advance_n(1.7, 0, P) == 1.7


def test_advance_n_three_fold_oracle():
    # 0.125 * 1 + 0.1 * 1.75
    assert advance_n(1.0, 3, P) == pytest.approx(0.3, abs=1e-15)


@given(
    t=st.floats(min_value=-5.0, max_value=5.0),
    n=st.integers(min_value=0, max_value=60),
    q=st.floats(min_value=0.2, max_value=0.95),
    w=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=200, deadline=None)
def test_advance_n_geometric_contraction(t, n, q, w):
    params = DeformationParams(q=q, w=w)
    expected = q**n * abs(t - params.w0)
    got = abs(advance_n(t, n, params) - params.w0)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Hahn derivative


def test_derivative_of_constant():
    for t in (-2.0, 0.0, 0.75, 3.0):
        assert hahn_derivative(lambda _: 4.2, t, P) == 0.0


def test_derivative_of_identity():
    for t in (-2.0, 0.0, 0.75, 3.0):
        assert hahn_derivative(lambda s: s, t, P) == pytest.approx(1.0, abs=1e-12)


def test_derivative_of_square_oracle():
    # (q t + w) + t at t = 1
    assert hahn_derivative(lambda s: s * s, 1.0, P) == pytest.approx(1.6, abs=1e-13)


def test_derivative_at_fixed_point_uses_smooth_limit():
    # At t = w0 the difference quotient degenerates; the value should be f'(w0).
    value = hahn_derivative(lambda s: s * s, P.w0, P)
    assert value == pytest.approx(2 * P.w0, abs=1e-8)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("w", [0.0, 1.0])
def test_derivative_near_fixed_point_matches_secant_slope(q, w):
    # For f(s) = s^3 - 2s + 1 the exact secant slope over [t, s], s = qt + w,
    # is t^2 + ts + s^2 - 2.  The quotient alone lost up to 3e-4 of it at
    # |t - w0| = 1e-11.
    params = DeformationParams(q=q, w=w)
    worst = Fraction(0)
    for k in range(4, 15):
        for sign in (-1.0, 1.0):
            t = params.w0 + sign * 10.0**-k
            exact_t = Fraction(t)
            exact_s = Fraction(q) * exact_t + Fraction(w)
            slope = exact_t**2 + exact_t * exact_s + exact_s**2 - 2
            value = hahn_derivative(lambda s: s**3 - 2.0 * s + 1.0, t, params)
            worst = max(worst, abs(Fraction(value) - slope) / abs(slope))
    assert worst < 1e-9


def test_derivative_classical_limit_monotone():
    errors = []
    for eps in (1e-2, 1e-3, 1e-4):
        params = DeformationParams(q=1 - eps, w=eps * eps)
        value = hahn_derivative(lambda s: s**3, 1.0, params)
        errors.append(abs(value - 3.0))
    assert errors[0] > errors[1] > errors[2]


# ---------------------------------------------------------------------------
# Hahn integral


def test_integral_of_zero():
    assert hahn_integral(lambda _: 0.0, 2.0, P) == 0.0


def test_integral_at_fixed_point():
    assert hahn_integral(lambda s: 1.0 + s, P.w0, P) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("t", [0.3, 1.0, 2.0])
def test_fundamental_theorem_on_square(t):
    def antiderivative(u):
        return hahn_integral(lambda s: s * s, u, P)

    assert hahn_derivative(antiderivative, t, P) == pytest.approx(t * t, abs=1e-8)


def test_integral_nonconvergent_on_tiny_budget():
    with pytest.raises(NonConvergentError):
        hahn_integral(lambda s: 1.0, 2.0, P, TruncationPolicy(tol=1e-14, max_terms=4))


# Each entry point with every term after the first zero, and the budget it
# needs: CONSECUTIVE_SMALL zero terms, plus the leading 1 of an exponential.
# At t = w0 = 0 the drag series' exponential factors are exactly 1.  The
# lattice sums from t = 1 also probe the depths 6, 12 and 24, short of 46,
# where q^k |t - w0| = 2^-k falls below tol.
JACKSON = DeformationParams(q=0.5)
BUDGETS = {
    "hahn_integral": (
        lambda policy: hahn_integral(lambda s: 0.0, 1.0, JACKSON, policy),
        CONSECUTIVE_SMALL + 3,
    ),
    "exp_q_series": (
        lambda policy: exp_q_series(0.0, 0.5, policy),
        CONSECUTIVE_SMALL + 1,
    ),
    "exp_qinv_series": (
        lambda policy: exp_qinv_series(0.0, 0.5, policy),
        CONSECUTIVE_SMALL + 1,
    ),
    "odd_part_qinv": (
        lambda policy: odd_part_qinv(0.0, 0.5, policy),
        CONSECUTIVE_SMALL + 1,
    ),
    "iterate_first_order": (
        lambda policy: iterate_first_order(lambda s: 0.0, 1.0, JACKSON, 0.0, policy),
        CONSECUTIVE_SMALL + 3,
    ),
    "gravity_drag_velocity_series": (
        lambda policy: gravity_drag_velocity_series(
            DragParams(m=1.0, k=0.5, g=9.8, v0=0.0), 0.0, JACKSON, policy
        ),
        CONSECUTIVE_SMALL,
    ),
}


@pytest.mark.parametrize("name", BUDGETS)
def test_every_summed_term_counts_against_max_terms(name):
    evaluate, needed = BUDGETS[name]
    evaluate(TruncationPolicy(max_terms=needed))
    with pytest.raises(NonConvergentError):
        evaluate(TruncationPolicy(max_terms=needed - 1))


# ---------------------------------------------------------------------------
# lattice polynomials


def test_qw_polynomial_empty():
    assert qw_polynomial(0.7, 0, P) == 1.0


def test_qw_polynomial_root_at_first_node():
    for n in range(1, 5):
        assert qw_polynomial(P.w, n, P) == 0.0


@given(
    t=st.floats(min_value=-3.0, max_value=3.0),
    n=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=150, deadline=None)
def test_qw_polynomial_derivative_property(t, n):
    lhs = hahn_derivative(lambda s: qw_polynomial(s, n, P), t, P)
    rhs = q_number(n, P.q) * qw_polynomial(t, n - 1, P)
    assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))


# ---------------------------------------------------------------------------
# sum identities


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_q_number_sum_identity(q):
    for n in (1, 2, 5, 17, 50):
        lhs = math.fsum(q_number(k, q) for k in range(n))
        rhs = (n - q_number(n, q)) / (1 - q)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_weighted_q_number_sum_identity(q):
    for n in (1, 2, 5, 17, 50):
        lhs = math.fsum(q**k * q_number(k, q) for k in range(n))
        rhs = q / (q + 1) * q_number(n, q) * q_number(n - 1, q)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))
