"""Tests for resisted vertical motion: drag and gravity-plus-drag velocities."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahncalc import core, qexp, resist
from hahncalc import (
    DeformationParams,
    DragParams,
    HahnCalcError,
    NonConvergentError,
    PoleEncounteredError,
    TruncationPolicy,
    ZeroFactorError,
    classical_drag_velocity,
    exp_qw,
    gravity_drag_velocity,
    gravity_drag_velocity_iterative,
    gravity_drag_velocity_series,
    gravity_kernel_iteration_sum,
    gravity_kernel_resummed,
    hahn_derivative,
    kappa,
    lattice_step,
    odd_part_qinv,
    q_number,
)
from hahncalc.core import ZERO_FACTOR_TOL, _terms_until_small

P = DeformationParams(q=0.5, w=0.1)
PURE = DragParams(m=1.0, k=0.5, g=0.0, v0=2.0)
GRAV = DragParams(m=1.0, k=0.5, g=9.8, v0=0.0)


# ---------------------------------------------------------------------------
# parameters and the damping rate


def test_bad_drag_params_rejected():
    with pytest.raises(ValueError):
        DragParams(m=0.0, k=0.5, g=0.0, v0=1.0)
    with pytest.raises(ValueError):
        DragParams(m=1.0, k=-0.5, g=0.0, v0=1.0)


def test_kappa_classical_limit():
    assert kappa(PURE, 1 - 1e-9) == pytest.approx(PURE.k / (2 * PURE.m), rel=1e-8)


def test_kappa_linear_in_k():
    base = kappa(DragParams(m=2.0, k=1.0, g=0.0, v0=1.0), 0.7)
    tripled = kappa(DragParams(m=2.0, k=3.0, g=0.0, v0=1.0), 0.7)
    assert tripled == pytest.approx(3 * base, rel=1e-14)


def test_kappa_oracle():
    assert kappa(DragParams(m=1.0, k=3.0, g=0.0, v0=1.0), 0.5) == pytest.approx(
        2.0, abs=1e-15
    )


# ---------------------------------------------------------------------------
# pure drag: the gravity routes at g = 0


def test_drag_fixed_point_datum():
    assert gravity_drag_velocity(PURE, P.w0, P) == pytest.approx(PURE.v0, abs=1e-14)


def test_drag_zero_velocity_solution():
    dp = DragParams(m=1.0, k=0.5, g=0.0, v0=0.0)
    for t in (0.0, 1.0, 3.0):
        assert gravity_drag_velocity(dp, t, P) == 0.0


def test_drag_classical_limit():
    params = DeformationParams(q=1 - 1e-3, w=1e-6)
    value = gravity_drag_velocity(PURE, 1.0, params)
    assert value == pytest.approx(2 * math.exp(-0.5), abs=5e-3)


@pytest.mark.parametrize("t", [0.0, 1.0, 3.0])
def test_drag_iterative_matches_closed(t):
    closed = gravity_drag_velocity(PURE, t, P)
    iterated = gravity_drag_velocity_iterative(PURE, t, P)
    assert iterated == pytest.approx(closed, abs=1e-8)


def test_drag_equation_of_motion_residual():
    # m D_t v + k (v(t) + v(qt+w)) / (1+q) must vanish.
    bound = 1e-8
    for i in range(20):
        t = -1.5 + 5.0 * i / 19.0

        def v(s):
            return gravity_drag_velocity(PURE, s, P)

        residual = PURE.m * hahn_derivative(v, t, P) + PURE.k * (
            v(t) + v(P.q * t + P.w)
        ) / (1 + P.q)
        assert abs(residual) < bound


# ---------------------------------------------------------------------------
# gravity plus drag


def test_gravity_reduces_to_pure_drag():
    # At g = 0 the closed and series routes are the homogeneous ratio
    # v0 e(-kappa t)/e(kappa t), bit for bit, and the recursion is the product
    # of the drag ratios, v0 (-z; q)_N/(z; q)_N with z = kappa ((q-1)t + w).
    dp = DragParams(m=1.0, k=0.5, g=0.0, v0=2.0)
    rate = kappa(dp, P.q)
    for t in (0.0, 0.7, 2.0):
        pure = dp.v0 * exp_qw(-rate, t, P) / exp_qw(rate, t, P)
        assert gravity_drag_velocity(dp, t, P) == pure
        assert gravity_drag_velocity_series(dp, t, P) == pure
        z = rate * lattice_step(t, P)
        product = dp.v0 * math.prod(
            (1.0 + z * P.q**j) / (1.0 - z * P.q**j) for j in range(100)
        )
        assert gravity_drag_velocity_iterative(dp, t, P) == pytest.approx(product, abs=1e-14)


def test_gravity_fixed_point_datum():
    for route in (gravity_drag_velocity, gravity_drag_velocity_series):
        assert route(GRAV, P.w0, P) == pytest.approx(0.0, abs=1e-12)
    assert gravity_drag_velocity_iterative(GRAV, P.w0, P) == pytest.approx(0.0, abs=1e-12)


def test_gravity_classical_limit():
    params = DeformationParams(q=1 - 1e-3, w=1e-6)
    value = gravity_drag_velocity(GRAV, 1.0, params)
    assert value == pytest.approx((9.8 / 0.5) * (1 - math.exp(-0.5)), abs=5e-2)


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
def test_gravity_series_matches_closed(t):
    closed = gravity_drag_velocity(GRAV, t, P)
    series = gravity_drag_velocity_series(GRAV, t, P)
    assert series == pytest.approx(closed, abs=1e-10)


def test_gravity_series_term_decay():
    # Terms follow t_{n+1} = t_n q^{4n+3} X^2 / ([2n+2]_q [2n+3]_q); once the
    # ratio drops below 1 the magnitudes fall monotonically.
    rate = kappa(GRAV, P.q)
    x_arg = rate * (2.0 - P.w0)
    term = abs(x_arg)
    magnitudes = [term]
    for n in range(15):
        term *= P.q ** (4 * n + 3) * x_arg * x_arg
        term /= q_number(2 * n + 2, P.q) * q_number(2 * n + 3, P.q)
        magnitudes.append(abs(term))
    for n in range(5, 15):
        assert magnitudes[n + 1] < magnitudes[n]


# The grid of the closed/series bit-identity checks: low to classical q,
# both signs of g, and seeded times on both sides of w0, far out too.
BIT_GRID_Q = (0.05, 0.3, 0.5, 0.9, 0.99, 0.999)
BIT_GRID_W = (0.0, 0.1, 1.0)


def bit_grid_times(count):
    rng = random.Random(0)
    return [rng.uniform(-60.0, 60.0) for _ in range(count)]


def hex_or_error(route, *args):
    """float.hex of the value, or the type of the library error raised."""
    try:
        return float(route(*args)).hex()
    except HahnCalcError as exc:
        return type(exc).__name__


def test_gravity_series_is_closed_form_with_odd_part_bracket():
    # The series route is the closed form with the right side of the
    # odd-part identity as its bracket.
    for q in BIT_GRID_Q:
        for w in BIT_GRID_W:
            params = DeformationParams(q=q, w=w)
            for g in (9.8, -3.0):
                dp = DragParams(m=1.0, k=0.5, g=g, v0=1.0)
                rate = kappa(dp, q)
                for t in bit_grid_times(10):
                    e_minus, e_plus = exp_qw(-rate, t, params), exp_qw(rate, t, params)
                    coeff = (1.0 + q) * dp.m * dp.g / (2.0 * dp.k)
                    _, rhs = odd_part_qinv(rate * (t - params.w0), q)
                    expected = dp.v0 * e_minus / e_plus + coeff * e_minus * rhs
                    assert gravity_drag_velocity_series(dp, t, params) == expected


def odd_series_loop_route(dp, t, params, policy):
    """Reference series route: the driven term summed by its own odd-series
    loop, with the factor 2 in the coefficient."""
    q = params.q
    rate = kappa(dp, q)
    e_minus, e_plus = exp_qw(-rate, t, params, policy), exp_qw(rate, t, params, policy)
    homogeneous = dp.v0 * e_minus / e_plus
    if dp.g == 0.0:
        return homogeneous
    x_arg = rate * (t - params.w0)
    x_sq = x_arg * x_arg

    def odd_terms():
        term = x_arg
        n = 0
        while True:
            yield term
            term *= q ** (4 * n + 3) * x_sq / (
                (1.0 - q ** (2 * n + 2)) / (1.0 - q)
                * ((1.0 - q ** (2 * n + 3)) / (1.0 - q))
            )
            n += 1

    odd_sum = math.fsum(_terms_until_small(odd_terms(), policy, "odd drag series"))
    return homogeneous + (1.0 + q) * dp.m * dp.g / dp.k * e_minus * odd_sum


def difference_bracket_route(dp, t, params, policy):
    """Reference closed route, written out without the shared body."""
    rate = kappa(dp, params.q)
    e_minus, e_plus = exp_qw(-rate, t, params, policy), exp_qw(rate, t, params, policy)
    homogeneous = dp.v0 * e_minus / e_plus
    if dp.g == 0.0:
        return homogeneous
    bracket = qexp._exp_qinv_odd_sum(rate * (t - params.w0), params.q, policy)
    coeff = (1.0 + params.q) * dp.m * dp.g / (2.0 * dp.k)
    return homogeneous + coeff * e_minus * bracket


def iterative_loop_route(dp, t, params, policy):
    """Reference iterative route: the series start and the backward recursion
    written out, every factor tested for a zero."""
    q = params.q
    rate = kappa(dp, q)
    start = min(resist.SERIES_START, 0.5 * q**3 / (1.0 - q)) / rate
    s = t - params.w0
    depth = 0
    if not abs(s) <= start:
        depth = policy.max_terms
        if start > 0.0 and math.isfinite(s):
            depth = min(depth, math.ceil((math.log(start) - math.log(abs(s))) / math.log(q)))
    x = s * q**depth

    def terms():
        yield dp.v0
        term = (dp.g - 2.0 * rate * dp.v0) * x
        qn, q_int = q, 1.0
        while True:
            yield term
            q_int += qn
            term *= -rate * x * (1.0 + qn) / q_int
            qn *= q

    v = math.fsum(_terms_until_small(terms(), policy, "iteration", spent=depth))
    u0 = lattice_step(t, params)
    for j in range(depth - 1, -1, -1):
        uj = u0 * q**j
        drag = rate * uj
        denom = 1.0 - drag
        if abs(denom) < ZERO_FACTOR_TOL:
            raise ZeroFactorError(f"factor {j}")
        v = (-dp.g * uj + (1.0 + drag) * v) / denom
    return v


def test_closed_and_series_routes_are_bit_identical_to_their_own_loops():
    # The factor 2 moved between coefficient and bracket is exact, so the
    # shared body changes no bit of either route.  Each route runs twice:
    # through its public function, a fresh route object per call, and
    # through one route object per (q, w, g, v0) that walks the times in
    # order with closed before series, so a stale memo of the homogeneous
    # pair or a constant hoisted wrongly shows.
    policy = TruncationPolicy()
    times = bit_grid_times(12)
    references = (
        (difference_bracket_route, gravity_drag_velocity, "closed"),
        (odd_series_loop_route, gravity_drag_velocity_series, "series"),
        (iterative_loop_route, gravity_drag_velocity_iterative, "iterative"),
    )
    for q in BIT_GRID_Q:
        for w in BIT_GRID_W:
            params = DeformationParams(q=q, w=w)
            for g in (0.0, 9.8, -3.0):
                for v0 in (0.0, 1.0):
                    dp = DragParams(m=1.0, k=0.5, g=g, v0=v0)
                    routes = resist._DragRoutes(dp, params, policy)
                    for t in times:
                        args = (dp, t, params, policy)
                        for reference, public, name in references:
                            expected = hex_or_error(reference, *args)
                            assert hex_or_error(public, *args) == expected
                            assert hex_or_error(getattr(routes, name), t) == expected


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_gravity_iterative_matches_closed(t):
    closed = gravity_drag_velocity(GRAV, t, P)
    iterated = gravity_drag_velocity_iterative(GRAV, t, P)
    assert iterated == pytest.approx(closed, abs=1e-7)


def test_gravity_iterative_equation_of_motion_on_lattice():
    # Sample the recursion points t_j = q^j t + [j]_{q,w} and check the
    # difference form m (v_{j+1} - v_j)/u_j + k (v_j + v_{j+1})/(1+q) = m g.
    from hahncalc import advance_n

    t = 2.0
    for j in range(6):
        tj = advance_n(t, j, P)
        tj1 = advance_n(t, j + 1, P)
        uj = (P.q - 1) * tj + P.w
        vj = gravity_drag_velocity_iterative(GRAV, tj, P)
        vj1 = gravity_drag_velocity_iterative(GRAV, tj1, P)
        residual = (
            GRAV.m * (vj1 - vj) / uj
            + GRAV.k * (vj + vj1) / (1 + P.q)
            - GRAV.m * GRAV.g
        )
        assert abs(residual) < 1e-6


@pytest.mark.parametrize("v0", [0.0, 1.5])
def test_gravity_default_depth_is_exact_at_the_fixed_point(v0):
    # There the series is taken at x = 0, where its sum is c_0 = v0.
    dp = DragParams(m=1.0, k=0.5, g=9.8, v0=v0)
    for params in (P, DeformationParams(q=0.99, w=0.5)):
        assert gravity_drag_velocity_iterative(dp, params.w0, params) == v0


def test_gravity_default_depth_counts_steps_and_terms_against_max_terms():
    # At q = 0.99, t = 0, w0 = 50 the walk takes about 180 steps and the
    # series about 35 terms: the budget that just suffices covers both.
    params = DeformationParams(q=0.99, w=0.5)
    value = gravity_drag_velocity_iterative(GRAV, 0.0, params)

    def fits(budget):
        try:
            result = gravity_drag_velocity_iterative(
                GRAV, 0.0, params, policy=TruncationPolicy(max_terms=budget)
            )
        except NonConvergentError as exc:
            assert "gravity-drag iteration" in str(exc)
            return False
        assert result == value
        return True

    budget = next(b for b in range(1, 1000) if fits(b))
    assert 150 < budget < 250
    assert not fits(budget - 1)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_gravity_default_depth_at_non_finite_times_raises_nonconvergent(t):
    with pytest.raises(NonConvergentError, match="gravity-drag iteration"):
        gravity_drag_velocity_iterative(GRAV, t, P)


def test_gravity_equation_of_motion_residual():
    bound = 1e-8 * (1 + abs(GRAV.m * GRAV.g))
    for i in range(20):
        t = -1.0 + 4.0 * i / 19.0

        def v(s):
            return gravity_drag_velocity(GRAV, s, P)

        residual = (
            GRAV.m * hahn_derivative(v, t, P)
            + GRAV.k * (v(t) + v(P.q * t + P.w)) / (1 + P.q)
            - GRAV.m * GRAV.g
        )
        assert abs(residual) < bound


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("w", [0.01, 0.1])
def test_three_routes_agree(q, w):
    params = DeformationParams(q=q, w=w)
    for t in (0.5, 1.0):
        closed = gravity_drag_velocity(GRAV, t, params)
        series = gravity_drag_velocity_series(GRAV, t, params)
        iterated = gravity_drag_velocity_iterative(GRAV, t, params)
        assert abs(closed - series) < 1e-6
        assert abs(closed - iterated) < 1e-6
        assert abs(series - iterated) < 1e-6


def test_classical_limits_shrink_along_eps():
    drag_errors = []
    grav_errors = []
    for eps in (1e-1, 1e-2, 1e-3):
        params = DeformationParams(q=1 - eps, w=eps * eps)
        drag_errors.append(
            abs(gravity_drag_velocity(PURE, 1.0, params) - 2 * math.exp(-0.5))
        )
        grav_errors.append(
            abs(
                gravity_drag_velocity(GRAV, 1.0, params)
                - (9.8 / 0.5) * (1 - math.exp(-0.5))
            )
        )
    assert drag_errors[0] > drag_errors[1] > drag_errors[2]
    assert grav_errors[0] > grav_errors[1] > grav_errors[2]


# ---------------------------------------------------------------------------
# classical reference


def test_classical_initial_velocity():
    assert classical_drag_velocity(GRAV, 0.0) == GRAV.v0


def test_classical_terminal_velocity():
    assert classical_drag_velocity(GRAV, 1e6) == pytest.approx(
        GRAV.m * GRAV.g / GRAV.k, rel=1e-12
    )


def test_classical_oracle():
    value = classical_drag_velocity(GRAV, 1.0)
    assert value == pytest.approx(19.6 * (1 - math.exp(-0.5)), rel=1e-13)


# ---------------------------------------------------------------------------
# driven-response kernel identity


def _kernel_exact(z: Fraction, q: Fraction, n_steps: int) -> Fraction:
    total = Fraction(0)
    for j in range(n_steps):
        num = Fraction(1)
        den = Fraction(1)
        for i in range(j):
            num *= 1 + q**i * z
        for i in range(j + 1):
            den *= 1 - q**i * z
        total += q**j * num / den
    return total


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 8])
def test_kernel_routes_match_exact_rational_oracle(n_steps):
    z, q = Fraction(1, 4), Fraction(1, 3)
    exact = float(_kernel_exact(z, q, n_steps))
    assert gravity_kernel_iteration_sum(0.25, 1 / 3, n_steps) == pytest.approx(
        exact, rel=1e-12
    )
    assert gravity_kernel_resummed(0.25, 1 / 3, n_steps) == pytest.approx(
        exact, rel=1e-12
    )


@given(
    z=st.floats(min_value=-0.6, max_value=0.6),
    q=st.sampled_from([0.3, 0.5, 0.9]),
    n_steps=st.integers(min_value=1, max_value=25),
)
@settings(max_examples=150, deadline=None)
def test_kernel_resummation_identity(z, q, n_steps):
    lhs = gravity_kernel_iteration_sum(z, q, n_steps)
    rhs = gravity_kernel_resummed(z, q, n_steps)
    assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda n: gravity_kernel_iteration_sum(0.3, 0.5, n),
        lambda n: gravity_kernel_resummed(0.3, 0.5, n),
    ],
    ids=["iteration_sum", "resummed"],
)
def test_negative_depth_names_n_steps(evaluate):
    with pytest.raises(ValueError, match="n_steps"):
        evaluate(-1)


def test_kernel_zero_factor_raises():
    with pytest.raises(ZeroFactorError):
        gravity_kernel_iteration_sum(1.0, 0.5, 4)
    with pytest.raises(ZeroFactorError):
        gravity_kernel_resummed(1.0, 0.5, 4)


def test_closed_form_past_the_double_range_is_zero_not_a_crash():
    # At q = 0.999, t = 3600 the arguments are -+0.9: e(kappa t) ~ e^1300
    # overflows, so the product under it underflows to 0 on the log series.
    dp = DragParams(m=1.0, k=0.5, g=0.0, v0=1.0)
    params = DeformationParams(q=0.999, w=0.0)
    assert exp_qw(kappa(dp, params.q), 3600.0, params) == math.inf
    assert gravity_drag_velocity(dp, 3600.0, params) == 0.0


# ---------------------------------------------------------------------------
# the homogeneous factor, once per row


@pytest.fixture
def pair_calls(monkeypatch):
    """Count one-pass evaluations of the pair e(-kappa t), e(kappa t): calls
    of the pair product of the (a; q)_inf kernel a drag route object holds."""
    calls = []
    original = core._QPochKernel.pair

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(core._QPochKernel, "pair", counting)
    return calls


@pytest.mark.parametrize("g", [0.0, 9.8])
def test_closed_and_series_share_the_homogeneous_factor(g, pair_calls):
    # One route object evaluates the pair once per t: closed and series at
    # one t share it, and a new t or a new object evaluates it again.
    dp = DragParams(m=1.0, k=0.5, g=g, v0=1.0)
    params = DeformationParams(q=0.99, w=0.5)
    routes = resist._DragRoutes(dp, params, TruncationPolicy())
    counts = []
    values = []
    for t in (0.7, 0.7, 1.3, 0.7):
        values.append((t, routes.closed(t), routes.series(t)))
        counts.append(len(pair_calls))
    assert counts == [1, 1, 2, 3]
    resist._DragRoutes(dp, params, TruncationPolicy()).closed(0.7)
    assert len(pair_calls) == 4
    # Each value is the one a fresh object gives.
    for t, closed, series in values:
        assert closed == gravity_drag_velocity(dp, t, params)
        assert series == gravity_drag_velocity_series(dp, t, params)


@pytest.mark.parametrize("g", [0.0, 9.8])
def test_pole_of_the_reciprocal_factor_is_a_finite_point(g):
    # At t = 6.2, kappa step = -1: e(kappa t) has a pole there, but it enters
    # v only through its reciprocal, 0, and v is finite.  At t = -5.8,
    # kappa step = 1: a factor of (kappa step; q)_inf vanishes, so
    # e(-kappa t), which multiplies v, has a pole, and so has v.
    dp = DragParams(m=1.0, k=0.5, g=g, v0=2.0)
    rate = kappa(dp, P.q)
    assert rate * lattice_step(6.2, P) == pytest.approx(-1.0, abs=1e-15)
    with pytest.raises(PoleEncounteredError):
        exp_qw(rate, 6.2, P)
    iterated = gravity_drag_velocity_iterative(dp, 6.2, P)
    assert iterated == (0.0 if g == 0.0 else pytest.approx(14.7, rel=1e-15))
    for route in (gravity_drag_velocity, gravity_drag_velocity_series):
        assert route(dp, 6.2, P) == pytest.approx(iterated, rel=1e-13, abs=1e-13)
        with pytest.raises(PoleEncounteredError):
            route(dp, -5.8, P)
    with pytest.raises(ZeroFactorError):
        gravity_drag_velocity_iterative(dp, -5.8, P)


def test_iteration_where_kappa_underflows_is_the_undamped_fall():
    # k/(m(1+q)) underflows to 0: there is no drag, v = v0 + g (t - w0), and
    # the iteration's start radius is unbounded, not a division by zero.
    dp = DragParams(m=1e300, k=1e-300, g=9.8, v0=1.0)
    assert kappa(dp, P.q) == 0.0
    for t in (0.0, 2.0):
        expected = 1.0 + 9.8 * (t - P.w0)
        assert gravity_drag_velocity_iterative(dp, t, P) == pytest.approx(expected, rel=1e-15)


# ---------------------------------------------------------------------------
# the failure contract: a float, or a failure the CLI maps to a flag

MAPPED_FAILURES = (PoleEncounteredError, ZeroFactorError, NonConvergentError, OverflowError)


def test_reciprocal_exponential_past_the_double_range_raises_overflow():
    # e(kappa t) is 0 where its product overflowed, so v0 e(-kappa t)/e(kappa t)
    # has no double value.  Closed and series raise OverflowError, the second
    # from the memo the first stored.
    cases = [
        (DragParams(1.0, 2.0, 9.8, 1.0), 0.0, DeformationParams(0.999, 1.0)),
        (DragParams(1.0, 4.975, 0.0, 1.0), 3600.0, DeformationParams(0.99, 0.5)),
    ]
    for dp, t, params in cases:
        for route in (gravity_drag_velocity, gravity_drag_velocity_series):
            with pytest.raises(OverflowError, match="underflows to 0"):
                route(dp, t, params)
        routes = resist._DragRoutes(dp, params, TruncationPolicy())
        with pytest.raises(OverflowError):
            routes.closed(t)
        assert routes._last[0] == t and routes._last[2] == 0.0
        with pytest.raises(OverflowError):
            routes.series(t)


@given(
    q=st.floats(min_value=0.05, max_value=0.999),
    w=st.floats(min_value=0.0, max_value=1.0),
    k=st.floats(min_value=0.01, max_value=10.0),
    m=st.floats(min_value=0.1, max_value=10.0),
    g=st.sampled_from([0.0, 9.8]),
    v0=st.floats(min_value=-5.0, max_value=5.0),
    t=st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_drag_routes_return_a_float_or_a_mapped_failure(q, w, k, m, g, v0, t):
    # cli._evaluate_block flags these four failures; anything else raised by a
    # route would end a table run in a traceback.
    dp = DragParams(m=m, k=k, g=g, v0=v0)
    routes = resist._DragRoutes(dp, DeformationParams(q=q, w=w), TruncationPolicy())
    for route in (routes.closed, routes.series, routes.iterative):
        try:
            value = route(t)
        except MAPPED_FAILURES:
            continue
        assert isinstance(value, float)


def one_exponential_at_a_time(dp, t, params, bracket):
    """The closed or series velocity from one exp_qw call per exponential.

    A pole of e(-kappa t) raises; a pole of e(kappa t) reads +inf, so its
    reciprocal is 0.
    """
    policy = TruncationPolicy()
    q = params.q
    rate = kappa(dp, q)
    e_minus = exp_qw(-rate, t, params, policy)
    try:
        e_plus = exp_qw(rate, t, params, policy)
    except PoleEncounteredError:
        e_plus = math.inf
    homogeneous = dp.v0 * e_minus / e_plus
    if dp.g == 0.0:
        return homogeneous
    coeff = (1.0 + q) * dp.m * dp.g / (2.0 * dp.k)
    return homogeneous + coeff * e_minus * bracket(rate * (t - params.w0), q, policy)


def value_or_failure(evaluate, *args):
    """repr of the value, or the name of the library or arithmetic error raised."""
    try:
        return repr(evaluate(*args))
    except (HahnCalcError, ArithmeticError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("w", [0.0, 0.1])
def test_poles_match_one_exponential_at_a_time(q, w):
    # At the t where kappa step = +q^-k a factor of (kappa step; q)_inf
    # vanishes, a pole of v; where kappa step = -q^-k one of
    # (-kappa step; q)_inf does, and v is finite.
    params = DeformationParams(q=q, w=w)
    routes = (
        (gravity_drag_velocity, qexp._exp_qinv_odd_sum),
        (gravity_drag_velocity_series, qexp._exp_qinv_odd_part),
    )
    seen = set()
    for g in (0.0, 9.8):
        for v0 in (2.0, -2.0, -0.0):
            dp = DragParams(m=1.0, k=0.5, g=g, v0=v0)
            rate = kappa(dp, q)
            for sign in (1.0, -1.0):
                for k in range(4):
                    t = (w - sign / (rate * q**k)) / (1.0 - q)
                    for route, bracket in routes:
                        got = value_or_failure(route, dp, t, params)
                        assert got == value_or_failure(
                            one_exponential_at_a_time, dp, t, params, bracket
                        )
                        seen.add(got == "PoleEncounteredError")
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# the iteration's zero-factor test


def grid(start, stop, count):
    """Inclusive uniform grid with the endpoints hit exactly, as the CLI builds it."""
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def outcome(evaluate, *args):
    """The value, or the message of the ZeroFactorError raised."""
    try:
        return evaluate(*args)
    except ZeroFactorError as exc:
        return str(exc)


def head_only_iterative(dp, t, params):
    """The iterative route with its zero test in the head alone.

    A copy of the route's body from when it scanned for the head of factors
    with |kappa u_j| >= ZERO_FACTOR_HEAD, walked the tail untested and
    tested only the head.
    """
    routes = resist._DragRoutes(dp, params, core.DEFAULT_POLICY)
    q = routes._q
    rate = routes._rate
    policy = routes._policy
    start = routes._start
    s = t - routes._w0
    depth = 0
    if not abs(s) <= start:
        depth = policy.max_terms
        if start > 0.0 and math.isfinite(s):
            depth = min(depth, math.ceil((routes._log_start - math.log(abs(s))) / routes._log_q))
    powers = [q**j for j in range(depth + 1)]
    x = s * powers[depth]
    v = math.fsum(
        _terms_until_small(
            resist._gravity_drag_series_terms(routes._v0, routes._c1, rate, q, x),
            policy,
            "gravity-drag iteration at t={!r}, q={!r}",
            t,
            q,
            spent=depth,
        )
    )
    g = routes._g
    u0 = routes._slope * t + routes._w
    head = 0
    while head < depth and abs(rate * (u0 * powers[head])) >= core.ZERO_FACTOR_HEAD:
        head += 1
    for j in range(depth - 1, head - 1, -1):
        uj = u0 * powers[j]
        drag = rate * uj
        v = (-g * uj + (1.0 + drag) * v) / (1.0 - drag)
    for j in range(head - 1, -1, -1):
        uj = u0 * powers[j]
        drag = rate * uj
        denom = 1.0 - drag
        if abs(denom) < ZERO_FACTOR_TOL:
            raise ZeroFactorError(
                f"denominator factor 1 - kappa u_{j} vanishes for t={t!r}, "
                f"q={q!r}, w={routes._w!r}"
            )
        v = (-g * uj + (1.0 + drag) * v) / denom
    return v


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("w", [0.0, 1.0])
def test_head_only_zero_factor_tests_change_nothing(q, w):
    # Times spread over both signs of z and |z| up to about 5, plus the poles
    # t_k where kappa u_k = 1 exactly for k < 4 (a vanishing factor at index k).
    # The route tests every factor of its walk; testing the head alone gives
    # the same value or the same ZeroFactorError.  Pure drag (g = 0) and
    # gravity share the route and its poles.
    params = DeformationParams(q=q, w=w)
    rate = kappa(PURE, q)
    poles = [(w - 1.0 / (rate * q**k)) / (1.0 - q) for k in range(4)]
    times = grid(-60.0, 60.0, 41) + poles
    for dp in (PURE, GRAV):
        every_factor = [outcome(gravity_drag_velocity_iterative, dp, t, params) for t in times]
        head_only = [outcome(head_only_iterative, dp, t, params) for t in times]
        assert list(map(repr, every_factor)) == list(map(repr, head_only))
        assert sum(isinstance(got, str) for got in every_factor) >= 4
