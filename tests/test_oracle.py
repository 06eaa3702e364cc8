"""40-digit oracle: products, exponentials, lattice sums and drag routes against mpmath.

The reference (x; q)_inf below is written independently of hahncalc: a
product until |x q^K| <= 1/2, then the log series -sum y^n/(n(1 - q^n))
for the remainder y = x q^K.  The lattice sums of polynomials have closed
forms.  Errors are measured on the scale |value - ref| / max(1, |ref|).
Skipped when mpmath is not installed.
"""

import math
import random

import pytest

from hahncalc import (
    DEFAULT_POLICY,
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
    q_shifted_factorial_inf,
    solve_second_order_constant_accel,
)
from hahncalc import core

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40

BOUND = 1e-12
Q_GRID = [0.3, 0.9, 0.99, 0.999]
LATTICE_Q_GRID = [0.5, 0.9, 0.99, 0.999]
DRAG = DragParams(m=1.0, k=0.5, g=9.8, v0=1.0)


def ref_qpoch(x, q):
    """(x; q)_inf at 40 digits."""
    x, q = mp.mpf(x), mp.mpf(q)
    product = mp.mpf(1)
    while abs(x) > 0.5:
        product *= 1 - x
        x *= q
    log_sum, n, eps = mp.mpf(0), 1, mp.mpf(10) ** -45
    while True:
        term = x**n / (n * (1 - q**n))
        log_sum += term
        if abs(term) < eps:
            return product * mp.exp(-log_sum)
        n += 1


def ref_exp_qw(a, t, q, w):
    """e_{q,w}(a t) = 1 / (-a((q-1)t + w); q)_inf."""
    step = (mp.mpf(q) - 1) * mp.mpf(t) + mp.mpf(w)
    return 1 / ref_qpoch(-mp.mpf(a) * step, q)


def ref_exp_qinv(x, q):
    """e_{1/q}(x) = sum_n q^(n(n-1)/2) x^n / [n]_q!."""
    x, q = mp.mpf(x), mp.mpf(q)
    total, term, n = mp.mpf(0), mp.mpf(1), 0
    while abs(term) > mp.mpf(10) ** -45 or n < 3:
        total += term
        n += 1
        term *= q ** (n - 1) * x * (1 - q) / (1 - q**n)
    return total


def ref_odd_bracket(x, q):
    """e_{1/q}(x) - e_{1/q}(-x) = 2 sum_n q^(n(2n+1)) x^(2n+1) / [2n+1]_q!.

    Summed over the odd terms alone and stopped relative to the sum, so it
    keeps 40 digits at any |x|; a difference of two sums near 1 cannot
    resolve x of order 1e-300.
    """
    x, q = mp.mpf(x), mp.mpf(q)
    if not x:
        return mp.mpf(0)
    total, term, n = mp.mpf(0), x, 0
    while abs(term) > mp.mpf(10) ** -45 * abs(total):
        total += term
        denominator = (1 - q ** (2 * n + 2)) * (1 - q ** (2 * n + 3))
        term *= q ** (4 * n + 3) * x * x * (1 - q) ** 2 / denominator
        n += 1
    return 2 * total


def ref_drag(dp, t, q, w):
    """Closed-form gravity-plus-drag velocity at 40 digits."""
    q_mp = mp.mpf(q)
    rate = mp.mpf(dp.k) / (mp.mpf(dp.m) * (1 + q_mp))
    e_minus = ref_exp_qw(-rate, t, q, w)
    e_plus = ref_exp_qw(rate, t, q, w)
    x_arg = rate * (mp.mpf(t) - mp.mpf(w) / (1 - q_mp))
    coeff = (1 + q_mp) * dp.m * dp.g / (2 * mp.mpf(dp.k))
    return dp.v0 * e_minus / e_plus + coeff * e_minus * ref_odd_bracket(x_arg, q)


def ref_lattice_integral(coeffs, t, q, w):
    """Hahn integral from w0 to t of sum_j c_j s^j, at 40 digits.

    With s_k = w0 + q^k d and d = t - w0, it is
    (1 - q) d sum_k q^k f(s_k) = (1 - q) d sum_j c_j sum_i C(j, i) w0^(j-i) d^i / (1 - q^(i+1)).
    """
    q, w, t = mp.mpf(q), mp.mpf(w), mp.mpf(t)
    w0 = w / (1 - q)
    d = t - w0
    total = mp.mpf(0)
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            total += c * mp.binomial(j, i) * w0 ** (j - i) * d**i / (1 - q ** (i + 1))
    return (1 - q) * d * total


def rel_err(value, ref):
    return float(abs(mp.mpf(value) - ref) / max(1, abs(ref)))


def test_reference_product_matches_finite_product():
    x, q = mp.mpf(0.7), mp.mpf(0.5)
    finite = mp.mpf(1)
    for k in range(200):
        finite *= 1 - x * q**k
    assert abs(ref_qpoch(0.7, 0.5) - finite) < mp.mpf(10) ** -35


@pytest.mark.parametrize("q", Q_GRID)
def test_q_shifted_factorial_inf_against_oracle(q):
    # x in [-0.6, 0.6]: small |x| takes the log series, |x| >= q the product.
    worst = max(
        rel_err(q_shifted_factorial_inf(x, q), ref_qpoch(x, q))
        for x in [i / 20 for i in range(-12, 13)]
    )
    assert worst < BOUND


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999])
def test_euler_route_pair_against_oracle(q):
    # Euler's range tol <= |a| <= A = min(1/2, 1 - q), at its two ends and
    # midway: each value of the pair within the route's stated rounding
    # bound N eps R, R = (-|a|; q)_inf/(|a|; q)_inf, relative.  The product
    # route took these arguments before, up to tol/(1 - q) off: 1.75e-14 at
    # q = 1/2, a = 0.3, against a bound of 8.3e-15.
    policy = DEFAULT_POLICY
    kernel = core._QPochKernel(q, policy)
    terms, _ = core._euler_coefficients(q)
    edge = min(0.5, 1.0 - q)
    sizes = [policy.tol, edge / 2, edge] + ([0.3] if q == 0.5 else [])
    for size in sizes:
        bound = terms * 2.0**-52 * ref_qpoch(-size, q) / ref_qpoch(size, q)
        for a in (size, -size):
            low, high, hit = kernel.pair(a)
            assert not hit
            for value, ref in ((low, ref_qpoch(a, q)), (high, ref_qpoch(-a, q))):
                assert abs(value - ref) <= bound * ref


@pytest.mark.parametrize("q", Q_GRID)
def test_exp_qw_against_oracle(q):
    params = DeformationParams(q=q, w=0.5)
    worst = max(
        rel_err(exp_qw(a, t, params), ref_exp_qw(a, t, q, params.w))
        for a in (-0.9, -0.25, 0.4)
        for t in (0.0, 0.7, 1.3)
    )
    assert worst < BOUND


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("q", Q_GRID)
def test_odd_part_qinv_against_oracle(side, q):
    # Side 0 is e_{1/q}(a) - e_{1/q}(-a), side 1 the odd series; both equal
    # the same 40-digit difference.
    worst = max(
        rel_err(odd_part_qinv(a, q)[side], ref_exp_qinv(a, q) - ref_exp_qinv(-a, q))
        for a in [i / 4 for i in range(-12, 13)]
    )
    assert worst < BOUND


@pytest.mark.parametrize("q", Q_GRID)
def test_odd_part_qinv_lhs_keeps_relative_accuracy_near_zero(q):
    # Near a = 0 the left side is about 2a while e_{1/q}(+-a) are near 1;
    # formed as their difference it lost all digits at |a| = 1e-20 and read 0.
    worst = max(
        float(abs(mp.mpf(odd_part_qinv(a, q)[0]) / ref_odd_bracket(a, q) - 1))
        for a in (1e-300, -1e-300, 1e-20, -1e-20, 1e-8, -1e-8)
    )
    assert worst <= BOUND


@pytest.mark.parametrize("route", [gravity_drag_velocity, gravity_drag_velocity_series])
@pytest.mark.parametrize("q", Q_GRID)
def test_drag_routes_against_oracle(route, q):
    worst = 0.0
    for w in (0.0, 0.5):
        params = DeformationParams(q=q, w=w)
        for t in (0.1, 0.7, 1.3, 1.9):
            worst = max(worst, rel_err(route(DRAG, t, params), ref_drag(DRAG, t, q, w)))
    assert worst < BOUND


@pytest.mark.parametrize("q", Q_GRID)
def test_pure_drag_iteration_at_default_depth_against_oracle(q):
    # Pure drag is the iterative route at g = 0.  At q = 0.999 and w = 0.5 its
    # value is about e^250; the old pure-drag product of about 35 000 factors
    # lost 1.3e-12 there to rounding, and the series start keeps this bound.
    worst = 0.0
    for w in (0.0, 0.1, 0.5, 1.0):
        params = DeformationParams(q=q, w=w)
        for v0 in (0.0, 1.0):
            dp = DragParams(m=1.0, k=0.5, g=0.0, v0=v0)
            for t in (0.1, 0.7, 1.3, 1.9, 40.0):
                value = gravity_drag_velocity_iterative(dp, t, params)
                worst = max(worst, rel_err(value, ref_drag(dp, t, q, w)))
    assert worst < BOUND


@pytest.mark.parametrize("q", Q_GRID)
def test_gravity_iteration_at_default_depth_against_oracle(q):
    # The default walk starts from the power series about w0.  The old fixed
    # depth of 150 leaves a boundary error of order q^150 |t - w0|: about 1
    # relative at q = 0.99.  At t = 40, far past w0, the series' terms
    # alternate in sign, and starting it too far out loses digits.
    worst = 0.0
    for w in (0.0, 0.1, 1.0):
        params = DeformationParams(q=q, w=w)
        for v0 in (0.0, 1.0):
            dp = DragParams(m=1.0, k=0.5, g=9.8, v0=v0)
            for t in (0.1, 0.7, 1.3, 1.9, 40.0):
                value = gravity_drag_velocity_iterative(dp, t, params)
                worst = max(worst, rel_err(value, ref_drag(dp, t, q, w)))
    assert worst < BOUND


def ref_gravity_kernel(z, q, n_steps):
    """sum_{j<n_steps} q^j (-z; q)_j / (z; q)_{j+1} at 40 digits."""
    z, q = mp.mpf(z), mp.mpf(q)
    total, num, den = mp.mpf(0), mp.mpf(1), 1 - z
    for j in range(n_steps):
        total += q**j * num / den
        num *= 1 + z * q**j
        den *= 1 - z * q ** (j + 1)
    return total


@pytest.mark.parametrize("route", [gravity_kernel_iteration_sum, gravity_kernel_resummed])
@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99, 1 - 1e-10, 1 - 2**-53])
def test_gravity_kernel_against_oracle(route, q):
    # The resummed route's Gaussian binomials, formed from (q; q)_j prefixes,
    # read 7.0e-9 off at q = 1 - 1e-10 and divided by zero at q = 1 - 2^-53.
    worst = max(
        rel_err(route(z, q, n_steps), ref_gravity_kernel(z, q, n_steps))
        for z in [i / 20 for i in range(-12, 13)]
        for n_steps in (1, 2, 5, 12, 25)
    )
    assert worst < BOUND


def ref_classical_drag(dp, t):
    """v0 e^(-kt/m) - (mg/k) expm1(-kt/m) at 40 digits."""
    x = -mp.mpf(dp.k) * mp.mpf(t) / dp.m
    return dp.v0 * mp.exp(x) - mp.mpf(dp.m) * dp.g / dp.k * mp.expm1(x)


@pytest.mark.parametrize("q, w", [(0.5, 0.1), (0.9, 0.1), (0.3, 0.0), (0.99, 1.0)])
def test_weak_drag_routes_against_oracle(q, w):
    # As k -> 0 the closed route's bracket and the classical route's
    # 1 - e^(-kt/m) are both near 0 while their parts are near 1; formed as
    # differences they lost all digits at k = 1e-300 and read 0.
    rng = random.Random(7)
    params = DeformationParams(q=q, w=w)
    routes = (
        gravity_drag_velocity,
        gravity_drag_velocity_series,
        gravity_drag_velocity_iterative,
    )
    worst = {route.__name__: 0.0 for route in (*routes, classical_drag_velocity)}
    for k in [10.0 ** rng.uniform(-12.0, 0.0) for _ in range(8)] + [1e-300]:
        dp = DragParams(m=1.0, k=k, g=9.8, v0=1.0)
        for t in [rng.uniform(0.1, 2.0) for _ in range(4)]:
            ref = ref_drag(dp, t, q, w)
            for route in routes:
                err = rel_err(route(dp, t, params), ref)
                worst[route.__name__] = max(worst[route.__name__], err)
            err = rel_err(classical_drag_velocity(dp, t), ref_classical_drag(dp, t))
            worst["classical_drag_velocity"] = max(worst["classical_drag_velocity"], err)
    assert max(worst.values()) < BOUND, worst


def polynomial_cases(q, w, seed):
    """Seeded polynomials of degree 0 to 5 and points t at least 0.3 from w0."""
    rng = random.Random(seed)
    w0 = w / (1.0 - q)
    for degree in range(6):
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(degree + 1)]
        t = w0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0)
        yield coeffs, (lambda s, c=coeffs: sum(cj * s**j for j, cj in enumerate(c))), t


def worst_hahn_integral_error(q):
    worst = 0.0
    for seed, w in enumerate((0.0, 0.1, 1.0)):
        params = DeformationParams(q=q, w=w)
        for coeffs, f, t in polynomial_cases(q, w, seed):
            ref = ref_lattice_integral(coeffs, t, q, w)
            worst = max(worst, rel_err(hahn_integral(f, t, params), ref))
    return worst


@pytest.mark.parametrize("q", LATTICE_Q_GRID)
def test_hahn_integral_against_oracle(q):
    assert worst_hahn_integral_error(q) < BOUND


@pytest.mark.parametrize("q", [0.99, 0.999])
def test_hahn_integral_prefactor_is_correctly_rounded(q):
    # (1 - q)t - w cancels near a large w0; rounded plainly it cost up to
    # 1.3e-14 at q = 0.99 and 1.0e-13 at q = 0.999.
    assert worst_hahn_integral_error(q) < 1e-15


def ref_exp2_integral(t, q, w):
    """Hahn integral from w0 to t of exp(2s), at 40 digits.

    With d = t - w0 it is (1 - q) d e^(2 w0) sum_j (2d)^j / (j! (1 - q^(j+1))).
    """
    q, w, t = mp.mpf(q), mp.mpf(w), mp.mpf(t)
    w0 = w / (1 - q)
    d = t - w0
    total, term, j = mp.mpf(0), mp.mpf(1), 0
    while abs(term) > mp.mpf(10) ** -45:
        total += term / (1 - q ** (j + 1))
        j += 1
        term *= 2 * d / j
    return (1 - q) * d * mp.exp(2 * w0) * total


def ref_pole_integral(t, q, w):
    """Hahn integral from w0 to t of 1/(1.3 - s), at 40 digits, for |t - w0| < |1.3 - w0|.

    With d = t - w0 and c = 1.3 - w0 it is (1 - q) d sum_j d^j / (c^(j+1) (1 - q^(j+1))).
    """
    q, w, t = mp.mpf(q), mp.mpf(w), mp.mpf(t)
    w0 = w / (1 - q)
    d, c = t - w0, mp.mpf(1.3) - w0
    total, term, j = mp.mpf(0), 1 / c, 0
    while abs(term) > mp.mpf(10) ** -45:
        total += term / (1 - q ** (j + 1))
        j += 1
        term *= d / c
    return (1 - q) * d * total


SMOOTH_CASES = [
    (lambda s: math.exp(2.0 * s), ref_exp2_integral),
    (lambda s: 1.0 / (1.3 - s), ref_pole_integral),
]


@pytest.mark.parametrize("case", range(len(SMOOTH_CASES)))
@pytest.mark.parametrize("q", [0.9, 0.99, 0.999, 0.9999, 0.99999])
def test_smooth_lattice_sums_near_the_classical_limit(q, case):
    # exp(2s) and 1/(1.3 - s), the latter with its pole at least 1/0.7 times
    # |t - w0| away from w0.  Both calls here are unanchored and take the
    # Gauss route, whose cost does not grow with 1/(1 - q).
    f, ref_integral = SMOOTH_CASES[case]
    worst = 0.0
    for w0 in (0.0, 0.2):
        params = DeformationParams(q=q, w=w0 * (1.0 - q))
        for t in (-0.5, 0.4, 0.9):
            ref = ref_integral(t, q, params.w)
            worst = max(worst, rel_err(hahn_integral(f, t, params), ref))
            report = iterate_first_order(f, t, params, x_at_w0=0.0)
            worst = max(worst, rel_err(report.value, ref))
    assert worst < BOUND


@pytest.mark.parametrize("q", LATTICE_Q_GRID)
def test_iterate_first_order_against_oracle(q):
    # With x(w0) = 0 the iteration returns x(t) - x(w0), the Hahn integral of
    # its right-hand side, and no rounding of an anchor enters.
    worst = 0.0
    for seed, w in enumerate((0.0, 0.1, 1.0), start=10):
        params = DeformationParams(q=q, w=w)
        for coeffs, rhs, t in polynomial_cases(q, w, seed):
            ref = ref_lattice_integral(coeffs, t, q, w)
            report = iterate_first_order(rhs, t, params, x_at_w0=0.0)
            worst = max(worst, rel_err(report.value, ref))
    assert worst < BOUND


@pytest.mark.parametrize("w", [0.25, 1.0])
@pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
def test_anchored_iteration_against_oracle(q, w):
    # x(t) = t^2/(1+q) from its anchor x(w0) = w0^2/(1+q), which reaches 5e5
    # at q = 0.999, w = 1 while x(t) stays below 2.  The lattice sum cancels
    # against the anchor, whose own rounding, about eps |x(w0)|, is the
    # floor the bound allows twice over.
    params = DeformationParams(q=q, w=w)
    state = KinematicState(x0=0.0, v0=0.0, a=1.0)
    rhs = accel_quotient_velocity(state, params)
    x_w0 = position_at_fixed_point(state, params)
    worst = 0.0
    for i in range(40):
        t = 0.1 + i * (1.8 / 39)
        ref = mp.mpf(t) ** 2 / (1 + mp.mpf(q))
        worst = max(worst, rel_err(iterate_first_order(rhs, t, params, x_w0).value, ref))
    assert worst < 2 * 2.0**-52 * abs(x_w0)


def test_second_order_route_against_oracle_near_the_classical_limit():
    # At q = 0.999, w = 1 the fixed point sits at w0 = 1000, where
    # x(w0) = w0^2/(1+q) is about 5e5, while x(t) is of order 1: the final
    # division by q^2 - q scales that factor's rounding by about w0^2/(1+q).
    # Forming it as q*q - q costs 1.4e-8 here; as q (q - 1), 2e-10.
    q, w = 0.999, 1.0
    params = DeformationParams(q=q, w=w)
    state = KinematicState(x0=0.0, v0=0.0, a=1.0)
    worst = 0.0
    for i in range(40):
        t = 0.1 + i * (1.8 / 39)
        ref = mp.mpf(t) ** 2 / (1 + mp.mpf(q))
        worst = max(worst, rel_err(solve_second_order_constant_accel(state, t, params), ref))
    assert worst < 1e-9


def test_hahn_derivative_far_from_the_fixed_point_is_the_quotient():
    # At q = 0.999999, w = 1 the fixed point sits at w0 = 1e6, and t = 0.5 is
    # a lattice step of about 1 from its image.  A central-difference
    # half-width that grew with w0 was about 1 there, so the switch took the
    # central difference and returned 8.000004 for s^4, not the quotient.
    q, w, t = 0.999999, 1.0, 0.5
    image = mp.mpf(q) * t + w
    ref = (image**4 - mp.mpf(t) ** 4) / (image - t)
    value = hahn_derivative(lambda s: s**4, t, DeformationParams(q=q, w=w))
    assert rel_err(value, ref) < BOUND
