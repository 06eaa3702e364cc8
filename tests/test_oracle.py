"""40-digit oracle: the product, the exponential and the drag routes against mpmath.

The reference (x; q)_inf below is written independently of hahncalc: a
product until |x q^K| <= 1/2, then the log series -sum y^n/(n(1 - q^n))
for the remainder y = x q^K.  Errors are measured on the scale
|value - ref| / max(1, |ref|).  Skipped when mpmath is not installed.
"""

import pytest

from hahncalc import (
    DeformationParams,
    DragParams,
    exp_qw,
    gravity_drag_velocity,
    gravity_drag_velocity_series,
    q_shifted_factorial_inf,
)

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40

BOUND = 1e-12
Q_GRID = [0.3, 0.9, 0.99, 0.999]
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


def ref_drag(dp, t, q, w):
    """Closed-form gravity-plus-drag velocity at 40 digits."""
    q_mp = mp.mpf(q)
    rate = mp.mpf(dp.k) / (mp.mpf(dp.m) * (1 + q_mp))
    e_minus = ref_exp_qw(-rate, t, q, w)
    e_plus = ref_exp_qw(rate, t, q, w)
    x_arg = rate * (mp.mpf(t) - mp.mpf(w) / (1 - q_mp))
    coeff = (1 + q_mp) * dp.m * dp.g / (2 * mp.mpf(dp.k))
    bracket = ref_exp_qinv(x_arg, q) - ref_exp_qinv(-x_arg, q)
    return dp.v0 * e_minus / e_plus + coeff * e_minus * bracket


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


@pytest.mark.parametrize("q", Q_GRID)
def test_exp_qw_against_oracle(q):
    params = DeformationParams(q=q, w=0.5)
    worst = max(
        rel_err(exp_qw(a, t, params), ref_exp_qw(a, t, q, params.w))
        for a in (-0.9, -0.25, 0.4)
        for t in (0.0, 0.7, 1.3)
    )
    assert worst < BOUND


@pytest.mark.parametrize("route", [gravity_drag_velocity, gravity_drag_velocity_series])
@pytest.mark.parametrize("q", Q_GRID)
def test_drag_routes_against_oracle(route, q):
    worst = 0.0
    for w in (0.0, 0.5):
        params = DeformationParams(q=q, w=w)
        for t in (0.1, 0.7, 1.3, 1.9):
            worst = max(worst, rel_err(route(DRAG, t, params), ref_drag(DRAG, t, q, w)))
    assert worst < BOUND
