"""Independent 40-digit reference values for hahncalc's routes and primitives.

Everything here is evaluated with mpmath at DIGITS significant digits from
the exact binary values of the float inputs, and nothing here imports
hahncalc.  The one hard object is the infinite q-shifted factorial
(x; q)_inf.  mpmath.qp with default settings raises NoConvergence near
q = 1, so it is evaluated here as a finite product until |x q^K| <= 1/2 and
the log-series

    log (y; q)_inf = -sum_{n>=1} y^n / (n (1 - q^n)),    |y| < 1,

for the remaining tail (Gasper and Rahman, Basic Hypergeometric Series,
ch. 1).  Every other reference value is a closed form built on it:

* e_{q,w}(a t)      = 1 / (a (1-q)(t - w0); q)_inf
* e_q(x)            = 1 / ((1-q) x; q)_inf              (Euler)
* e_{1/q}(x)        = (-(1-q) x; q)_inf                 (Euler)
* resisted fall     = the closed-form velocity of hahncalc.resist
* accelerated x(t)  = x0 + v0 t + a t^2 / (1+q)
* Hahn integral and derivative of a polynomial, in closed form.

rel_err scales the absolute error by max(1, |reference|), the same scale the
benchmark uses for route agreement.
"""

from __future__ import annotations

from math import comb

import mpmath

__all__ = [
    "DIGITS",
    "rel_err",
    "qpoch_inf",
    "exp_qw",
    "exp_q",
    "exp_qinv",
    "odd_part_qinv",
    "hahn_integral_poly",
    "hahn_derivative_poly",
    "drag_velocity",
    "drag_velocity_recursion",
    "accel_position",
]

DIGITS = 40
# Guard digits carried beyond DIGITS inside every evaluation.
_GUARD = 10


def _ctx():
    return mpmath.workdps(DIGITS + _GUARD)


def rel_err(value: float | None, reference) -> float:
    """|value - reference| / max(1, |reference|); an absent value counts as 1."""
    if value is None:
        return 1.0
    with _ctx():
        ref = mpmath.mpf(reference)
        return float(abs(mpmath.mpf(value) - ref) / max(mpmath.mpf(1), abs(ref)))


def _qpoch(x, q):
    """(x; q)_inf for mpf x and q with 0 < q < 1, at the current precision."""
    eps = mpmath.mpf(2) ** (-mpmath.mp.prec - 8)
    product = mpmath.mpf(1)
    half = mpmath.mpf(1) / 2
    while abs(x) > half:
        product *= 1 - x
        x *= q
    if x == 0:
        return product
    log_tail = mpmath.mpf(0)
    power = x
    qn = q
    n = 1
    while True:
        term = power / (n * (1 - qn))
        log_tail -= term
        if abs(term) < eps:
            break
        n += 1
        power *= x
        qn *= q
    return product * mpmath.exp(log_tail)


def qpoch_inf(x: float, q: float):
    """(x; q)_inf to DIGITS digits."""
    with _ctx():
        return +_qpoch(mpmath.mpf(x), mpmath.mpf(q))


def _exp_qw(a, t, q, w):
    w0 = w / (1 - q)
    return 1 / _qpoch(a * (1 - q) * (t - w0), q)


def exp_qw(a: float, t: float, q: float, w: float):
    """e_{q,w}(a t) = 1/(-a((q-1)t + w); q)_inf."""
    with _ctx():
        return +_exp_qw(mpmath.mpf(a), mpmath.mpf(t), mpmath.mpf(q), mpmath.mpf(w))


def _exp_qinv(x, q):
    return _qpoch(-(1 - q) * x, q)


def exp_q(x: float, q: float):
    """e_q(x) = sum x^n/[n]_q! = 1/((1-q)x; q)_inf, for |x|(1-q) < 1."""
    with _ctx():
        q_ = mpmath.mpf(q)
        return +(1 / _qpoch((1 - q_) * mpmath.mpf(x), q_))


def exp_qinv(x: float, q: float):
    """e_{1/q}(x) = sum q^(n(n-1)/2) x^n/[n]_q! = (-(1-q)x; q)_inf."""
    with _ctx():
        return +_exp_qinv(mpmath.mpf(x), mpmath.mpf(q))


def odd_part_qinv(a: float, q: float):
    """e_{1/q}(a) - e_{1/q}(-a)."""
    with _ctx():
        a_, q_ = mpmath.mpf(a), mpmath.mpf(q)
        return +(_exp_qinv(a_, q_) - _exp_qinv(-a_, q_))


def _poly(coeffs, s):
    total = mpmath.mpf(0)
    for c in reversed(coeffs):
        total = total * s + c
    return total


def hahn_integral_poly(coeffs: list[float], t: float, q: float, w: float):
    """Hahn integral from w0 to t of sum_j coeffs[j] s^j, in closed form.

    With d = t - w0 the lattice points are w0 + q^k d, so after expanding
    the polynomial about w0 each power (s - w0)^j integrates to
    d^(j+1) (1-q)/(1-q^(j+1)).
    """
    with _ctx():
        q_, w_ = mpmath.mpf(q), mpmath.mpf(w)
        w0 = w_ / (1 - q_)
        d = mpmath.mpf(t) - w0
        cs = [mpmath.mpf(c) for c in coeffs]
        total = mpmath.mpf(0)
        for j in range(len(cs)):
            shifted = sum(
                (cs[i] * comb(i, j) * w0 ** (i - j) for i in range(j, len(cs))),
                mpmath.mpf(0),
            )
            total += shifted * d ** (j + 1) * (1 - q_) / (1 - q_ ** (j + 1))
        return +total


def hahn_derivative_poly(coeffs: list[float], t: float, q: float, w: float):
    """(P(qt + w) - P(t)) / ((q-1)t + w) for P(s) = sum_j coeffs[j] s^j."""
    with _ctx():
        q_, w_, t_ = mpmath.mpf(q), mpmath.mpf(w), mpmath.mpf(t)
        cs = [mpmath.mpf(c) for c in coeffs]
        return +((_poly(cs, q_ * t_ + w_) - _poly(cs, t_)) / ((q_ - 1) * t_ + w_))


def drag_velocity(m: float, k: float, g: float, v0: float, t: float, q: float, w: float):
    """Velocity of the resisted fall on the (q,w) lattice.

    v = v0 e(-kt)/e(kt) + ((1+q) m g / 2k) e(-kt) [e_{1/q}(X) - e_{1/q}(-X)]
    with kappa = k/(m(1+q)), e(.) = e_{q,w}(. t) and X = kappa (t - w0).
    """
    with _ctx():
        m_, k_, g_, v0_ = (mpmath.mpf(x) for x in (m, k, g, v0))
        t_, q_, w_ = mpmath.mpf(t), mpmath.mpf(q), mpmath.mpf(w)
        rate = k_ / (m_ * (1 + q_))
        e_minus = _exp_qw(-rate, t_, q_, w_)
        e_plus = _exp_qw(rate, t_, q_, w_)
        x_arg = rate * (t_ - w_ / (1 - q_))
        bracket = _exp_qinv(x_arg, q_) - _exp_qinv(-x_arg, q_)
        coeff = (1 + q_) * m_ * g_ / (2 * k_)
        return +(v0_ * e_minus / e_plus + coeff * e_minus * bracket)


def drag_velocity_recursion(
    m: float, k: float, g: float, v0: float, t: float, q: float, w: float, steps: int
):
    """The same velocity from the lattice equation of motion alone.

    Unwinds (1 - kappa u_j) v_j = -g u_j + (1 + kappa u_j) v_{j+1},
    u_j = q^j ((q-1)t + w), from v = v0 at lattice point `steps`; the error
    is of order q^steps |t - w0|.  Used to check drag_velocity.
    """
    with _ctx():
        m_, k_, g_, v0_ = (mpmath.mpf(x) for x in (m, k, g, v0))
        t_, q_, w_ = mpmath.mpf(t), mpmath.mpf(q), mpmath.mpf(w)
        rate = k_ / (m_ * (1 + q_))
        u0 = (q_ - 1) * t_ + w_
        v = v0_
        for j in range(steps - 1, -1, -1):
            uj = u0 * q_**j
            v = (-g_ * uj + (1 + rate * uj) * v) / (1 - rate * uj)
        return +v


def accel_position(x0: float, v0: float, a: float, t: float, q: float):
    """Constant-acceleration position x0 + v0 t + a t^2/(1+q)."""
    with _ctx():
        x0_, v0_, a_, t_, q_ = (mpmath.mpf(x) for x in (x0, v0, a, t, q))
        return +(x0_ + v0_ * t_ + a_ * t_ * t_ / (1 + q_))
