"""Deformed exponential functions.

Three related objects, each truncated under a TruncationPolicy:

* exp_qw: the (q,w)-exponential e_{q,w}(at) = 1/(-a((q-1)t + w); q)_inf,
  the eigenfunction of the Hahn derivative, D_t e_{q,w}(at) = a e_{q,w}(at).
  Its poles in t are genuine features of the deformed dynamics and raise
  PoleEncounteredError rather than returning infinities.
* exp_q_series: the q-exponential e_q(x) = sum_n x^n/[n]_q!, convergent for
  |x| < 1/(1-q) because the term ratio tends to x(1-q).
* exp_qinv_series: its q -> 1/q counterpart written with bounded factors,
  e_{1/q}(x) = sum_n q^(n(n-1)/2) x^n/[n]_q!, entire in x thanks to the
  superexponential q-power damping.

All three reduce to exp as (q, w) -> (1, 0).

The drag routes need e_{q,w} and e_{1/q} at a and at -a together, each
pair in one pass, bit for bit what the two separate calls give: the e_{q,w}
pair from the pair product of their (q, w) block's (a; q)_inf kernel
(core._QPochKernel.pair, see resist._DragRoutes), the e_{1/q} pair from
_exp_qinv_difference.

Each side of the odd-part identity e_{1/q}(x) - e_{1/q}(-x) =
2 sum_n q^(n(2n+1)) x^(2n+1)/[2n+1]_q! is written once: the left is
_exp_qinv_difference, the right _exp_qinv_odd_part.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Iterator

from .core import (
    DEFAULT_POLICY,
    DeformationParams,
    TruncationPolicy,
    _alternating_fsum,
    _check_q,
    _qpochhammer_inf,
    _sum_until_small,
    _terms_until_small,
    lattice_step,
)
from .errors import OutOfRadiusError, PoleEncounteredError

__all__ = ["exp_qw", "exp_q_series", "exp_qinv_series", "odd_part_qinv"]

# Margin for the convergence-radius guard of exp_q_series: arguments with
# |x|(1-q) >= 1 - OUT_OF_RADIUS_MARGIN are rejected as divergent.
OUT_OF_RADIUS_MARGIN = 1e-12


def exp_qw(
    a: float,
    t: float,
    params: DeformationParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """The (q,w)-exponential e_{q,w}(at) evaluated at time t.

    Computed as the reciprocal of the infinite q-shifted factorial at
    argument -a((q-1)t + w).  The argument vanishes at t = w0, so
    exp_qw(a, w0) = 1 exactly for every a: the fixed point is where the
    deformed exponential takes its boundary value.

    Raises PoleEncounteredError when a factor of the underlying product
    vanishes within tolerance (a genuine pole of e_{q,w} in t), and
    propagates NonConvergentError from the product evaluation.  A product
    that underflowed to 0 with no vanishing factor gives inf: the
    reciprocal lies past the double range.
    """
    argument = -a * lattice_step(t, params)
    value, hit_zero = _qpochhammer_inf(argument, params.q, policy)
    if hit_zero:
        raise PoleEncounteredError(
            f"e_(q,w) pole: product factor vanishes for a={a!r}, t={t!r}, "
            f"q={params.q!r}, w={params.w!r}"
        )
    return _reciprocal(value)


def _reciprocal(value: float) -> float:
    """1/value of a product with no vanishing factor; one that underflowed gives inf."""
    if value == 0.0:
        return math.copysign(math.inf, value)
    return 1.0 / value


def exp_q_series(x: float, q: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """The q-exponential series e_q(x) = sum_n x^n / [n]_q!.

    The series converges only for |x| < 1/(1-q); arguments at or beyond the
    radius raise OutOfRadiusError instead of returning a divergent partial
    sum.  Terms are generated by the ratio recurrence t_n = t_{n-1} x/[n]_q
    and summed under policy by the package's one stopping rule
    (core._sum_until_small).
    """
    _check_q(q)
    if abs(x) * (1.0 - q) >= 1.0 - OUT_OF_RADIUS_MARGIN:
        raise OutOfRadiusError(
            f"|x|(1-q) = {abs(x) * (1.0 - q)!r} >= 1: x={x!r} lies outside "
            f"the convergence radius 1/(1-q) for q={q!r}"
        )

    def terms() -> Iterator[float]:
        term = 1.0
        qn = 1.0
        while True:
            yield term
            qn *= q
            term *= x * (1.0 - q) / (1.0 - qn)

    return _sum_until_small(terms(), policy, "e_q series at x={!r}, q={!r}", x, q)[0]


def exp_qinv_series(x: float, q: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """The q^(-1)-exponential series e_{1/q}(x) = sum_n q^(n(n-1)/2) x^n / [n]_q!.

    Written entirely with bounded factors of the base-q factorial; the
    q^(n(n-1)/2) damping enters through the term recurrence
    t_n = t_{n-1} q^(n-1) x/[n]_q, so the series is entire in x and no
    q^(-j)-sized quantity is ever formed.
    """
    _check_q(q)
    return _sum_until_small(_qinv_terms(x, q), policy, _QINV_WHAT, x, q)[0]


_QINV_WHAT = "e_(1/q) series at x={!r}, q={!r}"


def _qinv_terms(x: float, q: float) -> Iterator[float]:
    """The terms q^(n(n-1)/2) x^n / [n]_q! of e_{1/q}(x), n >= 0."""
    term = 1.0
    qn = 1.0
    qpow = 1.0  # q^(n-1) ahead of term n
    while True:
        yield term
        qn *= q
        term *= qpow * x * (1.0 - q) / (1.0 - qn)
        qpow *= q


def _exp_qinv_difference(x: float, q: float, policy: TruncationPolicy) -> float:
    """e_{1/q}(x) - e_{1/q}(-x) from one term list.

    The terms at -x are those at x with the odd ones negated, bit for bit,
    and both series stop at the same index, so this is bit for bit the
    difference of the two exp_qinv_series calls, and raises what the first
    of them raises.
    """
    terms = _terms_until_small(_qinv_terms(x, q), policy, _QINV_WHAT, x, q)
    return math.fsum(terms) - _alternating_fsum(terms)


def _exp_qinv_odd_part(x: float, q: float, policy: TruncationPolicy) -> float:
    """2 sum_{n>=0} q^(n(2n+1)) x^(2n+1) / [2n+1]_q!, the odd part of e_{1/q}.

    The terms come from the ratio q^(4n+3) x^2 / ([2n+2]_q [2n+3]_q), so no
    factorial or power of x is ever formed whole; the stopping rule sees the
    undoubled terms, and the exact doubling comes last.
    """
    x_sq = x * x

    def terms() -> Iterator[float]:
        term = x  # n = 0 term: q^0 x / [1]_q!
        for n in count():
            yield term
            term *= q ** (4 * n + 3) * x_sq / (
                (1.0 - q ** (2 * n + 2)) / (1.0 - q)
                * ((1.0 - q ** (2 * n + 3)) / (1.0 - q))
            )

    return 2.0 * _sum_until_small(terms(), policy, "odd e_(1/q) series at x={!r}", x)[0]


def odd_part_qinv(
    a: float, q: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> tuple[float, float]:
    """Both sides of the odd-part identity of e_{1/q}, evaluated independently.

    Returns (lhs, rhs) with

        lhs = e_{1/q}(a) - e_{1/q}(-a)
        rhs = 2 sum_{n>=0} a^(2n+1) / [2n+1]_{1/q}!

    The left side sums the full series at a and at -a (one term list, see
    _exp_qinv_difference) and lets the even terms cancel; the right side
    sums only the odd terms directly, in the bounded rewrite
    q^(n(2n+1)) a^(2n+1)/[2n+1]_q! (_exp_qinv_odd_part).  The two summation
    paths share no intermediate state, so their agreement is a genuine check.
    """
    _check_q(q)
    return _exp_qinv_difference(a, q, policy), _exp_qinv_odd_part(a, q, policy)
