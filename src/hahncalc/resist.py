"""Vertical motion in a resisting medium on the (q,w) lattice.

The retarding force is proportional to the two-point average
(v(t) + v(qt+w))/(1+q), so the equation of motion

    m D_t v = m g - k (v(t) + v(qt+w))/(1+q)

links neighbouring lattice points and can be solved three independent ways,
each for every g (g = 0 is pure drag):

* closed form in terms of the deformed exponentials
  (gravity_drag_velocity),
* a power series with q^(n(2n+1)) weights for the gravity-driven part
  (gravity_drag_velocity_series): the closed form's body fed the other
  side of the odd-part identity of e_{1/q} (see qexp),
* backward recursion of the lattice equation of motion itself from the
  solution's local power series about w0, whose coefficients follow from
  the equation of motion alone (gravity_drag_velocity_iterative).  It
  assumes nothing beyond the equation of motion and therefore serves as
  the oracle for the other two.  It has one stopping rule, taken from
  error bounds, and counts its work against TruncationPolicy.max_terms.

All three are methods of one route object per (q, w), _DragRoutes, which
forms the lattice constants, the (a; q)_inf kernel of its q and a table of
q^j once, so a row costs one kernel call for the closed and series routes
and the iteration's own arithmetic; each public function builds a fresh
one, and the CLI builds one per (q, w) block of its table, whose classical
column is the object's classical route.

Poles: e_{q,w}(-kappa t) multiplies v, so a pole of it (a vanishing factor
of (kappa step; q)_inf, step = (q-1)t + w, which the kernel's pair reports)
is a pole of v and raises PoleEncounteredError in the closed and series
routes, and ZeroFactorError in the iteration, whose factor 1 - kappa u_0
vanishes there.  e_{q,w}(kappa t) enters v only through its reciprocal,
which is 0 at its poles, where v is finite and every route returns it.
Where e_{q,w}(kappa t) underflows to 0 the closed and series routes raise
OverflowError.

Conventions: downward is positive, so g > 0 accelerates the fall.  The
drag strength enters through kappa = k/(m(1+q)).  Velocities are anchored
at the lattice fixed point w0 = w/(1-q), where every route returns v0; the
gravity-driven bracket is likewise a function of t - w0, which is what
makes the fixed-point value exact.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from ._record import FrozenRecord
from .core import (
    DEFAULT_POLICY,
    ZERO_FACTOR_HEAD,
    ZERO_FACTOR_TOL,
    DeformationParams,
    TruncationPolicy,
    _check_count,
    _check_q,
    _nonvanishing_factors,
    _q_product_factors,
    _QPochKernel,
    _terms_until_small,
)
from .errors import PoleEncounteredError, ZeroFactorError
from .qexp import _exp_qinv_odd_part, _exp_qinv_odd_sum

__all__ = [
    "DragParams",
    "kappa",
    "gravity_drag_velocity",
    "gravity_drag_velocity_series",
    "gravity_drag_velocity_iterative",
    "classical_drag_velocity",
    "gravity_kernel_iteration_sum",
    "gravity_kernel_resummed",
]


# The gravity-driven iteration walks down the lattice to the first point t_N
# whose distance x = t_N - w0 to the fixed point has kappa |x| <=
# SERIES_START and |kappa u_N| = kappa (1 - q) |x| <= q^3/2, and starts there
# from the velocity's power series about w0, whose term ratio then tends to
# |kappa u_N|.  A larger SERIES_START takes fewer steps and more terms, and
# those cancel where x > 0: the largest exceeds their sum by a factor that
# grows like e^(4 SERIES_START), about 600 at 2.  The q^3/2 bound binds below
# q = 0.85, where a step shrinks x by much: on the drag-sweep grid at q = 0.3
# it trades 2.3 more steps for 11 terms in place of 25.
SERIES_START = 2.0


class DragParams(FrozenRecord):
    """Physical data of the resisted fall.

    m is the mass, k the drag coefficient (force per unit velocity), g the
    gravitational acceleration (downward positive), v0 the velocity at the
    lattice fixed point.
    """

    __slots__ = ("m", "k", "g", "v0")

    def __init__(self, m: float, k: float, g: float, v0: float) -> None:
        for name, value in (("m", m), ("k", k), ("g", g), ("v0", v0)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if m <= 0.0:
            raise ValueError(f"m must be positive, got {m!r}")
        if k <= 0.0:
            raise ValueError(f"k must be positive, got {k!r}")


def kappa(dp: DragParams, q: float) -> float:
    """Drag rate per unit lattice step: k/(m(1+q)).

    The 1+q in the denominator is the deformed 2 coming from averaging v
    over the two lattice points; as q -> 1 this becomes k/(2m).
    """
    _check_q(q)
    return dp.k / (dp.m * (1.0 + q))


class _DragRoutes:
    """The drag routes at one (q, w), for one DragParams and policy.

    kappa, the driven term's coefficient (1+q) m g/(2k), the iteration's
    series coefficient c_1 = g - 2 kappa v0, its start radius and log q are
    formed once here.  So are the (a; q)_inf kernel of the block's q
    (core._QPochKernel), the slope q - 1 of the lattice step (q - 1)t + w,
    and a table of q^j, j = 0, 1, ..., which the iteration extends as it
    reaches deeper.  The closed and series routes at one t share
    e_{q,w}(-kappa t) and e_{q,w}(kappa t), one pass of the kernel's pair
    product, through a memo of the last t, so a table row that asks for
    both evaluates the pair once.  classical is _classical_route(dp).

    closed and series sum the same odd terms of e_{1/q}(X), each by its own
    term recurrence, so their agreement checks only that recurrence; the
    iterative route is the independent one.
    """

    __slots__ = (
        "_policy", "_kernel", "_q", "_slope", "_w", "_w0", "_rate",
        "_v0", "_g", "_coeff", "_c1", "_start", "_log_start", "_log_q",
        "_powers", "_last", "classical",
    )

    def __init__(
        self, dp: DragParams, params: DeformationParams, policy: TruncationPolicy
    ) -> None:
        q = params.q
        rate = kappa(dp, q)
        self._policy = policy
        self._kernel = _QPochKernel(q, policy)
        self._q = q
        self._slope = q - 1.0
        self._w = params.w
        self._w0 = params.w0
        self._rate = rate
        self._v0 = dp.v0
        self._g = dp.g
        self._coeff = (1.0 + q) * dp.m * dp.g / (2.0 * dp.k)
        self._c1 = dp.g - 2.0 * rate * dp.v0
        # The largest |x| with kappa |x| <= SERIES_START and |kappa u_N| <= q^3/2;
        # unbounded where kappa underflowed to 0.
        start = min(SERIES_START, 0.5 * q**3 / (1.0 - q))
        start = start / rate if rate > 0.0 else math.inf
        self._start = start
        self._log_start = math.log(start) if start > 0.0 else -math.inf
        self._log_q = math.log(q)
        self._powers = [1.0]  # q**j for j < len(self._powers)
        self._last = (math.nan, 0.0, 0.0)  # (t, e_minus, e_plus); nan equals no t
        self.classical = _classical_route(dp)

    def _velocity(
        self, t: float, bracket: Callable[[float, float, TruncationPolicy], float]
    ) -> float:
        """v0 e_{q,w}(-kappa t)/e_{q,w}(kappa t) + ((1+q) m g/(2k)) e_{q,w}(-kappa t) B(X).

        B is one side of the odd-part identity of e_{1/q}, called as
        bracket(X, q, policy) at X = kappa (t - w0); with g = 0 (pure drag) the
        driven term is exactly zero and B is not evaluated.

        e_{q,w}(-+kappa t) are the reciprocals of (+-kappa step; q)_inf, step =
        (q - 1)t + w, bit for bit exp_qw's; a product that underflowed to 0
        gives inf.  A pole of e_{q,w}(-kappa t), which the pair reports, is one
        of v and raises PoleEncounteredError.  e_{q,w}(kappa t) enters v only
        through its reciprocal, which is 0 at its poles; where it is 0 itself,
        OverflowError is raised.
        """
        last = self._last
        if last[0] == t:
            _, e_minus, e_plus = last
        else:
            rate = self._rate
            low, high, pole = self._kernel.pair(rate * (self._slope * t + self._w))
            if pole:
                raise PoleEncounteredError(
                    f"e_(q,w) pole: product factor vanishes for a={-rate!r}, t={t!r}, "
                    f"q={self._q!r}, w={self._w!r}"
                )
            e_minus = 1.0 / low if low else math.copysign(math.inf, low)
            e_plus = 1.0 / high if high else math.copysign(math.inf, high)
            self._last = (t, e_minus, e_plus)
        if not e_plus:
            raise OverflowError(
                f"e_(q,w)(kappa t) underflows to 0 at t={t!r}, "
                f"q={self._q!r}, w={self._w!r}"
            )
        homogeneous = self._v0 * e_minus / e_plus
        if self._g == 0.0:
            return homogeneous
        x_arg = self._rate * (t - self._w0)
        return homogeneous + self._coeff * e_minus * bracket(x_arg, self._q, self._policy)

    def closed(self, t: float) -> float:
        """The closed form, bracket qexp._exp_qinv_odd_sum (gravity_drag_velocity)."""
        return self._velocity(t, _exp_qinv_odd_sum)

    def series(self, t: float) -> float:
        """The odd series form (gravity_drag_velocity_series)."""
        return self._velocity(t, _exp_qinv_odd_part)

    def iterative(self, t: float) -> float:
        """Backward recursion of the motion equation (gravity_drag_velocity_iterative)."""
        q = self._q
        rate = self._rate
        policy = self._policy
        start = self._start
        powers = self._powers
        s = t - self._w0
        depth = 0
        if not abs(s) <= start:
            # The first N with q^N |s| <= start; the whole budget, which makes
            # the series below raise, where s is not finite or start is 0.
            depth = policy.max_terms
            if start > 0.0 and math.isfinite(s):
                depth = min(depth, math.ceil((self._log_start - math.log(abs(s))) / self._log_q))
        x = s * (powers[depth] if depth < len(powers) else q**depth)
        v = math.fsum(
            _terms_until_small(
                _gravity_drag_series_terms(self._v0, self._c1, rate, q, x),
                policy,
                "gravity-drag iteration at t={!r}, q={!r}",
                t,
                q,
                spent=depth,
            )
        )
        if len(powers) < depth:
            # A longer table replaces the old one, which is never changed in place.
            self._powers = powers = powers + [q**j for j in range(len(powers), depth)]
        g = self._g
        u0 = self._slope * t + self._w  # lattice_step(t, params)
        head = 0
        while head < depth and abs(rate * (u0 * powers[head])) >= ZERO_FACTOR_HEAD:
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
                    f"q={q!r}, w={self._w!r}"
                )
            v = (-g * uj + (1.0 + drag) * v) / denom
        return v


def gravity_drag_velocity(
    dp: DragParams,
    t: float,
    params: DeformationParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Gravity-plus-drag velocity, closed form.

    v(t) = v0 e_{q,w}(-kappa t)/e_{q,w}(kappa t)
           + ((1+q) m g / (2k)) e_{q,w}(-kappa t)
             [e_{1/q}(X) - e_{1/q}(-X)],   X = kappa (t - w0).

    The odd bracket is a function of the distance to the lattice fixed
    point, which is what pins v(w0) = v0 exactly.  With g = 0 (pure drag)
    the driven term is exactly zero and is not evaluated, leaving
    v0 e_{q,w}(-kappa t)/e_{q,w}(kappa t).  Raises PoleEncounteredError at
    poles of e_{q,w}(-kappa t); at a pole of e_{q,w}(kappa t), which enters
    only through its reciprocal, that reciprocal is 0.  Raises
    OverflowError where e_{q,w}(kappa t) underflows to 0.  Propagates
    NonConvergentError.
    """
    return _DragRoutes(dp, params, policy).closed(t)


def gravity_drag_velocity_series(
    dp: DragParams,
    t: float,
    params: DeformationParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Gravity-plus-drag velocity with the driven part as an explicit odd series.

    The closed form with its bracket replaced by the other side of the
    odd-part identity, 2 sum_{n>=0} q^(n(2n+1)) X^(2n+1) / [2n+1]_q!,
    summed term by term (qexp._exp_qinv_odd_part); at g = 0 it is not
    summed.  Agreement with gravity_drag_velocity within combined truncation
    error is the resummation check between the two ways of writing the
    driven response.  Poles as in gravity_drag_velocity.
    """
    return _DragRoutes(dp, params, policy).series(t)


def gravity_drag_velocity_iterative(
    dp: DragParams,
    t: float,
    params: DeformationParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Gravity-plus-drag velocity by backward recursion of the motion equation.

    The equation of motion links neighbouring lattice points t_j, t_(j+1):

        (1 - kappa u_j) v(t_j) = -g u_j + (1 + kappa u_j) v(t_(j+1)),

    with u_j = q^j ((q-1)t + w).  It is unwound from a value at t_N back to
    t_0 = t.  Nothing but the motion equation is assumed, so this validates
    both the closed form and the series resummation, for every g: g = 0 is
    pure drag, where the recursion is the product of the drag ratios
    (1 + kappa u_j)/(1 - kappa u_j).

    The value at t_N comes from the solution's power series in x = t_N - w0
    about the fixed point, sum c_n x^n, whose coefficients the motion
    equation fixes: c_0 = v0, c_1 = g - 2 kappa v0 and
    c_(n+1) = -kappa (1 + q^n) c_n / [n+1]_q.  N is the first depth with
    kappa |x| <= SERIES_START and |kappa u_N| <= q^3/2, where the series is
    short and its term ratio tends to |kappa u_N|.  Steps and series
    terms together count against policy.max_terms, and NonConvergentError
    is raised when they run out.

    Raises ZeroFactorError when a factor 1 - kappa u_j vanishes within
    tolerance; only the head of near points with |kappa u_j| >=
    ZERO_FACTOR_HEAD is tested, because no farther factor can vanish.
    """
    return _DragRoutes(dp, params, policy).iterative(t)


def _gravity_drag_series_terms(
    v0: float, c1: float, rate: float, q: float, x: float
) -> Iterator[float]:
    """c_n x^n, n >= 0, of the velocity's power series about the fixed point.

    [n+1]_q is summed up as 1 + q + ... + q^n, which keeps its relative
    accuracy as q -> 1, where 1 - q^(n+1) would cancel.
    """
    yield v0
    term = c1 * x
    ratio = -rate * x
    qn = q  # q^n ahead of term n + 1
    q_int = 1.0  # [n]_q
    while True:
        yield term
        q_int += qn
        term *= ratio * (1.0 + qn) / q_int
        qn *= q


def classical_drag_velocity(dp: DragParams, t: float) -> float:
    """Undeformed resisted fall: v0 e^(-kt/m) + (mg/k)(1 - e^(-kt/m)).

    The q -> 1, w -> 0 limit of every deformed route; approaches the
    terminal velocity mg/k as t grows.  1 - e^(-kt/m) is formed as
    -expm1(-kt/m), which keeps its relative accuracy as kt/m -> 0.
    """
    return _classical_route(dp)(t)


def _classical_route(dp: DragParams) -> Callable[[float], float]:
    """t -> classical_drag_velocity(dp, t), with -k, m and m g/k formed once."""
    neg_k = -dp.k
    m = dp.m
    v0 = dp.v0
    terminal = dp.m * dp.g / dp.k

    def classical(t: float) -> float:
        x = neg_k * t / m
        return v0 * math.exp(x) - terminal * math.expm1(x)

    return classical


def gravity_kernel_iteration_sum(z: float, q: float, n_steps: int) -> float:
    """Driven-response kernel as the iteration writes it.

    S(z) = sum_{j=0}^{n_steps-1} q^j (-z; q)_j / (z; q)_{j+1}, the
    coefficient of -g ((q-1)t + w) accumulated by unwinding the motion
    equation n_steps times.  Raises ZeroFactorError on a vanishing
    denominator factor.
    """
    _check_q(q)
    _check_count(n_steps, "n_steps")
    total: list[float] = []
    qj = 1.0
    num = 1.0  # (-z; q)_j
    den = 1.0  # (z; q)_j
    for factor, num_factor in zip(
        _nonvanishing_factors(z, q, n_steps), _q_product_factors(-z, q, n_steps)
    ):
        den *= factor
        total.append(qj * num / den)
        num *= num_factor
        qj *= q
    return math.fsum(total)


def gravity_kernel_resummed(z: float, q: float, n_steps: int) -> float:
    """Driven-response kernel resummed over odd powers of z.

    The same S(z) as gravity_kernel_iteration_sum, written as

        S(z) = [ sum_n  C(n_steps, 2n+1)_q  q^(n(2n+1))  z^(2n) ] / (z; q)_{n_steps}

    with C(.,.)_q the Gaussian binomial.  The two routes share no
    intermediate state; their agreement for finite n_steps is the
    combinatorial identity behind the odd-series form of the driven
    response.
    """
    _check_q(q)
    _check_count(n_steps, "n_steps")
    den = math.prod(_nonvanishing_factors(z, q, n_steps), start=1.0)
    # Gaussian binomials as products of the ratios (1 - q^(N-k+j))/(1 - q^j),
    # with 1 - q^m = -expm1(m log q).  Quotients of (q; q)_j prefixes would
    # underflow to 0 as q -> 1 and lose relative accuracy well before.
    log_q = math.log(q)
    one_minus = [-math.expm1(m * log_q) for m in range(n_steps + 1)]
    terms: list[float] = []
    z_even = 1.0
    for n in range((n_steps + 1) // 2):
        odd = 2 * n + 1
        binom = math.prod(
            one_minus[n_steps - odd + j] / one_minus[j] for j in range(1, odd + 1)
        )
        terms.append(binom * q ** (n * odd) * z_even)
        z_even *= z * z
    return math.fsum(terms) / den
