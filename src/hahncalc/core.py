"""Core primitives of Hahn (q,w)-difference calculus.

Everything here is built around the lattice map t -> qt + w with 0 < q < 1 and
w >= 0.  Iterating the map from any starting point walks the orbit

    t,  qt + w,  q^2 t + [2]_{q,w},  ...  ->  w0 = w / (1 - q),

which converges geometrically to the unique fixed point w0.  The Hahn
derivative is the difference quotient across one lattice hop, the Hahn
integral sums the orbit back from w0, and the (q,w)-numbers measure the
accumulated offsets.  At w = 0 the whole structure reduces to Jackson
q-calculus; as (q, w) -> (1, 0) it reduces to ordinary calculus.

All functions are pure and safe for concurrent use.  Infinite sums and
products are truncated under an explicit TruncationPolicy and raise
NonConvergentError instead of returning partial answers when the stopping
rule cannot be met.  Every infinite sum in the package stops by one rule,
written once in _terms_until_small: CONSECUTIVE_SMALL successive terms below
tol, with every summed term counted against max_terms.  The infinite
product (a; q)_inf is evaluated by one kernel per q and policy,
_QPochKernel, which forms log q, log tol and the series' cap once and picks
one of two routes per argument: factors 1 - q^k a multiplied up to the
first one with |q^k a| < tol, whose length grows like 1/(1 - q), or, for
tol <= |a| < 1 where it is cheaper, exp of the log series
log (a; q)_inf = -sum_n a^n/(n(1 - q^n)), summed by that one rule, whose
length does not depend on q.  Its one method, pair, gives (a; q)_inf,
(-a; q)_inf and whether a factor of (a; q)_inf vanished in one pass: the
drag routes build one kernel per (q, w) block, and exp_qw and
q_shifted_factorial_inf one per call, through _qpochhammer_inf.

The lattice sums weight * sum_k q^k f(q^k t + [k]_{q,w}) behind the Hahn
integral and the kinematic fixed-point iteration are written once, in
_lattice_sum, which also picks one of three routes per call.  The plain route
sums term by term under the one rule, about log(tol/|weight f(t)|)/log q
terms, and probes deeper lattice points before it stops.  With d = t - w0
the sum is weight times the integral of r -> f(w0 + r d) against the measure
sum_k q^k delta(r - q^k) on [0, 1], so the Gauss route evaluates f at the
nodes of that measure's Gauss rule (the little q-Jacobi rule), 4 to 32 of
them whatever q is.  A few nodes do not average rounding the way many terms
do, so a sum that cancels against its anchor sums its first 3/(1 - q) terms
one by one and leaves the Gauss rule only the rest, a twentieth of the
lattice measure.  A probe guard checks f at lattice points against the
polynomial through the rule's nodes; a kink or other non-analytic point
sends the call to the plain route.  max_terms counts every evaluation of f.
_lattice_sum makes every choice between the routes; the Gauss rule itself
lives in the private module _gauss, which _lattice_sum imports the first
time it tries the rule.
"""

from __future__ import annotations

import math
import operator
import warnings
from itertools import chain, count, islice
from typing import Callable, Iterator

from ._record import FrozenRecord
from .errors import NonConvergentError, ZeroFactorError, ZeroFactorWarning

__all__ = [
    "DeformationParams",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "ScalarFunction",
    "q_number",
    "qw_number",
    "q_factorial",
    "q_inv_factorial",
    "q_shifted_factorial",
    "q_shifted_factorial_inf",
    "hahn_derivative",
    "hahn_integral",
    "qw_polynomial",
    "advance",
    "advance_n",
    "lattice_step",
    "CENTRAL_DIFF_STEP",
    "CONSECUTIVE_SMALL",
    "ZERO_FACTOR_TOL",
]

# A scalar map t -> f(t); must be deterministic and total on the caller's domain.
ScalarFunction = Callable[[float], float]

# Step scale for the O(h^2) central difference hahn_derivative takes at t
# where the lattice step is at most CENTRAL_DIFF_STEP (1 + |t|).
CENTRAL_DIFF_STEP = 1e-6

# A product factor at least this close to 0 counts as an exact zero.
ZERO_FACTOR_TOL = 1e-13

# A factor 1 - x can come within ZERO_FACTOR_TOL of 0 only while |x| is at
# least this.  The |q^j a| of a q-product never grow with j, so the product
# loops test for vanishing factors only in the head of indices where it holds.
ZERO_FACTOR_HEAD = 0.5

# Stopping rules demand this many consecutive sub-tolerance terms, which
# guards series whose terms vanish on a parity pattern.
CONSECUTIVE_SMALL = 3

# Cost of one log-series term of (a; q)_inf in units of one product factor.
# Timed with timeit (best of 7) on CPython 3.11, 2 vCPUs, over |a| in
# [1e-6, 0.9] and q in [0.3, 0.97], with a least-squares line per route:
# 100-150 ns per factor against 190-290 ns per term (a ratio of 1.9-2.9),
# plus a fixed 1.5-5 us per series call.  The route choice charges this
# ratio on K_log + CONSECUTIVE_SMALL terms, which also covers part of the
# fixed cost; near a tie either route is about as fast.
LOG_SERIES_TERM_COST = 3.0

# A block of the lattice holds L = ceil(log(LATTICE_NODE_RATIO)/log q) terms,
# so r = q^k falls by rho = q^L <= 1/2 across it.  The Gauss route's probes
# lie every two blocks, and a sum is long where it spans many blocks.
LATTICE_NODE_RATIO = 0.5

# A lattice sum is long, and the Gauss route is tried, where the plain route
# would take more than six blocks (r down to 1/64) plus this many terms; a
# shorter sum stays on the plain route, whose rule sees every term.
LATTICE_LONG_SUM = 90.0

# The head-and-tail route sums the first M = ceil(LATTICE_HEAD_SPAN/(1 - q))
# terms one by one, so that q^M <= e^-3 and the tail's Gauss rule carries at
# most that share of the lattice measure: its rounding falls below the
# half-ulp of the anchor.  On the kinematics benchmark panel (seed 0), heads
# of 1/(1 - q) and 2/(1 - q) terms leave the iterative route 6.58e-13 and
# 6.15e-13 off where this one leaves 3.47e-13.
LATTICE_HEAD_SPAN = 3.0

# _two_product splits its factors exactly only below this magnitude.
_SPLIT_LIMIT = 2.0**996

# The module of the Gauss rule, imported by _lattice_sum on the first sum
# that tries it.
_gauss = None


def _check_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly inside (0, 1), got {q!r}")


def _check_count(k: int, name: str = "k") -> None:
    if k < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {k!r}")


class DeformationParams(FrozenRecord):
    """Deformation parameters (q, w) and the derived fixed point w0.

    Constraints: 0 < q < 1 strictly and w >= 0, both finite, and w0 finite.
    w = 0 is the pure Jackson q-calculus case (then w0 = 0).  q = 1 and
    negative w are rejected: the former degenerates the lattice map, the
    latter breaks its convergence toward w0 from positive start points.  A
    w0 past the double range would empty every route anchored there.
    """

    __slots__ = ("q", "w", "w0")

    def __init__(self, q: float, w: float = 0.0) -> None:
        if not math.isfinite(q) or not 0.0 < q < 1.0:
            raise ValueError(f"q must be finite and strictly inside (0, 1), got {q!r}")
        if not math.isfinite(w) or w < 0.0:
            raise ValueError(f"w must be finite and nonnegative, got {w!r}")
        w0 = w / (1.0 - q)
        if not math.isfinite(w0):
            raise ValueError(f"w0 = w/(1-q) must be finite, got w={w!r}, q={q!r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w0", w0)


class TruncationPolicy(FrozenRecord):
    """Stopping contract for infinite sums and products.

    tol is an absolute term/factor threshold, finite and positive; max_terms
    bounds the terms summed or factors multiplied, counting every one.
    Every evaluation either meets its stopping rule or raises
    NonConvergentError; there is no silent partial result.
    """

    __slots__ = ("tol", "max_terms")

    def __init__(self, tol: float = 1e-14, max_terms: int = 100_000) -> None:
        if not tol > 0.0:
            raise ValueError(f"tol must be positive, got {tol!r}")
        if tol == math.inf:
            raise ValueError(f"tol must be finite, got {tol!r}")
        try:
            terms = operator.index(max_terms)
        except TypeError:
            terms = 0
        if terms < 1:
            raise ValueError(f"max_terms must be a positive integer, got {max_terms!r}")
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_terms", terms)


DEFAULT_POLICY = TruncationPolicy()


def _terms_until_small(
    terms: Iterator[float],
    policy: TruncationPolicy,
    what: str,
    *args: object,
    spent: int = 0,
) -> list[float]:
    """The terms of an infinite series under policy, as a list to fsum.

    The one stopping rule for every series in the package: the sum stops
    after CONSECUTIVE_SMALL successive terms with |term| < policy.tol, and
    every term counts against policy.max_terms, as do the spent evaluations
    a caller made outside the series.  Callers accumulate terms with exactly
    rounded summation.  Raises NonConvergentError, naming the series as
    what.format(*args), when the budget runs out first.

    -tol < term < tol is abs(term) < tol without the call, NaN included.
    """
    tol = policy.tol
    below = -tol
    summed: list[float] = []
    append = summed.append
    small = 0
    for term in islice(terms, policy.max_terms - spent):
        append(term)
        if below < term < tol:
            small += 1
            if small == CONSECUTIVE_SMALL:
                return summed
        else:
            small = 0
    raise _out_of_terms(policy, what, args)


def _out_of_terms(
    policy: TruncationPolicy, what: str, args: tuple[object, ...]
) -> NonConvergentError:
    return NonConvergentError(
        f"{what.format(*args)} did not meet its stopping rule within "
        f"{policy.max_terms} terms"
    )


def _alternating_fsum(terms: list[float]) -> float:
    """Exactly rounded t_0 - t_1 + t_2 - ..., the sum of the terms at -x.

    A series in powers of x whose terms were summed at x has, at -x, the
    same terms with the odd-indexed ones negated, bit for bit; fsum is
    exactly rounded in any order, so this equals summing those terms.
    """
    return math.fsum(chain(terms[::2], map(operator.neg, terms[1::2])))


def _lattice_terms(
    f: ScalarFunction, k: int, t: float, w0: float, q: float, weight: float
) -> Iterator[float]:
    """weight q^j f(t_j) for j = k, k+1, ..., with t_j = q^j t + w0 (1 - q^j)."""
    qj = q**k
    while True:
        yield weight * qj * f(qj * t + w0 * (1.0 - qj))
        qj *= q


def _lattice_sum(
    f: ScalarFunction,
    t: float,
    params: DeformationParams,
    policy: TruncationPolicy,
    weight: float,
    anchor: float,
    what: str,
    *args: object,
) -> tuple[float, int, int]:
    """Sum weight * q^k f(t_k) over the lattice t_k = q^k t + [k]_{q,w}, k >= 0.

    Returns (sum, evaluations of f, terms summed).  anchor is what the
    caller adds to the sum before returning it; it sets the scale of the
    value returned for the Gauss route's tests.  Three routes, chosen after
    the first term weight * f(t):

    * plain (_lattice_plain): the terms in ascending k, about
      K_plain = log(tol/|weight f(t)|)/log q of them, a count that grows
      like 1/(1 - q).
    * Gauss (_gauss._lattice_gauss): a Gauss rule of the lattice measure,
      at a number of nodes that does not depend on q.  Tried when
      q > LATTICE_NODE_RATIO and either K_plain exceeds six blocks plus
      LATTICE_LONG_SUM or the first term is already below tol, where the
      plain rule would stop whatever the rest of the sum holds.  A declined
      short sum goes to the plain route.
    * head and tail: where the rule declines a long sum (mostly for its
      rounding, on a sum that cancels against its anchor), the first
      M = ceil(LATTICE_HEAD_SPAN/(1 - q)) terms are summed one by one, each
      from q^k by pow: a running product drifts by a rounding bias of its
      own, about 1e-15 relative after a few hundred steps.  The tail, the
      same sum from t_M = q^M t + w0 (1 - q^M) at weight weight q^M, goes to
      the rule anchored at anchor plus the head, with
      GAUSS_ROUNDING eps |anchor| of slack: the rounding the anchor already
      carries.  A budget too small for the head, or a declined tail, resumes
      the plain route from the terms summed so far.

    An f that vanishes at t, or a weight of 0, stays plain.  Every
    evaluation of f, summed, probed or taken at a Gauss node, counts against
    policy.max_terms; NonConvergentError is raised, naming the sum as
    what.format(*args), when it runs out before the plain stopping rule is
    met.
    """
    global _gauss
    q = params.q
    w0 = params.w0
    value = f(t)
    summed = [weight * value]
    spent = 0
    size = abs(summed[0])
    if q > LATTICE_NODE_RATIO and 0.0 < size < math.inf:
        log_q = math.log(q)
        k_plain = math.log(policy.tol / size) / log_q
        block = math.ceil(math.log(LATTICE_NODE_RATIO) / log_q)
        long = k_plain > 6 * block + LATTICE_LONG_SUM
        if long or k_plain < 0.0:  # k_plain < 0: the first term is below tol
            if _gauss is None:
                from . import _gauss
            total, spent = _gauss._lattice_gauss(
                f, t, w0, q, weight, anchor, 0.0, value, block, policy.tol, policy.max_terms - 1
            )
            if total is not None:
                return total, spent + 1, 0
            m = math.ceil(LATTICE_HEAD_SPAN / (1.0 - q))
            if long and spent + m + 1 <= policy.max_terms:
                for k in range(1, m):
                    qk = q**k
                    summed.append(weight * qk * f(qk * t + w0 * (1.0 - qk)))
                q_m = q**m
                t_m = q_m * t + w0 * (1.0 - q_m)
                value_m = f(t_m)
                budget = policy.max_terms - spent - m - 1
                slack = _gauss.GAUSS_ROUNDING * _gauss._EPSILON * abs(anchor)
                tail, more = _gauss._lattice_gauss(
                    f, t_m, w0, q, weight * q_m, anchor + math.fsum(summed), slack, value_m,
                    block, policy.tol, budget,
                )
                if tail is not None:
                    return math.fsum(summed + [tail]), spent + m + 1 + more, m
                summed.append(weight * q_m * value_m)
                spent += more
    return _lattice_plain(summed, spent, f, t, w0, q, weight, policy, what, args)


def _lattice_plain(
    summed: list[float],
    spent: int,
    f: ScalarFunction,
    t: float,
    w0: float,
    q: float,
    weight: float,
    policy: TruncationPolicy,
    what: str,
    args: tuple[object, ...],
) -> tuple[float, int, int]:
    """The plain route of _lattice_sum, resumed after the terms already summed.

    The terms go through _terms_until_small, the summed ones again, so the
    result is the one the plain route gives from k = 0; the spent
    evaluations outside them (probes, Gauss nodes) count against max_terms.
    Small terms do not show that the rest is small: an f that vanishes on
    the first lattice points but not near w0 would stop the sum at 0.  So
    where the rule stops after K terms, the terms at depths 2K, 4K, ... are
    probed down to where q^k |t - w0| < tol, O(log K) of them.  A probe of
    at least tol makes the route sum every term down to it and apply the
    rule again from there.
    """
    tol = policy.tol
    gap = abs(t - w0)
    depth = math.log(tol / gap) / math.log(q) if tol < gap < math.inf else 0.0
    terms = chain(summed, _lattice_terms(f, len(summed), t, w0, q, weight))
    taken: list[float] = []
    while True:
        taken += _terms_until_small(terms, policy, what, *args, spent=spent + len(taken))
        used = len(taken)
        probe = 2 * used
        while probe <= depth:
            if spent + max(used, len(summed)) >= policy.max_terms:
                raise _out_of_terms(policy, what, args)
            spent += 1
            qk = q**probe
            if not abs(weight * qk * f(qk * t + w0 * (1.0 - qk))) < tol:
                break
            probe *= 2
        else:
            return math.fsum(taken), max(used, len(summed)) + spent, used
        if spent + max(probe + 1, len(summed)) > policy.max_terms:
            raise _out_of_terms(policy, what, args)
        taken += islice(terms, probe + 1 - used)


def q_number(k: int, q: float) -> float:
    """The q-integer [k]_q = (1 - q^k)/(1 - q) = 1 + q + ... + q^(k-1)."""
    _check_q(q)
    _check_count(k)
    return (1.0 - q**k) / (1.0 - q)


def qw_number(k: int, params: DeformationParams) -> float:
    """The (q,w)-number [k]_{q,w} = w (1 - q^k)/(1 - q) = w [k]_q.

    Nondecreasing in k with limit w0; it is the offset accumulated by k
    applications of the lattice map to t = 0.
    """
    _check_count(k)
    return params.w * q_number(k, params.q)


def _q_product_factors(a: float, q: float, n: int) -> Iterator[float]:
    """The factors 1 - a q^j, j < n, of (a; q)_n, from a running power a q^j."""
    scaled = a
    for _ in range(n):
        yield 1.0 - scaled
        scaled *= q


def _nonvanishing_factors(a: float, q: float, n: int) -> Iterator[float]:
    """The factors of _q_product_factors(a, q, n); ZeroFactorError at a vanishing one."""
    for j, factor in enumerate(_q_product_factors(a, q, n)):
        if -ZERO_FACTOR_TOL < factor < ZERO_FACTOR_TOL:
            raise ZeroFactorError(f"factor 1 - q^{j} a vanishes for a={a!r}, q={q!r}")
        yield factor


def q_factorial(n: int, q: float) -> float:
    """The q-factorial [n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    _check_q(q)
    _check_count(n, "n")
    product = 1.0
    for factor in _q_product_factors(q, q, n):
        product *= factor / (1.0 - q)
    return product


def q_inv_factorial(n: int, q: float) -> float:
    """The q^(-1)-factorial [n]_{1/q}! = q^(-n(n-1)/2) [n]_q!.

    Evaluated through [n]_q! so every multiplicative factor stays bounded;
    the only overflow channel is the explicit q^(-n(n-1)/2) prefactor, and
    overflow there raises OverflowError rather than returning inf.
    """
    _check_q(q)
    _check_count(n, "n")
    exponent = n * (n - 1) // 2
    try:
        prefactor = q ** float(-exponent)
    except OverflowError:
        raise OverflowError(f"q^(-{exponent}) exceeds double range for q={q!r}") from None
    return prefactor * q_factorial(n, q)


def q_shifted_factorial(a: float, q: float, N: int) -> float:
    """The finite q-shifted factorial (a; q)_N = (1-a)(1-qa)...(1-q^(N-1)a)."""
    _check_q(q)
    _check_count(N, "N")
    return math.prod(_q_product_factors(a, q, N), start=1.0)


class _QPochKernel:
    """(a; q)_infinity at one q under one policy, for any a.

    The route decision's constants -- log q, log tol and the log series' cap
    min(q, 1 - ZERO_FACTOR_TOL) -- are formed once here, so a caller that
    evaluates many products at one q (a drag route object, one per (q, w)
    block) builds one kernel and makes one method call per product.  Two
    routes, chosen per argument before anything is summed (_series_route):

    * product: factors 1 - q^k a are multiplied while |q^k a| >= policy.tol,
      about K_prod = log(tol/|a|)/log q of them; the neglected tail perturbs
      the product by a relative amount of roughly |q^k a|/(1 - q) at the
      stopping index.  A factor within ZERO_FACTOR_TOL of 0 makes the product
      exactly 0; only the head of factors with |q^k a| >= ZERO_FACTOR_HEAD is
      tested, because no later one can vanish.
    * log series: exp(-sum_{n>=1} a^n/(n(1 - q^n))), summed under the one
      stopping rule in about K_log = log(tol (1 - |a|))/log|a| terms
      whatever q is.

    The loops run on |q^k a|: rounding is symmetric in sign, so q^k a is
    -q^k |a| bit for bit for a < 0, and 1 - q^k a is 1 + q^k |a|.  Both
    routes raise NonConvergentError when max_terms runs out first.
    """

    __slots__ = ("_q", "_policy", "_tol", "_max_terms", "_log_q", "_log_tol", "_cap")

    def __init__(self, q: float, policy: TruncationPolicy) -> None:
        self._q = q
        self._policy = policy
        self._tol = policy.tol
        self._max_terms = policy.max_terms
        self._log_q = math.log(q)
        self._log_tol = math.log(policy.tol)
        self._cap = min(q, 1.0 - ZERO_FACTOR_TOL)

    def _series_route(self, size: float) -> bool:
        """Whether the log series is the route for (a; q)_inf at |a| = size.

        The series is taken only for tol <= |a| < min(q, 1 - ZERO_FACTOR_TOL),
        where no factor can vanish (for |a| >= q it is never shorter), and
        only when LOG_SERIES_TERM_COST times its term count (K_log plus the
        CONSECUTIVE_SMALL terms that confirm the stop) is below K_prod.
        """
        if self._tol <= size < self._cap:
            log_size = math.log(size)
            k_prod = (self._log_tol - log_size) / self._log_q
            k_log = math.log(self._tol * (1.0 - size)) / log_size + CONSECUTIVE_SMALL
            return LOG_SERIES_TERM_COST * k_log < k_prod
        return False

    def _log_terms(self, a: float) -> list[float]:
        """The log series' terms a^n/(n(1 - q^n)), n >= 1, under the stopping rule."""
        return _terms_until_small(
            _log_series_terms(a, self._log_q), self._policy, _LOG_SERIES_WHAT, a, self._q
        )

    def pair(self, a: float) -> tuple[float, float, bool]:
        """((a; q)_infinity, (-a; q)_infinity, zero_factor_hit) in one pass.

        The two share |q^k a|, so they share the route and the stopping
        index: the product route multiplies 1 - q^k a and 1 + q^k a in one
        loop, and on the log series route the terms at -a are those at a with
        alternating sign.  A vanishing factor of (a; q)_inf stops the pass
        with both values 0.0 and zero_factor_hit True.  One of (-a; q)_inf,
        possible only for a < 0, sets that value to 0.0 while (a; q)_inf runs
        on.  A log series past the double range gives inf, as the product
        would.
        """
        size = abs(a)
        if self._series_route(size):
            terms = self._log_terms(a)
            # log (-a; q)_inf = -sum (-a)^n/(n(1 - q^n)), with n from 1.
            return _exp_or_inf(-math.fsum(terms)), _exp_or_inf(_alternating_fsum(terms)), False
        tol = self._tol
        q = self._q
        budget = self._max_terms
        low = high = 1.0  # (|a|; q)_k and (-|a|; q)_k
        head = 0
        while head < budget and size >= ZERO_FACTOR_HEAD:
            if size < tol:
                return (high, low, False) if a < 0.0 else (low, high, False)
            factor = 1.0 - size
            if -ZERO_FACTOR_TOL < factor < ZERO_FACTOR_TOL:
                if a > 0.0:
                    return 0.0, 0.0, True
                low = 0.0  # assigned: a negative low times the factor is -0.0
            else:
                low *= factor
            high *= 1.0 + size
            size *= q
            head += 1
        for _ in range(budget - head):
            if size < tol:
                return (high, low, False) if a < 0.0 else (low, high, False)
            low *= 1.0 - size
            high *= 1.0 + size
            size *= q
        raise NonConvergentError(self._product_failure(a))

    def _product_failure(self, a: float) -> str:
        return (
            f"(a;q)_inf with a={a!r}, q={self._q!r} did not reach tol={self._tol!r} "
            f"within {self._max_terms} factors"
        )


def _qpochhammer_inf(a: float, q: float, policy: TruncationPolicy) -> tuple[float, bool]:
    """(a; q)_infinity at one point: (value, zero_factor_hit), from a fresh kernel.

    The first value of the kernel's pair, which also forms (-a; q)_inf.
    exp_qw and q_shifted_factorial_inf evaluate their one product through
    this name, which the benchmark's trace spans wrap.
    """
    value, _, hit = _QPochKernel(q, policy).pair(a)
    return value, hit


_LOG_SERIES_WHAT = "(a;q)_inf log series with a={!r}, q={!r}"


def _log_series_terms(a: float, log_q: float) -> Iterator[float]:
    """a^n/(n(1 - q^n)) for n >= 1, with 1 - q^n = -expm1(n log q).

    -expm1 keeps the relative accuracy of 1 - q^n as q -> 1.
    """
    power = a
    for n in count(1):
        yield power / (n * -math.expm1(n * log_q))
        power *= a


def _exp_or_inf(x: float) -> float:
    """exp(x), or inf past the double range, as the product would give."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def q_shifted_factorial_inf(a: float, q: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """The infinite q-shifted factorial (a; q)_infinity, truncated per policy.

    If some factor vanishes within tolerance the exact value is 0: the
    function returns 0.0 and issues a ZeroFactorWarning so callers sitting
    behind a reciprocal can detect the pole.

    Raises NonConvergentError if max_terms factors do not reach tol.
    """
    _check_q(q)
    value, hit_zero = _qpochhammer_inf(a, q, policy)
    if hit_zero:
        warnings.warn(
            f"(a;q)_inf with a={a!r}, q={q!r} has a vanishing factor; value is exactly 0",
            ZeroFactorWarning,
            stacklevel=2,
        )
        return 0.0
    return value


def advance(t: float, params: DeformationParams) -> float:
    """One lattice hop: t -> qt + w."""
    return params.q * t + params.w


def advance_n(t: float, N: int, params: DeformationParams) -> float:
    """N lattice hops at once: q^N t + [N]_{q,w}.

    Equals advance applied N times; contracts toward w0 with
    |advance_n(t, N) - w0| = q^N |t - w0| exactly.
    """
    _check_count(N, "N")
    qn = params.q**N
    return qn * t + params.w * (1.0 - qn) / (1.0 - params.q)


def lattice_step(t: float, params: DeformationParams) -> float:
    """Signed size of one lattice hop: advance(t) - t = (q - 1)t + w.

    This is the denominator of the Hahn difference quotient; it vanishes
    exactly at t = w0 and equals (1 - q)(w0 - t) everywhere.
    """
    return (params.q - 1.0) * t + params.w


def hahn_derivative(f: ScalarFunction, t: float, params: DeformationParams) -> float:
    """Hahn derivative (f(qt + w) - f(t)) / ((q - 1)t + w).

    Near the fixed point the quotient tends to 0/0 (its value at w0 is the
    ordinary derivative f'(w0)), and the rounding of f(qt + w) - f(t) grows
    like eps |f| / |step|.  So whenever the lattice step is at most
    h = CENTRAL_DIFF_STEP (1 + |t|), the O(h^2) central difference with
    half-width h about the secant midpoint (t + qt + w)/2 is returned
    instead of the quotient.  For smooth f it differs from the secant slope
    by f3 (h^2 - step^2/4)/6, with f3 the third derivative.  h scales with
    t, which is w0's scale near w0, so far from a large w0 the quotient,
    which needs no help there, is kept.
    """
    step = lattice_step(t, params)
    h = CENTRAL_DIFF_STEP * (1.0 + abs(t))
    if abs(step) <= h:
        mid = 0.5 * (t + advance(t, params))
        return (f(mid + h) - f(mid - h)) / (2.0 * h)
    return (f(advance(t, params)) - f(t)) / step


# Veltkamp's splitting constant for doubles, 2^27 + 1.
_VELTKAMP = 134217729.0


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(hi, lo) with hi = fl(a b) and hi + lo = a b exactly (Dekker).

    Each factor is split by Veltkamp into halves of 26 bits, whose products
    are exact.  Exact barring overflow of the split (|a|, |b| < 2^996) and
    underflow of the products.
    """
    hi = a * b
    a_big = a * _VELTKAMP
    a_hi = a_big - (a_big - a)
    a_lo = a - a_hi
    b_big = b * _VELTKAMP
    b_hi = b_big - (b_big - b)
    b_lo = b - b_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _hahn_prefactor(t: float, q: float, w: float) -> float:
    """(1 - q)t - w, correctly rounded: fsum of t - q t - w with q t exact.

    The plain (1 - q) * t - w cancels when t is near a large w0 = w/(1 - q),
    losing up to three digits at q = 0.999.
    """
    if not abs(t) < _SPLIT_LIMIT:  # the split would overflow, or t is not finite
        return (1.0 - q) * t - w
    hi, lo = _two_product(q, t)
    return math.fsum((t, -hi, -lo, -w))


def hahn_integral(
    f: ScalarFunction,
    t: float,
    params: DeformationParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Hahn integral of f from w0 to t.

    Evaluates sum_{k>=0} ((1 - q)t - w) q^k f(q^k t + [k]_{q,w}), the
    inverse of the Hahn derivative anchored at the fixed point, by
    _lattice_sum with anchor 0.  The prefactor (1 - q)t - w is correctly
    rounded (see _hahn_prefactor).  On the plain route the series stops once
    |((1-q)t - w) q^k f| < policy.tol for CONSECUTIVE_SMALL successive k.
    When that takes many terms (q near 1), or its first term is already below
    tol, and q > 1/2, the Gauss route evaluates f at the nodes of the Gauss
    rule of the lattice measure instead: for a polynomial f that takes at
    most 60 evaluations whatever q is, probes included.  It assumes f
    analytic on [w0, t] and checks that with probes of f down to the plain
    route's depth; a sum that cancels within itself sums its first
    3/(1 - q) terms one by one and only the rest by the rule, and a sum that
    fails the probes goes back to the plain route.

    Every evaluation of f counts against max_terms; raises
    NonConvergentError if they run out before the plain stopping rule is met.
    """
    prefactor = _hahn_prefactor(t, params.q, params.w)
    total, _, _ = _lattice_sum(
        f, t, params, policy, prefactor, 0.0, "Hahn integral at t={!r}", t
    )
    return total


def qw_polynomial(t: float, n: int, params: DeformationParams) -> float:
    """The (q,w)-polynomial (t; q, w)_n = prod_{j=1..n} (t - [j]_{q,w})."""
    _check_count(n, "n")
    product = 1.0
    qj = 1.0
    for _ in range(n):
        qj *= params.q
        product *= t - params.w * (1.0 - qj) / (1.0 - params.q)
    return product
