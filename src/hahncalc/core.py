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
written once in _sum_until_small: CONSECUTIVE_SMALL successive terms below
tol, with every summed term counted against max_terms.  The infinite
product (a; q)_inf has two routes, picked per call by _qpochhammer_inf from
its arguments: factors 1 - q^k a multiplied up to the first one with
|q^k a| < tol, whose length grows like 1/(1 - q), or, for tol <= |a| < 1
where it is cheaper, exp of the log series
log (a; q)_inf = -sum_n a^n/(n(1 - q^n)), summed by that one rule, whose
length does not depend on q.  _qpochhammer_inf_pm evaluates (a; q)_inf and
(-a; q)_inf together in one pass, on the same route.

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
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, count, islice
from typing import Callable, Iterator

from .errors import NonConvergentError, ZeroFactorWarning

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
]

# A scalar map t -> f(t); must be deterministic and total on the caller's domain.
ScalarFunction = Callable[[float], float]

# Step scale for the O(h^2) central difference hahn_derivative takes where
# the lattice step is at most CENTRAL_DIFF_STEP (1 + |w0|).
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

# Node counts of the Gauss rules of the lattice measure, tried in turn until
# two successive rules agree.  The first is exact for polynomial integrands of
# degree up to 7, so a quadratic is settled by the first pair.
GAUSS_NODES = (4, 8, 16, 32)

# Rounding of the Gauss route in units of the double epsilon, per unit of
# sum_i |weight lambda_i f_i|: the rule's nodes and weights are correctly
# rounded, each f_i carries the rounding of its point and of f, and each
# lambda_i f_i and the final product round once.
GAUSS_ROUNDING = 4.0

# The Gauss rules are built in integers scaled by 2^GAUSS_BITS, and an
# off-diagonal entry of their Jacobi matrix below 2^-GAUSS_SPLIT_BITS counts
# as zero: far below the rounding of a double, far above that of the integers.
GAUSS_BITS = 120
GAUSS_SPLIT_BITS = 100

_EPSILON = 2.0**-52
_BELOW_ONE = 1.0 - 2.0**-53

# _two_product splits its factors exactly only below this magnitude.
_SPLIT_LIMIT = 2.0**996


def _check_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly inside (0, 1), got {q!r}")


def _check_count(k: int, name: str = "k") -> None:
    if k < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {k!r}")


@dataclass(frozen=True)
class DeformationParams:
    """Deformation parameters (q, w) and the derived fixed point w0.

    Constraints: 0 < q < 1 strictly and w >= 0, both finite, and w0 finite.
    w = 0 is the pure Jackson q-calculus case (then w0 = 0).  q = 1 and
    negative w are rejected: the former degenerates the lattice map, the
    latter breaks its convergence toward w0 from positive start points.  A
    w0 past the double range would empty every route anchored there.
    """

    q: float
    w: float = 0.0
    w0: float = field(init=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.q) or not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be finite and strictly inside (0, 1), got {self.q!r}")
        if not math.isfinite(self.w) or self.w < 0.0:
            raise ValueError(f"w must be finite and nonnegative, got {self.w!r}")
        w0 = self.w / (1.0 - self.q)
        if not math.isfinite(w0):
            raise ValueError(f"w0 = w/(1-q) must be finite, got w={self.w!r}, q={self.q!r}")
        object.__setattr__(self, "w0", w0)


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping contract for infinite sums and products.

    tol is an absolute term/factor threshold; max_terms bounds the terms
    summed or factors multiplied, counting every one.
    Every evaluation either meets its stopping rule or raises
    NonConvergentError; there is no silent partial result.
    """

    tol: float = 1e-14
    max_terms: int = 100_000

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be a positive integer, got {self.max_terms!r}")


DEFAULT_POLICY = TruncationPolicy()


def _sum_until_small(
    terms: Iterator[float],
    policy: TruncationPolicy,
    what: str,
    *args: object,
    spent: int = 0,
) -> tuple[float, int]:
    """Sum an infinite series under policy; return (sum, terms summed).

    The one stopping rule for every series in the package: the sum stops
    after CONSECUTIVE_SMALL successive terms with |term| < policy.tol, and
    every term counts against policy.max_terms, as do the spent evaluations
    a caller made outside the series.  Terms are accumulated with exactly
    rounded summation.  Raises NonConvergentError, naming the series as
    what.format(*args), when the budget runs out first.
    """
    summed = _terms_until_small(terms, policy, what, *args, spent=spent)
    return math.fsum(summed), len(summed)


def _terms_until_small(
    terms: Iterator[float],
    policy: TruncationPolicy,
    what: str,
    *args: object,
    spent: int = 0,
) -> list[float]:
    """The terms _sum_until_small sums, as a list, under the same rule."""
    tol = policy.tol
    summed: list[float] = []
    small = 0
    for term in islice(terms, policy.max_terms - spent):
        summed.append(term)
        if abs(term) < tol:
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
    * Gauss (_lattice_gauss): a Gauss rule of the lattice measure, at a
      number of nodes that does not depend on q.  Tried when
      q > LATTICE_NODE_RATIO and either K_plain exceeds six blocks plus
      LATTICE_LONG_SUM or the first term is already below tol, where the
      plain rule would stop whatever the rest of the sum holds.
    * head and tail (_lattice_head_tail): taken where the Gauss route was
      tried on a long sum and declined for its rounding.

    An f that vanishes at t, or a weight of 0, stays plain.  Every
    evaluation of f, summed, probed or taken at a Gauss node, counts against
    policy.max_terms; NonConvergentError is raised, naming the sum as
    what.format(*args), when it runs out before the plain stopping rule is
    met.
    """
    q = params.q
    w0 = params.w0
    value = f(t)
    first = weight * value
    size = abs(first)
    if q > LATTICE_NODE_RATIO and 0.0 < size < math.inf:
        log_q = math.log(q)
        k_plain = math.log(policy.tol / size) / log_q
        block = math.ceil(math.log(LATTICE_NODE_RATIO) / log_q)
        long = k_plain > 6 * block + LATTICE_LONG_SUM
        if long or k_plain < 0.0:  # k_plain < 0: the first term is below tol
            total, spent = _lattice_gauss(
                f, t, w0, q, weight, anchor, 0.0, value, block, policy.tol, policy.max_terms - 1
            )
            if total is not None:
                return total, spent + 1, 0
            if long:
                return _lattice_head_tail(
                    f, t, w0, q, weight, anchor, value, block, spent, policy, what, args
                )
            return _lattice_plain([first], spent, f, t, w0, q, weight, policy, what, args)
    return _lattice_plain([first], 0, f, t, w0, q, weight, policy, what, args)


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


def _lattice_head_tail(
    f: ScalarFunction,
    t: float,
    w0: float,
    q: float,
    weight: float,
    anchor: float,
    value: float,
    block: int,
    spent: int,
    policy: TruncationPolicy,
    what: str,
    args: tuple[object, ...],
) -> tuple[float, int, int]:
    """The head-and-tail route of _lattice_sum, for a long sum that cancels
    against its anchor; value is f(t).

    The first M = ceil(LATTICE_HEAD_SPAN/(1 - q)) terms are summed exactly,
    each from q^k by pow: a running product drifts by a rounding bias of its
    own, about 1e-15 relative after a few hundred steps.  The tail, the same
    sum from t_M = q^M t + w0 (1 - q^M) at weight weight q^M, goes to
    _lattice_gauss anchored at anchor plus the head, with GAUSS_ROUNDING
    eps |anchor| of slack: the rounding the caller's anchor already carries.
    A declined tail, or a budget too small for the head, resumes the plain
    route from the head terms; the spent evaluations count against max_terms.
    """
    m = math.ceil(LATTICE_HEAD_SPAN / (1.0 - q))
    head = [weight * value]
    if spent + m + 1 > policy.max_terms:
        return _lattice_plain(head, spent, f, t, w0, q, weight, policy, what, args)
    for k in range(1, m):
        qk = q**k
        head.append(weight * qk * f(qk * t + w0 * (1.0 - qk)))
    q_m = q**m
    t_m = q_m * t + w0 * (1.0 - q_m)
    value_m = f(t_m)
    budget = policy.max_terms - spent - m - 1
    slack = GAUSS_ROUNDING * _EPSILON * abs(anchor)
    tail_anchor = anchor + math.fsum(head)
    tail, more = _lattice_gauss(
        f, t_m, w0, q, weight * q_m, tail_anchor, slack, value_m, block, policy.tol, budget
    )
    if tail is None:
        head.append(weight * q_m * value_m)
        return _lattice_plain(head, spent + more, f, t, w0, q, weight, policy, what, args)
    return math.fsum(head + [tail]), spent + m + 1 + more, m


def _lattice_gauss(
    f: ScalarFunction,
    t: float,
    w0: float,
    q: float,
    weight: float,
    anchor: float,
    slack: float,
    value: float,
    block: int,
    tol: float,
    budget: int,
) -> tuple[float | None, int]:
    """The Gauss route of _lattice_sum; value is f(t).

    Returns (sum, evaluations of f past f(t)), or (None, evaluations) when
    the route declines and another must be taken.  With d = t - w0 and
    g(r) = f(w0 + r d), the sum is weight * sum_k q^k g(q^k), the integral of
    g against the lattice measure, and the n-point Gauss rule of that
    measure (see _gauss_rule) gives weight * sum_i lambda_i g(x_i), exact for
    polynomial g of degree below 2n.  The rules of GAUSS_NODES are tried in
    turn.  A rule is taken once it differs from the one before by at most
    the bound tol |anchor + S| + slack, the caller's value to the tolerance
    plus a rounding floor it already carries, and the probes follow its
    nodes.  budget is the number of evaluations of f left past f(t).

    Probe guard: g is evaluated once at the lattice points k = 0, 2 block,
    4 block, ... down to where the plain rule would stop, and compared with
    the polynomial through the nodes of the rule.  Each deviation is
    weighted by the share of the sum its stretch of lattice carries,
    r (1 - rho^2)/(1 - q) |weight| with rho = q^block, and the weighted
    total must stay within the bound.  That polynomial has half the degree
    the rule integrates exactly, so a failed guard moves on to the next
    rule, and the probes are compared again.

    The route declines when the first rule's rounding bound, GAUSS_ROUNDING
    eps sum_i |weight lambda_i g(x_i)|, exceeds the bound (a few nodes do
    not average rounding as many terms do), when the rules run out before
    one is taken, or when the budget does not cover a rule or the probes.
    """
    d = t - w0
    spent = 0
    previous = None
    probed = None
    for size in GAUSS_NODES:
        if spent + size > budget:
            return None, spent
        nodes, weights = _gauss_rule(q, size)
        values = [f(w0 + x * d) for x in nodes]
        spent += size
        if not max(map(abs, values)) < _SPLIT_LIMIT:
            return None, spent
        products = list(map(operator.mul, weights, values))
        total = weight * math.fsum(products)
        bound = tol * abs(anchor + total) + slack
        if previous is None:
            rounding = GAUSS_ROUNDING * _EPSILON * abs(weight) * math.fsum(map(abs, products))
            if not rounding <= bound:
                return None, spent
        elif abs(total - previous) <= bound:
            if probed is None:
                scale = max(abs(value), max(map(abs, values))) * abs(weight)
                stop = math.floor(math.log(tol / scale) / math.log(q)) if scale > tol else 0
                count = stop // (2 * block)  # probes past k = 0
                if spent + count > budget:
                    return None, spent
                spent += count
                rho = q**block
                share = (1.0 - q) / ((1.0 - rho * rho) * abs(weight))
            # The row table is built for count rounded up to a multiple of 32,
            # so that the probes of most sums at one q share one cached table.
            points, rows = _gauss_probe_rows(q, size, block, -(-count // 32) * 32)
            if probed is None:
                probed = [value] + [f(r * t + w0 * (1.0 - r)) for r in points[1 : count + 1]]
            # sum_j |g(r_j) - p(r_j)| r_j, with p the polynomial through the nodes.
            deviation = math.fsum(
                abs(fr - sum(map(operator.mul, row, values))) * r
                for r, row, fr in zip(points, rows, probed)
            )
            if deviation <= bound * share:
                return _gauss_sum(weight, weights, values), spent
        previous = total
    return None, spent


@lru_cache(maxsize=64)
def _gauss_rule(q: float, size: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes x_i in (0, 1) and weights lambda_i > 0 of the size-point Gauss rule
    for the measure sum_k q^k delta(r - q^k) on [0, 1].

    The rule integrates r^j exactly, to 1/(1 - q^(j+1)), for j < 2 size.
    Its orthogonal polynomials are the little q-Jacobi polynomials with
    a = b = 1 (Koekoek, Lesky & Swarttouw, Hypergeometric Orthogonal
    Polynomials and Their q-Analogues, 14.12), whose Jacobi matrix has
    diagonal A_n + C_n and off-diagonal sqrt(A_(n-1) C_n), with

        A_n = q^n (1 - q^(n+1))^2 / ((1 - q^(2n+1)) (1 - q^(2n+2))),
        C_n = q^n (1 - q^n)^2 / ((1 - q^(2n)) (1 - q^(2n+1))),   C_0 = 0,

    and mass mu_0 = 1/(1 - q).  Following Golub & Welsch (Math. Comp. 23,
    1969), the nodes are its eigenvalues and the weights mu_0 times the
    squared first components of its unit eigenvectors (see _implicit_ql).

    Everything is computed in integers scaled by 2^GAUSS_BITS from the exact
    binary q, so each 1 - q^m is exact to the last of those bits at any q,
    and nodes and weights come out correctly rounded or nearly: QL in double
    leaves the weights off by up to 8e-16 mu_0, which a sum over a few nodes
    would carry.  A node whose nearest double is 1 is put at the double below
    it, where the exact node lies.  Cached per (q, size); building the
    4- and 8-point rules takes about 0.7 ms, the 32-point rule about 6 ms.
    """
    one = 1 << GAUSS_BITS
    num, den = q.as_integer_ratio()
    scaled_q = (num << GAUSS_BITS) // den
    power = [one]
    for _ in range(2 * size):
        power.append(power[-1] * scaled_q >> GAUSS_BITS)
    gap = [one - p for p in power]  # 1 - q^m
    a = [
        power[n] * gap[n + 1] * gap[n + 1] // (gap[2 * n + 1] * gap[2 * n + 2])
        for n in range(size)
    ]
    c = [0] + [
        power[n] * gap[n] * gap[n] // (gap[2 * n] * gap[2 * n + 1]) for n in range(1, size)
    ]
    diag = [an + cn for an, cn in zip(a, c)]
    off = [math.isqrt(a[n - 1] * c[n]) for n in range(1, size)] + [0]
    first = [one] + [0] * (size - 1)
    _implicit_ql(diag, off, first)
    pairs = sorted(zip(diag, first))
    nodes = tuple(min(x / one, _BELOW_ONE) for x, _ in pairs)
    weights = tuple(z * z / (gap[1] << GAUSS_BITS) for _, z in pairs)
    return nodes, weights


def _implicit_ql(diag: list[int], off: list[int], first: list[int]) -> None:
    """Diagonalize a symmetric tridiagonal matrix in place by implicit QL.

    The entries are integers scaled by 2^GAUSS_BITS.  diag holds the
    diagonal and off the off-diagonal followed by one 0; first is a row
    vector.  On return diag holds the eigenvalues and first that row times
    the eigenvectors; off is spent.  This is the QL iteration with implicit
    Wilkinson shifts of EISPACK's imtql2, applying the plane rotations to
    the one row the Golub-Welsch weights need.  An off-diagonal entry below
    2^(GAUSS_BITS - GAUSS_SPLIT_BITS) counts as zero.  Raises
    ArithmeticError after 60 sweeps on one eigenvalue.
    """
    bits = GAUSS_BITS
    one_squared = 1 << (2 * bits)
    small = 1 << (bits - GAUSS_SPLIT_BITS)
    n = len(diag)
    for low in range(n):
        for _ in range(60):
            m = low
            while m < n - 1 and abs(off[m]) > small:
                m += 1
            if m == low:
                break
            g = ((diag[low + 1] - diag[low]) << bits) // (2 * off[low])
            r = math.isqrt(g * g + one_squared)
            g = diag[m] - diag[low] + (off[low] << bits) // (g + r if g >= 0 else g - r)
            s = c = 1 << bits
            p = 0
            for i in range(m - 1, low - 1, -1):
                f = s * off[i] >> bits
                b = c * off[i] >> bits
                if abs(g) <= abs(f):
                    c = (g << bits) // f
                    r = math.isqrt(c * c + one_squared)
                    off[i + 1] = f * r >> bits
                    s = one_squared // r
                    c = c * s >> bits
                else:
                    s = (f << bits) // g
                    r = math.isqrt(s * s + one_squared)
                    off[i + 1] = g * r >> bits
                    c = one_squared // r
                    s = s * c >> bits
                g = diag[i + 1] - p
                r = ((diag[i] - g) * s + 2 * c * b) >> bits
                p = s * r >> bits
                diag[i + 1] = g + p
                g = (c * r >> bits) - b
                f = first[i + 1]
                first[i + 1] = (s * first[i] + c * f) >> bits
                first[i] = (c * first[i] - s * f) >> bits
            diag[low] -= p
            off[low] = g
            off[m] = 0
        else:
            raise ArithmeticError("implicit QL did not converge")


@lru_cache(maxsize=128)
def _gauss_probe_rows(
    q: float, size: int, block: int, count: int
) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """The probe points r_j = q^(2 block j), j = 0, ..., count, of the Gauss
    route's guard, and at each the Lagrange basis of the nodes of
    _gauss_rule(q, size), in the barycentric form with weights
    1/prod_(j != i)(x_i - x_j)."""
    nodes, _ = _gauss_rule(q, size)
    points = tuple(q ** (2 * block * j) for j in range(count + 1))
    bary = [1.0 / math.prod([xi - xj for xj in nodes if xj != xi]) for xi in nodes]
    rows = []
    for r in points:
        if r in nodes:
            rows.append(tuple(float(x == r) for x in nodes))
            continue
        row = [b / (r - x) for b, x in zip(bary, nodes)]
        total = sum(row)
        rows.append(tuple(v / total for v in row))
    return points, tuple(rows)


def _gauss_sum(weight: float, lambdas: tuple[float, ...], values: list[float]) -> float:
    """weight * sum_i lambda_i v_i, rounded twice in all.

    Each lambda_i v_i is split exactly into two doubles (_two_product) and
    the pieces summed exactly rounded before the one product by weight.
    """
    pieces: list[float] = []
    for lam, v in zip(lambdas, values):
        pieces += _two_product(lam, v)
    return weight * math.fsum(pieces)


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


def _qpochhammer_inf(a: float, q: float, policy: TruncationPolicy) -> tuple[float, bool]:
    """Evaluate (a; q)_infinity; return (value, zero_factor_hit).

    Two routes, chosen from the arguments before anything is summed (see
    _log_series_log_q):

    * product: factors 1 - q^k a are multiplied while |q^k a| >= policy.tol,
      about K_prod = log(tol/|a|)/log q of them; the neglected tail perturbs
      the product by a relative amount of roughly |q^k a|/(1 - q) at the
      stopping index.  A factor within ZERO_FACTOR_TOL of 0 makes the product
      exactly 0 and is reported via the flag; only the head of factors with
      |q^k a| >= ZERO_FACTOR_HEAD is tested, because no later one can vanish.
    * log series: exp(-sum_{n>=1} a^n/(n(1 - q^n))), summed by
      _sum_until_small in about K_log = log(tol (1 - |a|))/log|a| terms
      whatever q is.

    Both routes raise NonConvergentError when max_terms runs out first.
    """
    log_q = _log_series_log_q(abs(a), q, policy.tol)
    if log_q is not None:
        return _qpochhammer_log_series(a, q, log_q, policy), False
    tol = policy.tol
    product = 1.0
    scaled = a
    head = 0
    while head < policy.max_terms and abs(scaled) >= ZERO_FACTOR_HEAD:
        if abs(scaled) < tol:
            return product, False
        factor = 1.0 - scaled
        if abs(factor) < ZERO_FACTOR_TOL:
            return 0.0, True
        product *= factor
        scaled *= q
        head += 1
    for _ in range(policy.max_terms - head):
        if abs(scaled) < tol:
            return product, False
        product *= 1.0 - scaled
        scaled *= q
    raise NonConvergentError(_product_failure(a, q, policy))


def _qpochhammer_inf_pm(
    a: float, q: float, policy: TruncationPolicy
) -> tuple[float, float] | None:
    """((a; q)_infinity, (-a; q)_infinity) in one pass.

    Each value is bit for bit what _qpochhammer_inf gives.  The two share
    |q^k a|, so they share the route and the stopping index: the product
    route multiplies 1 - q^k a and 1 + q^k a in one loop, and on the log
    series route the terms at -a are those at a with alternating sign.
    Returns None as soon as a factor of either product vanishes within
    ZERO_FACTOR_TOL; the caller then evaluates the two one at a time, so
    that poles and running out of max_terms are reported as those calls
    report them.  Raises the NonConvergentError that _qpochhammer_inf(a)
    raises.
    """
    log_q = _log_series_log_q(abs(a), q, policy.tol)
    if log_q is not None:
        terms = _terms_until_small(
            _log_series_terms(a, log_q), policy, _LOG_SERIES_WHAT, a, q
        )
        # log (-a; q)_inf = -sum (-a)^n/(n(1 - q^n)), with n from 1.
        return _exp_or_inf(-math.fsum(terms)), _exp_or_inf(_alternating_fsum(terms))
    tol = policy.tol
    plus = minus = 1.0  # (a; q)_k and (-a; q)_k
    scaled = a
    head = 0
    while head < policy.max_terms and abs(scaled) >= ZERO_FACTOR_HEAD:
        if abs(scaled) < tol:
            return plus, minus
        factor = 1.0 - scaled
        other = 1.0 + scaled
        if abs(factor) < ZERO_FACTOR_TOL or abs(other) < ZERO_FACTOR_TOL:
            return None
        plus *= factor
        minus *= other
        scaled *= q
        head += 1
    for _ in range(policy.max_terms - head):
        if abs(scaled) < tol:
            return plus, minus
        plus *= 1.0 - scaled
        minus *= 1.0 + scaled
        scaled *= q
    raise NonConvergentError(_product_failure(a, q, policy))


def _log_series_log_q(size: float, q: float, tol: float) -> float | None:
    """log q when the log series is the route for (a; q)_inf at |a| = size, else None.

    The series is taken only for tol <= |a| < 1 - ZERO_FACTOR_TOL, where no
    factor can vanish, and only when LOG_SERIES_TERM_COST times its term
    count (K_log plus the CONSECUTIVE_SMALL terms that confirm the stop) is
    below the product's K_prod.  For |a| >= q it is never shorter.
    """
    if tol <= size < min(q, 1.0 - ZERO_FACTOR_TOL):
        log_q = math.log(q)
        log_size = math.log(size)
        k_prod = (math.log(tol) - log_size) / log_q
        k_log = math.log(tol * (1.0 - size)) / log_size + CONSECUTIVE_SMALL
        if LOG_SERIES_TERM_COST * k_log < k_prod:
            return log_q
    return None


def _qpochhammer_log_series(a: float, q: float, log_q: float, policy: TruncationPolicy) -> float:
    """(a; q)_infinity for |a| < 1 as exp(-sum_{n>=1} a^n/(n(1 - q^n))).

    A sum past the double range gives inf, as the product would.
    """
    log_sum, _ = _sum_until_small(
        _log_series_terms(a, log_q), policy, _LOG_SERIES_WHAT, a, q
    )
    return _exp_or_inf(-log_sum)


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


def _product_failure(a: float, q: float, policy: TruncationPolicy) -> str:
    return (
        f"(a;q)_inf with a={a!r}, q={q!r} did not reach tol={policy.tol!r} "
        f"within {policy.max_terms} factors"
    )


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
    h = CENTRAL_DIFF_STEP (1 + |w0|), the O(h^2) central difference with
    half-width h about the secant midpoint (t + qt + w)/2 is returned
    instead of the quotient.  For smooth f it differs from the secant slope
    by f3 (h^2 - step^2/4)/6, with f3 the third derivative.
    """
    step = lattice_step(t, params)
    h = CENTRAL_DIFF_STEP * (1.0 + abs(params.w0))
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
