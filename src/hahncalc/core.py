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
length does not depend on q.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import count, islice
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

# Relative threshold deciding when t is treated as the fixed point w0.
W0_BRANCH_RTOL = 1e-12

# Step scale for the O(h^2) central difference used on the t = w0 branch.
CENTRAL_DIFF_STEP = 1e-6

# A product factor at least this close to 0 counts as an exact zero.
ZERO_FACTOR_TOL = 1e-13

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


def _check_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly inside (0, 1), got {q!r}")


def _check_count(k: int, name: str = "k") -> None:
    if k < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {k!r}")


@dataclass(frozen=True)
class DeformationParams:
    """Deformation parameters (q, w) and the derived fixed point w0.

    Constraints: 0 < q < 1 strictly and w >= 0, both finite.  w = 0 is the
    pure Jackson q-calculus case (then w0 = 0).  q = 1 and negative w are
    rejected: the former degenerates the lattice map, the latter breaks its
    convergence toward w0 from positive start points.
    """

    q: float
    w: float = 0.0
    w0: float = field(init=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.q) or not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be finite and strictly inside (0, 1), got {self.q!r}")
        if not math.isfinite(self.w) or self.w < 0.0:
            raise ValueError(f"w must be finite and nonnegative, got {self.w!r}")
        object.__setattr__(self, "w0", self.w / (1.0 - self.q))


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
    scale: float,
    what: str,
    *args: object,
) -> tuple[float, int]:
    """Sum an infinite series under policy; return (sum, terms summed).

    The one stopping rule for every series in the package: the sum stops
    after CONSECUTIVE_SMALL successive terms with |term| * scale <
    policy.tol, and every term counts against policy.max_terms.  Terms are
    accumulated with exactly rounded summation.  Raises NonConvergentError,
    naming the series as what.format(*args), when the budget runs out first.
    """
    summed: list[float] = []
    small = 0
    for term in islice(terms, policy.max_terms):
        summed.append(term)
        if abs(term) * scale < policy.tol:
            small += 1
            if small == CONSECUTIVE_SMALL:
                return math.fsum(summed), len(summed)
        else:
            small = 0
    raise NonConvergentError(
        f"{what.format(*args)} did not meet its stopping rule within "
        f"{policy.max_terms} terms"
    )


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


def q_factorial(n: int, q: float) -> float:
    """The q-factorial [n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    _check_q(q)
    _check_count(n, "n")
    product = 1.0
    qj = 1.0
    for _ in range(n):
        qj *= q
        product *= (1.0 - qj) / (1.0 - q)
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
    prefactor = q ** float(-exponent)
    if math.isinf(prefactor):
        raise OverflowError(f"q^(-{exponent}) exceeds double range for q={q!r}")
    return prefactor * q_factorial(n, q)


def q_shifted_factorial(a: float, q: float, N: int) -> float:
    """The finite q-shifted factorial (a; q)_N = (1-a)(1-qa)...(1-q^(N-1)a)."""
    _check_q(q)
    _check_count(N, "N")
    product = 1.0
    scaled = a
    for _ in range(N):
        product *= 1.0 - scaled
        scaled *= q
    return product


def _qpochhammer_inf(a: float, q: float, policy: TruncationPolicy) -> tuple[float, bool]:
    """Evaluate (a; q)_infinity; return (value, zero_factor_hit).

    Two routes, chosen from the arguments before anything is summed:

    * product: factors 1 - q^k a are multiplied while |q^k a| >= policy.tol,
      about K_prod = log(tol/|a|)/log q of them; the neglected tail perturbs
      the product by a relative amount of roughly |q^k a|/(1 - q) at the
      stopping index.  A factor within ZERO_FACTOR_TOL of 0 makes the product
      exactly 0 and is reported via the flag.
    * log series: exp(-sum_{n>=1} a^n/(n(1 - q^n))), summed by
      _sum_until_small in about K_log = log(tol (1 - |a|))/log|a| terms
      whatever q is.  It is taken only for tol <= |a| < 1 - ZERO_FACTOR_TOL,
      where no factor can vanish, and only when LOG_SERIES_TERM_COST times
      its term count (K_log plus the CONSECUTIVE_SMALL terms that confirm
      the stop) is below K_prod.

    Both routes raise NonConvergentError when max_terms runs out first.
    """
    size = abs(a)
    tol = policy.tol
    # For |a| >= q the series never has fewer terms than the product.
    if tol <= size < min(q, 1.0 - ZERO_FACTOR_TOL):
        log_q = math.log(q)
        log_size = math.log(size)
        k_prod = (math.log(tol) - log_size) / log_q
        k_log = math.log(tol * (1.0 - size)) / log_size + CONSECUTIVE_SMALL
        if LOG_SERIES_TERM_COST * k_log < k_prod:
            return _qpochhammer_log_series(a, q, log_q, policy), False
    product = 1.0
    scaled = a
    for _ in range(policy.max_terms):
        if abs(scaled) < tol:
            return product, False
        factor = 1.0 - scaled
        if abs(factor) < ZERO_FACTOR_TOL:
            return 0.0, True
        product *= factor
        scaled *= q
    raise NonConvergentError(
        f"(a;q)_inf with a={a!r}, q={q!r} did not reach tol={policy.tol!r} "
        f"within {policy.max_terms} factors"
    )


def _qpochhammer_log_series(a: float, q: float, log_q: float, policy: TruncationPolicy) -> float:
    """(a; q)_infinity for |a| < 1 as exp(-sum_{n>=1} a^n/(n(1 - q^n))).

    1 - q^n is formed as -expm1(n log q), which keeps its relative accuracy
    as q -> 1.  A sum past the double range gives inf, as the product would.
    """

    def terms() -> Iterator[float]:
        power = a
        for n in count(1):
            yield power / (n * -math.expm1(n * log_q))
            power *= a

    log_sum, _ = _sum_until_small(
        terms(), policy, 1.0, "(a;q)_inf log series with a={!r}, q={!r}", a, q
    )
    try:
        return math.exp(-log_sum)
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

    At the fixed point the quotient is 0/0 and the operator's value is the
    ordinary derivative f'(w0); whenever |t - w0| <= 1e-12 (1 + |w0|) an
    O(h^2) central difference with h = 1e-6 (1 + |w0|) is returned instead
    of the quotient.
    """
    w0 = params.w0
    if abs(t - w0) <= W0_BRANCH_RTOL * (1.0 + abs(w0)):
        h = CENTRAL_DIFF_STEP * (1.0 + abs(w0))
        return (f(w0 + h) - f(w0 - h)) / (2.0 * h)
    return (f(advance(t, params)) - f(t)) / lattice_step(t, params)


def hahn_integral(
    f: ScalarFunction,
    t: float,
    params: DeformationParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Hahn integral of f from w0 to t.

    Evaluates ((1 - q)t - w) * sum_{k>=0} q^k f(q^k t + [k]_{q,w}), the
    inverse of the Hahn derivative anchored at the fixed point.  The series
    stops once |q^k f| |(1-q)t - w| < policy.tol for CONSECUTIVE_SMALL
    successive k (see _sum_until_small).

    Raises NonConvergentError if max_terms is reached first.
    """
    q = params.q
    prefactor = (1.0 - q) * t - params.w

    def terms() -> Iterator[float]:
        qk = 1.0
        while True:
            point = qk * t + params.w * (1.0 - qk) / (1.0 - q)
            yield qk * f(point)
            qk *= q

    total, _ = _sum_until_small(terms(), policy, abs(prefactor), "Hahn integral at t={!r}", t)
    return prefactor * total


def qw_polynomial(t: float, n: int, params: DeformationParams) -> float:
    """The (q,w)-polynomial (t; q, w)_n = prod_{j=1..n} (t - [j]_{q,w})."""
    _check_count(n, "n")
    product = 1.0
    qj = 1.0
    for _ in range(n):
        qj *= params.q
        product *= t - params.w * (1.0 - qj) / (1.0 - params.q)
    return product
