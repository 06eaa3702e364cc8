"""The Gauss rule of the lattice measure, the Gauss route of core._lattice_sum.

With d = t - w0, the lattice sum weight * sum_k q^k f(q^k t + [k]_{q,w}) is
weight times the integral of r -> f(w0 + r d) against the measure
sum_k q^k delta(r - q^k) on [0, 1].  _lattice_gauss evaluates f at the
nodes of that measure's Gauss rule (the little q-Jacobi rule, built here in
integers by _gauss_rule and _implicit_ql), 4 to 32 of them whatever q is,
and either returns the sum or declines it.  Which route follows a declined
sum is decided in core._lattice_sum, which imports this module the first
time it tries the rule, so a process whose sums all stay plain never
compiles it.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .core import _SPLIT_LIMIT, ScalarFunction, _two_product

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
    """The Gauss route of core._lattice_sum; value is f(t).

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
