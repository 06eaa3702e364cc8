"""Randomized numerical verification of the calculus identities.

Each check_* function draws randomized cases at a fixed (q, w), evaluates
both sides of one identity through independent code paths, and returns the
largest residual it saw: absolute, except where the exponential's size
makes it relative (check_exp_eigenfunction).  run_suite runs every check
over a (q, w) grid and reports one IdentityResult per identity; the CLI's
verify subcommand is a thin wrapper around it.

Sampling conventions shared by the checks: evaluation times are drawn
uniformly from [-2, 2] but kept a fixed clearance away from the lattice
fixed point w0 (where the difference quotient degenerates and rounding
noise would swamp the identity), and polynomial coefficients are drawn
from [-1, 1] so that intermediate magnitudes stay small enough for the
stated tolerances to be meaningful.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    DeformationParams,
    advance,
    hahn_derivative,
    lattice_step,
    q_number,
    qw_polynomial,
)
from .qexp import exp_qw, odd_part_qinv
from .resist import gravity_kernel_iteration_sum, gravity_kernel_resummed

__all__ = [
    "IdentityResult",
    "run_suite",
    "DEFAULT_Q_GRID",
    "DEFAULT_W_GRID",
    "check_leibniz",
    "check_quotient",
    "check_power_rule",
    "check_shifted_power_rule",
    "check_lattice_polynomial_derivative",
    "check_q_number_sum",
    "check_weighted_q_number_sum",
    "check_exp_eigenfunction",
    "check_odd_part",
    "check_kernel_resummation",
]

DEFAULT_Q_GRID: tuple[float, ...] = (0.3, 0.5, 0.9)
DEFAULT_W_GRID: tuple[float, ...] = (0.0, 0.1, 1.0)

# Time window and fixed-point clearance for randomized evaluation points.
_T_LOW, _T_HIGH = -2.0, 2.0
_W0_CLEARANCE = 0.3
_MAX_DRAWS = 10_000


@dataclass(frozen=True)
class IdentityResult:
    """Outcome of one identity check over the whole (q, w) grid."""

    name: str
    max_residual: float
    tolerance: float
    cases: int

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def _draw_time(rng: random.Random, params: DeformationParams) -> float:
    """A random evaluation time with clearance from the fixed point."""
    for _ in range(_MAX_DRAWS):
        t = rng.uniform(_T_LOW, _T_HIGH)
        if abs(t - params.w0) >= _W0_CLEARANCE:
            return t
    raise RuntimeError("time sampler could not clear the fixed point")


def _random_poly(rng: random.Random, max_degree: int) -> Callable[[float], float]:
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(0, max_degree) + 1)]

    def poly(t: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    return poly


def check_leibniz(q: float, w: float, rng: random.Random, cases: int) -> float:
    """D(fg)(t) = Df(t) g(t) + f(qt+w) Dg(t) for random quartic f, g."""
    params = DeformationParams(q, w)
    worst = 0.0
    for _ in range(cases):
        f = _random_poly(rng, 4)
        g = _random_poly(rng, 4)
        t = _draw_time(rng, params)
        lhs = hahn_derivative(lambda s: f(s) * g(s), t, params)
        rhs = hahn_derivative(f, t, params) * g(t) + f(
            advance(t, params)
        ) * hahn_derivative(g, t, params)
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_quotient(q: float, w: float, rng: random.Random, cases: int) -> float:
    """D(f/g)(t) = (Df(t) g(t) - f(t) Dg(t)) / (g(t) g(qt+w)).

    g and t are redrawn until |g| >= 0.5 at both lattice points, keeping
    the quotient well conditioned.
    """
    params = DeformationParams(q, w)
    worst = 0.0
    for _ in range(cases):
        f = _random_poly(rng, 4)
        for _ in range(_MAX_DRAWS):
            g = _random_poly(rng, 4)
            t = _draw_time(rng, params)
            if min(abs(g(t)), abs(g(advance(t, params)))) >= 0.5:
                break
        else:
            raise RuntimeError("quotient sampler could not bound g away from 0")
        lhs = hahn_derivative(lambda s: f(s) / g(s), t, params)
        rhs = (
            hahn_derivative(f, t, params) * g(t)
            - f(t) * hahn_derivative(g, t, params)
        ) / (g(t) * g(advance(t, params)))
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_power_rule(q: float, w: float, rng: random.Random, cases: int) -> float:
    """D(t^n) = sum_{k=0}^{n-1} (qt+w)^k t^(n-1-k) for n <= 8."""
    params = DeformationParams(q, w)
    worst = 0.0
    for _ in range(cases):
        n = rng.randint(1, 8)
        t = _draw_time(rng, params)
        shifted = advance(t, params)
        lhs = hahn_derivative(lambda s: s**n, t, params)
        rhs = math.fsum(shifted**k * t ** (n - 1 - k) for k in range(n))
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_shifted_power_rule(
    q: float,
    w: float,
    rng: random.Random,
    cases: int,
) -> float:
    """D((at+b)^n) = a sum_{k=0}^{n-1} (a(qt+w)+b)^k (at+b)^(n-1-k), n <= 6."""
    params = DeformationParams(q, w)
    worst = 0.0
    for _ in range(cases):
        n = rng.randint(1, 6)
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        t = _draw_time(rng, params)
        inner = a * advance(t, params) + b
        outer = a * t + b
        lhs = hahn_derivative(lambda s: (a * s + b) ** n, t, params)
        rhs = a * math.fsum(inner**k * outer ** (n - 1 - k) for k in range(n))
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_lattice_polynomial_derivative(
    q: float,
    w: float,
    rng: random.Random,
    cases: int,
) -> float:
    """D((t; q,w)_n) = [n]_q (t; q,w)_(n-1) for n <= 6."""
    params = DeformationParams(q, w)
    worst = 0.0
    for _ in range(cases):
        n = rng.randint(1, 6)
        t = _draw_time(rng, params)
        lhs = hahn_derivative(lambda s: qw_polynomial(s, n, params), t, params)
        rhs = q_number(n, q) * qw_polynomial(t, n - 1, params)
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_q_number_sum(q: float, w: float, rng: random.Random, cases: int) -> float:
    """sum_{k<N} [k]_q = (N - [N]_q)/(1-q) for N <= 50."""
    worst = 0.0
    for _ in range(cases):
        n = rng.randint(1, 50)
        lhs = math.fsum(q_number(k, q) for k in range(n))
        rhs = (n - q_number(n, q)) / (1.0 - q)
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_weighted_q_number_sum(
    q: float,
    w: float,
    rng: random.Random,
    cases: int,
) -> float:
    """sum_{k<N} q^k [k]_q = q [N]_q [N-1]_q / (1+q) for N <= 50."""
    worst = 0.0
    for _ in range(cases):
        n = rng.randint(1, 50)
        lhs = math.fsum(q**k * q_number(k, q) for k in range(n))
        rhs = q / (1.0 + q) * q_number(n, q) * q_number(n - 1, q)
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_exp_eigenfunction(
    q: float,
    w: float,
    rng: random.Random,
    cases: int,
) -> float:
    """D_t e_{q,w}(at) = a e_{q,w}(at) at random pole-free (a, t).

    The residual is relative to max(1, |a e_{q,w}(at)|): on the sampled
    (a, t) the exponential reaches about 4e4 at q = 0.9, where an absolute
    residual would judge rounding of the value itself.
    """
    params = DeformationParams(q, w)
    worst = 0.0
    for _ in range(cases):
        for _ in range(_MAX_DRAWS):
            a = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.2)
            t = _draw_time(rng, params)
            # Keeping the product argument inside (-0.9, 0.9) bounds every
            # factor away from zero, so no pole is ever encountered.
            if abs(a * lattice_step(t, params)) <= 0.9:
                break
        else:
            raise RuntimeError("eigenfunction sampler could not avoid poles")
        lhs = hahn_derivative(lambda s: exp_qw(a, s, params), t, params)
        rhs = a * exp_qw(a, t, params)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def check_odd_part(q: float, w: float, rng: random.Random, cases: int) -> float:
    """Odd part of e_{1/q}: the two summation paths of odd_part_qinv agree."""
    worst = 0.0
    for _ in range(cases):
        a = rng.uniform(-2.0, 2.0)
        lhs, rhs = odd_part_qinv(a, q)
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_kernel_resummation(
    q: float,
    w: float,
    rng: random.Random,
    cases: int,
) -> float:
    """Driven-response kernel: iteration sum equals odd-power resummation.

    A finite identity, checked for random z in [-0.6, 0.6] (every factor
    1 - q^j z then stays at least 0.4 away from zero) and depths up to 25.
    """
    worst = 0.0
    for _ in range(cases):
        n_steps = rng.randint(1, 25)
        z = rng.uniform(-0.6, 0.6)
        lhs = gravity_kernel_iteration_sum(z, q, n_steps)
        rhs = gravity_kernel_resummed(z, q, n_steps)
        worst = max(worst, abs(lhs - rhs))
    return worst


_CHECKS: tuple[tuple[str, Callable[..., float], float], ...] = (
    ("leibniz-rule", check_leibniz, 1e-10),
    ("quotient-rule", check_quotient, 1e-10),
    ("power-rule", check_power_rule, 1e-10),
    ("shifted-power-rule", check_shifted_power_rule, 1e-10),
    ("lattice-polynomial-derivative", check_lattice_polynomial_derivative, 1e-10),
    ("q-number-sum", check_q_number_sum, 1e-12),
    ("weighted-q-number-sum", check_weighted_q_number_sum, 1e-12),
    ("exp-eigenfunction", check_exp_eigenfunction, 1e-10),
    ("exp-qinv-odd-part", check_odd_part, 1e-12),
    ("drag-kernel-resummation", check_kernel_resummation, 1e-10),
)


def run_suite(
    seed: int = 0,
    q_grid: Sequence[float] = DEFAULT_Q_GRID,
    w_grid: Sequence[float] = DEFAULT_W_GRID,
    cases: int = 200,
    tol: float | None = None,
) -> list[IdentityResult]:
    """Run every identity check over the (q, w) grid.

    cases is the total number of randomized draws per identity, spread
    evenly over the grid (rounded up per grid point).  tol, when given,
    overrides every identity's default tolerance; otherwise each identity
    keeps its own.  Results are deterministic in (seed, grids, cases).
    """
    if not q_grid or not w_grid:
        raise ValueError("q_grid and w_grid must be non-empty")
    per_point = max(1, math.ceil(cases / (len(q_grid) * len(w_grid))))
    results = []
    for name, check, default_tol in _CHECKS:
        rng = random.Random(f"{seed}:{name}")
        worst = 0.0
        total = 0
        for q in q_grid:
            for w in w_grid:
                worst = max(worst, check(q, w, rng, per_point))
                total += per_point
        results.append(
            IdentityResult(
                name=name,
                max_residual=worst,
                tolerance=default_tol if tol is None else tol,
                cases=total,
            )
        )
    return results
