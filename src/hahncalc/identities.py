"""Randomized numerical verification of the calculus identities.

Each identity is one case function: given the deformation (q, w) and a
random source, it draws one randomized case, evaluates both sides of the
identity through independent code paths, and returns the residual:
absolute, except where the exponential's size makes it relative
(exp-eigenfunction).  _CHECKS binds each case function to its name and
default tolerance.  run_suite is the one sampling loop: it runs every
identity's cases over a (q, w) grid and reports one IdentityResult per
identity; the CLI's verify subcommand is a thin wrapper around it.

Sampling conventions shared by the cases: evaluation times are drawn
uniformly from [-2, 2] but kept a fixed clearance away from the lattice
fixed point w0 (where the difference quotient degenerates and rounding
noise would swamp the identity), and polynomial coefficients are drawn
from [-1, 1] so that intermediate magnitudes stay small enough for the
stated tolerances to be meaningful.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

from ._record import FrozenRecord
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

__all__ = ["IdentityResult", "run_suite", "DEFAULT_Q_GRID", "DEFAULT_W_GRID"]

# run_suite samples DEFAULT_Q_GRID unless given another q grid; every run
# samples the w of DEFAULT_W_GRID and draws _CASES cases per identity.
DEFAULT_Q_GRID: tuple[float, ...] = (0.3, 0.5, 0.9)
DEFAULT_W_GRID: tuple[float, ...] = (0.0, 0.1, 1.0)
_CASES = 200

# Time window and fixed-point clearance for randomized evaluation points.
_T_LOW, _T_HIGH = -2.0, 2.0
_W0_CLEARANCE = 0.3
_MAX_DRAWS = 10_000


class IdentityResult(FrozenRecord):
    """Outcome of one identity check over the whole (q, w) grid."""

    __slots__ = ("name", "max_residual", "tolerance", "cases")

    def __init__(self, name: str, max_residual: float, tolerance: float, cases: int) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "max_residual", max_residual)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "cases", cases)

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


def _leibniz(params: DeformationParams, rng: random.Random) -> float:
    """D(fg)(t) = Df(t) g(t) + f(qt+w) Dg(t) for random quartic f, g."""
    f = _random_poly(rng, 4)
    g = _random_poly(rng, 4)
    t = _draw_time(rng, params)
    lhs = hahn_derivative(lambda s: f(s) * g(s), t, params)
    rhs = hahn_derivative(f, t, params) * g(t) + f(
        advance(t, params)
    ) * hahn_derivative(g, t, params)
    return abs(lhs - rhs)


def _quotient(params: DeformationParams, rng: random.Random) -> float:
    """D(f/g)(t) = (Df(t) g(t) - f(t) Dg(t)) / (g(t) g(qt+w)).

    g and t are redrawn until |g| >= 0.5 at both lattice points, keeping
    the quotient well conditioned.
    """
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
    return abs(lhs - rhs)


def _power_rule(params: DeformationParams, rng: random.Random) -> float:
    """D(t^n) = sum_{k=0}^{n-1} (qt+w)^k t^(n-1-k) for n <= 8."""
    n = rng.randint(1, 8)
    t = _draw_time(rng, params)
    shifted = advance(t, params)
    lhs = hahn_derivative(lambda s: s**n, t, params)
    rhs = math.fsum(shifted**k * t ** (n - 1 - k) for k in range(n))
    return abs(lhs - rhs)


def _shifted_power_rule(params: DeformationParams, rng: random.Random) -> float:
    """D((at+b)^n) = a sum_{k=0}^{n-1} (a(qt+w)+b)^k (at+b)^(n-1-k), n <= 6."""
    n = rng.randint(1, 6)
    a = rng.uniform(-1.0, 1.0)
    b = rng.uniform(-1.0, 1.0)
    t = _draw_time(rng, params)
    inner = a * advance(t, params) + b
    outer = a * t + b
    lhs = hahn_derivative(lambda s: (a * s + b) ** n, t, params)
    rhs = a * math.fsum(inner**k * outer ** (n - 1 - k) for k in range(n))
    return abs(lhs - rhs)


def _lattice_polynomial_derivative(
    params: DeformationParams, rng: random.Random
) -> float:
    """D((t; q,w)_n) = [n]_q (t; q,w)_(n-1) for n <= 6."""
    n = rng.randint(1, 6)
    t = _draw_time(rng, params)
    lhs = hahn_derivative(lambda s: qw_polynomial(s, n, params), t, params)
    rhs = q_number(n, params.q) * qw_polynomial(t, n - 1, params)
    return abs(lhs - rhs)


def _q_number_sum(params: DeformationParams, rng: random.Random) -> float:
    """sum_{k<N} [k]_q = (N - [N]_q)/(1-q) for N <= 50."""
    q = params.q
    n = rng.randint(1, 50)
    lhs = math.fsum(q_number(k, q) for k in range(n))
    rhs = (n - q_number(n, q)) / (1.0 - q)
    return abs(lhs - rhs)


def _weighted_q_number_sum(params: DeformationParams, rng: random.Random) -> float:
    """sum_{k<N} q^k [k]_q = q [N]_q [N-1]_q / (1+q) for N <= 50."""
    q = params.q
    n = rng.randint(1, 50)
    lhs = math.fsum(q**k * q_number(k, q) for k in range(n))
    rhs = q / (1.0 + q) * q_number(n, q) * q_number(n - 1, q)
    return abs(lhs - rhs)


def _exp_eigenfunction(params: DeformationParams, rng: random.Random) -> float:
    """D_t e_{q,w}(at) = a e_{q,w}(at) at random pole-free (a, t).

    The residual is relative to max(1, |a e_{q,w}(at)|): on the sampled
    (a, t) the exponential reaches about 4e4 at q = 0.9, where an absolute
    residual would judge rounding of the value itself.
    """
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
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def _odd_part(params: DeformationParams, rng: random.Random) -> float:
    """Odd part of e_{1/q}: the two summation paths of odd_part_qinv agree."""
    lhs, rhs = odd_part_qinv(rng.uniform(-2.0, 2.0), params.q)
    return abs(lhs - rhs)


def _kernel_resummation(params: DeformationParams, rng: random.Random) -> float:
    """Driven-response kernel: iteration sum equals odd-power resummation.

    A finite identity, checked for random z in [-0.6, 0.6] (every factor
    1 - q^j z then stays at least 0.4 away from zero) and depths up to 25.
    """
    n_steps = rng.randint(1, 25)
    z = rng.uniform(-0.6, 0.6)
    lhs = gravity_kernel_iteration_sum(z, params.q, n_steps)
    rhs = gravity_kernel_resummed(z, params.q, n_steps)
    return abs(lhs - rhs)


# The order of the rows is the order of verify's report.
_CHECKS: tuple[
    tuple[str, Callable[[DeformationParams, random.Random], float], float], ...
] = (
    ("leibniz-rule", _leibniz, 1e-10),
    ("quotient-rule", _quotient, 1e-10),
    ("power-rule", _power_rule, 1e-10),
    ("shifted-power-rule", _shifted_power_rule, 1e-10),
    ("lattice-polynomial-derivative", _lattice_polynomial_derivative, 1e-10),
    ("q-number-sum", _q_number_sum, 1e-12),
    ("weighted-q-number-sum", _weighted_q_number_sum, 1e-12),
    ("exp-eigenfunction", _exp_eigenfunction, 1e-10),
    ("exp-qinv-odd-part", _odd_part, 1e-12),
    ("drag-kernel-resummation", _kernel_resummation, 1e-10),
)


def run_suite(
    seed: int = 0,
    q_grid: Sequence[float] = DEFAULT_Q_GRID,
    tol: float | None = None,
) -> list[IdentityResult]:
    """Run every identity check over the grid of q_grid by DEFAULT_W_GRID.

    Each identity draws _CASES randomized cases, spread evenly over the grid
    (rounded up per grid point).  tol, when given, overrides every
    identity's default tolerance; otherwise each identity keeps its own.
    Results are deterministic in (seed, q_grid).
    """
    if not q_grid:
        raise ValueError("q_grid must be non-empty")
    grid = [DeformationParams(q, w) for q in q_grid for w in DEFAULT_W_GRID]
    per_point = max(1, math.ceil(_CASES / len(grid)))
    results = []
    for name, case, default_tol in _CHECKS:
        rng = random.Random(f"{seed}:{name}")
        worst = 0.0
        for params in grid:
            for _ in range(per_point):
                worst = max(worst, case(params, rng))
        results.append(
            IdentityResult(
                name=name,
                max_residual=worst,
                tolerance=default_tol if tol is None else tol,
                cases=per_point * len(grid),
            )
        )
    return results
