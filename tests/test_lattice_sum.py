"""The two routes of the lattice sum behind hahn_integral and iterate_first_order.

The kink tests pin the probe guard: an integrand with a kink near w0 looks
linear at the extrapolation nodes, and without the probes the extrapolated
route accepts a wrong tail.  Their reference is exact, in rationals.
"""

import math
from fractions import Fraction

import pytest

from hahncalc import core
from hahncalc import (
    DeformationParams,
    NonConvergentError,
    TruncationPolicy,
    hahn_integral,
    iterate_first_order,
)


def quadratic(s):
    return 0.4 + s * (-0.3 + s * 0.8)


def counted(f):
    """f with a list of the points it was evaluated at."""
    points = []

    def wrapper(s):
        points.append(s)
        return f(s)

    return wrapper, points


@pytest.fixture
def extrapolated_calls(monkeypatch):
    """Record each call of the extrapolated route."""
    calls = []
    original = core._lattice_extrapolated

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(core, "_lattice_extrapolated", spy)
    return calls


def kink_integral(c, t, q):
    """Exact Hahn integral at w = 0 of |s - c| from 0 to t > c > 0, for floats t, q, c.

    With K the first k with q^k t < c, sum_k q^k |q^k t - c| is
    t (1 - 2 q^(2K))/(1 - q^2) - c (1 - 2 q^K)/(1 - q).
    """
    q, t, c = Fraction(q), Fraction(t), Fraction(c)
    power, point = Fraction(1), t
    while point >= c:
        power *= q
        point *= q
    total = t * (1 - 2 * power**2) / (1 - q**2) - c * (1 - 2 * power) / (1 - q)
    return (1 - q) * t * total


@pytest.mark.parametrize("t", [0.7, 1.3, 1.9])
@pytest.mark.parametrize("q", [0.9, 0.99])
@pytest.mark.parametrize("c", [0.05, 0.3])
def test_kink_near_fixed_point_is_not_extrapolated_past(c, q, t):
    value = hahn_integral(lambda s: abs(s - c), t, DeformationParams(q=q))
    ref = kink_integral(c, t, q)
    assert float(abs(Fraction(value) - ref) / max(1, abs(ref))) < 1e-12


@pytest.mark.parametrize(
    "f, q, extrapolated",
    [
        (quadratic, 0.5, False),  # q <= 1/2: a block would hold one term
        (quadratic, 0.99, True),
        (lambda s: s - 1.3, 0.99, False),  # f(t) = 0 gives no term-count estimate
    ],
)
def test_route_choice(f, q, extrapolated, extrapolated_calls):
    hahn_integral(f, 1.3, DeformationParams(q=q, w=0.1))
    assert bool(extrapolated_calls) == extrapolated


def test_extrapolated_route_needs_a_fifth_of_the_plain_evaluations(monkeypatch):
    params = DeformationParams(q=0.99, w=0.1)
    f, points = counted(quadratic)
    extrapolated = hahn_integral(f, 1.3, params)
    used = len(points)
    points.clear()
    monkeypatch.setattr(core, "LATTICE_EXTRAPOLATION_COST", math.inf)
    plain = hahn_integral(f, 1.3, params)
    assert used < len(points) / 5
    assert extrapolated == pytest.approx(plain, rel=1e-12)


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
def test_iteration_steps_count_every_evaluation(q):
    params = DeformationParams(q=q, w=0.1)
    rhs, points = counted(quadratic)
    report = iterate_first_order(rhs, 1.3, params, 0.0)
    assert report.steps == len(points)
    # Only the first K increments were summed; the extrapolated tail starts
    # at a block boundary before the probes.
    summed = round(math.log(report.residual / abs(1.3 - params.w0)) / math.log(q))
    block = math.ceil(math.log(0.5) / math.log(q))
    assert summed % block == 0
    assert summed < report.steps
    assert report.residual == pytest.approx(q**summed * abs(1.3 - params.w0), rel=1e-12)


def test_budget_counts_summed_and_probed_evaluations():
    params = DeformationParams(q=0.99, w=0.1)
    used = iterate_first_order(quadratic, 1.3, params, 0.0).steps
    enough = iterate_first_order(quadratic, 1.3, params, 0.0, TruncationPolicy(max_terms=used))
    assert enough.steps == used
    with pytest.raises(NonConvergentError):
        iterate_first_order(quadratic, 1.3, params, 0.0, TruncationPolicy(max_terms=used - 1))
    with pytest.raises(NonConvergentError):
        hahn_integral(quadratic, 1.3, params, TruncationPolicy(max_terms=used - 1))
