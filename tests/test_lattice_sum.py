"""The three routes of the lattice sum behind hahn_integral and iterate_first_order.

The kink and jump tests pin the probe guards.  The Gauss rules never agree
on a kink.  A jump closer to w0 than every Gauss node leaves the rules in
agreement on a sum that misses it, and only the probes see it.  A step that
leaves f zero on the first lattice points is seen only by the plain route's
probes.  Their references are exact, in rationals, as are those of the
polynomial sums up to q = 0.99999.
"""

import math
from fractions import Fraction

import pytest

from hahncalc import core
from hahncalc import (
    DeformationParams,
    KinematicState,
    NonConvergentError,
    TruncationPolicy,
    accel_quotient_velocity,
    hahn_integral,
    iterate_first_order,
    position_at_fixed_point,
)

# A trajectory whose anchor x(w0), about 5000 at q = 0.99 and w = 1, cancels
# against the lattice sum down to x(t) of about 1: the Gauss route declines
# it for its rounding, and the head-and-tail route sums it.
ANCHORED_STATE = KinematicState(x0=0.0, v0=0.0, a=1.0)


def quadratic(s):
    return 0.4 + s * (-0.3 + s * 0.8)


def counted(f):
    """f with a list of the points it was evaluated at."""
    points = []

    def wrapper(s):
        points.append(s)
        return f(s)

    return wrapper, points


def spy_on(monkeypatch, name):
    """Record the results of each call of the core function name."""
    results = []
    original = getattr(core, name)

    def spy(*args):
        result = original(*args)
        results.append(result)
        return result

    monkeypatch.setattr(core, name, spy)
    return results


@pytest.fixture
def gauss_calls(monkeypatch):
    """The results (sum, evaluations) of the Gauss route; a declined call's sum is None."""
    return spy_on(monkeypatch, "_lattice_gauss")


def exact_polynomial_sum(coeffs, t, q, w):
    """Exact Hahn integral from w0 to t of sum_j c_j s^j, for floats coeffs, t, q, w.

    With d = t - w0 the sum (1 - q) d sum_k q^k f(w0 + q^k d) is
    (1 - q) d sum_j c_j sum_i C(j, i) w0^(j-i) d^i / (1 - q^(i+1)).
    """
    q, t, w = Fraction(q), Fraction(t), Fraction(w)
    w0 = w / (1 - q)
    d = t - w0
    total = sum(
        Fraction(c) * math.comb(j, i) * w0 ** (j - i) * d**i / (1 - q ** (i + 1))
        for j, c in enumerate(coeffs)
        for i in range(j + 1)
    )
    return (1 - q) * d * total


def rel_gap(value, ref):
    return float(abs(Fraction(value) - ref) / max(1, abs(ref)))


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


def jump_integral(c, t, q):
    """Exact Hahn integral at w = 0 of 2 for s < c and 1 otherwise, from 0 to t > c > 0.

    With K the first k with q^k t < c, sum_k q^k f(q^k t) is (1 + q^K)/(1 - q).
    """
    q, t, c = Fraction(q), Fraction(t), Fraction(c)
    power, point = Fraction(1), t
    while point >= c:
        power *= q
        point *= q
    return t * (1 + power)


@pytest.mark.parametrize("t", [0.7, 1.3])
@pytest.mark.parametrize("q", [0.9, 0.99])
def test_jump_between_the_gauss_nodes_is_caught_by_the_probes(q, t):
    # The jump sits at r = 1e-3 / t, below every node of the 4- and 8-point
    # rules; they agree on 1 everywhere and miss 1e-3 of the sum.
    value = hahn_integral(lambda s: 2.0 if s < 1e-3 else 1.0, t, DeformationParams(q=q))
    ref = jump_integral(1e-3, t, q)
    assert float(abs(Fraction(value) - ref) / max(1, abs(ref))) < 1e-12


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_zero_prefix_is_not_taken_for_a_zero_sum(q):
    # f is 0 on the first lattice points from t = 1.9 and 1 once they pass
    # below 0.3, so the plain rule meets three zero terms first.  The exact
    # sum is 1.9 q^K, with K the first k with q^k 1.9 < 0.3.
    value = hahn_integral(lambda s: 1.0 if s < 0.3 else 0.0, 1.9, DeformationParams(q=q))
    ref = jump_integral(0.3, 1.9, q) - Fraction(1.9)
    assert rel_gap(value, ref) < 1e-12


@pytest.mark.parametrize(
    "f, q, gauss",
    [
        (quadratic, 0.5, False),  # q <= 1/2: a block would hold one term
        (quadratic, 0.99, True),
        (lambda s: s - 1.3, 0.99, False),  # f(t) = 0 gives no term-count estimate
    ],
)
def test_route_choice(f, q, gauss, gauss_calls):
    hahn_integral(f, 1.3, DeformationParams(q=q, w=0.1))
    assert any(total is not None for total, _ in gauss_calls) == gauss


@pytest.mark.parametrize("anchored", [False, True])
def test_anchor_decides_between_gauss_and_head_tail(anchored, gauss_calls, monkeypatch):
    head_tail = spy_on(monkeypatch, "_lattice_head_tail")
    params = DeformationParams(q=0.99, w=1.0)
    rhs = accel_quotient_velocity(ANCHORED_STATE, params)
    x_w0 = position_at_fixed_point(ANCHORED_STATE, params) if anchored else 0.0
    iterate_first_order(rhs, 1.3, params, x_w0)
    assert bool(head_tail) == anchored
    if anchored:
        # Declined for its rounding on the first rule, before any doubling;
        # the tail past the head is then taken by the rules.
        [(declined, spent), (tail, _)] = gauss_calls
        assert declined is None
        assert spent == core.GAUSS_NODES[0]
        assert tail is not None
    else:
        [(total, _)] = gauss_calls
        assert total is not None


def test_head_tail_route_needs_a_fifth_of_the_plain_evaluations(monkeypatch):
    # The anchored sum, which the Gauss route declines after its first rule.
    params = DeformationParams(q=0.99, w=1.0)
    x_w0 = position_at_fixed_point(ANCHORED_STATE, params)
    rhs, points = counted(accel_quotient_velocity(ANCHORED_STATE, params))
    head_tail = iterate_first_order(rhs, 1.3, params, x_w0).value
    used = len(points)
    points.clear()
    monkeypatch.setattr(core, "LATTICE_LONG_SUM", math.inf)
    plain = iterate_first_order(rhs, 1.3, params, x_w0).value
    assert used < len(points) / 5
    assert head_tail == pytest.approx(plain, rel=1e-12)


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
def test_iteration_steps_count_every_evaluation(q):
    params = DeformationParams(q=q, w=0.1)
    rhs, points = counted(quadratic)
    # Unanchored, the Gauss route sums no increment term by term: K = 0.
    report = iterate_first_order(rhs, 1.3, params, 0.0)
    assert report.steps == len(points)
    assert report.residual == abs(1.3 - params.w0)
    # Anchored to cancel, the head-and-tail route sums the first
    # K = ceil(3/(1 - q)) increments and takes the tail by the Gauss rules.
    points.clear()
    x_w0 = -report.value * (1.0 - 1e-3)
    report = iterate_first_order(rhs, 1.3, params, x_w0)
    assert report.steps == len(points)
    summed = round(math.log(report.residual / abs(1.3 - params.w0)) / math.log(q))
    assert summed == math.ceil(3.0 / (1.0 - q))
    assert summed < report.steps
    assert report.residual == pytest.approx(q**summed * abs(1.3 - params.w0), rel=1e-12)


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999, 0.9999])
def test_hahn_integral_evaluations_do_not_grow_with_q(q):
    # The extrapolated route took 47, 295, 2789 and 27744 evaluations here.
    f, points = counted(quadratic)
    hahn_integral(f, 1.3, DeformationParams(q=q, w=0.1 * (1.0 - q)))
    assert len(points) < 60


def test_anchored_iteration_keeps_the_extrapolated_bits():
    # The cells of the kinematics iterative route at q = 0.99, w = 1 as the
    # extrapolated route gave them before the Gauss route existed.
    params = DeformationParams(q=0.99, w=1.0)
    rhs = accel_quotient_velocity(ANCHORED_STATE, params)
    x_w0 = position_at_fixed_point(ANCHORED_STATE, params)
    expected = [
        "0x0.0p+0",
        "0x1.0149539e40000p-5",
        "0x1.0149539e38000p-3",
        "0x1.21727e1204000p-2",
        "0x1.0149539e3c000p-1",
        "0x1.920292a73c000p-1",
        "0x1.21727e1203000p+0",
        "0x1.89f8480a4b000p+0",
        "0x1.0149539e3b000p+1",
    ]
    got = [iterate_first_order(rhs, i / 4, params, x_w0).value.hex() for i in range(9)]
    assert got == expected


POLYNOMIALS = [[0.4, -0.3, 0.8], [1.5], [-0.7, 0.25, 1.1, -0.6, 0.3, -0.05]]


@pytest.mark.parametrize("coeffs", POLYNOMIALS)
@pytest.mark.parametrize("q", [0.9, 0.99, 0.999, 0.9999, 0.99999])
def test_polynomial_sums_near_the_classical_limit(q, coeffs):
    # The extrapolated route ran out of max_terms from q of about 0.99998.
    def f(s):
        return sum(c * s**j for j, c in enumerate(coeffs))

    for w0, t in ((0.0, 1.3), (0.0, -0.8), (0.5, 1.7)):
        params = DeformationParams(q=q, w=w0 * (1.0 - q))
        ref = exact_polynomial_sum(coeffs, t, q, params.w)
        assert rel_gap(hahn_integral(f, t, params), ref) < 1e-15
        report = iterate_first_order(f, t, params, 0.0)
        assert rel_gap(report.value, ref) < 1e-15
        assert report.steps < 60


def test_budget_counts_summed_and_probed_evaluations():
    params = DeformationParams(q=0.99, w=0.1)
    used = iterate_first_order(quadratic, 1.3, params, 0.0).steps
    enough = iterate_first_order(quadratic, 1.3, params, 0.0, TruncationPolicy(max_terms=used))
    assert enough.steps == used
    with pytest.raises(NonConvergentError):
        iterate_first_order(quadratic, 1.3, params, 0.0, TruncationPolicy(max_terms=used - 1))
    with pytest.raises(NonConvergentError):
        hahn_integral(quadratic, 1.3, params, TruncationPolicy(max_terms=used - 1))


def test_budget_counts_probes_past_the_stop_and_the_head():
    # The plain route past a failed probe, and the head-and-tail route with
    # the rule declined on the whole sum and the one on its tail.
    params = DeformationParams(q=0.99, w=1.0)
    anchored = accel_quotient_velocity(ANCHORED_STATE, params)
    x_w0 = position_at_fixed_point(ANCHORED_STATE, params)
    cases = [
        (lambda s: 1.0 if s < 0.3 else 0.0, 1.9, DeformationParams(q=0.9), 0.0),
        (anchored, 1.3, params, x_w0),
    ]
    for rhs, t, p, x in cases:
        report = iterate_first_order(rhs, t, p, x)
        assert iterate_first_order(rhs, t, p, x, TruncationPolicy(max_terms=report.steps)) == report
        with pytest.raises(NonConvergentError):
            iterate_first_order(rhs, t, p, x, TruncationPolicy(max_terms=report.steps - 1))


@pytest.mark.parametrize("size", [4, 8, 16, 24, 32])
@pytest.mark.parametrize("q", [0.6, 0.8, 0.9, 0.99, 0.999, 0.99999])
def test_gauss_rule_integrates_monomials(q, size):
    # sum_k q^k (q^k)^j = 1/(1 - q^(j+1)), exact for j < 2 size.  Correctly
    # rounded nodes and weights leave at most about (j + 1)/2 ulp.  A
    # bisection and Christoffel construction in double broke down from q = 0.8,
    # size = 24 on.
    nodes, weights = core._gauss_rule(q, size)
    assert all(0.0 < x < 1.0 for x in nodes)
    assert all(lam > 0.0 for lam in weights)
    exact_q = Fraction(q)
    for j in range(2 * size):
        moment = sum(Fraction(lam) * Fraction(x) ** j for x, lam in zip(nodes, weights))
        exact = 1 / (1 - exact_q ** (j + 1))
        assert abs(moment / exact - 1) < (j + 1) * 2.0**-52
