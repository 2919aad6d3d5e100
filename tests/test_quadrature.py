"""Adaptive quadrature: exact values, singular endpoints, break points,
truncation radii, and the batched engine."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levyarc.errors import QuadratureNonConvergence
from levyarc.quadrature import (adaptive_quad, exp_tail_radius,
                                geometric_grid, quad_batch)


def test_polynomial_exact():
    got = adaptive_quad(lambda x: x * x, 0.0, 1.0, abs_tol=1e-12)
    assert abs(got - 1.0 / 3.0) < 1e-12


def test_infinite_upper_limit():
    got = adaptive_quad(lambda x: math.exp(-x), 0.0, math.inf, abs_tol=1e-12)
    assert abs(got - 1.0) < 1e-11


def test_left_square_root_singularity():
    got = adaptive_quad(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0,
                        abs_tol=1e-12, singular_left=True)
    assert abs(got - 2.0) < 1e-11


def test_right_square_root_singularity():
    got = adaptive_quad(lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0,
                        abs_tol=1e-12, singular_right=True)
    assert abs(got - 2.0) < 1e-11


def test_both_endpoints_singular():
    # int_0^1 (x(1-x))^(-1/2) dx = pi
    got = adaptive_quad(lambda x: 1.0 / math.sqrt(x * (1.0 - x)), 0.0, 1.0,
                        abs_tol=1e-12, singular_left=True, singular_right=True)
    assert abs(got - math.pi) < 1e-11


def test_singular_left_with_infinite_tail():
    # int_0^oo x^(-1/2) e^(-x) dx = Gamma(1/2) = sqrt(pi)
    got = adaptive_quad(lambda x: math.exp(-x) / math.sqrt(x), 0.0, math.inf,
                        abs_tol=1e-12, singular_left=True)
    assert abs(got - math.sqrt(math.pi)) < 1e-11


def test_break_points_resolve_kinks():
    # |x - 0.3| has a kink; with the break point the result is exact
    got = adaptive_quad(lambda x: abs(x - 0.3), 0.0, 1.0,
                        abs_tol=1e-13, points=[0.3])
    want = 0.5 * (0.3 ** 2 + 0.7 ** 2)
    assert abs(got - want) < 1e-12


def test_break_points_survive_singular_substitution():
    # kink at 0.3 inside a piece with a left endpoint singularity: the break
    # point must be mapped through the square root substitution
    f = lambda x: abs(x - 0.3) / math.sqrt(x)
    got = adaptive_quad(f, 0.0, 1.0, abs_tol=1e-12,
                        singular_left=True, points=[0.3])
    # int_0^1 |x-a| x^(-1/2) dx with a=0.3, split at a:
    #   int_0^a (a-x)x^(-1/2) + int_a^1 (x-a)x^(-1/2)
    a = 0.3
    left = 2.0 * a * math.sqrt(a) - (2.0 / 3.0) * a ** 1.5
    right = (2.0 / 3.0) * (1.0 - a ** 1.5) - 2.0 * a * (1.0 - math.sqrt(a))
    assert abs(got - (left + right)) < 1e-11


def test_many_break_points_raise_subinterval_budget():
    # a dense piecewise integrand with one break per cell converges once the
    # break points are declared, even past the default subdivision limit
    knots = [i / 64.0 for i in range(1, 64)]
    f = lambda x: min(abs(x - k) for k in knots)
    got = adaptive_quad(f, 0.0, 1.0, abs_tol=1e-10, points=knots)
    # 62 interior V segments of area (1/128)^2 plus two edge triangles of
    # area (1/2)(1/64)^2
    want = 62.0 / 16384.0 + 2.0 * 0.5 / 4096.0
    assert abs(got - want) < 1e-9


def test_nonintegrable_raises():
    with pytest.raises(QuadratureNonConvergence):
        adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0, abs_tol=1e-10)


def test_nonconvergence_carries_partial_value():
    try:
        adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0, abs_tol=1e-10,
                      label="divergent probe")
    except QuadratureNonConvergence as e:
        assert "divergent probe" in str(e)
        assert e.partial is not None and e.bound is not None
    else:
        pytest.fail("expected QuadratureNonConvergence")


def test_empty_interval_is_zero():
    assert adaptive_quad(lambda x: 1.0, 2.0, 2.0) == 0.0
    assert adaptive_quad(lambda x: 1.0, 3.0, 2.0) == 0.0


@given(st.floats(0.1, 100.0), st.floats(0.1, 4.0), st.floats(0.25, 2.0),
       st.floats(1e-12, 1e-3))
def test_exp_tail_radius_certifies_envelope(coeff, rate, power, tol):
    R = exp_tail_radius(coeff, rate, power, tol)
    assert R >= 1.0
    assert coeff * math.exp(-rate * R ** power) <= tol * (1.0 + 1e-12)


def test_geometric_grid_shape():
    g = geometric_grid(0.1, 10.0, 4)
    assert len(g) == 9
    assert g[0] == pytest.approx(0.1) and g[-1] == pytest.approx(10.0)
    ratios = [g[i + 1] / g[i] for i in range(len(g) - 1)]
    assert max(ratios) - min(ratios) < 1e-12


# ---------------------------------------------------------------------------
# the batched Gauss-Kronrod engine
# ---------------------------------------------------------------------------

def test_batch_of_parametrised_integrals():
    c = np.array([0.5, 1.0, 2.0, 7.0])
    got = quad_batch(lambda x, k: np.exp(-c[k] * x), c.size, 0.0, math.inf, abs_tol=1e-12)
    assert np.all(np.abs(got - 1.0 / c) < 1e-12)


def test_batch_ranges_flags_and_interior_blowups():
    # int_0^1 |x - c|^(-1/2) dx = 2 (sqrt(c) + sqrt(1 - c)), blowup at c
    c = np.array([0.2, 0.5, 0.9])
    got = quad_batch(lambda x, k: 1.0 / np.sqrt(np.abs(x - c[k])), c.size, 0.0, 1.0,
                     abs_tol=1e-12, blowups=lambda k: [c[k]])
    assert np.all(np.abs(got - 2.0 * (np.sqrt(c) + np.sqrt(1.0 - c))) < 1e-11)
    # int_a^b ((x - a)(b - x))^(-1/2) dx = pi on ranges of their own
    a = np.array([0.0, 1.0, -3.0])
    b = np.array([1.0, 5.0, -2.5])
    got = quad_batch(lambda x, k: 1.0 / np.sqrt((x - a[k]) * (b[k] - x)), a.size, a, b,
                     abs_tol=1e-12, singular_left=True, singular_right=True)
    assert np.all(np.abs(got - math.pi) < 1e-11)


def test_batch_break_points_resolve_kinks():
    knots = np.array([i / 64.0 for i in range(1, 64)])
    f = lambda x, k: np.min(np.abs(x[:, None] - knots[None, :]), axis=1)
    got = quad_batch(f, 1, 0.0, 1.0, abs_tol=1e-10, points=lambda k: knots)
    assert abs(got[0] - (62.0 / 16384.0 + 2.0 * 0.5 / 4096.0)) < 1e-12


def test_batch_empty_ranges_are_zero():
    got = quad_batch(lambda x, k: np.ones_like(x), 3, [0.0, 2.0, 3.0], [1.0, 2.0, 1.0])
    assert got.tolist() == [1.0, 0.0, 0.0]


def test_batch_result_independent_of_company():
    # an integral's subdivision depends only on itself, so it comes out
    # bit for bit the same alone and inside any batch
    c = np.array([0.3, 1.7, 4.0, 11.0])
    f = lambda x, k: np.cos(c[k] * x) / np.sqrt(x)
    batch = quad_batch(f, c.size, 0.0, 3.0, abs_tol=1e-12, singular_left=True)
    for k in range(c.size):
        alone = quad_batch(lambda x, j: np.cos(c[k] * x) / np.sqrt(x), 1, 0.0, 3.0,
                           abs_tol=1e-12, singular_left=True)
        assert alone[0] == batch[k]


def test_batch_nonconvergence_names_lowest_failing_integral():
    # integrals 1 and 3 diverge like 1/x at 0
    p = np.array([0.0, 1.0, 0.5, 1.0])
    with pytest.raises(QuadratureNonConvergence, match="integral 1 of 4") as info:
        quad_batch(lambda x, k: x ** -p[k], p.size, 0.0, 1.0, abs_tol=1e-10,
                   label=lambda k: f"integral {k} of 4")
    assert info.value.partial is not None and info.value.bound is not None


def test_batch_returns_accepted_value_when_refinement_only_adds_noise():
    # pi^(-1/2) (s - x)^(-1/2) (1 - s)^(-1/2) on (x, 1) in the sine map has a
    # constant integrand, except that (1 - s) loses digits as s -> 1; the
    # engine keeps the accepted first estimate instead of chasing the noise
    x = 0.9025
    span = 1.0 - x

    def f(t, k):
        s = x + span * np.sin(t) ** 2
        return 2.0 * np.sqrt(span) * np.cos(t) / np.sqrt(1.0 - s)

    got = quad_batch(f, 1, 0.0, 0.5 * math.pi, abs_tol=1e-12)
    assert abs(got[0] - math.pi) < 1e-11
