"""Adaptive quadrature: exact values, singular endpoints, break points,
truncation radii, and the batched engine."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levyarc.errors import QuadratureNonConvergence
from levyarc import quadrature
from levyarc.quadrature import (CHUNK_INTERVALS, _partition, adaptive_quad,
                                exp_tail_radius, geometric_grid, quad_batch)


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
                     abs_tol=1e-12, blowups=c[:, None])
    assert np.all(np.abs(got - 2.0 * (np.sqrt(c) + np.sqrt(1.0 - c))) < 1e-11)
    # int_a^b ((x - a)(b - x))^(-1/2) dx = pi on ranges of their own, with
    # blowups at both ends
    a = np.array([0.0, 1.0, -3.0])
    b = np.array([1.0, 5.0, -2.5])
    got = quad_batch(lambda x, k: 1.0 / np.sqrt((x - a[k]) * (b[k] - x)), a.size, a, b,
                     abs_tol=1e-12, blowups=np.stack([a, b], axis=1))
    assert np.all(np.abs(got - math.pi) < 1e-11)


def test_batch_break_points_resolve_kinks():
    knots = np.array([i / 64.0 for i in range(1, 64)])
    f = lambda x, k: np.min(np.abs(x[:, None] - knots[None, :]), axis=1)
    got = quad_batch(f, 1, 0.0, 1.0, abs_tol=1e-10, points=knots)
    assert abs(got[0] - (62.0 / 16384.0 + 2.0 * 0.5 / 4096.0)) < 1e-12


def test_batch_empty_ranges_are_zero():
    got = quad_batch(lambda x, k: np.ones_like(x), 3, [0.0, 2.0, 3.0], [1.0, 2.0, 1.0])
    assert got.tolist() == [1.0, 0.0, 0.0]
    got = quad_batch(lambda x, k: np.ones_like(x), 2, 3.0, 1.0, blowups=np.array([3.0]))
    assert got.tolist() == [0.0, 0.0]


def test_batch_result_independent_of_company():
    # an integral's subdivision depends only on itself, so it comes out
    # bit for bit the same alone and inside any batch
    c = np.array([0.3, 1.7, 4.0, 11.0])
    f = lambda x, k: np.cos(c[k] * x) / np.sqrt(x)
    zero = np.array([0.0])
    batch = quad_batch(f, c.size, 0.0, 3.0, abs_tol=1e-12, blowups=zero)
    for k in range(c.size):
        alone = quad_batch(lambda x, j: np.cos(c[k] * x) / np.sqrt(x), 1, 0.0, 3.0,
                           abs_tol=1e-12, blowups=zero)
        assert alone[0] == batch[k]
    # every input form at once: per-integral break points padded with NaN,
    # blowups at either end and inside (absent for some integrals), infinite
    # upper limits and mixed tolerances, in a batch of more than
    # CHUNK_INTERVALS initial subintervals
    f, n, a, b, kw = _mixed_batch()
    assert n * kw["points"].shape[1] > CHUNK_INTERVALS
    batch = quad_batch(f, n, a, b, **kw)
    for k in range(n):
        alone = quad_batch(lambda x, j: f(x, np.full_like(j, k)), 1, a[k], b[k],
                           **{key: v[k] if key == "abs_tol" else v[k:k + 1] for key, v in kw.items()})
        assert alone[0] == batch[k], k
    # the same integrals with every argument shared but f
    shared = quad_batch(lambda x, k: np.cos((1.0 + k) * x) / np.sqrt(x), 600, 0.0, 3.0,
                        abs_tol=1e-12, blowups=zero, points=np.array([1.0, 2.0]))
    for k in (0, 7, 599):
        alone = quad_batch(lambda x, j: np.cos((1.0 + k) * x) / np.sqrt(x), 1, 0.0, 3.0,
                           abs_tol=1e-12, blowups=zero, points=np.array([1.0, 2.0]))
        assert alone[0] == shared[k]


def test_qk21_sums_do_not_depend_on_the_batch():
    # more than CHUNK_INTERVALS initial cells of every piece kind: each
    # cell's value and error come out bit for bit as they do alone (whole
    # integrals: test_batch_result_independent_of_company), and the
    # einsum contraction is the plain sum over the 21 weighted nodes to
    # within 4 units of roundoff of the sum of their absolute values
    rng = np.random.default_rng(7)
    n = 120
    a = rng.uniform(0.0, 1.0, n)
    b = a + rng.uniform(0.5, 2.0, n)
    b[::4] = math.inf
    sl = rng.random(n) < 0.5
    sr = (rng.random(n) < 0.5) & np.isfinite(b)
    points = a[:, None] + rng.uniform(0.0, 0.5, (n, 3))
    blowups = np.where(np.stack([sl, sr], axis=1), np.stack([a, b], axis=1), np.nan)
    own, cells, kinds = _partition(a, b, points, blowups)
    assert own.size > CHUNK_INTERVALS and kinds == [0, 1, 2, 3]
    c = rng.uniform(0.5, 2.0, n)
    f = lambda x, k: np.exp(-c[k] * x) * (1.0 + np.sin(x))
    val, err = quadrature._gk21(f, own, cells, kinds)
    for i in range(0, own.size, 7):
        alone = quadrature._gk21(f, own[i:i + 1], cells[:, i:i + 1], [int(cells[3, i])])
        assert (alone[0][0], alone[1][0]) == (val[i], err[i]), i
    lo, hi = cells[0], cells[1]
    half = 0.5 * (hi - lo)
    x, jac = quadrature._map(0.5 * (lo + hi)[:, None] + half[:, None] * quadrature._X21,
                             cells[3], cells[2], kinds)
    fv = f(x.ravel(), own.repeat(21)).reshape(x.shape) * jac
    plain = np.add.reduce(fv * quadrature._WK21, 1) * half
    size = np.add.reduce(np.abs(fv) * quadrature._WK21, 1) * half
    assert np.all(np.abs(val - plain) <= 4.0 * np.finfo(float).eps * size)


def _reference_cells(a, b, points, blowups):
    """The initial cells (kind, anchor, lo, hi) of one integral, built piece
    by piece in plain Python under quad_batch's rule: a blowup within 1e-12
    (relative) of an end maps that end, and one further inside cuts the
    range unless it is within 1e-12 of the cut before."""
    sl = any(abs(c - a) <= 1e-12 * abs(c) for c in blowups)
    sr = any(abs(c - b) <= 1e-12 * abs(c) for c in blowups)
    cuts = []
    for c in sorted(blowups):
        tol = 1e-12 * abs(c)
        if c - a > tol and b - c > tol and (not cuts or c - cuts[-1] > tol):
            cuts.append(c)
    edges = [a] + cuts + [b]
    out = []
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        left, right = sl or i > 0, sr or i < len(edges) - 2
        if math.isinf(hi):
            cut = lo + max(1.0, abs(lo))
            pieces = ([(1, lo, 0.0, math.sqrt(cut - lo)), (3, cut, cut, hi)] if left
                      else [(3, lo, lo, hi)])
        elif not (left or right):
            pieces = [(0, lo, lo, hi)]
        else:
            mid = 0.5 * (lo + hi)
            pieces = [(1, lo, 0.0, math.sqrt(mid - lo)) if left else (0, lo, lo, mid),
                      (2, hi, 0.0, math.sqrt(hi - mid)) if right else (0, mid, mid, hi)]
        for kind, anc, p_lo, p_hi in pieces:
            pts = np.asarray(points, float)
            t = (np.sqrt(pts[pts > anc] - anc) if kind == 1 else
                 np.sqrt(anc - pts[pts < anc]) if kind == 2 else pts)
            t = np.sort(t[(t > p_lo) & (t < p_hi)])
            ends = np.concatenate(([p_lo], t, [p_hi]))
            if kind == 3:
                d = ends[:-1] - anc
                ends = np.append(d / (1.0 + d), 1.0)
            out += [(kind, anc, x, y) for x, y in zip(ends[:-1], ends[1:])]
    return out


def test_partition_matches_the_per_integral_loop():
    # ranges of every kind, tiny and unbounded, with break points and
    # blowups at the ends, within 1e-12 of them, at the midpoint and on top
    # of each other
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        a = rng.choice([0.0, -1.0, 0.5, 2.0], n) * rng.random(n)
        b = a + rng.choice([1e-12, 0.3, 1.0, 5.0, math.inf], n)
        points, blowups = np.full((n, 5), np.nan), np.full((n, 4), np.nan)
        for k in range(n):
            top = b[k] if math.isfinite(b[k]) else a[k] + 10.0
            cand = np.concatenate([rng.uniform(a[k] - 0.5, top + 0.5, 4),
                                   [a[k], b[k], 0.5 * (a[k] + b[k]), a[k] + max(1.0, abs(a[k]))]])
            near = [a[k] * (1.0 + 5e-13), top * (1.0 - 5e-13)]
            m, mb = int(rng.integers(0, 6)), int(rng.integers(0, 5))
            points[k, :m] = rng.choice(cand, m)
            blowups[k, :mb] = rng.choice(np.concatenate([cand[np.isfinite(cand)], near]), mb)
        own, cells, _ = _partition(a, b, points, blowups)
        for k in range(n):
            want = _reference_cells(a[k], b[k], points[k][~np.isnan(points[k])],
                                    blowups[k][~np.isnan(blowups[k])])
            got = [tuple(c) for c in cells[[3, 2, 0, 1]][:, own == k].T.tolist()]
            assert got == [tuple(map(float, c)) for c in want]


def _mixed_batch():
    """An integrand and the arguments of a batch of integrable integrals
    that covers every form quad_batch accepts."""
    rng = np.random.default_rng(5)
    n = 40
    a = rng.uniform(0.0, 1.0, n)
    b = a + rng.uniform(0.5, 3.0, n)
    b[::4] = math.inf
    sl = rng.random(n) < 0.5
    sr = (rng.random(n) < 0.5) & np.isfinite(b)
    d = a + rng.uniform(0.1, 0.4, n)
    blowups = np.stack([np.where(sl, a, np.nan), np.where(sr, b, np.nan), d], axis=1)
    blowups[1::5, 2] = np.nan
    points = np.full((n, 30), np.nan)
    for k in range(n):
        m = int(rng.integers(0, 31))
        points[k, :m] = rng.uniform(a[k], min(b[k], a[k] + 3.0), m)
    c = rng.uniform(0.5, 3.0, n)
    blown = ~np.isnan(blowups[:, 2])

    def f(x, k):
        out = np.cos(c[k] * x) * np.exp(-x)
        out = np.where(blown[k], out / np.sqrt(np.abs(x - d[k])), out)
        out = np.where(sl[k], out / np.sqrt(x - a[k]), out)
        return np.where(sr[k], out / np.sqrt(np.where(sr[k], b[k] - x, 1.0)), out)

    kw = dict(abs_tol=np.where(rng.random(n) < 0.5, 1e-9, 1e-10), points=points, blowups=blowups)
    return f, n, a, b, kw


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
