"""Triplet calculus for integral mappings: characteristic functions, the
defining semigroup identity, Gaussian and drift scaling, composition."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import levyarc as la
from levyarc.errors import GridMismatch, MalformedMeasure
from levyarc.mappings import char_exponent, gauss_tail, gauss_tail_inverse, integrand
from levyarc.quadrature import adaptive_quad

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# triplet construction
# ---------------------------------------------------------------------------

def test_triplet_requires_symmetric_psd_sigma(delta1):
    with pytest.raises(MalformedMeasure):
        la.Triplet([[1.0, 0.5], [0.0, 1.0]], la.PolarMeasure.zero(2), [0.0, 0.0])
    with pytest.raises(MalformedMeasure):
        la.Triplet([[-1.0]], la.PolarMeasure.zero(1), [0.0])


def test_triplet_requires_levy_measure():
    bad = la.half_line_measure(density=la.ExpPowerDensity(1.0, -3.2, 1.0, 1.0))
    with pytest.raises(MalformedMeasure):
        la.Triplet([[0.0]], bad, [0.0])


def test_triplet_json_round_trip(poisson_triplet):
    back = la.Triplet.from_json(poisson_triplet.to_json())
    z = (1.3,)
    assert la.char_fn(back, z) == pytest.approx(la.char_fn(poisson_triplet, z))


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def test_gaussian_char_fn(gaussian_triplet):
    for z in (-2.0, 0.0, 0.7, 3.0):
        want = cmath.exp(-0.5 * z * z)
        assert abs(la.char_fn(gaussian_triplet, (z,)) - want) < 1e-12


def test_poisson_char_fn(poisson_triplet):
    # drift 1/2 exactly cancels the jump centering of the unit atom, leaving
    # the standard Poisson(1) characteristic function
    for z in (-2.0, 0.3, 1.7):
        want = cmath.exp(cmath.exp(1j * z) - 1.0)
        assert abs(la.char_fn(poisson_triplet, (z,)) - want) < 1e-10


@given(st.floats(-8.0, 8.0))
def test_char_fn_modulus_and_symmetry(z):
    t = la.Triplet([[0.25]], la.half_line_measure(atoms=[(1.0, 0.5), (0.3, 1.0)]), [0.1])
    v = la.char_fn(t, (z,))
    w = la.char_fn(t, (-z,))
    assert abs(v) <= 1.0 + 1e-12
    assert abs(v - w.conjugate()) < 1e-10


def test_char_exponent_vanishes_at_origin(poisson_triplet):
    assert la.char_fn(poisson_triplet, (0.0,)) == pytest.approx(1.0)
    assert abs(char_exponent(poisson_triplet, (0.0,))) < 1e-14


# ---------------------------------------------------------------------------
# the defining identity of the integral mapping: the output characteristic
# exponent is the time integral of the input exponent along the integrand
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["cos_pi_half", "log_sqrt"])
def test_mapping_defining_identity(name, gaussian_triplet, poisson_triplet):
    spec = integrand(name)
    singular = name == "log_sqrt"  # f blows up at t -> 0
    for t in (gaussian_triplet, poisson_triplet):
        out = la.transform_triplet(t, name)
        for z in (-3.0, 0.5, 2.0, 5.0):
            lhs = char_exponent(out, (z,))
            re = adaptive_quad(lambda s: char_exponent(t, (spec.f(s) * z,)).real,
                               0.0, spec.T, abs_tol=1e-9, singular_left=singular)
            im = adaptive_quad(lambda s: char_exponent(t, (spec.f(s) * z,)).imag,
                               0.0, spec.T, abs_tol=1e-9, singular_left=singular)
            assert abs(lhs - complex(re, im)) <= 1e-6


# ---------------------------------------------------------------------------
# structure of the transformed triplet
# ---------------------------------------------------------------------------

def test_gaussian_part_scales_by_squared_integral(gaussian_triplet):
    out = la.transform_triplet(gaussian_triplet, "cos_pi_half")
    assert out.Sigma[0][0] == pytest.approx(0.5, abs=1e-12)


def test_pure_drift_scales_by_integral():
    t = la.Triplet([[0.0]], la.PolarMeasure.zero(1), [1.7])
    out = la.transform_triplet(t, "cos_pi_half")
    assert out.gamma[0] == pytest.approx(1.7 * 2.0 / math.pi, abs=1e-12)
    assert out.nu.is_zero


def test_levy_part_matches_direct_mixture(poisson_triplet):
    out = la.transform_triplet(poisson_triplet, "cos_pi_half")
    direct = la.arcsine2(poisson_triplet.nu)
    d_out = out.nu.components[0][1].density
    d_ref = direct.components[0][1].density
    for r in np.geomspace(0.05, 0.95, 9):
        assert abs(d_out.value(float(r)) - d_ref.value(float(r))) <= 1e-8


def test_zero_levy_measure_stays_zero(gaussian_triplet):
    out = la.transform_triplet(gaussian_triplet, "log_sqrt")
    assert out.nu.is_zero


def _atom_triplet():
    nu = la.half_line_measure(atoms=[(0.7, 0.3)], density=la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0))
    return la.Triplet([[0.4]], nu, [0.25])


def _step_spec(name, levels):
    # f takes each level on an equal share of [0, 1]; tau has one atom per level
    n = len(levels)
    return la.IntegrandSpec(
        name, 1.0, lambda s: np.asarray(levels)[np.minimum((np.asarray(s) * n).astype(int), n - 1)],
        sum(levels) / n, sum(c * c for c in levels) / n,
        lambda: la.RadialComponent(tuple((c, 1.0 / n) for c in levels)))


def test_transform_triplet_with_dilation_atom_at_one_is_identity():
    t = _atom_triplet()
    out = la.transform_triplet(t, _step_spec("one", [1.0]))
    assert out.gamma[0] == t.gamma[0]
    assert out.Sigma[0][0] == t.Sigma[0][0]


def test_transform_triplet_with_dilation_atoms_matches_scaling():
    # f = 1/2 on [0, 1]: the integral is X_1 / 2, so its exponent at z is X's at z/2
    t = _atom_triplet()
    out = la.transform_triplet(t, _step_spec("half", [0.5]))
    for z in (0.4, 1.3, -3.0):
        assert char_exponent(out, [z]) == pytest.approx(char_exponent(t, [0.5 * z]),
                                                        rel=1e-12, abs=1e-12)
    # a step with levels 1 and 2: the drift is the previous version's value
    out = la.transform_triplet(t, _step_spec("step", [1.0, 2.0]))
    assert out.gamma[0] == pytest.approx(0.06969045672383528, rel=1e-12)
    assert out.Sigma[0][0] == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# integrand catalog
# ---------------------------------------------------------------------------

def test_integrand_lookup_and_unknown():
    assert integrand("cos_pi_half").T == 1.0
    with pytest.raises(ValueError):
        integrand("warp_drive")


def test_cos_integrand_values():
    spec = integrand("cos_pi_half")
    assert spec.f(0.0) == pytest.approx(1.0)
    assert spec.f(1.0) == pytest.approx(0.0, abs=1e-15)


@given(st.floats(1e-6, SQRT_PI / 2.0 - 1e-9))
def test_gauss_tail_inverse_round_trip(t):
    assert abs(gauss_tail(gauss_tail_inverse(t)) - t) <= 1e-10


def test_gauss_tail_inverse_domain():
    with pytest.raises(ValueError):
        gauss_tail_inverse(SQRT_PI)
    with pytest.raises(ValueError):
        gauss_tail_inverse(0.0)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_order_independence(delta1):
    t = la.Triplet([[0.0]], delta1, [0.0])
    a = la.compose_g(t)
    b = la.compose_g_reversed(t)
    assert abs(a.Sigma[0][0] - b.Sigma[0][0]) <= 1e-5
    assert abs(a.gamma[0] - b.gamma[0]) <= 1e-5
    da = a.nu.components[0][1].density
    db = b.nu.components[0][1].density
    for r in np.geomspace(0.1, 2.0, 7):
        assert abs(da.value(float(r)) - db.value(float(r))) <= 1e-5


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_char_fn_grid_and_mismatch(poisson_triplet):
    zs = [(float(z),) for z in np.linspace(-2, 2, 5)]
    g1 = la.char_fn_grid(poisson_triplet, zs)
    g2 = la.char_fn_grid(poisson_triplet, [(0.0,), (1.0,)])
    with pytest.raises(GridMismatch):
        la.cf_distance(g1, g2)
    assert la.cf_distance(g1, g1) == 0.0


def test_char_fn_grid_csv_has_full_precision(poisson_triplet):
    zs = [(0.3,), (1.0,)]
    g = la.char_fn_grid(poisson_triplet, zs)
    text = g.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "z1,re,im"
    z, re, im = lines[1].split(",")
    v = la.char_fn(poisson_triplet, (0.3,))
    assert float(re) == v.real and float(im) == v.imag


def test_char_exponent_on_an_array_of_points():
    # one batch over all points equals the point-by-point exponents
    nu = la.half_line_measure(atoms=[(1.0, 0.5)], density=la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0))
    t = la.Triplet([[0.3]], nu, [0.2])
    zs = np.array([[0.0], [0.5], [-1.3], [4.0]])
    got = char_exponent(t, zs)
    assert got.shape == (4,)
    for z, v in zip(zs, got):
        assert v == char_exponent(t, z)
    assert char_exponent(t, [0.0]) == 0.0
    with pytest.raises(ValueError):
        char_exponent(t, np.zeros((3, 2)))
