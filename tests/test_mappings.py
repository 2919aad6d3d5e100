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
from levyarc.mappings import (_centering_defect, _drift, _struve_h0, char_exponent,
                              gauss_tail, gauss_tail_inverse, integrand)
from levyarc.measures import integrate_batch
from levyarc.quadrature import adaptive_quad
from levyarc.transforms import _ChainKernel, _ScaleMixtureKernel

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
    assert out.nu.is_zero()


def test_levy_part_matches_direct_mixture(poisson_triplet):
    out = la.transform_triplet(poisson_triplet, "cos_pi_half")
    direct = la.arcsine2(poisson_triplet.nu)
    d_out = out.nu.components[0][1].density
    d_ref = direct.components[0][1].density
    for r in np.geomspace(0.05, 0.95, 9):
        assert abs(d_out.value(float(r)) - d_ref.value(float(r))) <= 1e-8


def test_zero_levy_measure_stays_zero(gaussian_triplet):
    out = la.transform_triplet(gaussian_triplet, "log_sqrt")
    assert out.nu.is_zero()


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


def test_char_fn_of_a_table_through_a_dilation_with_atoms():
    # f = 2 on [0, 1] and 1/2 on (1, 3]: the integral is 2 X_1 + (X_3 - X_1)/2,
    # so its cf at z is phi(2z) phi(z/2)**2; tau = 2 delta_(1/2) + delta_2
    # copies the table's kinks to u0 x_k, which the radial integral must split at
    table = la.tabulate_density(la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0), 1e-3, 30.0)
    t = la.Triplet([[0.0]], la.half_line_measure(density=table), [0.0])
    spec = la.IntegrandSpec("step", 3.0, lambda s: np.where(np.asarray(s) <= 1.0, 2.0, 0.5),
                            3.0, 4.5, lambda: la.RadialComponent(((0.5, 2.0), (2.0, 1.0))))
    out = la.transform_triplet(t, spec)
    assert set(out.nu.components[0][1].density.kinks()) == {
        u0 * x for u0 in (0.5, 2.0) for x in table.xs}
    for z in (0.3, 1.7, 4.2):
        want = la.char_fn(t, [2.0 * z]) * la.char_fn(t, [0.5 * z]) ** 2
        assert abs(la.char_fn(out, [z]) - want) <= 1e-13


def _mixed_components_triplet():
    # one component of each kind: a single atom, three atoms, atoms with a
    # density, a density alone and a table
    table = la.tabulate_density(la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0), 1e-3, 30.0)
    comps = (
        ((1.0, 0.0), la.RadialComponent(((0.7, 0.3),), None, 0.5)),
        ((0.0, 1.0), la.RadialComponent(((0.2, 1.0), (1.3, 0.4), (3.0, 0.1)), None, 1.2)),
        ((-1.0, 0.0), la.RadialComponent(((0.5, 0.2), (2.0, 0.3)),
                                         la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0), 0.7)),
        ((0.0, -1.0), la.RadialComponent((), la.ExpPowerDensity(0.5, -0.5, 2.0, 1.0), 0.9)),
        ((1.0, 1.0), la.RadialComponent((), table, 0.4)),
    )
    nu = la.PolarMeasure(2, tuple((la.Direction.normalized(d), rc) for d, rc in comps))
    return la.Triplet(0.3 * np.eye(2), nu, [0.2, 0.1])


def _centering_shift(rc, us, abs_tol):
    # int r [ (1+u^2 r^2)^(-1) - (1+r^2)^(-1) ] against one radial measure,
    # for every u of an array, as one batch
    uu = us * us

    def g(r, k):
        with np.errstate(over="ignore"):
            rr = r * r
            return r * (1.0 / (1.0 + uu[k] * rr) - 1.0 / (1.0 + rr))

    return integrate_batch(rc, g, us.size, (0.0, math.inf), abs_tol=abs_tol, g_moment=-1.0)


def _gamma_component_by_component(t, f):
    # the drift as one integral over the dilation measure per component, of
    # the centering shift integrated against nu at each node: the nested
    # route, independent of the drift's integral against nu
    spec = integrand(f)
    corr = np.zeros(t.d)
    for dirn, rc in t.nu.components:
        val = la.integrate(spec.tau(), lambda u: u * _centering_shift(rc, u, 1e-12),
                           (0.0, math.inf), abs_tol=1e-10, g_moment=1.0)
        corr += rc.weight * val * dirn.array
    return spec.lin_integral * t.gamma + corr


def _gamma_drift_component_by_component(t, f):
    # the drift of each component taken against its own nu alone
    spec = integrand(f)
    defect = _centering_defect(spec.tau())
    corr = np.zeros(t.d)
    for dirn, rc in t.nu.components:
        corr += rc.weight * _drift([rc], defect)[0] * dirn.array
    return spec.lin_integral * t.gamma + corr


@pytest.mark.parametrize("f", ["cos_pi_half", "log", "log_sqrt", "gauss_tail_inverse",
                               _step_spec("step", [0.5, 2.0])], ids=lambda f: getattr(f, "name", f))
def test_transform_triplet_drift_batch_matches_component_loop(f):
    # the atoms of all components in one evaluation of the centering defect
    # give each component's own drift, bit for bit, and the nested integrals
    # over the dilation within 1e-12
    t = _mixed_components_triplet()
    out = la.transform_triplet(t, f)
    assert out.gamma.tobytes() == _gamma_drift_component_by_component(t, f).tobytes()
    assert np.max(np.abs(out.gamma - _gamma_component_by_component(t, f))) <= 1e-12


def test_transform_triplet_drift_is_one_engine_call(monkeypatch):
    # the drift of 256 atom components is one engine batch over a dilation,
    # and none at all over the arcsine dilation, whose atoms are summed in
    # closed form
    from levyarc import measures, transforms

    calls = []
    for mod in (measures, transforms):
        orig = mod.quad_batch
        monkeypatch.setattr(mod, "quad_batch",
                            lambda *a, _orig=orig, **kw: calls.append(1) or _orig(*a, **kw))
    rng = np.random.default_rng(3)
    ang = rng.uniform(0.0, 2.0 * math.pi, 256)
    comps = tuple((la.Direction.normalized((math.cos(a), math.sin(a))),
                   la.RadialComponent(((float(rng.uniform(0.5, 1.5)), 1.0 / 256),)))
                  for a in np.sort(ang))
    t = la.Triplet(np.zeros((2, 2)), la.PolarMeasure(2, comps), [0.0, 0.0])
    out = la.transform_triplet(t, "cos_pi_half")
    assert len(calls) == 0
    assert out.gamma.tobytes() == _gamma_drift_component_by_component(t, "cos_pi_half").tobytes()
    out = la.transform_triplet(t, "log")
    assert len(calls) == 1
    assert out.gamma.tobytes() == _gamma_drift_component_by_component(t, "log").tobytes()
    assert np.max(np.abs(out.gamma - _gamma_component_by_component(t, "log"))) <= 1e-12


def _mp_drift_target(f, a):
    # int D(r) r^a e^(-r) dr at 30 digits, with D the centering defect
    # averaged over the dilation in closed form: for the arcsine dilation
    # (2/pi) [asinh(r) - r/h]/h, h = sqrt(1+r^2); for e^(-u),
    # g(1/r)/r - r/(1+r^2) with g(x) = -Ci(x) cos x - (Si(x) - pi/2) sin x.
    # Below r = 1e-3 both brackets are summed as series, which do not cancel.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp

    def small(r):
        if f == "cos_pi_half":
            # asinh(r) - r/h = sum_n (-1)^(n+1) C(2n, n) 4^(-n) 2n/(2n+1) r^(2n+1)
            return 2 / mp.pi * mpmath.fsum(
                (-1) ** (n + 1) * mpmath.binomial(2 * n, n) / 4 ** n * mpmath.mpf(2 * n) / (2 * n + 1)
                * r ** (2 * n + 1) for n in range(1, 10)) / mpmath.sqrt(1 + r * r)
        # g(1/r)/r - r/(1+r^2) = sum_k (-1)^k ((2k+1)! - 1) r^(2k+1)
        return mpmath.fsum((-1) ** k * (mpmath.factorial(2 * k + 1) - 1) * r ** (2 * k + 1)
                           for k in range(1, 12))

    def large(r):
        with mp.workdps(45):
            if f == "cos_pi_half":
                h = mpmath.sqrt(1 + r * r)
                return 2 / mp.pi * (mpmath.asinh(r) - r / h) / h
            x = 1 / r
            g = -mpmath.ci(x) * mpmath.cos(x) - (mpmath.si(x) - mp.pi / 2) * mpmath.sin(x)
            return g / r - r / (1 + r * r)

    def weight(r):
        return r ** a * mpmath.exp(-r)

    with mp.workdps(30):
        cut = mpmath.mpf("1e-3")
        return float(mpmath.quad(lambda r: small(r) * weight(r), [0, cut])
                     + mpmath.quad(lambda r: large(r) * weight(r), [cut, 1, 10, mp.inf]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [-2.5, -2.9])
@pytest.mark.parametrize("f", ["cos_pi_half", "log"])
def test_drift_of_a_driver_blowing_up_like_r_to_the_minus_1_minus_alpha(f, a):
    # nu(dr) = r^a e^(-r) dr with a + 1 = -alpha, alpha in [1, 2): the
    # centering defect is O(r^3) and is written so that it does not cancel,
    # so the drift converges at its 1e-12 and matches 30-digit mpmath
    t = la.Triplet([[0.0]], la.half_line_measure(density=la.ExpPowerDensity(1.0, a, 1.0, 1.0)),
                   [0.0])
    got = la.transform_triplet(t, f).gamma[0]
    assert abs(got - _mp_drift_target(f, a)) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f", ["cos_pi_half", "log", "log_sqrt", "gauss_tail_inverse"])
def test_drift_of_atoms_at_extreme_radii(f):
    # atoms at 1e-200 and 1e200 neither overflow nor divide by zero, and the
    # drift matches the nested integrals over the dilation
    nu = la.half_line_measure(atoms=[(1e-200, 1.0), (1.0, 1.0), (1e200, 1.0)])
    t = la.Triplet([[0.0]], nu, [0.0])
    got = la.transform_triplet(t, f).gamma
    assert np.max(np.abs(got - _gamma_component_by_component(t, f))) <= 1e-12


def test_char_exponent_solves_real_and_imaginary_parts_together(ex2_measure):
    # the one batch of 2n integrals equals the exponent of each point alone,
    # and the per-point real and imaginary integrals over the image itself
    t = la.transform_triplet(la.Triplet([[0.0]], ex2_measure, [0.0]), "cos_pi_half")
    (dirn, rc), = t.nu.components
    zs = np.array([[0.3], [1.7], [4.2]])
    got = char_exponent(t, zs)
    for z, v in zip(zs, got):
        assert v == char_exponent(t, z)
        s = float(z @ dirn.array)
        re = la.integrate(rc, lambda r: np.cos(r * s) - 1.0, (0.0, math.inf),
                          abs_tol=1e-10, g_moment=0.0)
        im = la.integrate(rc, lambda r: np.sin(r * s) - r * s / (1.0 + r * r), (0.0, math.inf),
                          abs_tol=1e-10, g_moment=0.0)
        want = (-0.5 * float(z @ t.Sigma @ z) + 1j * float(z @ t.gamma)) + rc.weight * (re + 1j * im)
        assert abs(v - want) <= 1e-12


def _nested_exponent(t, zs):
    # the exponent with every radial integral taken over the image measure
    # itself, as one batch of real and imaginary parts per direction
    from levyarc.measures import integrate_batch

    n = len(zs)
    val = -0.5 * np.einsum("ni,ij,nj->n", zs, t.Sigma, zs) + 1j * (zs @ t.gamma)
    for dirn, rc in t.nu.components:
        s = zs @ dirn.array

        def g(r, k):
            rs = r * s[k % n]
            return np.where(k < n, np.cos(rs) - 1.0, np.sin(rs) - rs / (1.0 + r * r))

        both = integrate_batch(rc, g, 2 * n, (0.0, math.inf), abs_tol=1e-10, g_moment=0.0)
        val = val + rc.weight * (both[:n] + 1j * both[n:])
    return val


# 2.4475746070544795 puts a node of the ExpPower image's exponent within 1e-6
# of a zero of H0, where scipy's struve reads NaN
FOLD_ZS = (-4.2, 0.3, 1.7, 2.4475746070544795, 4.2, 10.0, 30.0)


@pytest.mark.parametrize("case", ["exp_power", "ex2", "atoms_and_density", "mixed_d2"])
def test_char_exponent_of_an_arcsine_image_matches_the_nested_integrals(case, ex2_measure):
    # char_exponent reads an arcsine image through its source, with the
    # integrand averaged over the dilation in closed form (J0 and Struve H0)
    dens = la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0)
    if case == "mixed_d2":
        mixed = _mixed_components_triplet()
        nu = la.PolarMeasure(2, mixed.nu.components[:4])
        t = la.Triplet(mixed.Sigma, nu, mixed.gamma)
        zs = np.array([[0.6 * z, 0.8 * z] for z in FOLD_ZS])
    else:
        nu = {"exp_power": la.half_line_measure(density=dens), "ex2": ex2_measure,
              "atoms_and_density": la.half_line_measure(atoms=[(0.7, 0.3)], density=dens)}[case]
        t = la.Triplet([[0.0]], nu, [0.0])
        zs = np.array([[z] for z in FOLD_ZS])
    out = la.transform_triplet(t, "cos_pi_half")
    assert np.max(np.abs(char_exponent(out, zs) - _nested_exponent(out, zs))) <= 1e-12


def test_char_exponent_of_the_arcsine_image_of_an_atom_is_bessel_and_struve():
    # X Poisson with jumps 1: int_0^1 cos(pi t/2) dX_t has exponent
    # J0(z) - 1 + i (H0(z) - z/pi), the drift included
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    t = la.Triplet([[0.0]], la.half_line_measure(atoms=[(1.0, 1.0)]), [0.0])
    out = la.transform_triplet(t, "cos_pi_half")
    for z in (-4.0, 0.3, 2.0, 7.0, 26.3):
        x = mpmath.mpf(abs(z))
        h0 = math.copysign(1.0, z) * float(mpmath.struveh(0, x))   # H0 is odd
        want = complex(float(mpmath.besselj(0, x)) - 1.0, h0 - z / math.pi)
        assert abs(char_exponent(out, [z]) - want) <= 1e-13


def test_struve_h0_against_mpmath():
    # both branches, the switch at 4, zeros of H0 (4.3332, 25.7654), where
    # scipy's struve reads NaN, negative and tiny arguments
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    xs = np.array([0.0, 1e-300, 1e-8, 0.3, 2.0, np.nextafter(4.0, 0.0), 4.0, 4.333238,
                   13.140495, 25.76536948346065, 26.3, 100.5, 300.0, -0.7, -7.3])
    for x, h in zip(xs, _struve_h0(xs)):
        want = math.copysign(1.0, x) * float(mpmath.struveh(0, mpmath.mpf(abs(x))))
        assert abs(h - want) <= (1e-15 * abs(want) if abs(x) < 1.0 else 5e-15)


def test_char_exponent_of_the_arcsine_image_of_a_table_above_zero():
    # the arcsine kernel of this table raises at r = 0.00106 (README known
    # failures); the exponent of its image, read through the table, equals
    # the time integral of the table's own exponent along cos(pi t/2)
    table = la.tabulate_density(la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0), 1e-3, 30.0)
    t = la.Triplet([[0.0]], la.half_line_measure(density=table), [0.0])
    out = la.transform_triplet(t, "cos_pi_half")
    zs = np.array([0.5, 2.0, 4.0])
    x, w = np.polynomial.legendre.leggauss(40)
    pts = (zs[:, None] * np.cos(0.25 * math.pi * (x + 1.0))).reshape(-1, 1)
    want = (char_exponent(t, pts).reshape(zs.size, x.size) * (0.5 * w)).sum(axis=1)
    assert np.max(np.abs(char_exponent(out, zs[:, None]) - want)) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f", ["cos_pi_half", "log"])
def test_triplet_calculus_of_a_huge_atom_does_not_overflow(f):
    # 1e200 squared overflows; the closed forms use hypot, and the nested
    # integrands let r^2 go to inf, where 1/(1 + r^2) reads 0 as it should
    t = la.Triplet([[0.0]], la.half_line_measure(atoms=[(1.0, 1.0), (1e200, 1e-30)]), [0.0])
    out = la.transform_triplet(t, f)
    if f == "cos_pi_half":
        drift = (2.0 / math.pi) * (math.asinh(1.0) / math.sqrt(2.0) - 0.5)
        assert out.gamma[0] == pytest.approx(drift, rel=1e-15)
    for v in la.char_fn_grid(out, [[-3.0], [0.5], [2.0]]).values:
        assert cmath.isfinite(v) and abs(v) <= 1.0
    assert cmath.isfinite(la.char_fn(t, [2.0]))


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
    # both orders fold to the same scale mixture, so the reversed order's
    # jump part is built nested as written: cos_pi_half's arcsine dilation
    # over the log_sqrt image
    assert isinstance(da, _ChainKernel)
    db = _ScaleMixtureKernel(la.upsilon_alpha_beta(delta1, -2.0, 2.0).components[0][1],
                             "upsilon", la.arcsine_dilation())
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


def _ex2_cos_exponent_by_time_integral(z):
    """log E exp(iz int_0^1 cos(pi t/2) dX_t) for X with triplet (0, EX2, 0),
    as int_0^1 psi_X(z cos(pi t/2)) dt with scipy's quad in both variables;
    x = w^2 turns the EX2 density (sqrt(pi)/4) x^(-1/2) e^(-x/4) dx into
    (sqrt(pi)/2) e^(-w^2/4) dw."""
    from scipy.integrate import quad

    def inner(t, part):
        a = z * math.cos(0.5 * math.pi * t)

        def g(w):
            x = w * w
            v = cmath.exp(1j * a * x) - 1.0 - 1j * a * x / (1.0 + x * x)
            return 0.5 * math.sqrt(math.pi) * math.exp(-x / 4.0) * (v.real, v.imag)[part]

        return quad(g, 0.0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    re = quad(lambda t: inner(t, 0), 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)[0]
    im = quad(lambda t: inner(t, 1), 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)[0]
    return complex(re, im)


def test_char_fn_of_ex2_under_cos_integrand(ex2_measure):
    # the image density is arcsine2(EX2), which blows up like r^(-1/2);
    # char_fn reads it through EX2 with the dilation integrated out, and the
    # time integral below takes neither that route nor the kernel's
    t = la.transform_triplet(la.Triplet([[0.0]], ex2_measure, [0.0]), "cos_pi_half")
    zs = [(0.5,), (1.0,), (3.0,)]
    ref = la.char_fn_grid(t, zs)
    for (z,), v in zip(zs, ref.values):
        assert v == la.char_fn(t, [z])
        assert abs(v - cmath.exp(_ex2_cos_exponent_by_time_integral(z))) <= 1e-9
    ss = la.sample_integral(la.Triplet([[0.0]], ex2_measure, [0.0]), "cos_pi_half",
                            la.SimConfig(paths=200_000, eps=1e-4, seed=7))
    assert la.cf_distance(la.empirical_cf(ss, zs), ref) <= 0.03
