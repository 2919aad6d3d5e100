"""Transform calculus: arcsine images, scale mixtures, the half-order
integral, inversion, and the commutation structure between them."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import levyarc as la
from levyarc.errors import DomainError, NotInRange, QuadratureNonConvergence
from levyarc.measures import Density, integrate, power_reparam, validate
from levyarc.transforms import _HalfIntegralKernel, _ScaleMixtureKernel

SQRT_PI = math.sqrt(math.pi)

locs = st.floats(0.1, 10.0)
weights = st.floats(0.1, 5.0)
atom_lists = st.lists(st.tuples(locs, weights), min_size=1, max_size=4)


def _density(m, k=0):
    return m.components[k][1].density


# ---------------------------------------------------------------------------
# first arcsine transform
# ---------------------------------------------------------------------------

def test_a1_of_point_mass_closed_form(delta1):
    img = la.arcsine1(delta1)
    d = _density(img)
    for r in (0.1, 0.5, 1.0 / math.sqrt(2.0), 0.95):
        want = 2.0 / (math.pi * math.sqrt(1.0 - r * r))
        assert d.value(r) == pytest.approx(want, rel=1e-12)
    assert d.value(1.05) == 0.0


def test_a1_of_ex1_input_is_k0(ex1_measure):
    d = _density(la.arcsine1(ex1_measure))
    for r in (0.1, 0.7, 2.0, 5.0):
        assert d.value(r) == pytest.approx(la.k0(r), rel=1e-8)


@given(atom_lists)
def test_a1_preserves_total_mass(atoms):
    src = la.half_line_measure(atoms=atoms)
    img = la.arcsine1(src)
    total = sum(w for _, w in atoms)
    rc = img.components[0][1]
    got = integrate(rc, lambda r: 1.0, (0.0, math.inf), abs_tol=1e-9)
    assert got == pytest.approx(total, rel=1e-7)


def test_a1_rejects_non_l1_source():
    src = la.half_line_measure(density=la.ExpPowerDensity(1.0, -2.5, 1.0, 1.0))
    with pytest.raises(DomainError):
        la.arcsine1(src)


def test_a1_image_interior_singularities():
    src = la.half_line_measure(atoms=[(2.0, 1.0), (0.5, 1.0)])
    d = _density(la.arcsine1(src))
    radii = d.interior_singular_radii()
    assert radii == (pytest.approx(math.sqrt(0.5)),)


# ---------------------------------------------------------------------------
# second arcsine transform
# ---------------------------------------------------------------------------

def test_a2_equals_a1_after_squaring(delta1, ex2_measure):
    for src in (delta1,
                la.half_line_measure(atoms=[(1.5, 0.7)],
                                     density=la.ex2_input_density())):
        d2 = _density(la.arcsine2(src))
        d12 = _density(la.arcsine1(power_reparam(src, 2.0)))
        for r in np.geomspace(0.05, 1.4, 17):
            assert abs(d2.value(float(r)) - d12.value(float(r))) <= 1e-9


def test_a2_routes_agree(delta1):
    mixture = _density(la.arcsine2(delta1))
    direct = _density(la.arcsine2_direct(delta1))
    # the two routes must stay separate computations, or every check that
    # compares them becomes a tautology
    assert isinstance(direct, _HalfIntegralKernel)
    assert isinstance(mixture, _ScaleMixtureKernel)
    for r in (0.1, 0.4, 0.8, 0.99):
        assert mixture.value(r) == pytest.approx(direct.value(r), rel=1e-9)


# ---------------------------------------------------------------------------
# scale mixtures
# ---------------------------------------------------------------------------

def test_upsilon0_of_ex2_input(ex2_measure):
    d = _density(la.upsilon0(ex2_measure))
    ref = la.ex1_input_density()
    for r in (0.1, 1.0, 3.0):
        assert d.value(r) == pytest.approx(ref.value(r), rel=1e-9)


def test_upsilon_alpha_beta_of_arcsine_image(delta1):
    # the (-2, 2) mixture of the point mass image has the Gaussian form
    # 2 pi^(-1/2) e^(-r^2)
    d = _density(la.upsilon_alpha_beta(la.arcsine1(delta1), -2.0, 2.0))
    for r in (0.2, 1.0, 2.5):
        want = 2.0 / SQRT_PI * math.exp(-r * r)
        assert d.value(r) == pytest.approx(want, rel=1e-8)


def test_upsilon0_preserves_atom_mass():
    src = la.half_line_measure(atoms=[(2.0, 0.7)])
    rc = la.upsilon0(src).components[0][1]
    got = integrate(rc, lambda r: 1.0, (0.0, math.inf), abs_tol=1e-10)
    assert got == pytest.approx(0.7, rel=1e-8)


@given(st.floats(0.2, 5.0), st.floats(0.1, 3.0))
def test_upsilon0_point_mass_is_rescaled_exponential(loc, w):
    # smearing delta_s by dilations u e^(-u) du gives density w/s e^(-r/s)
    src = la.half_line_measure(atoms=[(loc, w)])
    d = _density(la.upsilon0(src))
    for r in (0.3 * loc, loc, 2.0 * loc):
        want = w / loc * math.exp(-r / loc)
        assert d.value(r) == pytest.approx(want, rel=1e-10)


def test_upsilon_levy_precondition():
    bad = la.half_line_measure(density=la.ExpPowerDensity(1.0, -3.2, 1.0, 1.0))
    with pytest.raises(DomainError):
        la.upsilon_alpha_beta(bad, -2.0, 2.0)


def test_upsilon0_preserves_l1_status_both_ways():
    yes = la.half_line_measure(density=la.ex1_input_density())
    no = la.half_line_measure(density=la.ExpPowerDensity(1.0, -2.5, 1.0, 1.0))
    assert validate(yes, "levy_l1").ok and validate(la.upsilon0(yes), "levy_l1").ok
    assert not validate(no, "levy_l1").ok
    assert not validate(la.upsilon0(no), "levy_l1").ok


# ---------------------------------------------------------------------------
# commutation structure
# ---------------------------------------------------------------------------

def test_commutation_on_point_mass(delta1):
    route_a = _density(la.upsilon_alpha_beta(la.arcsine1(delta1), -2.0, 2.0))
    route_b = _density(la.arcsine1(la.upsilon0(delta1)))
    for r in np.geomspace(0.1, 5.0, 9):
        assert abs(route_a.value(float(r)) - route_b.value(float(r))) <= 1e-5


def test_noncommutation_first_moments(delta1):
    img = la.arcsine1(delta1)
    m_a = integrate(la.upsilon0(img).components[0][1],
                    lambda r: r, (0.0, math.inf), g_moment=1.0, abs_tol=1e-11)
    m_b = integrate(la.upsilon_alpha_beta(img, -2.0, 2.0).components[0][1],
                    lambda r: r, (0.0, math.inf), g_moment=1.0, abs_tol=1e-11)
    assert m_a == pytest.approx(2.0 / math.pi, abs=1e-8)
    assert m_b == pytest.approx(1.0 / SQRT_PI, abs=1e-8)
    assert m_b / m_a == pytest.approx(SQRT_PI / 2.0, abs=1e-7)


# ---------------------------------------------------------------------------
# half-order integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
def test_half_integral_applied_twice_is_flat(s):
    src = la.RadialComponent(atoms=((s, 1.0),))
    d = la.frac_half(la.frac_half(src)).density
    for r in (0.1 * s, 0.5 * s, 0.9 * s):
        assert d.value(r) == pytest.approx(1.0, abs=1e-8)
    assert d.value(1.5 * s) == 0.0


def test_half_integral_of_point_mass():
    # pi^(-1/2) (s - r)^(-1/2) below s, zero above
    src = la.RadialComponent(atoms=((2.0, 1.0),))
    d = la.frac_half(src).density
    for r in (0.5, 1.0, 1.9):
        assert d.value(r) == pytest.approx(1.0 / (SQRT_PI * math.sqrt(2.0 - r)), rel=1e-12)
    assert d.value(2.3) == 0.0


# ---------------------------------------------------------------------------
# kernels on tabulated sources and their failure reports
# ---------------------------------------------------------------------------

def _image(kernel, dens):
    if kernel == "frac_half":
        return la.frac_half(la.RadialComponent(density=dens)).density
    return _density(getattr(la, kernel)(la.half_line_measure(density=dens)))


@pytest.mark.parametrize("kernel", ["arcsine1", "frac_half", "arcsine2",
                                    "arcsine2_direct", "upsilon0"])
def test_kernels_on_tabulated_source(kernel):
    # a table is what the CLI writes; its knots are kinks the quadrature has
    # to be told about, and the image must track the exact source's image
    exact = la.ex2_input_density()
    table = la.tabulate_density(exact, per_decade=64)
    got, want = _image(kernel, table), _image(kernel, exact)
    for r in (0.1, 0.5, 1.0, 3.0):
        v = got.value(r)
        assert math.isfinite(v)
        assert v == pytest.approx(want.value(r), rel=2e-3)


class _SquareWave(Density):
    """Unit square wave of period 1e-6 on (0, 2): far too fine for a few
    hundred adaptive subintervals to integrate to 1e-12."""

    support = (0.0, 2.0)

    def value(self, r):
        return 1.0 if 0.0 < r < 2.0 and int(r / 5e-7) % 2 == 0 else 0.0


@pytest.mark.parametrize("kernel, where", [
    ("arcsine1", "a1 kernel at r=0.5"),
    ("frac_half", "frac_half kernel at r=0.5"),
    ("upsilon0", "upsilon kernel at r=0.5"),
    ("invert", "inversion tail at u=0.25"),
])
def test_nonconvergence_names_kernel_and_point(kernel, where):
    with pytest.raises(QuadratureNonConvergence, match=where):
        if kernel == "invert":
            la.invert_arcsine1(la.half_line_measure(density=_SquareWave()), grid=(0.25, 1.0, 2))
        else:
            _image(kernel, _SquareWave()).value(0.5)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_round_trip_point_mass(delta1):
    dec = la.invert_arcsine1(la.arcsine1(delta1))
    _, _, tt = dec.components[0]
    for u, t in zip(tt.us, tt.tails):
        want = 1.0 if u < 1.0 else 0.0
        assert abs(t - want) <= 1e-6


def test_invert_round_trip_two_atoms(two_atoms):
    dec = la.invert_arcsine1(la.arcsine1(two_atoms))
    _, _, tt = dec.components[0]
    for u, t in zip(tt.us, tt.tails):
        want = (1.0 if u < 2.0 else 0.0) + (1.0 if u < 0.5 else 0.0)
        assert abs(t - want) <= 1e-6


def test_invert_round_trip_ex1_input(ex1_measure):
    dec = la.invert_arcsine1(la.arcsine1(ex1_measure), grid=(1e-2, 30.0, 31))
    _, _, tt = dec.components[0]
    for u, t in zip(tt.us, tt.tails):
        want = math.pi / 2.0 * math.exp(-math.sqrt(u))
        assert abs(t - want) <= 1e-6


def test_invert_rejects_non_image():
    xs = np.linspace(1e-4, 1.0, 200)
    ramp = la.TableDensity([float(x) for x in xs], [float(x) for x in xs])
    with pytest.raises(NotInRange):
        la.invert_arcsine1(la.half_line_measure(density=ramp))


def test_invert_rejects_atomic_input(delta1):
    with pytest.raises(NotInRange):
        la.invert_arcsine1(delta1)


def test_invert_accepts_monotone_class_fixtures(catalog):
    # both a strictly monotone radial density and the boundary density are
    # images; inversion must accept both with nonincreasing recovered tails
    for m in (la.half_line_measure(density=la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0)),
              catalog["JUREK_CE"].measure):
        dec = la.invert_arcsine1(m)
        _, _, tt = dec.components[0]
        for a, b in zip(tt.tails, tt.tails[1:]):
            assert a >= b - 1e-9


def test_invert_round_trip_atom_plus_density():
    # the image of a mixed measure blows up at the atom radius strictly
    # inside its support; the recovered tail must carry both parts, and a
    # grid point landing on the blowup to machine resolution must read the
    # tail right continuously
    from scipy.special import gammaincc, gamma

    m = la.half_line_measure(atoms=[(1.0, 0.5)],
                             density=la.ExpPowerDensity(1.0, -0.5, 1.0, 1.0))
    dec = la.invert_arcsine1(la.arcsine1(m), grid=(1e-2, 10.0, 25))
    _, _, tt = dec.components[0]
    assert any(abs(u - 1.0) < 1e-12 for u in tt.us)
    for u, t in zip(tt.us, tt.tails):
        want = gammaincc(0.5, u) * gamma(0.5)
        if u < 1.0 - 1e-12:
            want += 0.5
        assert abs(t - want) < 1e-8


def test_invert_tabulated_image_with_declared_knots(delta1):
    # a piecewise-linear stand-in for the image still inverts once its knots
    # are passed through to the quadrature as break points; the recovered
    # tail matches the mass the truncated table actually carries
    d = _density(la.arcsine1(delta1))
    xs = np.linspace(1e-3, 0.995, 120)
    tab = la.TableDensity([float(x) for x in xs], [d.value(float(x)) for x in xs])
    dec = la.invert_arcsine1(la.half_line_measure(density=tab), grid=(0.1, 0.9, 5))
    _, _, tt = dec.components[0]
    # far from the truncation edge the recovered tail equals the mass the
    # table carries; nearer the edge the missing sliver weighs in more, so
    # only monotonicity and a coarse bound are asserted there
    table_mass = 2.0 / math.pi * math.asin(0.995)
    assert abs(tt.tails[0] - table_mass) < 0.01
    for a, b in zip(tt.tails, tt.tails[1:]):
        assert a >= b - 1e-9
    for t in tt.tails:
        assert 0.75 < t <= 1.0


# ---------------------------------------------------------------------------
# transformed densities as values
# ---------------------------------------------------------------------------

def test_transformed_density_support(delta1):
    d = _density(la.arcsine1(delta1))
    lo, hi = d.support
    assert lo == 0.0 and hi == pytest.approx(1.0)


def test_chained_transform_depth_is_bounded(delta1):
    m = la.upsilon0(la.arcsine1(la.upsilon0(delta1)))
    d = _density(m)
    assert d.value(0.7) > 0.0 and math.isfinite(d.value(0.7))


# ---------------------------------------------------------------------------
# batched kernel evaluation against scalar references
# ---------------------------------------------------------------------------

def _quad(f, a, b, **kw):
    from scipy import integrate as sp_integrate
    return sp_integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=500, **kw)[0]


def _ref_a1(rc, r):
    """(2/pi) int_(x,oo) (s - x)^(-1/2) rc(ds) at x = r^2, by scipy's quad
    after s = x + w^2, piece by piece between the knots of a table."""
    x = r * r
    total = sum(m / math.sqrt(loc - x) for loc, m in rc.atoms if loc > x)
    f = rc.density
    if isinstance(f, la.TableDensity):
        knots = [math.sqrt(s - x) for s in f.xs if s > x]
        edges = ([0.0] if f.xs[0] <= x else []) + knots
        total += sum(_quad(lambda w: 2.0 * f.value(x + w * w), a, b)
                     for a, b in zip(edges, edges[1:]))
    elif f is not None:
        total += _quad(lambda w: 2.0 * f.value(x + w * w), 0.0, math.inf)
    return 2.0 / math.pi * total


def _ref_ups0(rc, r):
    """int u^(-1) rc(r/u) e^(-u) du, by scipy's quad, piece by piece
    between the images u = r/x_k of a table's knots."""
    total = sum(m * math.exp(-r / s) / s for s, m in rc.atoms)
    f = rc.density
    g = lambda u: f.value(r / u) * math.exp(-u) / u
    if isinstance(f, la.TableDensity):
        edges = [r / s for s in reversed(f.xs)]
        total += sum(_quad(g, a, b) for a, b in zip(edges, edges[1:]))
    elif f is not None:
        total += _quad(g, 0.0, math.inf)
    return total


def _sources():
    ex2 = la.ex2_input_density()
    return {"EX1": la.RadialComponent(density=la.ex1_input_density()),
            "EX2": la.RadialComponent(density=ex2),
            "delta1": la.RadialComponent(atoms=((1.0, 1.0),)),
            "two atoms": la.RadialComponent(atoms=((0.5, 1.0), (2.0, 1.0))),
            "table": la.RadialComponent(density=la.tabulate_density(ex2, per_decade=64))}


RADII = [0.13, 0.5, 0.9, 1.1, 1.3, 2.7, 4.2]


@pytest.mark.parametrize("source", list(_sources()))
@pytest.mark.parametrize("kernel, ref", [("a1", _ref_a1), ("ups0", _ref_ups0)])
def test_kernel_values_match_scalar_quad(kernel, ref, source):
    rc = _sources()[source]
    m = la.PolarMeasure(1, ((la.Direction((1.0,)), rc),))
    img = la.arcsine1(m) if kernel == "a1" else la.upsilon0(m)
    got = _density(img).values(np.array(RADII))
    for r, v in zip(RADII, got):
        want = ref(rc, r)
        assert abs(v - want) <= 1e-12 + 1e-12 * abs(want), (r, v, want)


@pytest.mark.parametrize("build", [
    lambda m: la.arcsine1(m),
    lambda m: la.upsilon0(m),
    lambda m: la.arcsine1(la.upsilon0(m)),
    lambda m: la.upsilon_alpha_beta(la.arcsine1(m), -2.0, 2.0),
])
def test_value_is_values_bit_for_bit(ex2_measure, build):
    # fresh kernels on both sides, so no memo is shared: one radius alone and
    # the same radius inside a batch take the same quadrature
    r = 1.37
    alone = _density(build(ex2_measure)).value(r)
    batch = _density(build(ex2_measure)).values(np.array([0.2, r, 3.1]))
    assert alone == batch[1]


@pytest.mark.parametrize("kernel, where", [
    ("arcsine1", "a1 kernel at r=0.5"),
    ("upsilon_arcsine", "upsilon kernel at r=0.5"),
])
def test_batch_names_its_unresolvable_radius(kernel, where):
    # both images live on (0, 2^(1/2)] or (0, 2]; the other radii of the batch
    # lie outside, so only r = 0.5 needs (and fails) the quadrature
    if kernel == "arcsine1":
        d = _image("arcsine1", _SquareWave())
    else:
        d = _density(la.upsilon_tau(la.half_line_measure(density=_SquareWave()),
                                    la.arcsine_dilation()))
    with pytest.raises(QuadratureNonConvergence, match=where) as info:
        d.values(np.array([2.5, 0.5, 3.0]))
    assert "r=2.5" not in str(info.value) and "r=3.0" not in str(info.value)


def test_upsilon_on_cli_sized_table_batch(delta1):
    # the table the CLI writes for a1(delta_1): 512 points per decade over
    # seven decades; every knot is a break point of every radius's integral,
    # and the engine refines them in groups of bounded size
    tab = la.tabulate_density(_density(la.arcsine1(delta1)))
    assert len(tab.xs) == 3585
    d = _density(la.upsilon0(la.half_line_measure(density=tab)))
    rs = np.geomspace(0.01, 3.0, 100)
    got = d.values(rs)
    exact = _density(la.upsilon0(la.arcsine1(delta1))).values(rs[::20])
    assert np.all(np.isfinite(got)) and np.all(got > 0.0)
    # the table carries 0.956 of the unit mass (its top knot sits on the
    # blowup at 1), so the image reads a little low
    assert np.all(np.abs(got[::20] / exact - 1.0) < 0.1)


def test_scale_mixture_declares_blowup_at_its_supremum(delta1):
    # the atom at 1 crossed with the arcsine dilation's blowup at 1 leaves a
    # blowup at the image's supremum 1
    for img in (la.arcsine2(delta1), la.upsilon_tau(delta1, la.arcsine_dilation())):
        d = _density(img)
        assert d.support[1] == 1.0
        assert d.singular_at_high()
        assert d.interior_singular_radii() == ()
    assert not _density(la.upsilon0(delta1)).singular_at_high()
    two = la.half_line_measure(atoms=[(0.5, 1.0), (2.0, 1.0)])
    d = _density(la.arcsine2(two))
    assert d.singular_at_high() and d.interior_singular_radii() == (0.5,)
