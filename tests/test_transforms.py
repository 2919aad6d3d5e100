"""Transform calculus: arcsine images, scale mixtures, the half-order
integral, inversion, and the commutation structure between them."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ellipkm1, k0

import levyarc as la
from levyarc.errors import DomainError, NotInRange, QuadratureNonConvergence
from levyarc.measures import (DEFAULT_ABS_TOL, Density, PowerImageDensity, integrate,
                              power_reparam, validate)
from levyarc import transforms
from levyarc.transforms import (TWO_OVER_PI, ArcsineDilationDensity, _abel_integrals,
                                _BesselK0DilationDensity, _ChainKernel, _HalfIntegralKernel,
                                _ScaleMixtureKernel, TransformedDensity, _compose)

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


@pytest.mark.xfail(raises=QuadratureNonConvergence, strict=True,
                   reason="blowups 1e-6 to 3e-4 apart (relative) are read through the "
                          "squared radius, whose rounding the endpoint map cannot resolve")
@pytest.mark.parametrize("atoms", [
    [(1.0, 1.0), (1.000001, 1.0)],
    [(0.5, 1.0), (0.5001370914631924, 5.0)],
    [(3.0, 1.0), (1.900390625, 1.0), (1.900758630069283, 1.0)],
], ids=["gap 1e-6", "gap 2.7e-4", "gap 1.9e-4 of three"])
def test_a1_preserves_mass_of_near_coincident_atoms(atoms):
    # known failures of the a1 mass identity, each found by the property test
    # above: error estimates of 1.9e-8, 5.3e-8 and 1.3e-8 against 1e-9
    img = la.arcsine1(la.half_line_measure(atoms=atoms))
    got = integrate(img.components[0][1], lambda r: 1.0, (0.0, math.inf), abs_tol=1e-9)
    assert got == pytest.approx(sum(w for _, w in atoms), rel=1e-7)


def test_a1_rejects_non_l1_source():
    src = la.half_line_measure(density=la.ExpPowerDensity(1.0, -2.5, 1.0, 1.0))
    with pytest.raises(DomainError):
        la.arcsine1(src)


def test_a1_image_interior_singularities():
    # each atom leaves a blowup at its image, the top one at the supremum;
    # a1 of atoms is bounded at 0
    src = la.half_line_measure(atoms=[(2.0, 1.0), (0.5, 1.0)])
    d = _density(la.arcsine1(src))
    assert d.support[1] == pytest.approx(math.sqrt(2.0))
    assert d.blowups() == (pytest.approx(math.sqrt(0.5)), d.support[1])


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


def test_a2_direct_reads_the_power_image_of_an_unbounded_kernel(ex2_measure):
    # arcsine2_direct(a1(EX2)) is a1 over P_2 of the a1 kernel, which reads
    # the image's exponent at zero and its tail radius through the kernel's;
    # arcsine2(a1(EX2)) folds to one scale mixture over the elliptic dilation.
    # a1 of atoms at 0.5 and 2 is bounded, and its P_2 image carries the
    # atoms' blowups at 0.5 and 2, which the direct route must cut at
    atoms = la.half_line_measure(atoms=[(0.5, 1.0), (2.0, 0.7)])
    for src, rs in ((ex2_measure, [0.1, 0.5, 1.0, 2.0, 4.0]), (atoms, [0.3, 0.6, 0.8, 1.0, 1.2])):
        img = la.arcsine1(src)
        direct = _density(la.arcsine2_direct(img))
        folded = _density(la.arcsine2(img))
        assert isinstance(direct, _HalfIntegralKernel) and isinstance(folded, _ChainKernel)
        assert isinstance(direct.source.density, PowerImageDensity)
        want = folded.values(np.array(rs))
        assert np.all(np.abs(direct.values(np.array(rs)) - want) <= 1e-12 * want)


def test_kernels_read_the_square_image_of_an_a1_image_of_atoms():
    # P_2 of a1 of atoms at 0.5 (mass 1) and 2 (mass 0.7) blows up at 0, 0.5
    # and 2; its mass, its tails and its a1, a2 and ups0 images all need the
    # two atom blowups, which the image maps from its base
    atoms = la.half_line_measure(atoms=[(0.5, 1.0), (2.0, 0.7)])
    img = la.arcsine1(atoms)
    sq = la.power_reparam(img, 2.0)
    rc = sq.components[0][1]
    assert abs(integrate(rc, lambda r: 1.0, (0.0, math.inf), abs_tol=1e-10) - 1.7) <= 1e-10
    want = la.tail(img.components[0][1], math.sqrt(0.3))
    assert abs(la.tail(rc, 0.3) - want) <= 1e-12 * want
    rs = np.geomspace(1e-3, 1.9, 61)
    for op in (la.arcsine1, la.arcsine2, la.upsilon0):
        d = _density(op(sq))
        vals = d.values(rs)
        assert np.all(np.isfinite(vals)) and np.all((vals > 0.0) == (rs < d.support[1])), op.__name__


@pytest.mark.parametrize("table, rs, rel", [
    (la.TableDensity((0.5, 1.0, 2.0), (1.0, 2.0, 0.5)), [0.3, 0.7, 1.2, 1.7], 1e-12),
    (la.tabulate_density(la.ex2_input_density(), per_decade=64), np.geomspace(0.1, 5.0, 25), 1e-10),
], ids=["three knots", "EX2 table"])
def test_a2_routes_agree_on_a_table(table, rs, rel):
    # arcsine2_direct reads the exact power image of the table, so both
    # routes compute the same measure
    m = la.half_line_measure(density=table)
    mixture = _density(la.arcsine2(m)).values(np.asarray(rs))
    direct = _density(la.arcsine2_direct(m)).values(np.asarray(rs))
    assert np.all(np.abs(mixture - direct) <= rel * np.abs(direct))


def test_upsilon_over_a_table_dilation():
    # int u^(-1) f(r/u) t(u) du is symmetric in the densities f and t, so the
    # table may be the source or the dilation; as the dilation its knots are
    # break points of the u-integral at their own radii
    table = la.tabulate_density(la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0), 1e-3, 30.0, 16)
    dens = la.ExpPowerDensity(1.0, -0.5, 1.0, 1.0)
    rs = np.array([0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
    as_source = _density(la.upsilon_tau(la.half_line_measure(density=table),
                                        la.RadialComponent(density=dens))).values(rs)
    as_dilation = _density(la.upsilon_tau(la.half_line_measure(density=dens),
                                          la.RadialComponent(density=table))).values(rs)
    assert np.all(np.abs(as_dilation - as_source) <= 1e-12 * as_source)


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
        a, b = route_a.value(float(r)), route_b.value(float(r))
        assert abs(a - b) <= 1e-5
        # both routes are rewritten to the same scale mixture, so each is
        # held to the closed form as well
        want = 2.0 / SQRT_PI * math.exp(-r * r)
        assert a == pytest.approx(want, rel=1e-12)
        assert b == pytest.approx(want, rel=1e-12)


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


def _without_source(label):
    """A test id for a parameter, the source left out of a chain's name."""
    return label.replace("(_SquareWave)", "")


@pytest.mark.parametrize("kernel, where", [
    ("arcsine1", "a1(_SquareWave) kernel at r=0.5"),
    ("frac_half", "frac_half(_SquareWave) kernel at r=0.5"),
    ("upsilon0", "upsilon(_SquareWave) kernel at r=0.5"),
    ("invert", "inversion tail at u=0.25"),
    ("invert", "inversion tail at u=0.25 of _SquareWave"),
    ("tail", "radial integral of _SquareWave"),
], ids=_without_source)
def test_nonconvergence_names_kernel_and_point(kernel, where):
    # a kernel names its chain, as its provenance_name() spells it
    with pytest.raises(QuadratureNonConvergence, match=re.escape(where)):
        if kernel == "invert":
            la.invert_arcsine1(la.half_line_measure(density=_SquareWave()), grid=(0.25, 1.0, 2))
        elif kernel == "tail":
            la.tail(la.RadialComponent(density=_SquareWave()), 0.25)
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


def test_invert_rejects_a_component_with_neither_atoms_nor_density():
    empty = la.PolarMeasure(1, ((la.Direction((1.0,)), la.RadialComponent()),))
    with pytest.raises(NotInRange, match="component 0 has no density"):
        la.invert_arcsine1(empty)


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


def _m_arc(s):
    """E[U^s] under the arcsine dilation."""
    import mpmath
    return mpmath.gamma((s + 1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(s / 2 + 1))


def _m_ex2(s):
    """int r^s ex2(r) dr for the EX2 input (sqrt(pi)/4) r^(-1/2) e^(-r/4)."""
    import mpmath
    return mpmath.sqrt(mpmath.pi) / 4 * mpmath.power(4, s + 0.5) * mpmath.gamma(s + 0.5)


def test_inversion_of_a_depth2_image_reads_it_lazily(ex2_measure):
    # a1(a1(EX2)) nests two half-integral kernels; inverting it recovers the
    # tails of a1(EX2), whose density is ex3_closed_form. The reference sums
    # the tail down from the last grid point, one mpmath quad per gap
    mpmath = pytest.importorskip("mpmath")
    tt = la.invert_arcsine1(la.arcsine1(la.arcsine1(ex2_measure)), (1e-2, 4.0, 9)).components[0][2]
    with mpmath.workdps(20):
        ex3 = lambda r: (mpmath.exp(-r * r / 8) * mpmath.besselk(0, r * r / 8)
                         / (2 * mpmath.sqrt(mpmath.pi)))
        want = [mpmath.quad(ex3, [tt.us[-1], mpmath.inf])]
        for a, b in zip(tt.us[-2::-1], tt.us[:0:-1]):
            want.append(want[-1] + mpmath.quad(ex3, [a, b]))
    for u, got, w in zip(tt.us, tt.tails, want[::-1]):
        assert got == pytest.approx(float(w), rel=1e-12), u


def test_depth3_chain_is_read_lazily(ex2_measure):
    # a1 = Upsilon_arcsine o P_(1/2), so a1^3(EX2) has the Mellin transform
    # M(s) = M_EX2(s/8) M_arc(s/4) M_arc(s/2) M_arc(s), and its density is
    # (1/pi) Re int_0^oo M(it) r^(-it-1) dt. |M(it)| falls like e^(-pi t/16),
    # so the integral is cut at t = 240, below 1e-20 of the value
    mpmath = pytest.importorskip("mpmath")
    d = _density(la.arcsine1(la.arcsine1(la.arcsine1(ex2_measure))))
    inner = d
    for _ in range(3):
        assert isinstance(inner, _HalfIntegralKernel)
        inner = inner.source.density
    assert not isinstance(inner, TransformedDensity)
    rs = (0.3, 1.0)
    got = d.values(np.array(rs))
    with mpmath.workdps(20):
        for r, g in zip(rs, got):
            def h(t, r=mpmath.mpf(r)):
                s = mpmath.mpc(0, t)
                return (_m_ex2(s / 8) * _m_arc(s / 4) * _m_arc(s / 2) * _m_arc(s)
                        * r ** (-s - 1)).real
            want = float(mpmath.quad(h, mpmath.linspace(0, 240, 13)) / mpmath.pi)
            assert g == pytest.approx(want, rel=1e-12), r


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


def _ref_upsilon(rc, r, tau):
    """int u^(-1) rc(r/u) tau(u) du for the dilation density tau, by scipy's
    quad, piece by piece between the images u = r/x_k of a table's knots; a
    knot at 0 maps to u = inf."""
    total = sum(m * tau(r / s) / s for s, m in rc.atoms)
    f = rc.density
    g = lambda u: f.value(r / u) * tau(u) / u
    if isinstance(f, la.TableDensity):
        edges = [r / s if s > 0.0 else math.inf for s in reversed(f.xs)]
        total += sum(_quad(g, a, b) for a, b in zip(edges, edges[1:]))
    elif f is not None:
        total += _quad(g, 0.0, math.inf)
    return total


def _ref_ups0(rc, r):
    return _ref_upsilon(rc, r, lambda u: math.exp(-u))


def _ref_ups_rayleigh(rc, r):
    # the (-2, 2) power-exp dilation 2 u e^(-u^2)
    return _ref_upsilon(rc, r, lambda u: 2.0 * u * math.exp(-u * u))


def _sources():
    ex2 = la.ex2_input_density()
    return {"EX1": la.RadialComponent(density=la.ex1_input_density()),
            "EX2": la.RadialComponent(density=ex2),
            "delta1": la.RadialComponent(atoms=((1.0, 1.0),)),
            "two atoms": la.RadialComponent(atoms=((0.5, 1.0), (2.0, 1.0))),
            "table": la.RadialComponent(density=la.tabulate_density(ex2, per_decade=64)),
            "table from 0": la.RadialComponent(density=_table_from_zero())}


def _table_from_zero():
    # a table whose first knot (0, 0) sits at the origin, under a source
    # that blows up there
    t = la.tabulate_density(la.ExpPowerDensity(1.0, -0.5, 1.0, 1.0), 1e-6, 40.0, 64)
    return la.TableDensity((0.0,) + t.xs, (0.0,) + t.ys)


RADII = [1e-6, 0.13, 0.5, 0.9, 1.1, 1.3, 2.7, 4.2]


KERNELS = {"a1": la.arcsine1, "ups0": la.upsilon0,
           "ups_-2,2": lambda m: la.upsilon_alpha_beta(m, -2.0, 2.0)}


@pytest.mark.parametrize("source", list(_sources()))
@pytest.mark.parametrize("kernel, ref", [("a1", _ref_a1), ("ups0", _ref_ups0),
                                         ("ups_-2,2", _ref_ups_rayleigh)])
def test_kernel_values_match_scalar_quad(kernel, ref, source):
    rc = _sources()[source]
    m = la.PolarMeasure(1, ((la.Direction((1.0,)), rc),))
    got = _density(KERNELS[kernel](m)).values(np.array(RADII))
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


@pytest.mark.parametrize("build, kind", [
    (lambda m: la.arcsine1(m), _HalfIntegralKernel),
    (lambda m: la.arcsine2(m), _ScaleMixtureKernel),
    (lambda m: la.arcsine1(la.upsilon0(la.fixture_catalog()["EX2"].measure)), _ChainKernel),
])
def test_value_is_values_bit_for_bit_at_every_radius(build, kind):
    # an atom in the source, and a density with interior blowups (the a1
    # image of two atoms), give the kernels per-radius blowups and break
    # points; every radius of a batch reads as it does alone, in fresh
    # kernels, so no memo is shared
    src = la.half_line_measure(atoms=[(0.8, 0.3)], density=_density(
        la.arcsine1(la.half_line_measure(atoms=[(0.5, 1.0), (2.0, 0.7)]))))
    rs = np.geomspace(0.05, 4.0, 17)
    batch_density = _density(build(src))
    assert type(batch_density) is kind
    batch = batch_density.values(rs)
    for r, v in zip(rs.tolist(), batch.tolist()):
        assert _density(build(src)).value(r) == v, r


def test_tail_table_reads_its_last_grid_point_and_zero_beyond():
    table = la.invert_arcsine1(la.arcsine1(la.fixture_catalog()["EX1"].measure),
                               (0.1, 2.0, 5)).components[0][2]
    us, tails = table.us, table.tails
    assert tails[-1] > 0.3
    assert table.tail(0.5 * us[0]) == tails[0]
    assert table.tail(us[0]) == tails[0]
    assert table.tail(us[2]) == tails[2]
    mid = 0.5 * (us[1] + us[2])
    assert tails[2] <= table.tail(mid) <= tails[1]
    assert table.tail(us[-1]) == tails[-1]
    assert table.tail(us[-1] * (1.0 - 1e-12)) == pytest.approx(tails[-1], rel=1e-9)
    assert table.tail(us[-1] * (1.0 + 1e-12)) == 0.0
    assert table.tail(10.0 * us[-1]) == 0.0


def test_tail_table_rejects_nan():
    table = la.TailTable((0.1, 1.0), (1.0, 0.5))
    with pytest.raises(ValueError, match="nan"):
        table.tail(math.nan)


@pytest.mark.parametrize("kernel, where", [
    ("arcsine1", "a1(_SquareWave) kernel at r=0.5"),
    ("upsilon_arcsine", "upsilon(_SquareWave) kernel at r=0.5"),
], ids=_without_source)
def test_batch_names_its_unresolvable_radius(kernel, where):
    # both images live on (0, 2^(1/2)] or (0, 2]; the other radii of the batch
    # lie outside, so only r = 0.5 needs (and fails) the quadrature
    if kernel == "arcsine1":
        d = _image("arcsine1", _SquareWave())
    else:
        d = _density(la.upsilon_tau(la.half_line_measure(density=_SquareWave()),
                                    la.arcsine_dilation()))
    with pytest.raises(QuadratureNonConvergence, match=re.escape(where)) as info:
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
        assert d.blowups() == (1.0,)
    assert _density(la.upsilon0(delta1)).blowups() == ()
    two = la.half_line_measure(atoms=[(0.5, 1.0), (2.0, 1.0)])
    d = _density(la.arcsine2(two))
    assert d.support[1] == 2.0 and d.blowups() == (0.5, 2.0)
    # a dilation density that blows up inside its support, a1 of atoms at
    # 0.25 and 1 (blowups at 0.5 and 1, mass 2): a source atom at s leaves
    # the interior one at 0.5 s, without which the mass integral raises
    tau = la.arcsine1(la.half_line_measure(atoms=[(0.25, 1.0), (1.0, 1.0)])).components[0][1]
    for atoms, radii in (([(1.0, 1.0)], (0.5, 1.0)), ([(1.0, 1.0), (2.0, 1.0)], (0.5, 1.0, 2.0))):
        rc = la.upsilon_tau(la.half_line_measure(atoms=atoms), tau).components[0][1]
        assert rc.density.blowups() == radii and rc.density.support[1] == radii[-1]
        mass = integrate(rc, lambda r: 1.0, (0.0, math.inf), abs_tol=1e-10)
        assert abs(mass - 2.0 * len(atoms)) <= 1e-10, atoms
    # the mirror case: that density as the source, a dilation atom at 2
    rc = la.upsilon_tau(la.half_line_measure(density=tau.density),
                        la.RadialComponent(((2.0, 1.0),))).components[0][1]
    assert rc.density.blowups() == (1.0, 2.0) and rc.density.support[1] == 2.0
    assert abs(integrate(rc, lambda r: 1.0, (0.0, math.inf), abs_tol=1e-10) - 2.0) <= 1e-10
    # a dilation atom at 2 above the arcsine density: the atom at 1 leaves
    # the density's blowup at 1, not at the dilation's supremum 2
    rc = la.upsilon_tau(delta1, la.RadialComponent(((2.0, 1.0),), ArcsineDilationDensity())
                        ).components[0][1]
    assert rc.density.support[1] == 2.0 and rc.density.blowups() == (1.0,)
    assert abs(integrate(rc, lambda r: 1.0, (0.0, math.inf), abs_tol=1e-10) - 2.0) <= 1e-10


def test_arcsine2_of_ex2_near_zero(ex2_measure):
    # the u-integral of the arcsine scale mixture has its mass near u ~ r;
    # r^(1/2) a2(EX2)(r) tends to A = c int_0^1 u^(-1/2) (2/pi)(1 - u^2)^(-1/2) du
    # with c = sqrt(pi)/4, and the next term is -r^(1/2)/2
    A = (SQRT_PI / 4.0) * math.gamma(0.25) * math.gamma(0.5) / (math.pi * math.gamma(0.75))
    assert A == pytest.approx(0.73966877979716, abs=1e-14)
    d = _density(la.arcsine2(ex2_measure))
    rs = np.geomspace(1e-20, 1e-12, 33)
    got = np.sqrt(rs) * d.values(rs)
    assert np.max(np.abs(got - (A - np.sqrt(rs) / 2.0))) <= 1e-13
    for r in (1e-20, 1e-16, 9.984210577874086e-15, 1e-12):
        assert math.sqrt(r) * d.value(r) == pytest.approx(A - math.sqrt(r) / 2.0, abs=1e-13)


# each case: the image, the log-densities of its source at log x and of its
# dilation at log u, the radii, and the relative tolerance
UNBOUNDED_DILATION_CASES = {
    "ups(1.9, 0.1) of exp_power(1, -2.5, 1, 1)": (
        lambda: la.upsilon_alpha_beta(
            la.half_line_measure(density=la.ExpPowerDensity(1.0, -2.5, 1.0, 1.0)), 1.9, 0.1),
        lambda lx: -2.5 * lx - math.exp(lx),
        lambda lu: math.log(0.1) - 2.9 * lu - math.exp(0.1 * lu),
        np.geomspace(1e-6, 50.0, 9), 1e-12),
    "ups0 of EX1 at large radii": (
        lambda: la.upsilon0(la.half_line_measure(density=la.ex1_input_density())),
        lambda lx: math.log(math.pi / 4.0) - 0.5 * lx - math.exp(0.5 * lx),
        lambda lu: -math.exp(lu),
        np.array([5.2e3, 1e4]), 1e-8),
}


@pytest.mark.parametrize("case", list(UNBOUNDED_DILATION_CASES))
def test_upsilon_over_unbounded_dilation(case):
    # the u-integral runs to u = inf; the reference takes it in t = log u,
    # int exp(log f(log r - t) + log tau(t)) dt, by scipy's quad on unit
    # pieces from log r - 40 to log r + 150, outside which the integrand
    # is below double precision
    build, log_f, log_tau, rs, rel = UNBOUNDED_DILATION_CASES[case]
    from scipy import integrate as sp_integrate
    got = _density(build()).values(rs)
    for r, v in zip(rs, got):
        lr = math.log(r)
        h = lambda t: math.exp(log_f(lr - t) + log_tau(t))
        want = sum(sp_integrate.quad(h, a, a + 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for a in np.arange(lr - 40.0, lr + 150.0))
        assert abs(v - want) <= rel * want, (r, v, want)


# ---------------------------------------------------------------------------
# the chain rewrite: depth-2 chains as one scale mixture
# ---------------------------------------------------------------------------

def _component(dens):
    return la.RadialComponent(density=dens)


def _a1_kernel(rc):
    return _HalfIntegralKernel(rc, "a1", 2.0, TWO_OVER_PI)


def _exp_power_dilation(c, a, b, p):
    return la.RadialComponent(density=la.ExpPowerDensity(c, a, b, p))


# each case: the public chain, and the same chain nested as written
CHAIN_CASES = {
    "rayleigh (2, 1): ups(-2,2) o a1": (
        lambda m: la.upsilon_alpha_beta(la.arcsine1(m), -2.0, 2.0),
        lambda rc: _ScaleMixtureKernel(_component(_a1_kernel(rc)), "upsilon",
                                       la.power_exp_dilation(-2.0, 2.0))),
    "rayleigh (2, 1): a1 o ups0": (
        lambda m: la.arcsine1(la.upsilon0(m)),
        lambda rc: _a1_kernel(_component(_ScaleMixtureKernel(rc, "upsilon", la.exp_dilation())))),
    "rayleigh (0.7, 2.5): ups o a1": (
        lambda m: la.upsilon_tau(la.arcsine1(m), _exp_power_dilation(0.7, 1.0, 2.5, 2.0)),
        lambda rc: _ScaleMixtureKernel(_component(_a1_kernel(rc)), "upsilon",
                                       _exp_power_dilation(0.7, 1.0, 2.5, 2.0))),
    "exp rate 1: ups0 o a1": (
        lambda m: la.upsilon0(la.arcsine1(m)),
        lambda rc: _ScaleMixtureKernel(_component(_a1_kernel(rc)), "upsilon", la.exp_dilation())),
    "exp rate 3: ups o a1": (
        lambda m: la.upsilon_tau(la.arcsine1(m), _exp_power_dilation(0.4, 0.0, 3.0, 1.0)),
        lambda rc: _ScaleMixtureKernel(_component(_a1_kernel(rc)), "upsilon",
                                       _exp_power_dilation(0.4, 0.0, 3.0, 1.0))),
    "exp rate 1: a1 o ups(-1/2,1/2)": (
        lambda m: la.arcsine1(la.upsilon_alpha_beta(m, -0.5, 0.5)),
        lambda rc: _a1_kernel(_component(_ScaleMixtureKernel(
            rc, "upsilon", la.power_exp_dilation(-0.5, 0.5))))),
    "elliptic: a2 o a1": (
        lambda m: la.arcsine2(la.arcsine1(m)),
        lambda rc: _ScaleMixtureKernel(_component(_a1_kernel(rc)), "a2", la.arcsine_dilation())),
    "elliptic: a2 o a2": (
        lambda m: la.arcsine2(la.arcsine2(m)),
        lambda rc: _ScaleMixtureKernel(_component(_ScaleMixtureKernel(rc, "a2", la.arcsine_dilation())),
                                       "a2", la.arcsine_dilation())),
    "exp rate 1: a2 o ups0": (
        lambda m: la.arcsine2(la.upsilon0(m)),
        lambda rc: _ScaleMixtureKernel(_component(_ScaleMixtureKernel(rc, "upsilon", la.exp_dilation())),
                                       "a2", la.arcsine_dilation())),
    "exp rate 1: ups0 o a2": (
        lambda m: la.upsilon0(la.arcsine2(m)),
        lambda rc: _ScaleMixtureKernel(_component(_ScaleMixtureKernel(rc, "a2", la.arcsine_dilation())),
                                       "upsilon", la.exp_dilation())),
}


def _chain_sources():
    ex2 = la.ex2_input_density()
    return {"EX2": la.RadialComponent(density=ex2),
            "atom + EX2": la.RadialComponent(atoms=((1.5, 0.5),), density=ex2)}


@pytest.mark.parametrize("source", list(_chain_sources()))
@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_chain_rewrite_matches_nested_kernels(case, source):
    build, nested = CHAIN_CASES[case]
    rc = _chain_sources()[source]
    got = _density(build(la.PolarMeasure(1, ((la.Direction((1.0,)), rc),))))
    want = nested(rc)
    assert isinstance(got, _ChainKernel) and not isinstance(got.source.density, TransformedDensity)
    assert got.provenance_name() == want.provenance_name()
    rs = np.array(RADII)
    assert np.max(np.abs(got.values(rs) / want.values(rs) - 1.0)) <= 1e-10


def _mellin_with_arcsine(rho, v):
    """Density at v of U V, U ~ arcsine and V ~ rho independent:
    int_0^1 (2/pi) (1 - u^2)^(-1/2) rho(v/u) du/u, by scipy's quad with the
    (1 - u)^(-1/2) factor as its algebraic weight."""
    from scipy import integrate as sp_integrate
    lo = v * rho.support[0]
    f = lambda u: TWO_OVER_PI * rho.value(v / u) / (u * math.sqrt(1.0 + u))
    return sp_integrate.quad(f, lo, 1.0, weight="alg", wvar=(0.0, -0.5),
                             epsabs=0.0, epsrel=1e-13, limit=500)[0]


def _arcsine_squared_ref(v):
    """int_v^1 (2/pi)^2 ((1 - u^2)(u^2 - v^2))^(-1/2) du, by scipy's quad
    with both inverse square roots as its algebraic weight."""
    from scipy import integrate as sp_integrate
    f = lambda u: TWO_OVER_PI ** 2 / math.sqrt((1.0 + u) * (u + v))
    return sp_integrate.quad(f, v, 1.0, weight="alg", wvar=(-0.5, -0.5),
                             epsabs=0.0, epsrel=1e-13, limit=500)[0]


@pytest.mark.parametrize("rho", [
    la.ExpPowerDensity(2.0, 1.0, 1.0, 2.0),
    la.ExpPowerDensity(0.7, 1.0, 2.5, 2.0),
    la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0),
    la.ExpPowerDensity(0.4, 0.0, 3.0, 1.0),
], ids=["rayleigh (2, 1)", "rayleigh (0.7, 2.5)", "exp rate 1", "exp rate 3"])
def test_table_entry_is_the_mellin_convolution(rho):
    composed = _compose(ArcsineDilationDensity(), rho)
    vs = np.geomspace(0.02, 3.0, 9)
    got = composed.values(vs)
    assert np.array_equal(_compose(rho, ArcsineDilationDensity()).values(vs), got)
    for v, g in zip(vs, got):
        want = _mellin_with_arcsine(rho, float(v))
        assert g == pytest.approx(want, rel=1e-10), v


def test_elliptic_table_entry_is_the_mellin_convolution():
    composed = _compose(ArcsineDilationDensity(), ArcsineDilationDensity())
    vs = np.concatenate([np.geomspace(0.01, 0.9, 8), [0.99, 0.999]])
    got = composed.values(vs)
    for v, g in zip(vs, got):
        assert g == pytest.approx(_arcsine_squared_ref(float(v)), rel=1e-10), v
    assert composed.value(1.0) == pytest.approx(TWO_OVER_PI, rel=1e-15)
    assert composed.value(1.0 + 1e-12) == 0.0
    # below the switch to log(4/v), where v^2 would underflow
    assert composed.value(1e-200) == pytest.approx(TWO_OVER_PI ** 2 * math.log(4e200), rel=1e-15)


def _table_a1_ex2():
    return la.tabulate_density(_a1_kernel(la.RadialComponent(density=la.ex2_input_density())),
                               per_decade=32)


def _dilation_with_atom():
    return la.RadialComponent(atoms=((0.5, 1.0),), density=la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0))


# chains the rewrite leaves nested: no table entry, a tabulated intermediate,
# atoms in the component or the dilation, frac_half
FALLBACK_CASES = {
    "ups0 o ups0": (
        lambda m: la.upsilon0(la.upsilon0(m)),
        lambda rc: _ScaleMixtureKernel(_component(_ScaleMixtureKernel(rc, "upsilon", la.exp_dilation())),
                                       "upsilon", la.exp_dilation())),
    "a1 o a1": (
        lambda m: la.arcsine1(la.arcsine1(m)),
        lambda rc: _a1_kernel(_component(_a1_kernel(rc)))),
    "a1 o a2": (
        lambda m: la.arcsine1(la.arcsine2(m)),
        lambda rc: _a1_kernel(_component(_ScaleMixtureKernel(rc, "a2", la.arcsine_dilation())))),
    "ups0 over a tabulated a1 image": (
        lambda m: la.upsilon0(la.half_line_measure(density=_table_a1_ex2())),
        lambda rc: _ScaleMixtureKernel(_component(_table_a1_ex2()), "upsilon", la.exp_dilation())),
    "ups over a1 with a dilation atom": (
        lambda m: la.upsilon_tau(la.arcsine1(m), _dilation_with_atom()),
        lambda rc: _ScaleMixtureKernel(_component(_a1_kernel(rc)), "upsilon", _dilation_with_atom())),
    "a1 over ups with a dilation atom": (
        lambda m: la.arcsine1(la.upsilon_tau(m, _dilation_with_atom())),
        lambda rc: _a1_kernel(_component(_ScaleMixtureKernel(rc, "upsilon", _dilation_with_atom())))),
    "ups0 over an atom and a1": (
        lambda m: la.upsilon0(la.half_line_measure(atoms=[(2.0, 1.0)],
                                                   density=_a1_kernel(m.components[0][1]))),
        lambda rc: _ScaleMixtureKernel(la.RadialComponent(((2.0, 1.0),), _a1_kernel(rc)),
                                       "upsilon", la.exp_dilation())),
    "ups0 o frac_half": (
        lambda m: la.upsilon0(la.PolarMeasure(1, ((la.Direction((1.0,)),
                                                   la.frac_half(m.components[0][1])),))),
        lambda rc: _ScaleMixtureKernel(
            _component(_HalfIntegralKernel(rc, "frac_half", 1.0, 1.0 / SQRT_PI)),
            "upsilon", la.exp_dilation())),
}


@pytest.mark.parametrize("case", list(FALLBACK_CASES))
def test_chains_without_an_entry_stay_nested(ex2_measure, case):
    build, nested = FALLBACK_CASES[case]
    got = _density(build(ex2_measure))
    want = nested(ex2_measure.components[0][1])
    assert not isinstance(got, _ChainKernel)
    assert got.provenance_name() == want.provenance_name()
    rs = np.array([0.3, 1.1, 2.6])
    assert np.array_equal(got.values(rs), want.values(rs))


def _mixture_of_half_table(table, rho, r):
    """int 2 T(x^2) rho(r/x) dx: the scale mixture at r of the table's image
    under s -> s^(1/2), whose density is 2 x T(x^2), against the dilation
    density rho; by scipy's quad on the pieces between the mapped knots
    sqrt(x_k) and x = r, on each of which the integrand is smooth."""
    from scipy import integrate as sp_integrate
    xs, ys = np.asarray(table.xs), np.asarray(table.ys)
    edges = np.unique(np.concatenate([np.sqrt(xs), [r]]))
    edges = edges[(edges >= math.sqrt(xs[0])) & (edges <= math.sqrt(xs[-1]))]
    f = lambda x: 2.0 * np.interp(x * x, xs, ys) * rho(r / x)
    return sum(sp_integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]))


# the scale mixtures over a1 of a table and their composed dilations,
# sigma * arcsine
TABLE_CHAIN_CASES = {
    "ups0": (la.upsilon0, lambda v: TWO_OVER_PI * k0(v)),
    "a2": (la.arcsine2, lambda v: TWO_OVER_PI ** 2 * ellipkm1(v * v) if v <= 1.0 else 0.0),
    "ups(-2,2)": (lambda m: la.upsilon_alpha_beta(m, -2.0, 2.0),
                  lambda v: 2.0 / SQRT_PI * math.exp(-v * v)),
}


@pytest.mark.parametrize("case", list(TABLE_CHAIN_CASES))
def test_chain_over_a1_of_a_table(case):
    # every scale mixture over a1 of a table raised QuadratureNonConvergence
    # while it nested; the chain reads the table's exact power image
    op, rho = TABLE_CHAIN_CASES[case]
    table = la.tabulate_density(la.ex2_input_density(), per_decade=64)
    d = _density(op(la.arcsine1(la.half_line_measure(density=table))))
    assert isinstance(d, _ChainKernel)
    rs = [0.3, 1.1, 2.6]
    for r, v in zip(rs, d.values(np.array(rs))):
        want = _mixture_of_half_table(table, rho, r)
        assert abs(v - want) <= 1e-12 * want, (r, v, want)


def test_a2_of_a1_image_near_its_supremum(delta1):
    # the nested a2 kernel over a1(delta_1) raises QuadratureNonConvergence at
    # r = 0.999; the chain is the elliptic dilation itself
    d = _density(la.arcsine2(la.arcsine1(delta1)))
    for r in (0.998, 0.999, 0.9999):
        want = TWO_OVER_PI ** 2 * float(ellipkm1(r * r))
        assert d.value(r) == pytest.approx(want, rel=1e-12)


def test_chain_kernels_keep_their_provenance(delta1, ex2_measure, monkeypatch):
    from levyarc import transforms
    names = {
        "a1(upsilon(exp_power))": _density(la.arcsine1(la.upsilon0(ex2_measure))),
        "a2(a1(exp_power))": _density(la.arcsine2(la.arcsine1(ex2_measure))),
        "upsilon(a1(exp_power))": _density(la.upsilon0(la.arcsine1(ex2_measure))),
        "upsilon(a1(atoms))": _density(la.upsilon0(la.arcsine1(delta1))),
    }
    labels = []
    quad_batch = transforms.quad_batch

    def recording(*args, label, **kw):
        labels.append(label(0))
        return quad_batch(*args, label=label, **kw)

    monkeypatch.setattr(transforms, "quad_batch", recording)
    for name, d in names.items():
        assert isinstance(d, _ChainKernel)
        assert d.provenance_name() == name
        assert la.tabulate_density(d, 0.5, 1.0, per_decade=2).provenance == name
        labels.clear()
        d.values(np.array([0.5]))
        # the atom-only source is read in closed form, without a quadrature
        assert labels == ([] if "atoms" in name else [f"{name} kernel at r=0.5"])


# ---------------------------------------------------------------------------
# the Abel evaluator's break points
# ---------------------------------------------------------------------------

def _unit_exponential():
    return la.RadialComponent((), la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0))


@pytest.mark.parametrize("build, exact, rs", [
    (lambda: _density(la.arcsine1(la.fixture_catalog()["EX2"].measure)),
     la.ex3_closed_form, np.linspace(5.0, 12.0, 40)),
    (lambda: _density(la.arcsine1(la.fixture_catalog()["EX1"].measure)),
     la.k0, np.geomspace(1e-3, 25.0, 40)),
    # pi^(-1/2) int_x^oo (s - x)^(-1/2) e^(-s) ds = e^(-x)
    (lambda: la.frac_half(_unit_exponential()).density,
     lambda x: math.exp(-x), np.geomspace(1e-6, 30.0, 40)),
], ids=["a1(EX2) = EX3", "a1(EX1) = K0", "frac_half(exp) = exp"])
def test_abel_outputs_keep_relative_accuracy_below_the_absolute_tolerance(build, exact, rs):
    # the far values lie below INNER_ABS_TOL, so only a relative check sees a
    # piece whose break points start above the scale where its mass sits
    for r, v in zip(rs.tolist(), build().values(rs).tolist()):
        want = exact(r)
        assert abs(v - want) <= 1e-11 * want, (r, v, want)


def test_nested_inversion_read_budget(ex1_measure):
    # the inversion of a1(EX1) reads EX1 at the nodes of one tail integral per
    # point, with no inner integral per node
    reads = []

    class Counting(la.ExpPowerDensity):
        def values(self, rs):
            r = np.asarray(rs, float)
            reads.append(r.size)
            return super().values(r)

    d = _density(ex1_measure)
    img = la.arcsine1(la.half_line_measure(density=Counting(d.c, d.a, d.b, d.p)))
    la.invert_arcsine1(img, (2e-3, 50.0, 4))
    assert 0 < sum(reads) <= 250_000
    reads.clear()
    _density(img).value(1.3)
    assert 0 < sum(reads) <= 300


@pytest.mark.parametrize("build", [
    lambda: _density(la.arcsine1(la.fixture_catalog()["EX1"].measure)),
    lambda: _density(la.arcsine1(la.fixture_catalog()["EX2"].measure)),
    lambda: _density(la.arcsine2_direct(la.fixture_catalog()["EX2"].measure)),
    lambda: la.frac_half(_unit_exponential()).density,
], ids=["a1(EX1)", "a1(EX2)", "a2_direct(EX2)", "frac_half(exp)"])
def test_abel_marks_do_not_depend_on_the_batch(build):
    # each piece's marks come from its own data; 96 radii make more than
    # CHUNK_INTERVALS cells, so the batch is also summed in several chunks
    rs = np.geomspace(1e-3, 12.0, 96)
    batch = build().values(rs)
    d = build()
    assert batch.tolist() == [d.value(r) for r in rs.tolist()]


def test_inversion_tails_do_not_depend_on_the_grid(ex1_measure):
    # the Abel route: the K0 closed form of a1(EX1) is no a1 kernel, and each
    # tail equals the Abel integral at its point alone
    k0_image = la.half_line_measure(density=_BesselK0DilationDensity(math.pi / 2.0, 1.0))
    table = la.invert_arcsine1(k0_image, (2e-3, 50.0, 4)).components[0][2]
    for u, t in zip(table.us, table.tails):
        alone = 0.5 * _abel_integrals(_density(k0_image), 2.0, np.array([u]), DEFAULT_ABS_TOL, str)
        assert alone.tolist() == [t], u
    # the fold: each tail of the a1 kernel image equals its source's tail alone
    table = la.invert_arcsine1(la.arcsine1(ex1_measure), (2e-3, 50.0, 4)).components[0][2]
    for u, t in zip(table.us, table.tails):
        assert la.tail(ex1_measure.components[0][1], u) == t, u


@pytest.mark.parametrize("source", [
    lambda: la.half_line_measure(atoms=[(1.0, 1.0)]),
    lambda: la.half_line_measure(atoms=[(2.0, 1.0), (0.5, 1.0)]),
    lambda: la.fixture_catalog()["EX1"].measure,
    lambda: la.half_line_measure(atoms=[(1.0, 0.5)], density=la.ExpPowerDensity(1.0, -0.5, 1.0, 1.0)),
    lambda: la.arcsine1(la.fixture_catalog()["EX2"].measure),
], ids=["delta1", "two atoms", "EX1", "atom plus density", "a1(EX2)"])
def test_inverting_an_a1_image_reads_its_source_tails(source, monkeypatch):
    # A1 and its inverse are both half-order integrals, which compose to a
    # full one: the inversion of an a1 kernel image runs no Abel integral
    # over the image or its source (a1(EX2) still reads its own kernel over
    # EX2) and returns the source's tails bit for bit
    src = source()
    rc = src.components[0][1]
    abel = transforms._abel_integrals

    def kernel_reads_only(f, *args):
        assert getattr(f, "source", None) is not rc, "the inversion ran an Abel integral"
        return abel(f, *args)

    monkeypatch.setattr(transforms, "_abel_integrals", kernel_reads_only)
    table = la.invert_arcsine1(la.arcsine1(src), (3e-3, 7.0, 9)).components[0][2]
    assert list(table.tails) == [la.tail(rc, u) for u in table.us]


@pytest.mark.parametrize("grid", [
    (1e-2, math.inf, 5), (1e-2, 4.0, 2.5), (1e-2, 4.0, 5.0), (1e-2, 4.0, 1), (math.nan, 4.0, 5),
    (-math.inf, 4.0, 5), (0.0, 4.0, 5), (4.0, 1e-2, 5), (1e-2, math.nan, 5),
])
def test_inversion_grid_is_checked_as_the_cli_checks_it(delta1, grid):
    # finite 0 < LO < HI and an integer count >= 2, as levyarc invert --grid
    with pytest.raises(ValueError, match="bad inversion grid"):
        la.invert_arcsine1(la.arcsine1(delta1), grid)


def _decaying_table():
    # r^(-1/2) e^(-r/4) at 16 knots per decade on [1e-3, 30]
    return la.tabulate_density(la.ExpPowerDensity(1.0, -0.5, 0.25, 1.0), 1e-3, 30.0,
                               per_decade=16)


@pytest.mark.parametrize("build", [
    lambda: _density(la.arcsine1(la.fixture_catalog()["EX2"].measure)),
    lambda: _density(la.arcsine2(la.fixture_catalog()["EX2"].measure)),
    lambda: _density(la.upsilon0(la.half_line_measure(density=_decaying_table()))),
    lambda: _density(la.arcsine1(la.half_line_measure(density=_decaying_table()))),
    lambda: la.frac_half(la.RadialComponent((), _decaying_table())).density,
], ids=["a1(EX2)", "a2(EX2)", "ups0(table)", "a1(table)", "frac_half(table)"])
def test_kernels_split_big_batches_without_changing_a_value(build, monkeypatch):
    # with a budget of 64 break points the Abel batches run in chunks of at
    # most 5 radii and the scale-mixture ones in chunks of at most 2; a2 of
    # the table is left out (README known failure 4 at r = 0.965)
    from levyarc import transforms
    rs = np.geomspace(0.05, 8.0, 37)
    whole = build().values(rs)
    monkeypatch.setattr(transforms, "BREAK_POINT_BUDGET", 64)
    assert build().values(rs).tolist() == whole.tolist()


def test_abel_kernels_read_zero_at_the_end_of_a_bounded_source():
    # x = r**2 at the supremum of the a1 image rounds to the source's end or
    # past it, so no Abel integral is left to take
    dens = la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0, (0.0, 2.0))
    for d in (_density(la.arcsine1(la.half_line_measure(density=dens))),
              la.frac_half(la.RadialComponent((), dens)).density):
        end = d.support[1]
        assert d.values(np.array([end])).tolist() == [0.0] and d.value(end) == 0.0


# ---------------------------------------------------------------------------
# the Abel evaluator's one map s = a + span w^2: w in (0, 1) on a finite piece,
# w = sin(theta) on one ending on a blowup, w in (0, oo) on an unbounded one
# ---------------------------------------------------------------------------

def _near_blowup_cases():
    flat = la.frac_half(la.frac_half(la.RadialComponent(((1.0, 1.0),)))).density
    arcsine = _density(la.arcsine1(la.half_line_measure(
        density=la.frac_half(la.RadialComponent(((1.0, 1.0),))).density)))
    for k in range(1, 13):
        # frac_half twice of an atom at 1 is flat; a1 of pi^(-1/2) (1 - s)^(-1/2)
        # is (2/pi) pi^(-1/2) B(1/2, 1/2) = 2/sqrt(pi) at every r < 1
        yield flat, 1.0 - 10.0 ** -k, 1.0
        yield flat, 10.0 ** -k, 1.0
        yield arcsine, math.sqrt(1.0 - 10.0 ** -k), 2.0 / SQRT_PI


def test_abel_kernels_next_to_a_blowup_are_right_or_raise():
    # the pieces that end on the blowup at 1 stay on the sine map, whose
    # cosine absorbs (1 - s)^(-1/2); on the square map all 36 points raise
    raised = 0
    for d, r, want in _near_blowup_cases():
        try:
            got = d.value(r)
        except QuadratureNonConvergence:
            raised += 1
            continue
        assert abs(got - want) <= 1e-12 + 1e-12 * want, (d.name, r, got)
    # 22 of the 36 raise when every finite piece is sine-mapped
    assert raised <= 22


def test_abel_batch_of_sine_and_square_pieces(monkeypatch):
    # the outer half-order integral of frac_half(frac_half(rc)) reads the inner
    # image, which blows up at the atom at 1: pieces that end there take the
    # sine map and the rest the square map, in one quad_batch call. Two
    # half-order integrals compose to the full one, so the result is rc's tail
    rc = la.RadialComponent(((1.0, 1.0),), la.ExpPowerDensity(1.0, -0.5, 1.0, 1.0))
    d = la.frac_half(la.frac_half(rc)).density
    quad_batch, uppers = transforms.quad_batch, []

    def recording(f, n, a, b, **kw):
        uppers.append(np.broadcast_to(b, (n,)).tolist())
        return quad_batch(f, n, a, b, **kw)

    monkeypatch.setattr(transforms, "quad_batch", recording)
    xs = np.array([0.05, 0.3, 0.9, 0.999, 1.001, 1.5, 3.0])
    got = d.values(xs)
    # the outer call comes first; the inner image's reads are all square pieces
    assert 0.5 * math.pi in uppers[0] and 1.0 in uppers[0]
    assert [row for row in uppers if 0.5 * math.pi in row] == [uppers[0]]
    want = la.tail(rc, xs)
    assert np.all(np.abs(got - want) <= 1e-10 * want)


def _exact_abel_of_table(xs, ys, x):
    """int_x^oo (s - x)^(-1/2) table(s) ds, piece by piece in closed form at
    30 digits: on a piece alpha + beta s, with d = s - x, it is
    2 (alpha + beta x) (d1^(1/2) - d0^(1/2)) + (2/3) beta (d1^(3/2) - d0^(3/2))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        x, total = mpmath.mpf(x), mpmath.mpf(0)
        for s0, s1, y0, y1 in zip(xs[:-1], xs[1:], ys[:-1], ys[1:]):
            if s1 <= x:
                continue
            beta = (mpmath.mpf(y1) - y0) / (mpmath.mpf(s1) - s0)
            lead = y0 + beta * (x - s0)
            d0, d1 = max(mpmath.mpf(s0) - x, 0), mpmath.mpf(s1) - x
            total += (2 * lead * (mpmath.sqrt(d1) - mpmath.sqrt(d0))
                      + mpmath.mpf(2) / 3 * beta * (d1 ** 1.5 - d0 ** 1.5))
        return float(total)


def test_abel_kernels_of_a_kinked_table_match_the_exact_pieces():
    # every knot is a break point, mapped into the piece variable by
    # w = ((s - a)/span)^(1/2); the table's slopes change sign and size
    xs = np.geomspace(0.05, 5.0, 41)
    ys = np.exp(-xs) * (1.0 + 0.5 * np.sin(7.0 * xs))
    table = la.TableDensity(tuple(xs.tolist()), tuple(ys.tolist()))
    at = np.concatenate([xs[:-1], xs[:-1] * (1.0 + 1e-9), np.sqrt(xs[:-1] * xs[1:]), [0.01]])
    frac = la.frac_half(la.RadialComponent((), table)).density
    a1 = _density(la.arcsine1(la.half_line_measure(density=table)))
    rs = np.sqrt(at)
    for d, radii, anchors, const in ((frac, at, at, 1.0 / SQRT_PI),
                                     (a1, rs, rs ** 2, TWO_OVER_PI)):
        for r, x, got in zip(radii.tolist(), anchors.tolist(), d.values(radii).tolist()):
            want = const * _exact_abel_of_table(xs.tolist(), ys.tolist(), x)
            assert abs(got - want) <= 1e-13 * want, (d.name, r, got, want)


class _KinkedTail(Density):
    """e^(-s) (1 + |s - 2|) on (0, oo): a kink at 2 and no tail envelope, so
    the Abel range stays unbounded."""

    def values(self, rs):
        s = np.asarray(rs, float)
        inside = (s > 0.0) & np.isfinite(s)
        t = np.where(inside, s, 1.0)
        return np.where(inside, np.exp(-t) * (1.0 + np.abs(t - 2.0)), 0.0)

    def kinks(self):
        return (2.0,)


class _KinkedTailBlownUp(_KinkedTail):
    """_KinkedTail plus (2 - s)^(-1/2) below 2: the Abel range of x < 2 is
    cut at the blowup at 2, and its unbounded piece starts there."""

    def values(self, rs):
        s = np.asarray(rs, float)
        below = (s > 0.0) & (s < 2.0)
        return super().values(s) + np.where(below, 1.0 / np.sqrt(np.where(below, 2.0 - s, 1.0)), 0.0)

    def blowups(self):
        return (2.0,)


def test_abel_kernel_breaks_an_unbounded_piece_at_its_kinks(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    from levyarc import transforms
    points, uppers = [], []

    def recording(f, n, a, b, **kw):
        points.append(kw["points"])
        uppers.append(np.broadcast_to(b, (n,)))
        return quad_batch(f, n, a, b, **kw)

    quad_batch = transforms.quad_batch
    monkeypatch.setattr(transforms, "quad_batch", recording)
    # with the blowup, x < 2 leaves a sine piece up to 2 and an unbounded one
    # from the cut at 2; 0.01 below the blowup the sine piece reads 1.8e-12
    # relative
    for dens, xs, rel in ((_KinkedTail(), [0.3, 1.0, 1.9, 2.5, 4.0], {}),
                          (_KinkedTailBlownUp(), [0.3, 1.0, 1.9, 1.99, 2.5, 4.0], {1.99: 2e-12})):
        points.clear()
        uppers.clear()
        got = la.frac_half(la.RadialComponent((), dens)).density.values(np.array(xs))
        # one unbounded piece per x, on w with s = a + w^2, broken at the kink
        # w = (2 - x)^(1/2) when it lies inside, and at nothing else
        unbounded = points[0][np.isinf(uppers[0])]
        assert len(unbounded) == len(xs)
        for x, row in zip(xs, unbounded):
            want_row = [math.sqrt(2.0 - x)] if x < 2.0 and not dens.blowups() else []
            assert row[~np.isnan(row)].tolist() == want_row, x
        blowup = bool(dens.blowups())
        f = lambda s: (mpmath.exp(-s) * (1 + abs(s - 2))
                       + (1 / mpmath.sqrt(2 - s) if blowup and s < 2 else 0))
        with mpmath.workdps(30):
            for x, g in zip(xs, got.tolist()):
                # pi^(-1/2) int_0^oo 2 f(x + v^2) dv, split at the kink
                cuts = [0] + ([mpmath.sqrt(2 - mpmath.mpf(x))] if x < 2.0 else []) + [mpmath.inf]
                want = float(mpmath.quad(lambda v: 2 * f(x + v * v), cuts) / mpmath.sqrt(mpmath.pi))
                assert abs(g - want) <= rel.get(x, 1e-13) * want, (type(dens).__name__, x, g, want)


def test_finite_support_images_certify_their_support_bit_for_bit():
    # the tail radius of a finite support is the support's top, computed by
    # the same recursion through the source: sqrt(3) for a1 of atoms plus an
    # exp_power density on (0, 3), and the top knot squared for a table's
    # pow2 image
    src = la.half_line_measure(atoms=[(0.5, 1.0), (2.0, 0.7)],
                               density=la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0, (0.0, 3.0)))
    table = la.tabulate_density(la.ex2_input_density(), per_decade=16)
    images = [_density(la.arcsine1(src)),
              _density(power_reparam(la.half_line_measure(density=table), 2.0))]
    assert isinstance(images[0], _HalfIntegralKernel) and isinstance(images[1], PowerImageDensity)
    assert images[0].support[1] == math.sqrt(3.0)
    assert images[1].support[1] == table.xs[-1] ** 2
    for d in images:
        for moment in (0.0, 2.0):
            assert d.weighted_tail_radius(1e-12, moment) == d.support[1], (d, moment)
        assert d.table_radius() == d.support[1]


def test_a1_of_an_upsilon_image_with_unbounded_abel_ranges(ex2_measure):
    # the scale mixture against s^(-1/2) e^(-s) has no tail envelope, so every
    # Abel range of the a1 kernel over it is unbounded. a1 = Upsilon_arcsine o
    # P_(1/2), so the image has the Mellin transform
    # M(s) = M_EX2(s/2) Gamma(s/2 + 1/2) M_arc(s), and its density is
    # (1/pi) Re int_0^oo M(it) r^(-it-1) dt; |M(it)| falls like e^(-pi t/2)
    mpmath = pytest.importorskip("mpmath")
    ups = la.upsilon_alpha_beta(ex2_measure, -0.5, 1.0)
    d = _density(la.arcsine1(ups))
    assert isinstance(d, _HalfIntegralKernel)
    assert _density(ups).weighted_tail_radius(1e-12) == math.inf
    rs = (0.1, 0.5, 1.0, 2.5, 5.0)
    got = d.values(np.array(rs))
    with mpmath.workdps(20):
        for r, g in zip(rs, got):
            def h(t, r=mpmath.mpf(r)):
                s = mpmath.mpc(0, t)
                return (_m_ex2(s / 2) * mpmath.gamma(s / 2 + 0.5) * _m_arc(s)
                        * r ** (-s - 1)).real
            want = float(mpmath.quad(h, mpmath.linspace(0, 80, 17)) / mpmath.pi)
            assert g == pytest.approx(want, rel=1e-12), r


def test_inverting_just_below_an_atom(two_atoms):
    # the a1 image is inverted by its source's tails, atoms summed exactly
    img = la.arcsine1(two_atoms)
    for u in (1.996, 1.998):
        tail = la.invert_arcsine1(img, (u, 1.999, 2)).components[0][2].tails[0]
        assert abs(tail - 1.0) <= 1e-11, u
    # within 3e-4 below an atom, where an Abel integral over the image cannot
    # resolve loc - s from the rounded s of its integration variable. The a2
    # image of the atoms' square roots is the same measure: a2 = a1 o P_2, so
    # it inverts to its source's tails at sqrt(u)
    for img in (la.arcsine1(la.half_line_measure(atoms=[(0.5, 1.0), (2.0, 0.7)])),
                la.arcsine2(la.half_line_measure(atoms=[(math.sqrt(0.5), 1.0), (math.sqrt(2.0), 0.7)]))):
        for u, want in ((1.9994, 0.7), (1.9999, 0.7), (0.4999, 1.7)):
            tail = la.invert_arcsine1(img, (u, 1.99999, 2)).components[0][2].tails[0]
            assert abs(tail - want) <= 1e-12, u


@pytest.mark.parametrize("atoms", [(), ((1.5, 0.5),)], ids=["EX2", "atom + EX2"])
def test_inverting_an_a2_image_matches_the_abel_route(atoms):
    # the fold reads the source; the Abel route reads the image itself
    img = la.arcsine2(la.half_line_measure(atoms=atoms, density=la.ex2_input_density()))
    table = la.invert_arcsine1(img, (1e-2, 4.0, 9)).components[0][2]
    us = np.array(table.us)
    want = 0.5 * _abel_integrals(_density(img), 2.0, us, 1e-10, str)
    assert np.all(np.abs(np.array(table.tails) - want) <= 1e-12 * want)


def _counting_passes(monkeypatch):
    from levyarc import quadrature
    calls, cells = [0], [0]
    gk21 = quadrature._gk21

    def counting(f, key, table, kinds):
        if key.size <= quadrature.CHUNK_INTERVALS:  # a leaf: one call of f
            calls[0] += 1
            cells[0] += key.size
        return gk21(f, key, table, kinds)

    monkeypatch.setattr(quadrature, "_gk21", counting)
    return calls, cells


def test_log_blowups_at_zero_count_as_singular(delta1, ex1_measure, monkeypatch):
    calls, cells = _counting_passes(monkeypatch)
    # a scale mixture over the K0 dilation: ups0(a1(delta1)) = (2/pi) K0(r)
    k0_image = la.upsilon0(la.arcsine1(delta1)).components[0][1]
    assert k0_image.density.exponent_at_zero() == 0.0 and k0_image.density.blowups() == (0.0,)
    got = integrate(k0_image, lambda r: r, (0.0, math.inf))
    assert abs(got - TWO_OVER_PI) <= 1e-15 and calls[0] <= 6  # 13 passes without the map
    # the elliptic dilation: a2(a2(delta1)) carries the unit mass
    ell = la.arcsine2(la.arcsine2(delta1)).components[0][1]
    assert ell.density.blowups() == (0.0,)
    assert integrate(ell, lambda r: 1.0, (0.0, math.inf)) == pytest.approx(1.0, abs=1e-10)
    # a1 of a source density s^(-1/2) at 0: a1(EX1) = K0
    a1 = la.arcsine1(ex1_measure).components[0][1]
    assert a1.density.exponent_at_zero() == 0.0 and a1.density.blowups() == (0.0,)
    mpmath = pytest.importorskip("mpmath")
    want = float(mpmath.quad(lambda r: mpmath.besselk(0, r), [0, 1]))
    cells[0] = 0
    got = integrate(a1, lambda r: 1.0, (0.0, 1.0))
    # qk21 cells of the outer integral and of every Abel integral under it;
    # 28,542 without the endpoint map
    assert abs(got - want) <= 1e-12 and cells[0] <= 16_000
