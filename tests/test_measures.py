"""Polar measures: construction, validation levels, half-open integration,
tails, power reparametrization, JSON round trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import levyarc as la
from levyarc.errors import MalformedMeasure
from levyarc.measures import (Density, PowerImageDensity, integrate, integrate_batch,
                              power_reparam, tail, validate)

# strategies for small well-formed radial measures
atom_lists = st.lists(
    st.tuples(st.floats(0.01, 50.0), st.floats(0.01, 10.0)),
    min_size=1, max_size=5,
).map(lambda pairs: [(round(loc, 6), w) for loc, w in pairs])

exp_power_params = st.tuples(
    st.floats(0.1, 3.0),      # c
    st.floats(-1.9, 1.0),     # a  (keeps the measure in the l1 class)
    st.floats(0.2, 2.0),      # b
    st.sampled_from([0.5, 1.0, 2.0]),  # p
)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_direction_must_be_unit():
    with pytest.raises(MalformedMeasure):
        la.Direction((0.5, 0.5))
    d = la.Direction((3.0 / 5.0, 4.0 / 5.0))
    assert d.d == 2


def test_atoms_must_be_positive():
    with pytest.raises(MalformedMeasure):
        la.half_line_measure(atoms=[(-1.0, 1.0)])
    with pytest.raises(MalformedMeasure):
        la.half_line_measure(atoms=[(1.0, 0.0)])


def test_duplicate_atom_locations_merge():
    m = la.half_line_measure(atoms=[(1.0, 0.25), (1.0, 0.5)])
    rc = m.components[0][1]
    assert rc.atoms == ((1.0, 0.75),)


def _circle_measure(angles):
    unit = la.RadialComponent(((1.0, 1.0),))
    return la.PolarMeasure(2, tuple((la.Direction.normalized((math.cos(a), math.sin(a))), unit)
                                    for a in angles))


def test_near_duplicate_directions_rejected_by_index():
    angles = list(np.linspace(0.0, 2.0 * math.pi, 500, endpoint=False))
    angles[401] = angles[123] + 5e-13
    with pytest.raises(MalformedMeasure, match=r"duplicate directions at indices 123 and 401$"):
        _circle_measure(angles)
    # 1e-10 apart is farther than the tolerance: two directions
    angles[401] = angles[123] + 1e-10
    assert len(_circle_measure(angles).components) == 500


def test_exact_duplicate_directions_rejected():
    with pytest.raises(MalformedMeasure, match=r"duplicate directions at indices 0 and 2$"):
        _circle_measure([0.0, 1.0, 0.0, 0.0])


def test_many_distinct_directions_construct():
    m = _circle_measure(np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False))
    assert len(m.components) == 2000


def test_table_density_rejects_bad_input():
    with pytest.raises(MalformedMeasure):
        la.TableDensity([1.0], [1.0])
    with pytest.raises(MalformedMeasure):
        la.TableDensity([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    with pytest.raises(MalformedMeasure):
        la.TableDensity([0.0, 1.0], [1.0, -1.0])


def test_zero_measure():
    z = la.PolarMeasure.zero(2)
    assert z.is_zero and z.d == 2 and len(z.components) == 0


def test_validate_levels():
    # r^(-2.5) e^(-r): a Levy density but not an l1 one
    m = la.half_line_measure(density=la.ExpPowerDensity(1.0, -2.5, 1.0, 1.0))
    assert validate(m, "levy").ok
    assert not validate(m, "levy_l1").ok
    # exponent at or below -3 is not a Levy density at all
    bad = la.half_line_measure(density=la.ExpPowerDensity(1.0, -3.2, 1.0, 1.0))
    assert not validate(bad, "levy").ok


def test_l1_implies_levy_on_fixture_set(catalog):
    measures = [f.measure for f in catalog.values()]
    measures.append(la.half_line_measure(atoms=[(0.5, 2.0), (3.0, 0.1)]))
    measures.append(la.half_line_measure(density=la.ExpPowerDensity(1.0, -2.5, 1.0, 1.0)))
    for m in measures:
        if validate(m, "levy_l1").ok:
            assert validate(m, "levy").ok


# ---------------------------------------------------------------------------
# integration over (a, b]
# ---------------------------------------------------------------------------

def test_half_open_interval_atom_semantics():
    rc = la.half_line_measure(atoms=[(1.0, 0.5), (2.0, 0.25)]).components[0][1]
    assert integrate(rc, lambda r: 1.0, (1.0, 2.0)) == pytest.approx(0.25)
    assert integrate(rc, lambda r: 1.0, (0.99, 2.0)) == pytest.approx(0.75)
    assert integrate(rc, lambda r: 1.0, (0.0, 1.99)) == pytest.approx(0.5)


def test_integrate_mixed_atoms_and_density():
    m = la.half_line_measure(atoms=[(2.0, 0.5)],
                             density=la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0))
    rc = m.components[0][1]
    got = integrate(rc, lambda r: r, (0.0, math.inf), g_moment=1.0)
    assert got == pytest.approx(1.0 + 1.0, rel=1e-10)  # int r e^-r + 2 * 0.5


def test_integrate_excludes_spherical_weight():
    # integrate and tail act on the bare radial measure; the component's
    # spherical weight is applied by measure-level callers
    m = la.PolarMeasure(1, ((la.Direction((1.0,)),
                             la.RadialComponent(atoms=((1.0, 1.0),), density=None,
                                                weight=3.0)),))
    rc = m.components[0][1]
    assert integrate(rc, lambda r: 1.0, (0.0, 2.0)) == pytest.approx(1.0)
    assert rc.weight == 3.0


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------

def test_tail_steps_exactly_at_atoms():
    rc = la.half_line_measure(atoms=[(1.0, 0.5)]).components[0][1]
    assert tail(rc, 0.999) == pytest.approx(0.5)
    assert tail(rc, 1.0) == 0.0


@given(atom_lists)
def test_tail_nonincreasing_and_right_continuous(atoms):
    rc = la.half_line_measure(atoms=atoms).components[0][1]
    locs = sorted({loc for loc, _ in atoms})
    probes = sorted({l * f for l in locs for f in (0.5, 0.999999, 1.0, 1.000001)})
    vals = [tail(rc, u) for u in probes]
    for a, b in zip(vals, vals[1:]):
        assert a >= b - 1e-12
    # right continuity: the value at an atom equals the value just beyond it
    for loc in locs:
        assert tail(rc, loc) == pytest.approx(tail(rc, loc * (1 + 1e-12)), abs=1e-12)


# ---------------------------------------------------------------------------
# power reparametrization
# ---------------------------------------------------------------------------

def test_power_reparam_moves_atoms():
    m = la.half_line_measure(atoms=[(2.0, 0.5)])
    sq = power_reparam(m, 2.0)
    assert sq.components[0][1].atoms == ((4.0, 0.5),)


@given(atom_lists)
def test_power_reparam_change_of_variables_atoms(atoms):
    m = la.half_line_measure(atoms=atoms)
    g = lambda r: np.exp(-r)
    lhs = integrate(m.components[0][1], lambda r: g(r * r), (0.0, math.inf))
    rhs = integrate(power_reparam(m, 2.0).components[0][1], g, (0.0, math.inf))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@given(exp_power_params)
def test_power_reparam_change_of_variables_density(params):
    c, a, b, p = params
    m = la.half_line_measure(density=la.ExpPowerDensity(c, a, b, p))
    # r**2 factor keeps g integrable against r**a for every a the strategy
    # draws (the image density has exponent (a - 1) / 2)
    g = lambda r: r * r * np.exp(-r)
    lhs = integrate(m.components[0][1], lambda r: g(r * r), (0.0, math.inf))
    rhs = integrate(power_reparam(m, 2.0).components[0][1], g, (0.0, math.inf))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_power_reparam_round_trip():
    m = la.half_line_measure(atoms=[(2.0, 0.5)],
                             density=la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0))
    back = power_reparam(power_reparam(m, 2.0), 0.5)
    assert back.components[0][1].atoms == ((2.0, 0.5),)
    d0 = m.components[0][1].density
    d1 = back.components[0][1].density
    for r in (0.3, 1.0, 2.7):
        assert d1.value(r) == pytest.approx(d0.value(r), rel=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_atoms_and_density():
    m = la.half_line_measure(atoms=[(1.0, 1.0), (0.5, 0.25)],
                             density=la.ExpPowerDensity(0.7853981633974483, -0.5, 1.0, 0.5))
    back = la.from_json(json.loads(json.dumps(la.to_json(m))))
    assert back.d == m.d
    rc0, rc1 = m.components[0][1], back.components[0][1]
    assert rc0.atoms == rc1.atoms
    for r in (0.1, 1.0, 4.0):
        assert rc1.density.value(r) == pytest.approx(rc0.density.value(r), rel=1e-14)


def test_json_round_trip_table():
    t = la.TableDensity([0.1, 0.5, 1.0], [0.2, 0.8, 0.1])
    m = la.half_line_measure(density=t)
    back = la.from_json(la.to_json(m))
    d = back.components[0][1].density
    assert d.value(0.5) == pytest.approx(0.8)
    assert d.value(0.75) == pytest.approx(0.45)


def test_json_zero_measure_round_trip():
    z = la.PolarMeasure.zero(3)
    back = la.from_json(la.to_json(z))
    assert back.is_zero and back.d == 3


# ---------------------------------------------------------------------------
# tabulation
# ---------------------------------------------------------------------------

def test_tabulate_density_preserves_mass():
    dens = la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0)
    tab = la.tabulate_density(dens)
    assert isinstance(tab, la.TableDensity)
    # e^-r carries mass 1; the table stops where the tail is negligible
    assert tab.mass() == pytest.approx(1.0, abs=5e-4)


def test_table_interior_singular_radii_default_empty():
    t = la.TableDensity([0.1, 0.5, 1.0], [0.2, 0.8, 0.1])
    assert t.interior_singular_radii() == ()


# ---------------------------------------------------------------------------
# vectorised densities and batched integration
# ---------------------------------------------------------------------------

class _Ramp(Density):
    """User-defined density with value() only."""

    support = (0.0, 2.0)

    def value(self, r):
        return r if 0.0 < r < 2.0 else 0.0


def _exp_power_condition(d, r):
    """Condition number of c r^a exp(-b r^p) evaluated in log space: numpy's
    exp and log may round differently from the math module's in the last
    bit, and the exponent amplifies that by this factor."""
    lr = np.log(r)
    return 1.0 + abs(math.log(d.c)) + np.abs(d.a * lr) + d.b * r ** d.p * (1.0 + d.p * np.abs(lr))


def test_density_values_match_value():
    rs = np.array([[-1.0, 0.0, 1e-9, 0.3], [1.0, 2.0, 7.5, 1e100]])
    table = la.tabulate_density(la.ExpPowerDensity(1.0, -0.5, 1.0, 1.0), per_decade=16)
    exact = [la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0), la.ExpPowerDensity(2.0, 1.0, 0.5, 2.0),
             la.ExpPowerDensity(1.0, 0.0, 0.0, 1.0, (0.5, 1.5))]
    bitwise = [table, _Ramp(), la.arcsine_dilation().density,
               PowerImageDensity(table, 2.0),
               PowerImageDensity(table, 0.5)]
    for d in exact + bitwise:
        got = d.values(rs)
        assert got.shape == rs.shape and got.dtype == np.float64
        want = np.array([[d.value(float(r)) for r in row] for row in rs])
        if d in bitwise:
            assert np.array_equal(got, want), d
            continue
        assert np.array_equal(got == 0.0, want == 0.0), d
        pos = want > 0.0
        tol = 2.0 * np.finfo(float).eps * _exp_power_condition(d, rs[pos])
        assert np.all(np.abs(got[pos] - want[pos]) <= tol * want[pos]), d


def test_integrate_calls_g_on_arrays():
    # the atom's radius as a one-element array, the density part on arrays of nodes
    seen = []

    def g(r):
        seen.append(np.shape(r))
        return r

    rc = la.RadialComponent(((0.5, 2.0),), la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0))
    assert integrate(rc, g, (0.0, math.inf), g_moment=1.0) == pytest.approx(2.0, rel=1e-12)
    assert seen[0] == (1,) and len(seen) > 1
    assert all(len(s) == 1 and s[0] >= 21 for s in seen[1:])


def test_integrate_batch_matches_single_integrals():

    rc = la.RadialComponent(((0.5, 2.0), (3.0, 1.0)), la.ExpPowerDensity(1.0, -0.5, 1.0, 1.0))
    zs = np.array([0.1, 0.7, 2.0, 9.0])
    got = integrate_batch(rc, lambda r, k: np.cos(r * zs[k]) - 1.0, zs.size, (0.0, math.inf))
    for z, v in zip(zs, got):
        assert v == integrate(rc, lambda r: np.cos(r * z) - 1.0, (0.0, math.inf))
