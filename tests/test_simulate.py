"""Monte Carlo sampler: config validation, exactness on degenerate triplets,
law marginals, reproducibility (reruns, path prefixes across block edges,
thread settings and time_steps have no effect), and the small-jump
compensation scheme's convergence."""

import json
import math

import numpy as np
import pytest

import levyarc as la
from levyarc.errors import ConfigError, GridMismatch

ZS = [(float(z),) for z in np.linspace(-5.0, 5.0, 21)]


def small(paths=4000, steps=200, seed=3, **kw):
    return la.SimConfig(paths=paths, time_steps=steps, eps=1e-3, seed=seed, **kw)


def gauss_plus_density():
    """Gaussian part plus an infinite-activity density: every variate kind."""
    return la.Triplet([[0.7]],
                      la.half_line_measure(density=la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0)),
                      [0.2])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        la.SimConfig(paths=0, time_steps=10, eps=1e-3, seed=0)
    with pytest.raises(ValueError):
        la.SimConfig(paths=10, time_steps=0, eps=1e-3, seed=0)
    with pytest.raises(ValueError):
        la.SimConfig(paths=10, time_steps=10, eps=0.0, seed=0)


def test_cutoff_swallowing_all_jumps_warns():
    t = la.Triplet([[0.0]], la.half_line_measure(atoms=[(0.5, 1.0)]), [0.0])
    cfg = la.SimConfig(paths=16, time_steps=4, eps=2.0, seed=0)
    with pytest.warns(ConfigError):
        la.sample_id(t, cfg)


# ---------------------------------------------------------------------------
# exactness on degenerate inputs
# ---------------------------------------------------------------------------

def test_drift_only_integral_is_exact():
    t = la.Triplet([[0.0]], la.PolarMeasure.zero(1), [3.0])
    ss = la.sample_integral(t, "cos_pi_half", small(paths=8, steps=64))
    want = 3.0 * 2.0 / math.pi
    assert np.max(np.abs(ss.draws - want)) < 1e-14


def test_drift_only_identity_is_exact():
    t = la.Triplet([[0.0]], la.PolarMeasure.zero(1), [-1.25])
    ss = la.sample_id(t, small(paths=8, steps=1))
    assert np.max(np.abs(ss.draws + 1.25)) < 1e-14


# ---------------------------------------------------------------------------
# marginal laws
# ---------------------------------------------------------------------------

def test_gaussian_identity_moments(gaussian_triplet):
    ss = la.sample_id(gaussian_triplet, small(paths=60_000, steps=1, seed=5))
    x = ss.draws[:, 0]
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.03


def test_poisson_identity_is_integer_valued(poisson_triplet):
    ss = la.sample_id(poisson_triplet, small(paths=30_000, steps=1, seed=5))
    x = ss.draws[:, 0]
    # drift 1/2 cancels the centering of the unit atom, leaving a Poisson(1)
    # count exactly
    assert np.allclose(x, np.round(x))
    assert abs(x.mean() - 1.0) < 0.03
    assert abs(x.var() - 1.0) < 0.04


def test_empirical_cf_basics(poisson_triplet):
    ss = la.sample_id(poisson_triplet, small(paths=2000, steps=1))
    g = la.empirical_cf(ss, [(0.0,), (1.3,)])
    assert abs(g.values[0] - 1.0) < 1e-14
    assert abs(g.values[1]) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_seeded_rerun_is_bit_identical(poisson_triplet):
    a = la.sample_integral(poisson_triplet, "cos_pi_half", small())
    b = la.sample_integral(poisson_triplet, "cos_pi_half", small())
    assert np.array_equal(a.draws, b.draws)


def test_path_prefix_independent_of_path_count(poisson_triplet):
    a = la.sample_integral(poisson_triplet, "cos_pi_half", small(paths=500))
    b = la.sample_integral(poisson_triplet, "cos_pi_half", small(paths=900))
    assert np.array_equal(b.draws[:500], a.draws)


def test_thread_count_does_not_change_draws(poisson_triplet, monkeypatch):
    serial = la.sample_integral(poisson_triplet, "cos_pi_half", small())
    monkeypatch.setenv("LEVY_ARCSINE_THREADS", "4")
    threaded = la.sample_integral(poisson_triplet, "cos_pi_half", small())
    assert np.array_equal(serial.draws, threaded.draws)


@pytest.mark.parametrize("short,long", [(255, 256), (256, 257), (255, 257), (1, 5000)])
def test_path_prefix_stable_across_block_edges(short, long):
    t = gauss_plus_density()
    a = la.sample_integral(t, "log", small(paths=short))
    b = la.sample_integral(t, "log", small(paths=long))
    assert np.array_equal(b.draws[:short], a.draws)


def test_time_steps_do_not_change_draws():
    t = gauss_plus_density()
    a = la.sample_integral(t, "cos_pi_half", small(paths=600, steps=1))
    b = la.sample_integral(t, "cos_pi_half", small(paths=600, steps=5000))
    assert np.array_equal(a.draws, b.draws)


@pytest.mark.parametrize("spec", ["log", "log_sqrt"])
def test_draws_finite_under_singular_integrands(spec):
    # f blows up at t -> 0; jump times stay in (0, T]
    ss = la.sample_integral(gauss_plus_density(), spec, small(paths=5000))
    assert np.all(np.isfinite(ss.draws))


def test_jump_components_draw_independently():
    # unit atoms on both axes; the drift cancels their centering, so each
    # coordinate is the Poisson(1) jump count of its own component
    unit = la.RadialComponent(((1.0, 1.0),))
    nu = la.PolarMeasure(2, ((la.Direction((1.0, 0.0)), unit), (la.Direction((0.0, 1.0)), unit)))
    ss = la.sample_id(la.Triplet(np.zeros((2, 2)), nu, [0.5, 0.5]), small(paths=20_000))
    assert np.allclose(ss.draws, np.round(ss.draws))
    assert abs(np.corrcoef(ss.draws.T)[0, 1]) < 0.05


def test_different_seeds_differ(poisson_triplet):
    a = la.sample_integral(poisson_triplet, "cos_pi_half", small(seed=1))
    b = la.sample_integral(poisson_triplet, "cos_pi_half", small(seed=2))
    assert not np.array_equal(a.draws, b.draws)


# ---------------------------------------------------------------------------
# distributional agreement with the triplet calculus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["cos_pi_half", "log_sqrt", "log", "gauss_tail_inverse"])
def test_integral_law_matches_transformed_triplet(poisson_triplet, spec):
    ref = la.char_fn_grid(la.transform_triplet(poisson_triplet, spec), ZS)
    ss = la.sample_integral(poisson_triplet, spec,
                            la.SimConfig(paths=20_000, time_steps=400, eps=1e-3, seed=7))
    assert la.cf_distance(la.empirical_cf(ss, ZS), ref) <= 0.03


def test_multi_direction_law_matches_transformed_triplet():
    dirs = [la.Direction.normalized((math.cos(a), math.sin(a))) for a in (0.0, 2.1, 4.0)]
    atoms = [((0.6, 0.5),), ((1.0, 0.8),), ((1.4, 0.3),)]
    nu = la.PolarMeasure(2, tuple((d, la.RadialComponent(a)) for d, a in zip(dirs, atoms)))
    t = la.Triplet([[0.5, 0.2], [0.2, 0.3]], nu, [0.1, -0.2])
    zs = [(r * math.cos(a), r * math.sin(a)) for r in (0.5, 1.5, 3.0) for a in (0.3, 1.9, 3.5)]
    ref = la.char_fn_grid(la.transform_triplet(t, "cos_pi_half"), zs)
    ss = la.sample_integral(t, "cos_pi_half",
                            la.SimConfig(paths=20_000, eps=1e-3, seed=7))
    assert la.cf_distance(la.empirical_cf(ss, zs), ref) <= 0.03


def test_compensation_improves_and_converges():
    heavy = la.Triplet([[0.0]],
                       la.half_line_measure(density=la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0)),
                       [0.0])
    ref = la.char_fn_grid(la.transform_triplet(heavy, "cos_pi_half"), ZS)
    dist = {}
    for eps in (1e-1, 1e-2, 1e-3):
        for comp in (True, False):
            cfg = la.SimConfig(paths=40_000, time_steps=500, eps=eps, seed=11,
                               compensate_small_jumps=comp)
            ss = la.sample_integral(heavy, "cos_pi_half", cfg)
            dist[eps, comp] = la.cf_distance(la.empirical_cf(ss, ZS), ref)
    # truncation bias decreases monotonically with the cutoff
    assert dist[1e-1, False] > dist[1e-2, False] > dist[1e-3, False]
    # the Gaussian proxy never hurts beyond Monte Carlo noise
    for eps in (1e-1, 1e-2, 1e-3):
        assert dist[eps, True] <= dist[eps, False] + 1e-3
    # and at the coarsest cutoff it is a large win
    assert dist[1e-1, True] < 0.5 * dist[1e-1, False]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_sample_set_csv_and_sidecar(poisson_triplet):
    ss = la.sample_id(poisson_triplet, small(paths=5, steps=1))
    lines = ss.to_csv().strip().splitlines()
    assert lines[0] == "x1"
    assert len(lines) == 6
    for ln in lines[1:]:
        float(ln)  # parses, full precision
    side = json.loads(ss.sidecar_json())
    assert side["d"] == 1 and side["config"]["paths"] == 5


def test_cf_distance_grid_mismatch(poisson_triplet):
    a = la.char_fn_grid(poisson_triplet, [(0.0,), (1.0,)])
    b = la.char_fn_grid(poisson_triplet, [(0.0,), (2.0,)])
    with pytest.raises(GridMismatch):
        la.cf_distance(a, b)


@pytest.mark.parametrize("dens", [
    la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0),
    la.ExpPowerDensity(math.pi / 4.0, -0.5, 1.0, 0.5),
    la.tabulate_density(la.ExpPowerDensity(1.0, 0.0, 1.0, 1.0), per_decade=64),
    la.arcsine1(la.half_line_measure(atoms=[(1.0, 1.0)])).components[0][1].density,
])
def test_jump_table_matches_scalar_tabulation(dens):
    # the table is built from one values() call; the scalar construction it
    # replaced read value() point by point. Same grid bit for bit, and the
    # cumulative mass within a few units of the dtype's resolution (numpy's
    # exp and log may round the last bit differently from the math module)
    from levyarc.simulate import _JumpTable
    from levyarc.quadrature import geometric_grid

    eps = 1e-3
    tab = _JumpTable(la.RadialComponent((), dens), eps)
    grid = np.asarray(geometric_grid(max(eps, dens.support[0]), dens.table_radius(),
                                     la.simulate.JUMP_TABLE_PER_DECADE))
    vals = np.array([max(dens.value(x), 0.0) for x in grid])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))])
    assert tab.grid.dtype == tab.cum.dtype == np.float64
    assert np.array_equal(tab.grid, grid)
    assert np.allclose(tab.cum, cum, rtol=4.0 * np.finfo(float).eps, atol=0.0)
    if not isinstance(dens, la.ExpPowerDensity):
        assert np.array_equal(tab.cum, cum)
