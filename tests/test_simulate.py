"""Monte Carlo sampler: config validation, exactness on degenerate triplets,
law marginals, reproducibility (reruns, path prefixes across block edges,
thread settings and time_steps have no effect, one-component draws pinned),
and the small-jump compensation scheme's convergence."""

import hashlib
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


def three_kinds():
    """A 2-D measure with one component of each jump kind: atoms above eps,
    a lone atom below eps (drift and compensation only) and a density."""
    nu = la.PolarMeasure(2, (
        (la.Direction((1.0, 0.0)), la.RadialComponent(((0.5, 0.4), (1.5, 0.2)))),
        (la.Direction.normalized((-1.0, 1.0)), la.RadialComponent(((5e-4, 2.0),))),
        (la.Direction.normalized((-0.3, -1.0)),
         la.RadialComponent((), la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0), 0.5)),
    ))
    return la.Triplet([[0.3, 0.1], [0.1, 0.2]], nu, [0.1, -0.2])


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


def test_sampler_builds_one_machine_per_triplet_and_eps(monkeypatch):
    # a second call on the same triplet and eps, with any integrand, builds
    # no machine; a new eps, a new compensation flag, an in-place change of
    # gamma or an equal but distinct triplet builds one. Draws stay those of
    # a freshly built machine
    from levyarc import simulate

    built = []
    orig = simulate._build_machine
    monkeypatch.setattr(simulate, "_build_machine",
                        lambda t, cfg: built.append(cfg.eps) or orig(t, cfg))
    t = gauss_plus_density()
    first = la.sample_integral(t, "cos_pi_half", small(paths=300))
    again = la.sample_integral(t, "cos_pi_half", small(paths=300))
    la.sample_id(t, small(paths=300))
    assert len(built) == 1 and again.draws.tobytes() == first.draws.tobytes()
    la.sample_id(t, la.SimConfig(paths=300, eps=2e-3, seed=3))
    assert built == [1e-3, 2e-3]
    la.sample_id(t, small(paths=300, compensate_small_jumps=False))
    assert len(built) == 3
    before = la.sample_id(t, small(paths=300)).draws
    count = len(built)
    t.gamma[0] += 1.0
    after = la.sample_id(t, small(paths=300)).draws
    assert len(built) == count + 1 and np.allclose(after, before + 1.0, rtol=0.0, atol=1e-12)
    fresh = la.sample_integral(gauss_plus_density(), "cos_pi_half", small(paths=300))
    assert len(built) == count + 2 and fresh.draws.tobytes() == first.draws.tobytes()


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


def test_empirical_cf_matches_the_per_point_mean():
    # one product of all z points with the draws: each value within 1e-15 of
    # the mean of exp(i z.x) at its own point, with the grid's types kept
    ss = la.sample_integral(three_kinds(), "cos_pi_half", small(paths=3000))
    zs = [(r * math.cos(a), r * math.sin(a)) for r in (0.0, 0.5, 1.5, 3.0) for a in (0.3, 1.9, 3.5)]
    g = la.empirical_cf(ss, zs)
    assert isinstance(g, la.CharFnGrid)
    assert g.zs == tuple(zs)
    assert all(type(c) is float for z in g.zs for c in z)
    assert all(type(v) is complex for v in g.values)
    for z, v in zip(zs, g.values):
        assert abs(v - complex(np.mean(np.exp(1j * (ss.draws @ np.asarray(z)))))) <= 1e-15


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_seeded_rerun_is_bit_identical(poisson_triplet):
    a = la.sample_integral(poisson_triplet, "cos_pi_half", small())
    b = la.sample_integral(poisson_triplet, "cos_pi_half", small())
    assert np.array_equal(a.draws, b.draws)


def test_negative_seed_is_taken_modulo_2_64(poisson_triplet):
    # the key is seed mod 2**64; building the stream must not cast a key
    # above 2**63 through a signed integer (RuntimeWarning, an error here)
    a = la.sample_integral(poisson_triplet, "cos_pi_half", small(paths=64, seed=-3))
    b = la.sample_integral(poisson_triplet, "cos_pi_half", small(paths=64, seed=2**64 - 3))
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


def test_multi_component_rerun_is_bit_identical():
    a = la.sample_integral(three_kinds(), "log", small(paths=700))
    b = la.sample_integral(three_kinds(), "log", small(paths=700))
    assert np.array_equal(a.draws, b.draws)


@pytest.mark.parametrize("short,long", [(255, 256), (256, 257), (1, 5000)])
def test_multi_component_path_prefix_stable_across_block_edges(short, long):
    # every jump component shares a block's count and jump streams
    t = three_kinds()
    a = la.sample_integral(t, "log", small(paths=short))
    b = la.sample_integral(t, "log", small(paths=long))
    assert np.array_equal(b.draws[:short], a.draws)


def _pinned_drivers():
    gauss = la.Triplet([[1.0]], la.PolarMeasure.zero(1), [0.0])
    poisson = la.Triplet([[0.0]], la.half_line_measure(atoms=[(1.0, 1.0)]), [0.5])
    heavy = la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0)
    density = la.Triplet([[0.0]], la.half_line_measure(density=heavy), [0.0])
    mixed = la.Triplet([[0.7]], la.half_line_measure(atoms=[(0.5, 0.3), (2.0, 0.2)],
                                                     density=heavy), [0.2])
    return {"gauss": gauss, "poisson": poisson, "density": density, "mixed": mixed}


# sha1 of the float64 draws from the sampler that looped over jump
# components, one stream per (block, kind, component): verify montecarlo's
# fixtures at its settings, and one-component density drivers. Drawing a
# block's components together must leave one-component draws unchanged
_PINNED = [
    ("gauss", "cos_pi_half", 100_000, True, "c392ffc1b23392f2eb44392c5521c24ecb17765e"),
    ("gauss", "log_sqrt", 100_000, True, "c59ab8fa330771aaba3552349ed925c997c2c7c3"),
    ("poisson", "cos_pi_half", 100_000, True, "510d3793c0e648f7e6b551bbd8f572ad701b4c56"),
    ("poisson", "log_sqrt", 100_000, True, "233fca5ca5911e0c8e10cc34a9e8df56eacdcdb4"),
    ("density", "cos_pi_half", 3000, True, "e541c7f118106bcd2e8cfb93f16a303ea76119c6"),
    ("density", "cos_pi_half", 3000, False, "dac29729c907fd07e003905ba780e11b6a2eedb3"),
    ("density", "log", 3000, True, "4bb99208b14e9e5179b791c4ae31d816278a6182"),
    ("density", "log", 3000, False, "9c92a0b47ba6a175104e4d10c1903be9917a4383"),
    ("mixed", "cos_pi_half", 3000, True, "0dd3ef35256fcc277d2da18b020190f36568e14d"),
    ("mixed", "cos_pi_half", 3000, False, "f749b409246c003f2802e242f32df9917cafe748"),
    ("mixed", "log", 3000, True, "709f61206a88b7b2e66a594a8ec1d925ef8e7255"),
    ("mixed", "log", 3000, False, "255b6957b269c5ad34db9720f97da18107e2d790"),
]


# the hashes were taken with numpy 2.4, whose Generator algorithms and
# vectorised exp/log/cos a later release may round differently
@pytest.mark.skipif(not np.__version__.startswith("2.4."),
                    reason="draws pinned under numpy 2.4")
@pytest.mark.parametrize("driver,spec,paths,comp,sha1", _PINNED)
def test_single_component_draws_are_pinned(driver, spec, paths, comp, sha1):
    cfg = la.SimConfig(paths=paths, eps=1e-3, seed=7, compensate_small_jumps=comp)
    ss = la.sample_integral(_pinned_drivers()[driver], spec, cfg)
    assert hashlib.sha1(ss.draws.tobytes()).hexdigest() == sha1


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


def test_mixed_kind_multi_component_law_matches_transformed_triplet():
    # the jumps of a block's components share one uniform stream; each must
    # still take its radius from its own atoms or density table
    t = three_kinds()
    zs = [(r * math.cos(a), r * math.sin(a)) for r in (0.5, 1.5, 3.0) for a in (0.3, 1.9, 3.5)]
    ref = la.char_fn_grid(la.transform_triplet(t, "cos_pi_half"), zs)
    ss = la.sample_integral(t, "cos_pi_half", la.SimConfig(paths=20_000, eps=1e-3, seed=7))
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


def _small_jump_exponent(z, eps):
    """int_0^1 int_(0, eps] (e^(iwr) - 1 - iwr) r^(-3/2) e^(-r) dr dt with
    w = z cos(pi t/2): the part of the cos_pi_half integral's exponent that
    the sampler drops without compensation, by scipy's quad with r = v^2."""
    from scipy.integrate import quad

    def inner(t, part):
        w = z * math.cos(0.5 * math.pi * t)

        def g(v):
            r = v * v
            x = complex(-2.0 * math.sin(0.5 * w * r) ** 2, math.sin(w * r) - w * r)
            return 2.0 * math.exp(-r) / r * (x.real, x.imag)[part]

        return quad(g, 0.0, math.sqrt(eps), epsabs=1e-12, epsrel=1e-10)[0]

    return complex(quad(lambda t: inner(t, 0), 0.0, 1.0, epsabs=1e-12)[0],
                   quad(lambda t: inner(t, 1), 0.0, 1.0, epsabs=1e-12)[0])


def test_uncompensated_law_carries_the_analytic_truncation_bias():
    # without compensation the sampler draws the law whose exponent lacks the
    # small jumps: cf * exp(-small-jump exponent). At eps = 1e-1 that moves
    # the cf by 0.025 on the grid, five times the ecf noise at 40k paths, so
    # both the match to the truncated law and the ordering of the cuts have
    # power (the ordering held for all of seeds 0-29)
    heavy = la.Triplet([[0.0]],
                       la.half_line_measure(density=la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0)),
                       [0.0])
    ref = la.char_fn_grid(la.transform_triplet(heavy, "cos_pi_half"), ZS)
    full = np.array(ref.values)
    dist = {}
    for eps in (1e-1, 1e-2):
        trunc = np.array([v * np.exp(-_small_jump_exponent(z, eps))
                          for (z,), v in zip(ZS, ref.values)])
        if eps == 1e-1:
            assert 0.02 < np.max(np.abs(trunc - full)) < 0.03
        cfg = la.SimConfig(paths=40_000, eps=eps, seed=11, compensate_small_jumps=False)
        ecf = np.array(la.empirical_cf(la.sample_integral(heavy, "cos_pi_half", cfg), ZS).values)
        assert np.max(np.abs(ecf - trunc)) <= 0.015
        dist[eps] = np.max(np.abs(ecf - full))
    assert dist[1e-1] > dist[1e-2]


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
    tab = _JumpTable(dens, eps)
    grid = np.asarray(geometric_grid(max(eps, dens.support[0]), dens.table_radius(),
                                     la.simulate.JUMP_TABLE_PER_DECADE))
    vals = np.array([max(dens.value(x), 0.0) for x in grid])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))])
    assert tab.grid.dtype == tab.cum.dtype == np.float64
    assert np.array_equal(tab.grid, grid)
    assert np.allclose(tab.cum, cum, rtol=4.0 * np.finfo(float).eps, atol=0.0)
    if not isinstance(dens, la.ExpPowerDensity):
        assert np.array_equal(tab.cum, cum)
    # the lookup sorts its targets; np.interp gives each value regardless
    targets = np.random.default_rng(5).random(4000) * tab.mass
    assert np.array_equal(tab.sizes(targets), np.interp(targets, tab.cum, tab.grid))
