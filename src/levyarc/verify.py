"""End-to-end verification suite.

Each named check recomputes one of the closed-form identities or contracts the
package is built around and reports the measured error against its threshold.
The checks are intentionally independent of the unit tests: they only go
through public entry points, and each one states in its detail string what was
measured. run_all() is what `levyarc verify all` executes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .classes import class_a_necessary, is_class_b, is_jurek, is_type_g
from .errors import NotInRange
from .mappings import (SQRT_PI, Triplet, char_fn_grid, compose_g,
                       compose_g_reversed, transform_triplet)
from .measures import (ExpPowerDensity, PolarMeasure, half_line_measure,
                       integrate, validate)
from .quadrature import adaptive_quad
from .simulate import SimConfig, cf_distance, empirical_cf, sample_integral
from .special import fixture_catalog, k0, k0_laplace, gauss_arcsine_residual
from .transforms import (arcsine1, arcsine2_direct, frac_half, invert_arcsine1,
                         upsilon0, upsilon_alpha_beta)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""
    seconds: float = field(default=0.0)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: {verdict}  measured {self.measured:.3e}"
                f" (threshold {self.threshold:.1e}, {self.seconds:.2f}s)"
                + (f"\n    {self.detail}" if self.detail else ""))


def _grid_r() -> np.ndarray:
    return np.geomspace(0.1, 5.0, 50)


def _only_density(m: PolarMeasure):
    return m.components[0][1].density


def _check_ex1():
    t0 = time.perf_counter()
    img = arcsine1(fixture_catalog()["EX1"].measure)
    dens = _only_density(img)
    rs = _grid_r()
    ref = np.array([k0(r) for r in rs])
    rel = float(np.max(np.abs(dens.values(rs) - ref) / ref))
    dt = time.perf_counter() - t0
    ok = rel <= 1e-6 and dt < 10.0
    return ok, rel, 1e-6, (f"max relative error vs K0 on 50 log points of [0.1, 5]; "
                           f"computed in {dt:.2f}s (budget 10s)")


def _check_ex2():
    img = upsilon0(fixture_catalog()["EX2"].measure)
    dens = _only_density(img)
    rs = _grid_r()
    ref = np.array([fixture_catalog()["EX2"].closed_form(r) for r in rs])
    rel = float(np.max(np.abs(dens.values(rs) - ref) / ref))
    return rel <= 1e-8, rel, 1e-8, ("max relative error of the exponential scale "
                                    "mixture vs (pi/4) r^(-1/2) e^(-sqrt(r))")


def _check_ex3():
    fix = fixture_catalog()["EX3"]
    dens = _only_density(arcsine1(fix.measure))
    rs = _grid_r()
    ref = np.array([fix.closed_form(r) for r in rs])
    rel = float(np.max(np.abs(dens.values(rs) - ref) / ref))
    return rel <= 1e-6, rel, 1e-6, ("max relative error vs "
                                    "(2 sqrt(pi))^(-1) e^(-r^2/8) K0(r^2/8)")


def _check_commute():
    cases = {
        "point mass at 1": half_line_measure(atoms=[(1.0, 1.0)]),
        "EX2 input": fixture_catalog()["EX2"].measure,
    }
    worst = 0.0
    notes = []
    rs = _grid_r()
    for name, rho in cases.items():
        lhs = _only_density(upsilon_alpha_beta(arcsine1(rho), -2.0, 2.0)).values(rs)
        rhs = _only_density(arcsine1(upsilon0(rho))).values(rs)
        diff = float(np.max(np.abs(lhs - rhs)))
        worst = max(worst, diff)
        notes.append(f"{name}: route difference {diff:.2e}")
        if name == "EX2 input":
            ref = np.array([k0(r) for r in rs])
            relk = float(np.max(np.maximum(np.abs(lhs - ref), np.abs(rhs - ref)) / ref))
            worst = max(worst, relk)
            notes.append(f"both routes vs K0: {relk:.2e}")
    return worst <= 1e-5, worst, 1e-5, "; ".join(notes)


def _check_noncommute():
    base = arcsine1(half_line_measure(atoms=[(1.0, 1.0)]))
    rc_a = upsilon0(base).components[0][1]
    rc_b = upsilon_alpha_beta(base, -2.0, 2.0).components[0][1]
    m_a = integrate(rc_a, lambda r: r, (0.0, math.inf), abs_tol=1e-10, g_moment=1.0)
    m_b = integrate(rc_b, lambda r: r, (0.0, math.inf), abs_tol=1e-10, g_moment=1.0)
    ref_a, ref_b = 2.0 / math.pi, 1.0 / SQRT_PI
    err = max(abs(m_a - ref_a), abs(m_b - ref_b))
    ratio = m_b / m_a
    ok = err <= 1e-8 and abs(ratio - SQRT_PI / 2.0) <= 1e-7
    detail = (f"first moments {m_a:.12f} (2/pi = {ref_a:.12f}) and "
              f"{m_b:.12f} (1/sqrt(pi) = {ref_b:.12f}); "
              f"ratio {ratio:.12f} vs sqrt(pi)/2 = {SQRT_PI / 2.0:.12f}")
    return ok, err, 1e-8, detail


def _true_tail_factory(kind, atoms=None):
    if kind == "atoms":
        pts = atoms
        return lambda u: sum(mass for loc, mass in pts if loc > u)
    return lambda u: (math.pi / 2.0) * math.exp(-math.sqrt(u))


def _check_invert():
    fixtures = [
        ("point mass at 1", half_line_measure(atoms=[(1.0, 1.0)]),
         _true_tail_factory("atoms", [(1.0, 1.0)]), None),
        ("two point masses", half_line_measure(atoms=[(2.0, 1.0), (0.5, 1.0)]),
         _true_tail_factory("atoms", [(2.0, 1.0), (0.5, 1.0)]), None),
        ("EX1 input", fixture_catalog()["EX1"].measure,
         _true_tail_factory("expo"), (1e-3, 100.0, 81)),
    ]
    worst = 0.0
    notes = []
    for name, m, true_tail, grid in fixtures:
        dec = invert_arcsine1(arcsine1(m), grid)
        _, _, table = dec.components[0]
        err = max(abs(t - true_tail(u)) for u, t in zip(table.us, table.tails))
        worst = max(worst, err)
        notes.append(f"{name}: max tail error {err:.2e}")
    ramp = half_line_measure(density=ExpPowerDensity(1.0, 1.0, 0.0, 1.0, (0.0, 1.0)))
    try:
        invert_arcsine1(ramp)
        refused = False
    except NotInRange:
        refused = True
    notes.append(f"linear ramp density rejected: {refused}")
    ok = worst <= 1e-6 and refused
    return ok, worst, 1e-6, "; ".join(notes)


def _check_frachalf():
    from .measures import RadialComponent
    worst = 0.0
    for s in (0.5, 1.0, 3.0):
        twice = frac_half(frac_half(RadialComponent(atoms=((s, 1.0),))))
        dens = twice.density
        for q in np.linspace(0.05, 0.95, 10):
            worst = max(worst, abs(dens.value(q * s) - 1.0))
        worst = max(worst, abs(dens.value(1.5 * s)))
    return worst <= 1e-8, worst, 1e-8, ("applying the half-order integral twice to "
                                        "a point mass at s gives the flat density on (0, s)")


def _check_cosmap():
    worst_dens = 0.0
    notes = []
    cases = [
        ("point mass at 1", half_line_measure(atoms=[(1.0, 1.0)]),
         np.geomspace(0.05, 0.95, 20)),
        ("EX2 input", fixture_catalog()["EX2"].measure, np.geomspace(0.1, 5.0, 25)),
    ]
    for name, m, grid in cases:
        out = transform_triplet(Triplet([[0.0]], m, [0.0]), "cos_pi_half")
        direct = arcsine2_direct(m)
        lhs = out.nu.components[0][1]
        rhs = direct.components[0][1]

        def dens_val(rc, r):
            tot = sum(mass for loc, mass in rc.atoms if loc == r)
            return (rc.density.value(r) if rc.density is not None else 0.0) + tot

        diff = max(abs(dens_val(lhs, r) - dens_val(rhs, r)) for r in grid)
        worst_dens = max(worst_dens, diff)
        notes.append(f"{name}: jump part difference {diff:.2e}")
    sig = transform_triplet(Triplet([[2.0]], PolarMeasure.zero(1), [0.0]), "cos_pi_half")
    gam = transform_triplet(Triplet([[0.0]], PolarMeasure.zero(1), [3.0]), "cos_pi_half")
    sig_err = abs(float(sig.Sigma[0, 0]) - 1.0)
    gam_err = abs(float(gam.gamma[0]) - 3.0 * 2.0 / math.pi)
    notes.append(f"Gaussian scaled by 1/2 (error {sig_err:.1e}); "
                 f"pure drift scaled by 2/pi (error {gam_err:.1e})")
    ok = worst_dens <= 1e-8 and sig_err <= 1e-12 and gam_err <= 1e-12
    return ok, worst_dens, 1e-8, "; ".join(notes)


def _check_laplace():
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        q = adaptive_quad(lambda x: math.exp(-s * x) * k0(x), 0.0, math.inf,
                          abs_tol=1e-12, singular_left=True, label="K0 laplace")
        worst = max(worst, abs(q - k0_laplace(s)))
    total = adaptive_quad(k0, 0.0, math.inf, abs_tol=1e-12, singular_left=True,
                          label="K0 mass")
    worst = max(worst, abs(total - math.pi / 2.0))
    return worst <= 1e-8, worst, 1e-8, ("Laplace transform of K0 at s in {1/2, 1, 2} "
                                        "plus the total integral pi/2")


def _check_gauss_arcsine():
    worst = 0.0
    for x in (0.0, 0.5, 1.0, 2.0):
        for t in (0.5, 1.0, 2.0):
            worst = max(worst, gauss_arcsine_residual(x, t=t))
    return worst <= 1e-8, worst, 1e-8, ("Gaussian kernel as an exponential mixture "
                                        "of one-sided arcsine densities, 12 (x, t) pairs")


def _check_classes():
    boundary = fixture_catalog()["JUREK_CE"].measure
    r1 = is_jurek(boundary)
    r2 = class_a_necessary(boundary)
    r3 = is_jurek(half_line_measure(density=ExpPowerDensity(1.0, 0.0, 1.0, 1.0)))
    fails = ((r1.verdict != "non_member") + (r2.verdict != "member")
             + (r3.verdict != "member"))
    detail = (f"nondecreasing screen on the arcsine boundary density: {r1.verdict} "
              f"(want non_member); necessary conditions: {r2.verdict} (want member); "
              f"screen on e^(-r): {r3.verdict} (want member)")
    return fails == 0, float(fails), 0.0, detail


def _check_typeg():
    m = fixture_catalog()["EX1"].measure
    v = validate(m, "levy_l1")
    rb = is_class_b(m)
    rg = is_type_g(arcsine1(m))
    fails = (not v.ok) + (rb.verdict != "member") + (rg.verdict != "member")
    detail = (f"levy_l1 valid: {v.ok}; completely monotone density: {rb.verdict}; "
              f"image density of squared radius completely monotone: {rg.verdict}")
    return fails == 0, float(fails), 0.0, detail


def _check_montecarlo():
    gauss = Triplet([[1.0]], PolarMeasure.zero(1), [0.0])
    poisson = Triplet([[0.0]], half_line_measure(atoms=[(1.0, 1.0)]), [0.5])
    zs = [(float(z),) for z in np.linspace(-5.0, 5.0, 21)]
    worst = 0.0
    ok = True
    notes = []
    kept_prefix = None
    for fname, fix in (("gauss", gauss), ("poisson", poisson)):
        for spec_name in ("cos_pi_half", "log_sqrt"):
            cfg = SimConfig(paths=100_000, eps=1e-3, seed=7)
            ref = char_fn_grid(transform_triplet(fix, spec_name), zs)
            t0 = time.perf_counter()
            ss = sample_integral(fix, spec_name, cfg)
            dt = time.perf_counter() - t0
            dist = cf_distance(empirical_cf(ss, zs), ref)
            worst = max(worst, dist)
            ok = ok and dist <= 0.02 and dt < 60.0
            notes.append(f"{fname}/{spec_name}: ecf distance {dist:.4f} in {dt:.1f}s")
            if fname == "poisson" and spec_name == "cos_pi_half":
                kept_prefix = ss.draws[:2000].copy()
    cfg_small = SimConfig(paths=2000, eps=1e-3, seed=7)
    s1 = sample_integral(poisson, "cos_pi_half", cfg_small)
    s2 = sample_integral(poisson, "cos_pi_half", cfg_small)
    same = bool(np.array_equal(s1.draws, s2.draws))
    prefix = bool(kept_prefix is not None and np.array_equal(s1.draws, kept_prefix))
    ok = ok and same and prefix
    notes.append(f"seeded rerun bit-identical: {same}; "
                 f"first 2000 paths independent of total path count: {prefix}")
    return ok, worst, 0.02, "; ".join(notes)


def _check_compose():
    t = Triplet([[0.5]], half_line_measure(atoms=[(1.0, 1.0)]), [0.25])
    a = compose_g(t)
    b = compose_g_reversed(t)
    sig = abs(float(a.Sigma[0, 0]) - float(b.Sigma[0, 0]))
    gam = abs(float(a.gamma[0]) - float(b.gamma[0]))
    da = _only_density(a.nu)
    db = _only_density(b.nu)
    dn = max(abs(da.value(r) - db.value(r)) for r in np.geomspace(0.1, 5.0, 25))
    worst = max(sig, gam, dn)
    detail = (f"order swap: Gaussian part difference {sig:.1e}, drift {gam:.1e}, "
              f"jump density {dn:.1e}")
    return worst <= 1e-5, worst, 1e-5, detail


CHECKS = {
    "ex1": (_check_ex1, "arcsine transform of the Bessel source density vs K0"),
    "ex2": (_check_ex2, "exponential scale mixture closed form"),
    "ex3": (_check_ex3, "arcsine transform with Gaussian-damped Bessel closed form"),
    "commute": (_check_commute, "mixture-then-transform equals transform-then-mixture"),
    "noncommute": (_check_noncommute, "first-moment witness separating the two orders"),
    "invert": (_check_invert, "tail recovery round trip and out-of-range rejection"),
    "frachalf": (_check_frachalf, "half-order integral applied twice flattens a point mass"),
    "cosmap": (_check_cosmap, "triplet transform pieces: jump part, Gaussian, drift"),
    "laplace": (_check_laplace, "Laplace transform of K0 closed form"),
    "gauss_arcsine": (_check_gauss_arcsine, "Gaussian kernel as arcsine mixture"),
    "classes": (_check_classes, "membership screens on boundary fixtures"),
    "typeg": (_check_typeg, "complete monotonicity chain through the transform"),
    "montecarlo": (_check_montecarlo, "sampled integral laws vs quadrature characteristic functions"),
    "compose": (_check_compose, "order independence of the composite map"),
}


def run_check(name: str) -> CheckResult:
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    fn, _ = CHECKS[name]
    t0 = time.perf_counter()
    passed, measured, threshold, detail = fn()
    dt = time.perf_counter() - t0
    return CheckResult(name, bool(passed), float(measured), float(threshold),
                       detail, dt)


def run_all(names=None) -> list[CheckResult]:
    names = list(CHECKS) if not names else list(names)
    return [run_check(n) for n in names]
