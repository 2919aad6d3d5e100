"""The three benchmark workloads.

Each workload builds its inputs once from the seed (that is set-up), then runs
batches: a batch is the workload's fixed list of operations, with arguments
drawn from (seed, batch index). Every batch rebuilds its transforms from the
input measures, so no per-point memo carries over from one batch to the next;
users pay that cost on every new transform. Every output is checked against
an oracle from oracles.py or a closed form the paper states, at the
tolerance the matching `levyarc verify` check uses.

Layers are levyarc's modules: measures, quadrature, transforms, mappings,
classes, simulate, special, cli. verify is left out (it is the check suite)
and errors does no work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import levyarc as la
from levyarc import cli

import oracles
from harness import CountingExpPowerDensity

# tolerances of the matching verify checks
TOL_K0 = 1e-6         # ex1, ex3
TOL_EX2 = 1e-8        # ex2, cosmap, noncommute, laplace
TOL_COMMUTE = 1e-5    # commute
TOL_TAIL = 1e-6       # invert
TOL_ECF = 0.02        # montecarlo
# Monte Carlo gate: the ecf distance may not exceed TOL_ECF, widened to
# ECF_SIGMAS standard errors of the exact characteristic function when the
# pooled sample is too small for 0.02 to be a sound test
ECF_SIGMAS = 6.0

R_LO, R_HI = 0.1, 5.0


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """One log-uniform draw in each of n equal log-strata of [lo, hi]."""
    edges = np.geomspace(lo, hi, n + 1)
    return [float(a * (b / a) ** rng.random()) for a, b in zip(edges[:-1], edges[1:])]


def _stratum(rng: np.random.Generator, lo: float, hi: float, n: int, k: int) -> float:
    edges = np.geomspace(lo, hi, n + 1)
    a, b = edges[k % n], edges[k % n + 1]
    return float(a * (b / a) ** rng.random())


def _density(m: la.PolarMeasure):
    return m.components[0][1].density


def _exp_power(counting: bool, *args, **kwargs) -> la.ExpPowerDensity:
    cls = CountingExpPowerDensity if counting else la.ExpPowerDensity
    return cls(*args, **kwargs)


def _point(ctx, dens, r: float, depth: str) -> float:
    """One output point of a transformed density, with its source-density
    evaluation count."""
    c0 = ctx.src_calls()
    with ctx.span("transforms", f"transforms.point_ms.{depth}"):
        v = dens.value(r)
    ctx.count(f"measures.src_evals.{depth}", ctx.src_calls() - c0)
    return v


def _build(ctx, fn, *args):
    with ctx.span("transforms", "transforms.build_ms"):
        return fn(*args)


def _k0(ctx, r: float) -> float:
    with ctx.span("special", "special.k0_us"):
        return la.k0(r)


@dataclass
class Workload:
    name: str
    why: str
    judges: str
    bypasses: str
    # fixed tail percentile: the highest one that keeps at least ten warm
    # batches beyond it at the parent's speed for the run length in
    # BENCHMARK.json; fixed so that a faster change reports the same quantile
    tail_pct: float
    build: object = field(repr=False)
    params: object = field(repr=False)
    batch: object = field(repr=False)


# ---------------------------------------------------------------------------
# kernel_grid
# ---------------------------------------------------------------------------

KG_DEPTH1_POINTS = 4
# narrow strata keep the cold batch's depth-2 radius, and so its cost, nearly
# seed-independent
KG_DEPTH2_STRATA = 16
KG_CLI_POINTS = 5


def kg_build(seed: int, counting: bool, workdir: str) -> dict:
    ex1 = la.half_line_measure(density=_exp_power(counting, math.pi / 4.0, -0.5, 1.0, 0.5))
    ex2 = la.half_line_measure(density=_exp_power(counting, math.sqrt(math.pi) / 4.0, -0.5, 0.25, 1.0))
    path = os.path.join(workdir, "ex1.json")
    with open(path, "w") as fh:
        json.dump(la.to_json(ex1), fh)
    return {"ex1": ex1, "ex2": ex2, "delta1": la.half_line_measure(atoms=[(1.0, 1.0)]),
            "ex1_path": path, "cli_out": os.path.join(workdir, "cli")}


def kg_params(seed: int, i: int) -> dict:
    rng = _rng(seed, 1, i)
    return {"r1": _strata(rng, R_LO, R_HI, KG_DEPTH1_POINTS),
            "r2": _stratum(rng, R_LO, R_HI, KG_DEPTH2_STRATA, i),
            "laplace_s": float(rng.uniform(0.5, 2.0)),
            "cli_grid": (float(rng.uniform(0.1, 0.2)), float(rng.uniform(3.0, 5.0)), KG_CLI_POINTS)}


def kg_batch(ctx, inp: dict, p: dict) -> None:
    ex1, ex2 = inp["ex1"], inp["ex2"]
    r1 = p["r1"]

    # depth 1: one kernel level over a closed-form source
    with ctx.attempt("a1(EX1) vs K0"):
        d = _density(_build(ctx, la.arcsine1, ex1))
        for r in r1:
            ctx.check(f"a1(EX1)({r:.6g})", _point(ctx, d, r, "depth1"), _k0(ctx, r), TOL_K0, True)
    with ctx.attempt("ups0(EX2) vs EX1 density"):
        d = _density(_build(ctx, la.upsilon0, ex2))
        for r in r1:
            ctx.check(f"ups0(EX2)({r:.6g})", _point(ctx, d, r, "depth1"),
                      oracles.ex1_density(r), TOL_EX2, True)
    with ctx.attempt("a1(EX2) vs ex3_closed_form"):
        d = _density(_build(ctx, la.arcsine1, ex2))
        for r in r1:
            v = _point(ctx, d, r, "depth1")
            with ctx.span("special"):
                ref = la.ex3_closed_form(r)
            ctx.check(f"a1(EX2)({r:.6g})", v, ref, TOL_K0, True)
    with ctx.attempt("arcsine2 vs arcsine2_direct"):
        d = _density(_build(ctx, la.arcsine2, ex2))
        dd = _density(_build(ctx, la.arcsine2_direct, ex2))
        for r in r1:
            ctx.check(f"arcsine2(EX2)({r:.6g})", _point(ctx, d, r, "depth1"),
                      _point(ctx, dd, r, "depth1"), TOL_EX2, True)

    # depth 2: the two routes of the commute identity, both equal to K0
    r = p["r2"]
    with ctx.attempt("a1(ups0(EX2)) vs K0"):
        d = _density(_build(ctx, la.arcsine1, _build(ctx, la.upsilon0, ex2)))
        ctx.check(f"a1(ups0(EX2))({r:.6g})", _point(ctx, d, r, "depth2"), _k0(ctx, r),
                  TOL_COMMUTE, True)
    with ctx.attempt("ups_-2,2(a1(EX2)) vs K0"):
        d = _density(_build(ctx, la.upsilon_alpha_beta, _build(ctx, la.arcsine1, ex2), -2.0, 2.0))
        ctx.check(f"ups_-2,2(a1(EX2))({r:.6g})", _point(ctx, d, r, "depth2"), _k0(ctx, r),
                  TOL_COMMUTE, True)

    # first moment of ups0(a1(delta_1)) (the noncommute witness)
    with ctx.attempt("first moment of ups0(a1(delta1))"):
        rc = _build(ctx, la.upsilon0, _build(ctx, la.arcsine1, inp["delta1"])).components[0][1]
        with ctx.span("measures", "measures.integrate_ms"):
            mom = la.integrate(rc, lambda x: x, (0.0, math.inf), abs_tol=1e-10, g_moment=1.0)
        ctx.check("moment", mom, 2.0 / math.pi, TOL_EX2, False)

    # the quadrature and special-function oracles themselves
    with ctx.attempt("k0_integral_form vs k0"):
        for x in r1:
            with ctx.span("special", "special.k0_integral_form_us"):
                v = la.k0_integral_form(x)
            ctx.check(f"k0_integral_form({x:.6g})", v, _k0(ctx, x), TOL_EX2, True)
    with ctx.attempt("K0 Laplace transform"):
        s = p["laplace_s"]
        with ctx.span("quadrature", "quadrature.adaptive_quad_ms"):
            q = la.adaptive_quad(lambda x: math.exp(-s * x) * la.k0(x), 0.0, math.inf,
                                 abs_tol=1e-12, singular_left=True, label="K0 laplace")
        with ctx.span("special"):
            ref = la.k0_laplace(s)
        ctx.check(f"laplace({s:.6g})", q, ref, TOL_EX2, False)

    # one in-process CLI tabulation
    with ctx.attempt("levyarc transform --chain a1"):
        lo, hi, n = p["cli_grid"]
        argv = ["transform", "--in", inp["ex1_path"], "--chain", "a1",
                "--grid", f"{lo!r}:{hi!r}:{n}", "--out", inp["cli_out"]]
        with ctx.span("cli", "cli.transform_ms"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        ctx.expect("cli exit code", code == 0, f"exit {code}")
        with open(os.path.join(inp["cli_out"], "transformed.csv")) as fh:
            rows = list(csv.DictReader(fh))
        ctx.expect("cli rows", len(rows) == n, f"{len(rows)} rows, want {n}")
        for row in rows:
            x = float(row["r"])
            ctx.check(f"cli a1({x:.6g})", float(row["density"]), _k0(ctx, x), TOL_K0, True)


# ---------------------------------------------------------------------------
# invert_screen
# ---------------------------------------------------------------------------

IS_TAIL_POINTS = 4
IS_ATOM_POINTS = 8


def is_build(seed: int, counting: bool, workdir: str) -> dict:
    ex1 = la.half_line_measure(density=_exp_power(counting, math.pi / 4.0, -0.5, 1.0, 0.5))
    ramp = la.half_line_measure(density=_exp_power(counting, 1.0, 1.0, 0.0, 1.0, (0.0, 1.0)))
    return {"ex1": ex1, "ramp": ramp, "jurek_ce": la.fixture_catalog()["JUREK_CE"].measure}


def is_params(seed: int, i: int) -> dict:
    rng = _rng(seed, 2, i)
    lo, hi = float(rng.uniform(0.05, 0.2)), float(rng.uniform(3.5, 5.0))
    us = np.geomspace(lo, hi, IS_ATOM_POINTS)
    # one atom in a lower and one in an upper gap between tail points, in the
    # gap's middle half: every tail point stays at least 10% from an atom.
    # A tail point within ~2% below an atom raises QuadratureNonConvergence;
    # the probe row invert_near_atom keeps that failure in view.
    atoms = []
    for k in (int(rng.integers(0, 3)), int(rng.integers(4, IS_ATOM_POINTS - 1))):
        loc = us[k] * (us[k + 1] / us[k]) ** rng.uniform(0.25, 0.75)
        atoms.append((float(loc), float(rng.uniform(0.5, 1.5))))
    return {"grid": (float(rng.uniform(1e-3, 3e-3)), float(rng.uniform(30.0, 100.0)), IS_TAIL_POINTS),
            "atoms": atoms, "atom_grid": (lo, hi, IS_ATOM_POINTS)}


def is_batch(ctx, inp: dict, p: dict) -> None:
    img = None
    with ctx.attempt("invert_arcsine1(a1(EX1))"):
        img = _build(ctx, la.arcsine1, inp["ex1"])
        n = p["grid"][2]
        c0 = ctx.src_calls()
        with ctx.span("transforms", "transforms.tail_point_ms", items=n):
            dec = la.invert_arcsine1(img, p["grid"])
        ctx.count("measures.src_evals.tail_point", ctx.src_calls() - c0, items=n)
        table = dec.components[0][2]
        for u, t in zip(table.us, table.tails):
            ctx.check(f"EX1 tail({u:.6g})", t, oracles.ex1_tail(u), TOL_TAIL, False)

    with ctx.attempt("invert two-atom image"):
        atoms = p["atoms"]
        m = la.half_line_measure(atoms=atoms)
        with ctx.span("transforms"):
            dec = la.invert_arcsine1(_build(ctx, la.arcsine1, m), p["atom_grid"])
        table = dec.components[0][2]
        for u, t in zip(table.us, table.tails):
            ctx.check(f"two-atom tail({u:.6g})", t, oracles.step_tail(atoms, u), TOL_TAIL, False)

    with ctx.attempt("linear ramp rejected"):
        try:
            with ctx.span("transforms"):
                la.invert_arcsine1(inp["ramp"])
            refused = False
        except la.NotInRange:
            refused = True
        ctx.expect("ramp", refused, "the linear ramp was accepted as an image")

    if img is not None:
        with ctx.attempt("is_type_g(a1(EX1))"):
            with ctx.span("classes", "classes.screen_ms.type_g"):
                rep = la.is_type_g(img)
            ctx.expect("type_g", rep.verdict == "member", f"verdict {rep.verdict}, want member")
    with ctx.attempt("class_a_necessary(JUREK_CE)"):
        with ctx.span("classes", "classes.screen_ms.class_a"):
            rep = la.class_a_necessary(inp["jurek_ce"])
        ctx.expect("class_a", rep.verdict == "member", f"verdict {rep.verdict}, want member")
    with ctx.attempt("is_jurek(JUREK_CE)"):
        with ctx.span("classes", "classes.screen_ms.jurek"):
            rep = la.is_jurek(inp["jurek_ce"])
        ctx.expect("jurek", rep.verdict == "non_member", f"verdict {rep.verdict}, want non_member")


# ---------------------------------------------------------------------------
# integral_law
# ---------------------------------------------------------------------------

IL_INTEGRANDS = ("cos_pi_half", "log")
IL_MD_DIRECTIONS = 256
# paths per batch and time steps per path; the multi-direction integrator costs
# about K times more per path, so it samples fewer, coarser paths
IL_PATHS = {"gauss": 600, "poisson": 600, "density": 600, "multi_dir": 16}
IL_STEPS = {"gauss": 2000, "poisson": 2000, "density": 2000, "multi_dir": 200}
IL_CHARFN_Z = 2
# ecf grid: verify's z range (its negative half is the conjugate)
IL_ZS_1D = [(float(z),) for z in np.arange(0.5, 5.01, 0.5)]
IL_ZS_2D = [(float(t * math.cos(a)), float(t * math.sin(a)))
            for t in (0.5, 1.0, 2.0, 3.0) for a in (0.3, 1.9, 3.5)]


def il_build(seed: int, counting: bool, workdir: str) -> dict:
    rng = _rng(seed, 3)
    gauss = la.Triplet([[1.0]], la.PolarMeasure.zero(1), [0.0])
    poisson = la.Triplet([[0.0]], la.half_line_measure(atoms=[(1.0, 1.0)]), [0.5])
    density = la.Triplet([[0.0]], la.half_line_measure(
        density=_exp_power(counting, 1.0, -1.5, 1.0, 1.0)), [0.0])
    k = IL_MD_DIRECTIONS
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    radii = rng.uniform(0.5, 1.5, k)
    weights = rng.dirichlet(np.ones(k))   # total jump rate 1
    comps = tuple((la.Direction.normalized(d), la.RadialComponent(((float(r), float(w)),)))
                  for d, r, w in zip(dirs, radii, weights))
    # construction checks directions pairwise, so it is timed on its own
    t0 = time.perf_counter()
    nu = la.PolarMeasure(2, comps)
    polar_build_s = time.perf_counter() - t0
    multi_dir = la.Triplet(np.zeros((2, 2)), nu, oracles.atom_drift(radii, weights, dirs))
    return {"integrators": {"gauss": gauss, "poisson": poisson, "density": density,
                        "multi_dir": multi_dir},
            "md_parts": (dirs, radii, weights), "polar_build_s": polar_build_s,
            "pool": EcfPool()}


def il_oracles(inp: dict) -> dict:
    """Exact cf values on the ecf grids (computed once, outside timing)."""
    dirs, radii, weights = inp["md_parts"]
    ts = oracles.TemperedStable()
    one = np.array([[1.0]])
    out = {}
    for f in IL_INTEGRANDS:
        out[("gauss", f)] = [oracles.gauss_cf(f, z[0]) for z in IL_ZS_1D]
        out[("poisson", f)] = [oracles.atoms_cf(f, z, one, np.ones(1), np.ones(1)) for z in IL_ZS_1D]
        out[("density", f)] = [ts.cf(f, z[0]) for z in IL_ZS_1D]
        out[("multi_dir", f)] = [oracles.atoms_cf(f, z, dirs, radii, weights) for z in IL_ZS_2D]
    out["tempered"] = ts
    out["md_drift_cos"] = oracles.atom_drift_cos(radii, weights, dirs)
    return out


def il_params(seed: int, i: int) -> dict:
    rng = _rng(seed, 4, i)
    return {"zs": [float(z) for z in rng.uniform(0.25, 5.0, IL_CHARFN_Z)],
            "z_density": float(rng.uniform(0.25, 5.0)),
            # distinct Philox keys per (seed, batch, integrator, integrand)
            "sample_seed": int(rng.integers(0, 2 ** 62))}


def _exact_cf(name: str, f: str, z: float) -> complex:
    if name == "gauss":
        return oracles.gauss_cf(f, z)
    return oracles.atoms_cf(f, [z], np.array([[1.0]]), np.ones(1), np.ones(1))


def il_batch(ctx, inp: dict, p: dict) -> None:
    integrators = inp["integrators"]
    orc = inp["oracles"]

    # triplet calculus with exact characteristic functions
    for name in ("gauss", "poisson"):
        for f in IL_INTEGRANDS:
            with ctx.attempt(f"{name}/{f}: transform_triplet + char_fn_grid"):
                atoms = name == "poisson"
                with ctx.span("mappings", "mappings.transform_triplet_ms.atoms" if atoms else None):
                    t2 = la.transform_triplet(integrators[name], f)
                zs = [[z] for z in p["zs"]]
                with ctx.span("mappings", "mappings.char_fn_point_ms.atoms" if atoms else None,
                              items=len(zs)):
                    grid = la.char_fn_grid(t2, zs)
                for z, v in zip(p["zs"], grid.values):
                    ctx.check(f"{name}/{f} cf({z:.6g})", v, _exact_cf(name, f, z), TOL_EX2, False)
    with ctx.attempt("density/cos_pi_half: transform_triplet + char_fn"):
        with ctx.span("mappings", "mappings.transform_triplet_ms.density"):
            t2 = la.transform_triplet(integrators["density"], "cos_pi_half")
        z = p["z_density"]
        with ctx.span("mappings", "mappings.char_fn_point_ms.density"):
            grid = la.char_fn_grid(t2, [[z]])
        ref = orc["tempered"].cf("cos_pi_half", z)
        ctx.check(f"density/cos cf({z:.6g})", grid.values[0], ref, TOL_EX2, False)
    with ctx.attempt("multi_dir/cos_pi_half: transform_triplet"):
        with ctx.span("mappings", "mappings.transform_triplet_ms.multi_dir"):
            t2 = la.transform_triplet(integrators["multi_dir"], "cos_pi_half")
        ctx.expect("multi_dir components", len(t2.nu.components) == IL_MD_DIRECTIONS,
                   f"{len(t2.nu.components)} components")
        err = float(np.max(np.abs(t2.gamma - orc["md_drift_cos"])))
        ctx.check("multi_dir/cos drift", err, 0.0, TOL_EX2, False)

    # Monte Carlo: sample, empirical cf, distance to the exact cf
    for j, (name, f) in enumerate((d, f) for d in IL_PATHS for f in IL_INTEGRANDS):
        with ctx.attempt(f"{name}/{f}: sample_integral + empirical_cf"):
            n = IL_PATHS[name]
            cfg = la.SimConfig(paths=n, time_steps=IL_STEPS[name], eps=1e-3,
                               seed=(p["sample_seed"] + j) % 2 ** 63)
            with ctx.span("simulate", f"simulate.us_per_path.{name}", items=n):
                ss = la.sample_integral(integrators[name], f, cfg)
            zs = IL_ZS_2D if name == "multi_dir" else IL_ZS_1D
            with ctx.span("simulate", "simulate.empirical_cf_ms"):
                ecf = la.empirical_cf(ss, zs)
            with ctx.span("simulate"):
                la.cf_distance(ecf, la.CharFnGrid(tuple(zs), tuple(orc[(name, f)])))
            ctx.expect(f"{name}/{f} draws finite", bool(np.all(np.isfinite(ss.draws))),
                       "non-finite draws")
            inp["pool"].add((name, f), p["sample_seed"], n, np.asarray(ecf.values))


class EcfPool:
    """Path-weighted ecf per (integrator, integrand) over a run's distinct batches."""

    def __init__(self):
        self.sums: dict = {}
        self.seen: set = set()

    def add(self, key, batch_key, n: int, values: np.ndarray) -> None:
        if (key, batch_key) in self.seen:   # a traced re-run of the same draws
            return
        self.seen.add((key, batch_key))
        total, paths = self.sums.get(key, (0.0, 0))
        self.sums[key] = (total + n * values, paths + n)


def il_finish(ctx, inp: dict) -> float:
    """Pooled Monte Carlo gates, one op per (integrator, integrand). Returns the
    largest pooled ecf distance."""
    worst = 0.0
    for key, (total, paths) in sorted(inp["pool"].sums.items()):
        with ctx.attempt(f"{key[0]}/{key[1]}: pooled ecf gate"):
            ecf = total / paths
            ref = np.asarray(inp["oracles"][key])
            dist = np.abs(ecf - ref)
            sigma = np.sqrt(np.maximum(1.0 - np.abs(ref) ** 2, 0.0) / paths)
            tol = np.maximum(TOL_ECF, ECF_SIGMAS * sigma)
            worst = max(worst, float(dist.max()))
            bad = np.flatnonzero(dist > tol)
            ctx.expect(f"{key[0]}/{key[1]} ecf", bad.size == 0,
                       f"{paths} paths: distance {dist.max():.4f} > tolerance "
                       f"{tol[bad[0]] if bad.size else 0:.4f}")
    return worst


WORKLOADS = {
    "kernel_grid": Workload(
        "kernel_grid",
        why=("forward transforms at seeded radii in [0.1, 5]: the kernel and quadrature "
             "layers do nearly all the work and the sampler none; a depth-2 point costs "
             "1e5 source evaluations, a depth-1 point a few hundred"),
        judges="ROADMAP item 4 (batched quadrature over whole grids) and item 3 (one kernel)",
        bypasses="simulate (item 5's sampler rewrite should leave it unchanged)",
        tail_pct=80.0, build=kg_build, params=kg_params, batch=kg_batch),
    "invert_screen": Workload(
        "invert_screen",
        why=("inversion and class screens read the image density as a black box, ~3e4 "
             "times per tail point and again on dense screen grids, so memo and batched "
             "evaluation changes score differently here than in kernel_grid"),
        judges="ROADMAP item 4 (inversion target below 0.5 s) and item 3 (tail as half-order integral)",
        bypasses="simulate and mappings",
        tail_pct=80.0, build=is_build, params=is_params, batch=is_batch),
    "integral_law": Workload(
        "integral_law",
        why=("triplet maps, exact cfs and Monte Carlo laws on four integrators under two "
             "integrands: the density and 256-direction triplet maps take ~70% of a batch, "
             "the sampler ~30%, and no depth-2 kernel or inversion runs"),
        judges="ROADMAP item 5 (exact path-vectorised sampler) and item 2 (direction dedup)",
        bypasses="the depth-2 kernels and the inversion (item 4 should move only the "
                 "density integrator's mappings share here)",
        tail_pct=55.0, build=il_build, params=il_params, batch=il_batch),
}
