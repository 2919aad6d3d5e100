#!/usr/bin/env python3
"""Monte Carlo validation of the stochastic-integral sampler.

Two experiments:

1. Law check. For Gaussian and compound-Poisson driving laws on the line, a
   two-direction compound-Poisson law in the plane, and two integrands, sample the stochastic integral and compare the empirical
   characteristic function on a z-grid against the exact characteristic
   function of the transformed triplet. Reports the sup distance per combo.

2. Small-jump compensation sweep. On a heavy-tailed driving law, sample with
   and without compensation of the cut small jumps across a range of cutoffs
   and report how the cf distance responds. Compensation should dominate at
   coarse cutoffs and the two should agree as the cutoff vanishes.

Usage:
    python3 scripts/mc_validation.py                 # quick settings
    python3 scripts/mc_validation.py --paths 100000
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import levyarc as la


def zgrid() -> list[list[float]]:
    return [[z] for z in (-3.0, -1.5, -0.5, 0.5, 1.0, 2.0, 3.0)]


def zgrid_2d() -> list[list[float]]:
    return [[r * math.cos(a), r * math.sin(a)] for r in (0.5, 1.5, 3.0) for a in (0.3, 1.9, 3.5)]


def law_check(paths: int, seed: int, budget: float) -> float:
    gaussian = la.Triplet([[1.0]], la.PolarMeasure.zero(1), [0.0])
    poisson = la.Triplet([[0.0]], la.half_line_measure(atoms=[(1.0, 1.0)]), [0.5])
    # two jump components in the plane: they share each block's count and
    # jump streams
    two_dir = la.Triplet(
        [[0.0, 0.0], [0.0, 0.0]],
        la.PolarMeasure(2, (
            (la.Direction((1.0, 0.0)), la.RadialComponent(((1.0, 0.6),))),
            (la.Direction.normalized((-0.5, 1.0)), la.RadialComponent(((0.7, 0.8),))),
        )),
        [0.2, -0.1],
    )
    worst = 0.0
    print("== law check: empirical cf vs exact cf of the transformed triplet")
    print(f"{'driver':>10} {'integrand':>14} {'distance':>12} {'seconds':>9}")
    for name, trip, zs in (("gaussian", gaussian, zgrid()), ("poisson", poisson, zgrid()),
                           ("two_dir", two_dir, zgrid_2d())):
        for integrand in ("cos_pi_half", "log"):
            cfg = la.SimConfig(paths=paths, seed=seed)
            t0 = time.time()
            draws = la.sample_integral(trip, integrand, cfg)
            emp = la.empirical_cf(draws, zs)
            exact = la.char_fn_grid(la.transform_triplet(trip, integrand), zs)
            dist = la.cf_distance(emp, exact)
            worst = max(worst, dist)
            print(f"{name:>10} {integrand:>14} {dist:>12.5f} {time.time() - t0:>9.2f}")
    print(f"   worst distance: {worst:.5f} (budget {budget})\n")
    return worst


def compensation_sweep(paths: int, seed: int) -> None:
    heavy = la.Triplet(
        [[0.0]],
        la.half_line_measure(density=la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0)),
        [0.0],
    )
    zs = zgrid()
    exact = la.char_fn_grid(la.transform_triplet(heavy, "cos_pi_half"), zs)
    print("== compensation sweep: heavy-tailed driver, cos integrand")
    print(f"{'eps':>8} {'compensated':>13} {'uncompensated':>14}")
    for eps in (0.1, 0.03, 0.01, 0.003, 0.001):
        row = []
        for comp in (True, False):
            cfg = la.SimConfig(paths=paths, eps=eps, seed=seed,
                               compensate_small_jumps=comp)
            draws = la.sample_integral(heavy, "cos_pi_half", cfg)
            row.append(la.cf_distance(la.empirical_cf(draws, zs), exact))
        print(f"{eps:>8.3f} {row[0]:>13.5f} {row[1]:>14.5f}")
    print()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=40000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--budget", type=float, default=0.02,
                    help="law-check distance that counts as a failure")
    args = ap.parse_args(argv)

    worst = law_check(args.paths, args.seed, args.budget)
    compensation_sweep(args.paths, args.seed)
    ok = worst <= args.budget
    print(f"law check {'PASS' if ok else 'FAIL'} (worst {worst:.5f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
