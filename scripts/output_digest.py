"""Print sha1 digests of a fixed set of transform outputs, to check that a
change to the quadrature engine or the kernels leaves results bit-identical.

Run from the root of a checkout, once on each tree to compare:

    PYTHONPATH=src python scripts/output_digest.py

The set: a1, a2, ups0, arcsine2_direct, a1 o ups0, ups_(-2,2) o a1 (and
a2 o a1 of the atoms) of EX1, EX2 and the atoms {(0.5, 1), (2, 0.7)} at
geomspace(0.05, 8, 40), each read as one values() batch and as 40 lone
value() calls; the tails of invert_arcsine1(a1(EX1), (1e-3, 100, 9)); one
char_fn point (z = 2) of the cos_pi_half image of ExpPower(1, -1.5, 1, 1)
and one integral of that image; the ladder's table_radius() of ups0(EX2);
the tails at the same radii of the pow2 image of an EX2 table, and of
ups_(-0.5,1)(EX2), which has no tail envelope, with a1 of that image, so
both run untruncated; k0_integral_form at 0.1, 0.7 and 3. The last line is
the digest of all of them together.
"""

import hashlib
import math

import numpy as np

import levyarc as la


def main() -> None:
    catalog = la.fixture_catalog()
    sources = {"EX1": catalog["EX1"].measure, "EX2": catalog["EX2"].measure,
               "atoms": la.half_line_measure(atoms=[(0.5, 1.0), (2.0, 0.7)])}
    ops = {"a1": la.arcsine1, "a2": la.arcsine2, "ups0": la.upsilon0,
           "a2_direct": la.arcsine2_direct,
           "a1(ups0)": lambda m: la.arcsine1(la.upsilon0(m)),
           "ups_-2,2(a1)": lambda m: la.upsilon_alpha_beta(la.arcsine1(m), -2.0, 2.0),
           "a2(a1)": lambda m: la.arcsine2(la.arcsine1(m))}
    rs = np.geomspace(0.05, 8.0, 40)
    total = hashlib.sha1()

    def emit(name: str, *arrays) -> None:
        h = hashlib.sha1()
        for a in arrays:
            h.update(np.asarray(a, float).tobytes())
        total.update(h.digest())
        print(f"{name:24s} {h.hexdigest()}")

    for sname, m in sources.items():
        for oname, op in ops.items():
            if oname == "a2(a1)" and sname != "atoms":
                continue
            dens = op(m).components[0][1].density
            emit(f"{oname}({sname})", dens.values(rs), [dens.value(float(r)) for r in rs])
    table = la.invert_arcsine1(la.arcsine1(sources["EX1"]), (1e-3, 100.0, 9)).components[0][2]
    emit("invert tails", table.tails)
    image = la.transform_triplet(la.Triplet([[0.0]], la.half_line_measure(
        density=la.ExpPowerDensity(1.0, -1.5, 1.0, 1.0)), [0.0]), "cos_pi_half")
    cf = np.asarray(la.char_fn_grid(image, [[2.0]]).values)
    emit("char_fn", cf.real, cf.imag)
    emit("integrate", [la.integrate(image.nu.components[0][1], lambda r: r * r / (1.0 + r * r),
                                    (0.0, math.inf))])
    emit("ladder(ups0(EX2))", [la.upsilon0(sources["EX2"]).components[0][1].density.table_radius()])
    ex2_table = la.tabulate_density(sources["EX2"].components[0][1].density)
    squared = la.power_reparam(la.half_line_measure(density=ex2_table), 2.0)
    emit("tail(pow2(EX2 table))", la.tail(squared.components[0][1], rs))
    ups = la.upsilon_alpha_beta(sources["EX2"], -0.5, 1.0)
    emit("a1(ups_-0.5,1(EX2))", la.arcsine1(ups).components[0][1].density.values(rs))
    emit("tail(ups_-0.5,1(EX2))", la.tail(ups.components[0][1], rs))
    emit("k0_integral_form", [la.k0_integral_form(x) for x in (0.1, 0.7, 3.0)])
    print(f"{'all':24s} {total.hexdigest()}")


if __name__ == "__main__":
    main()
