"""Batch command line front end.

Verbs: transform, invert, classify, sample, verify, fixtures. All numeric
tables are CSV with 17 significant digits; structured results are JSON. Errors
leave a machine-readable JSON object on stderr and exit with 2 (usage), 3
(domain or range failure), or 4 (quadrature non-convergence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import classes as classes_mod
from .errors import (DomainError, MalformedMeasure, NotInRange,
                     QuadratureNonConvergence, RangeError)
from .mappings import Triplet
from .measures import (PolarMeasure, TableDensity, from_json, power_reparam,
                       tabulate_density, to_json)
from .simulate import SimConfig, empirical_cf, sample_id, sample_integral
from .special import fixture_catalog
from .transforms import (arcsine1, arcsine2, invert_arcsine1, upsilon0,
                         upsilon_alpha_beta)
from .verify import CHECKS, run_all


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _Usage(f"input file not found: {path}")
    except json.JSONDecodeError as e:
        raise _Usage(f"input file {path} is not valid JSON: {e}")


def _parse_grid(text: str | None, default=None):
    if text is None:
        return default
    parts = text.split(":")
    if len(parts) != 3:
        raise _Usage(f"--grid expects LO:HI:PTS, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _Usage(f"--grid expects numeric LO:HI:PTS, got {text!r}")
    if not (lo < hi and n >= 2):
        raise _Usage(f"--grid needs LO < HI and PTS >= 2, got {text!r}")
    return lo, hi, n


_CHAIN_OPS = ("a1", "a2", "ups0", "ups:ALPHA:BETA", "pow2", "powhalf")


def _apply_chain(m: PolarMeasure, chain: str) -> PolarMeasure:
    for token in chain.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "a1":
            m = arcsine1(m)
        elif token == "a2":
            m = arcsine2(m)
        elif token == "ups0":
            m = upsilon0(m)
        elif token.startswith("ups:"):
            parts = token.split(":")
            if len(parts) != 3:
                raise _Usage(f"ups takes two parameters, ups:ALPHA:BETA; got {token!r}")
            try:
                alpha, beta = float(parts[1]), float(parts[2])
            except ValueError:
                raise _Usage(f"non-numeric ups parameters in {token!r}")
            m = upsilon_alpha_beta(m, alpha, beta)
        elif token == "pow2":
            m = power_reparam(m, 2.0)
        elif token == "powhalf":
            m = power_reparam(m, 0.5)
        else:
            raise _Usage(f"unknown chain op {token!r}; known: {', '.join(_CHAIN_OPS)}")
    return m


def _out_path(args, name: str) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _tabulate_measure(m: PolarMeasure, grid) -> PolarMeasure:
    """Replace every lazily evaluated component density by a plain table so a
    single evaluation pass feeds both the JSON and the CSV output."""

    def mapper(rc):
        if rc.density is None:
            return rc
        dens = rc.density
        if grid is not None:
            lo, hi, n = grid
            xs = np.geomspace(lo, hi, n)
            table = TableDensity(tuple(xs.tolist()), tuple(dens.values(xs).tolist()),
                                 provenance=dens.provenance_name())
        elif isinstance(dens, TableDensity):
            table = dens
        else:
            table = tabulate_density(dens)
        return type(rc)(rc.atoms, table, rc.weight)

    return m.map_components(mapper)


def _cmd_transform(args) -> int:
    m = from_json(_load_json(args.infile))
    out = _apply_chain(m, args.chain or "")
    tabulated = _tabulate_measure(out, _parse_grid(args.grid))
    jpath = _out_path(args, "transformed.json")
    with open(jpath, "w") as fh:
        json.dump(to_json(tabulated), fh, indent=2)
    cpath = _out_path(args, "transformed.csv")
    with open(cpath, "w") as fh:
        fh.write("component,r,density\n")
        for idx, (_, rc) in enumerate(tabulated.components):
            if rc.density is None:
                continue
            for x, y in zip(rc.density.xs, rc.density.ys):
                fh.write(f"{idx},{x:.17g},{y:.17g}\n")
    print(f"wrote {jpath} and {cpath}")
    return 0


def _cmd_invert(args) -> int:
    m = from_json(_load_json(args.infile))
    kwargs = {}
    if args.tol is not None:
        kwargs["abs_tol"] = args.tol
    dec = invert_arcsine1(m, _parse_grid(args.grid), **kwargs)
    cpath = _out_path(args, "tails.csv")
    with open(cpath, "w") as fh:
        fh.write("component,u,tail\n")
        for idx, (_, _, table) in enumerate(dec.components):
            for u, t in zip(table.us, table.tails):
                fh.write(f"{idx},{u:.17g},{t:.17g}\n")
    jpath = _out_path(args, "tails.json")
    with open(jpath, "w") as fh:
        json.dump(dec.to_json(), fh, indent=2)
    print(f"wrote {cpath} and {jpath}")
    return 0


_CLASS_TESTS = {
    "jurek": classes_mod.is_jurek,
    "class_a": classes_mod.class_a_necessary,
    "type_g": classes_mod.is_type_g,
    "class_b": classes_mod.is_class_b,
}


def _cmd_classify(args) -> int:
    m = from_json(_load_json(args.infile))
    wanted = args.classes or list(_CLASS_TESTS)
    bad = [c for c in wanted if c not in _CLASS_TESTS]
    if bad:
        raise _Usage(f"unknown classes {bad}; known: {', '.join(_CLASS_TESTS)}")
    results = {c: _CLASS_TESTS[c](m).to_json() for c in wanted}
    text = json.dumps(results, indent=2)
    print(text)
    jpath = _out_path(args, "classify.json")
    with open(jpath, "w") as fh:
        fh.write(text + "\n")
    return 0


def _cmd_sample(args) -> int:
    t = Triplet.from_json(_load_json(args.infile))
    cfg = SimConfig(paths=args.paths, time_steps=args.steps, eps=args.eps,
                    seed=args.seed)
    if args.integrand == "id":
        ss = sample_id(t, cfg)
    else:
        ss = sample_integral(t, args.integrand, cfg)
    spath = _out_path(args, "samples.csv")
    with open(spath, "w") as fh:
        fh.write(ss.to_csv())
    mpath = _out_path(args, "samples.json")
    with open(mpath, "w") as fh:
        fh.write(ss.sidecar_json() + "\n")
    lo, hi, n = _parse_grid(args.grid, default=(-5.0, 5.0, 21))
    ts = np.linspace(lo, hi, n)
    zs = []
    for axis in range(t.d):
        for v in ts:
            z = [0.0] * t.d
            z[axis] = float(v)
            zs.append(tuple(z))
    ecf = empirical_cf(ss, zs)
    epath = _out_path(args, "ecf.csv")
    with open(epath, "w") as fh:
        fh.write(ecf.to_csv())
    print(f"wrote {spath}, {mpath} and {epath}")
    return 0


def _cmd_verify(args) -> int:
    names = args.checks
    if not names or names == ["all"]:
        names = list(CHECKS)
    bad = [n for n in names if n not in CHECKS]
    if bad:
        raise _Usage(f"unknown checks {bad}; known: {', '.join(CHECKS)}")
    results = run_all(names)
    for res in results:
        print(res.line())
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def _cmd_fixtures(args) -> int:
    catalog = {name: fix.to_json() for name, fix in fixture_catalog().items()}
    text = json.dumps(catalog, indent=2)
    print(text)
    if args.out:
        jpath = _out_path(args, "fixtures.json")
        with open(jpath, "w") as fh:
            fh.write(text + "\n")
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="levyarc", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    tr = sub.add_parser("transform", help="apply a chain of measure transforms")
    tr.add_argument("--in", dest="infile", required=True, help="measure JSON")
    tr.add_argument("--chain", default="", help="comma list: " + ", ".join(_CHAIN_OPS))
    tr.add_argument("--grid", default=None, help="LO:HI:PTS tabulation grid")
    tr.add_argument("--out", default=".", help="output directory")
    tr.set_defaults(fn=_cmd_transform)

    iv = sub.add_parser("invert", help="recover the pre-image tails of the first arcsine transform")
    iv.add_argument("--in", dest="infile", required=True, help="measure JSON")
    iv.add_argument("--grid", default=None, help="LO:HI:PTS grid for the recovered tails")
    iv.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
    iv.add_argument("--out", default=".", help="output directory")
    iv.set_defaults(fn=_cmd_invert)

    cl = sub.add_parser("classify", help="run membership screens on a measure")
    cl.add_argument("classes", nargs="*", help="subset of: " + ", ".join(_CLASS_TESTS))
    cl.add_argument("--in", dest="infile", required=True, help="measure JSON")
    cl.add_argument("--out", default=".", help="output directory")
    cl.set_defaults(fn=_cmd_classify)

    sa = sub.add_parser("sample", help="Monte Carlo draws from a triplet")
    sa.add_argument("integrand", nargs="?", default="id",
                    help="id (time-1 law) or an integrand name: cos_pi_half, log, "
                         "log_sqrt, gauss_tail_inverse")
    sa.add_argument("--in", dest="infile", required=True, help="triplet JSON")
    sa.add_argument("--paths", type=int, default=100_000)
    sa.add_argument("--steps", type=int, default=2000,
                    help="accepted and checked (>= 1) but ignored: the sampler is exact, "
                         "with no time grid")
    sa.add_argument("--eps", type=float, default=1e-3)
    sa.add_argument("--seed", type=int, default=0)
    sa.add_argument("--grid", default=None, help="LO:HI:PTS z grid for the empirical cf")
    sa.add_argument("--out", default=".", help="output directory")
    sa.set_defaults(fn=_cmd_sample)

    ve = sub.add_parser("verify", help="run named verification checks")
    ve.add_argument("checks", nargs="*", help="check names or 'all'; known: " + ", ".join(CHECKS))
    ve.set_defaults(fn=_cmd_verify)

    fx = sub.add_parser("fixtures", help="dump the reference fixture catalog")
    fx.add_argument("--out", default=None, help="also write fixtures.json here")
    fx.set_defaults(fn=_cmd_fixtures)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _Usage as e:
        return _fail(2, "UsageError", str(e))
    except MalformedMeasure as e:
        return _fail(2, "MalformedMeasure", str(e))
    except (ValueError, KeyError) as e:
        return _fail(2, "UsageError", str(e))
    except (DomainError, RangeError, NotInRange) as e:
        return _fail(3, type(e).__name__, str(e))
    except QuadratureNonConvergence as e:
        return _fail(4, "QuadratureNonConvergence", str(e))
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed stdout; not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
