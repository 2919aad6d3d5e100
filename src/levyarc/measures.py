"""Polar-decomposed measures on R^d and integration against them.

A measure is held as finitely many unit directions, each carrying a radial
component on (0, oo): a list of atoms plus an optional density. The density
families are closed under everything this package does:

* exp_power(c, a, b, p): c * r**a * exp(-b * r**p), the workhorse family;
* table: piecewise-linear samples, the serialization target for transformed
  densities;
* the image of any density under r -> r**2 or r**(1/2), exact and lazy
  (exp_power alone has a closed-form parameter map);
* kernel densities defined in levyarc.transforms (lazy quadrature kernels),
  which subclass Density and plug into the same integration machinery.

Integrability decisions (the Levy conditions near zero) are made symbolically
from family metadata, never by sampling: a density behaving like r**a near 0
passes the Levy condition iff a > -3 and the stronger first-moment condition
iff a > -2. Atoms and tables always pass.

Conventions: integrate() and tail() operate on the bare radial measure; the
component weight (the spherical mass of its direction) is applied by
measure-level consumers. Intervals are half-open (a, b]: an atom sitting
exactly at the left endpoint is excluded, matching tail(u) = mass of (u, oo).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import gammaincc

from .errors import MalformedMeasure
from .quadrature import (DEFAULT_ABS_TOL, _decade_marks, exp_tail_radius,
                         geometric_grid, quad_batch)

DIRECTION_TOL = 1e-12
TABLE_POINTS_PER_DECADE = 512


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

class Density:
    """Radial density on (0, oo). Subclasses fill in the metadata the
    integration and validation machinery needs, such as blowups() and
    kinks(). Integrals read values() on
    arrays of nodes as they come, repeats included: a density that costs a
    quadrature per read (the lazy transform kernels) reads each distinct
    radius once itself.
    """

    support: tuple[float, float] = (0.0, math.inf)

    def value(self, r: float) -> float:
        """The density at one radius: values() at that single point, so
        value(r) == values([r])[0] bit for bit."""
        return float(self.values(np.array([r], float))[0])

    def values(self, rs) -> np.ndarray:
        """The density at every radius of an array, as an array of the same
        shape. A subclass defines at least one of value() and values(). The
        families below define values(); this default loops over value(), so
        a user-defined density may define value() alone."""
        if type(self).value is Density.value:
            raise NotImplementedError(f"{type(self).__name__} defines neither value nor values")
        r = np.asarray(rs, float)
        return np.array([self.value(float(x)) for x in r.ravel()], float).reshape(r.shape)

    def __call__(self, r: float) -> float:
        return self.value(r)

    def exponent_at_zero(self) -> float:
        """Power-law exponent e with density(r) ~ r**e as r -> 0+.

        Only meaningful when the support starts at 0; a logarithmic factor on
        top of r**e is ignored (it never flips the strict integrability
        inequalities used by validate), so a log blowup has exponent 0 and
        is declared by blowups() instead."""
        return 0.0

    def blowups(self) -> tuple[float, ...]:
        """The radii of the closed support where the density blows up
        (integrably), in increasing order: 0 when it does as r -> 0+ (log
        blowups of exponent 0 included), the supremum when it does there,
        and every radius in between. Every integral against the density is
        cut at those inside its range and maps the ends that sit on one."""
        return ()

    def kinks(self) -> tuple[float, ...]:
        """Radii where the density is continuous but not smooth, or jumps.
        Every integral against the density takes those inside its range as
        break points."""
        return ()

    def tail_all_moments(self) -> bool:
        """True when every moment integral over (1, oo) is certified finite."""
        lo, hi = self.support
        return math.isfinite(hi)

    def weighted_tail_radius(self, tol: float, moment: float = 0.0) -> float:
        """Certified R with the integral of r**moment * density over (R, oo)
        at most tol, or math.inf where nothing certifies one. The default is
        the support's supremum; a density with an envelope defines its own,
        and integrals over unbounded ranges then truncate at R."""
        return self.support[1]

    def table_radius(self) -> float:
        """Upper end for tabulation and sampling grids (heuristic range
        selection, not a certification). Raises NotImplementedError where
        weighted_tail_radius certifies none; the kernels climb a ladder."""
        lo, hi = self.support
        r = hi if math.isfinite(hi) else self.weighted_tail_radius(1e-13, 0.0)
        if math.isinf(r):
            raise NotImplementedError(f"{type(self).__name__} has no certified tail envelope")
        return r

    def provenance_name(self) -> str:
        return type(self).__name__

    def as_json(self) -> dict:
        table = tabulate_density(self)
        return table.as_json()


def _on_support(r: np.ndarray, inside: np.ndarray,
                formula: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """formula at the entries of r where inside holds, 0 elsewhere. formula
    works elementwise on a 1-D array it must not write into. When every
    entry is inside, r is read in place, with no gather or scatter."""
    n = np.count_nonzero(inside)
    if n == r.size and n:
        return formula(r.ravel()).reshape(r.shape)
    out = np.zeros(r.shape)
    if n:
        out[inside] = formula(r[inside])
    return out


@dataclass(frozen=True)
class ExpPowerDensity(Density):
    """c * r**a * exp(-b * r**p) on its support (default all of (0, oo))."""

    c: float
    a: float
    b: float
    p: float
    support: tuple[float, float] = (0.0, math.inf)

    def __post_init__(self):
        lo, hi = self.support
        if not (self.c > 0 and math.isfinite(self.c)):
            raise MalformedMeasure(f"exp_power needs c > 0, got {self.c}")
        if not (self.p > 0 and math.isfinite(self.p)):
            raise MalformedMeasure(f"exp_power needs p > 0, got {self.p}")
        if not (self.b >= 0 and math.isfinite(self.b)):
            raise MalformedMeasure(f"exp_power needs b >= 0, got {self.b}")
        if not math.isfinite(self.a):
            raise MalformedMeasure("exp_power exponent a must be finite")
        if not (0.0 <= lo < hi):
            raise MalformedMeasure(f"bad support {self.support}")
        if self.b == 0.0 and math.isinf(hi):
            raise MalformedMeasure("exp_power with b = 0 requires bounded support")

    def values(self, rs) -> np.ndarray:
        r = np.asarray(rs, float)
        lo, hi = self.support
        return _on_support(r, (r > lo) & (r <= hi) & (r > 0.0) & np.isfinite(r), self._inside)

    def _inside(self, r: np.ndarray) -> np.ndarray:
        # log-space keeps huge probe arguments (from scale-mixture integrands)
        # from overflowing r**a or r**p
        lr = np.log(r)
        logv = self.a * lr
        logv += math.log(self.c)
        if self.b > 0.0:
            lr *= self.p
            np.exp(np.minimum(lr, 700.0, out=lr), out=lr)
            lr *= self.b
            logv -= lr
        over = logv > 709.0
        np.exp(np.minimum(logv, 709.0, out=logv), out=logv)
        logv[over] = math.inf
        return logv

    def exponent_at_zero(self) -> float:
        return self.a

    def blowups(self) -> tuple[float, ...]:
        return (0.0,) if self.support[0] == 0.0 and self.a < 0.0 else ()

    def tail_all_moments(self) -> bool:
        return math.isfinite(self.support[1]) or self.b > 0.0

    def weighted_tail_radius(self, tol: float, moment: float = 0.0) -> float:
        if math.isfinite(self.support[1]):
            return self.support[1]
        # remainder beyond R:  int_R^inf c u^(a+k) e^{-b u^p} du
        #   <= e^{-(b/2) R^p} * int_1^inf c u^(a+k) e^{-(b/2) u^p} du   (R >= 1)
        env = self._envelope_const(moment)
        return exp_tail_radius(env, self.b / 2.0, self.p, tol)

    def _envelope_const(self, moment: float) -> float:
        # int_1^inf c u^q e^{-beta u^p} du = (c/p) beta^{-s} Gamma(s, beta)
        # with q = a + moment, beta = b/2, s = (q+1)/p.  Raising s only
        # enlarges the value (u >= 1 on the domain), so clamp it below at 1
        # to stay where the incomplete gamma is well conditioned; the result
        # is only used as an upper bound for tail truncation.
        cache = self.__dict__.setdefault("_env_cache", {})
        if moment not in cache:
            beta = self.b / 2.0
            s = max((self.a + moment + 1.0) / self.p, 1.0)
            reg = float(gammaincc(s, beta))
            if reg > 0.0:
                log_gam = math.log(reg) + math.lgamma(s)
            else:
                # gammaincc underflows only when beta >> s, where
                # Gamma(s, beta) <= 2 beta^{s-1} e^{-beta}
                log_gam = math.log(2.0) + (s - 1.0) * math.log(beta) - beta
            log_env = math.log(self.c / self.p) - s * math.log(beta) + log_gam
            cache[moment] = math.exp(min(log_env, 700.0))
        return cache[moment]

    def provenance_name(self) -> str:
        return "exp_power"

    def as_json(self) -> dict:
        lo, hi = self.support
        return {"kind": "exp_power", "c": self.c, "a": self.a, "b": self.b,
                "p": self.p, "support": [lo, None if math.isinf(hi) else hi]}


@dataclass(frozen=True)
class TableDensity(Density):
    """Piecewise-linear density through (xs, ys); zero outside [xs[0], xs[-1]]."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    provenance: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.xs) < 2 or len(self.xs) != len(self.ys):
            raise MalformedMeasure("table needs matching xs/ys with at least 2 points")
        ax = np.asarray(self.xs, float)
        ay = np.asarray(self.ys, float)
        if not np.all(np.isfinite(ax)) or not np.all(np.isfinite(ay)):
            raise MalformedMeasure("table entries must be finite")
        if ax[0] < 0.0 or np.any(np.diff(ax) <= 0.0):
            raise MalformedMeasure("table abscissae must be nonnegative and strictly increasing")
        if np.any(ay < 0.0):
            raise MalformedMeasure("table ordinates must be nonnegative")
        object.__setattr__(self, "support", (float(ax[0]), float(ax[-1])))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.xs, float), np.asarray(self.ys, float)

    def values(self, rs) -> np.ndarray:
        ax, ay = self._arrays
        r = np.asarray(rs, float)
        return np.where((r >= ax[0]) & (r <= ax[-1]), np.interp(r, ax, ay), 0.0)

    def mass(self, lo: float = 0.0, hi: float = math.inf) -> float:
        """Exact integral of the piecewise-linear function over [lo, hi]."""
        ax, ay = self._arrays
        lo = max(lo, ax[0])
        hi = min(hi, ax[-1])
        if hi <= lo:
            return 0.0
        cuts = np.unique(np.concatenate([[lo, hi], ax[(ax > lo) & (ax < hi)]]))
        vals = np.interp(cuts, ax, ay)
        # the trapezoid sum written out as numpy's trapezoid forms it, which
        # numpy 1.x lacks
        return float((np.diff(cuts) * (vals[1:] + vals[:-1]) / 2.0).sum())

    def kinks(self) -> tuple[float, ...]:
        return tuple(self._arrays[0].tolist())

    def provenance_name(self) -> str:
        return self.provenance or "table"

    def as_json(self) -> dict:
        out = {"kind": "table", "xs": list(self.xs), "ys": list(self.ys)}
        if self.provenance:
            out["provenance"] = self.provenance
        return out


@dataclass(frozen=True)
class PowerImageDensity(Density):
    """Exact image of another density under r -> r**exponent (exponent 2 or
    1/2), the base read at the preimage radius. power_reparam returns it for
    every density but exp_power, which it remaps in closed form; its kinks
    are the base's raised to the exponent.
    """

    base: Density
    exponent: float

    def __post_init__(self):
        if self.exponent not in (2.0, 0.5):
            raise MalformedMeasure("power image exponent must be 2 or 1/2")
        lo, hi = self.base.support
        e = self.exponent
        object.__setattr__(self, "support", (lo ** e, hi ** e))

    def values(self, ss) -> np.ndarray:
        s = np.asarray(ss, float)
        return _on_support(s, (s > 0.0) & np.isfinite(s), self._inside)

    def _inside(self, s: np.ndarray) -> np.ndarray:
        if self.exponent == 2.0:
            r = np.sqrt(s)
            return self.base.values(r) / (2.0 * r)
        return self.base.values(s * s) * 2.0 * s

    def exponent_at_zero(self) -> float:
        a = self.base.exponent_at_zero()
        return (a - 1.0) / 2.0 if self.exponent == 2.0 else 2.0 * a + 1.0

    def blowups(self) -> tuple[float, ...]:
        """The base's blowups mapped, but at 0, where the image blows up
        when its own exponent is negative."""
        low = (0.0,) if self.support[0] == 0.0 and self.exponent_at_zero() < 0.0 else ()
        return low + tuple(x ** self.exponent for x in self.base.blowups() if x > 0.0)

    def kinks(self) -> tuple[float, ...]:
        return tuple(x ** self.exponent for x in self.base.kinks())

    def tail_all_moments(self) -> bool:
        return self.base.tail_all_moments()

    def weighted_tail_radius(self, tol: float, moment: float = 0.0) -> float:
        base_moment = 2.0 * moment if self.exponent == 2.0 else moment / 2.0
        return self.base.weighted_tail_radius(tol, base_moment) ** self.exponent

    def provenance_name(self) -> str:
        tag = "pow2" if self.exponent == 2.0 else "powhalf"
        return f"{tag}({self.base.provenance_name()})"


def tabulate_density(dens: Density, lo: float | None = None, hi: float | None = None,
                     per_decade: int = TABLE_POINTS_PER_DECADE) -> TableDensity:
    """Sample a density on a geometric grid into a TableDensity."""
    slo, shi = dens.support
    if hi is None:
        hi = dens.table_radius()
    if lo is None:
        lo = slo if slo > 0.0 else hi * 1e-7
    lo = max(lo, slo if slo > 0.0 else 0.0) or hi * 1e-7
    grid = geometric_grid(lo, hi, per_decade)
    ys = np.maximum(dens.values(np.asarray(grid)), 0.0)
    return TableDensity(tuple(grid), tuple(ys.tolist()), provenance=dens.provenance_name())


# ---------------------------------------------------------------------------
# measure types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Direction:
    coords: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.coords, float)
        if v.ndim != 1 or v.size < 1 or not np.all(np.isfinite(v)):
            raise MalformedMeasure(f"bad direction {self.coords!r}")
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > DIRECTION_TOL:
            raise MalformedMeasure(f"direction norm {n} deviates from 1 by more than {DIRECTION_TOL}")

    @staticmethod
    def normalized(coords: Sequence[float]) -> "Direction":
        v = np.asarray(coords, float)
        n = np.linalg.norm(v)
        if n == 0.0 or not np.all(np.isfinite(v)):
            raise MalformedMeasure("cannot normalize zero or non-finite vector")
        return Direction(tuple(float(x) for x in v / n))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, float)

    @property
    def d(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class RadialComponent:
    """Radial measure on (0, oo): atoms plus an optional density, with the
    spherical weight of its direction carried alongside."""

    atoms: tuple[tuple[float, float], ...] = ()
    density: Density | None = None
    weight: float = 1.0

    def __post_init__(self):
        if not (self.weight > 0.0 and math.isfinite(self.weight)):
            raise MalformedMeasure(f"weight must be positive and finite, got {self.weight}")
        cleaned = []
        for loc, mass in self.atoms:
            loc = float(loc)
            mass = float(mass)
            if not (loc > 0.0 and math.isfinite(loc)):
                raise MalformedMeasure(f"atom location must be in (0, oo), got {loc}")
            if not (mass > 0.0 and math.isfinite(mass)):
                raise MalformedMeasure(f"atom mass must be positive, got {mass}")
            cleaned.append((loc, mass))
        cleaned.sort()
        merged: list[tuple[float, float]] = []
        for loc, mass in cleaned:
            if merged and merged[-1][0] == loc:
                merged[-1] = (loc, merged[-1][1] + mass)
            else:
                merged.append((loc, mass))
        object.__setattr__(self, "atoms", tuple(merged))
        if self.density is not None and not isinstance(self.density, Density):
            raise MalformedMeasure(f"density must be a Density, got {type(self.density)!r}")

    @property
    def sup_support(self) -> float:
        """Supremum of the support (atoms and density together)."""
        hi = self.atoms[-1][0] if self.atoms else 0.0
        if self.density is not None:
            hi = max(hi, self.density.support[1])
        return hi


@dataclass(frozen=True)
class PolarMeasure:
    d: int
    components: tuple[tuple[Direction, RadialComponent], ...] = ()

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 1):
            raise MalformedMeasure(f"dimension must be an integer >= 1, got {self.d}")
        comps = tuple((dirn, rc) for dirn, rc in self.components)
        for dirn, rc in comps:
            if dirn.d != self.d:
                raise MalformedMeasure(f"direction {dirn.coords} has dimension {dirn.d}, expected {self.d}")
        if len(comps) > 1:
            coords = np.array([dirn.coords for dirn, _ in comps])
            pairs = cKDTree(coords).query_pairs(DIRECTION_TOL)
            if pairs:
                i, j = min(pairs)
                raise MalformedMeasure(f"duplicate directions at indices {i} and {j}")
        object.__setattr__(self, "components", comps)

    @staticmethod
    def zero(d: int = 1) -> "PolarMeasure":
        return PolarMeasure(d, ())

    def is_zero(self) -> bool:
        return not self.components

    def map_components(self, fn: Callable[[RadialComponent], RadialComponent]) -> "PolarMeasure":
        return PolarMeasure(self.d, tuple((dirn, fn(rc)) for dirn, rc in self.components))


def half_line_measure(atoms: Iterable[tuple[float, float]] = (),
                      density: Density | None = None,
                      weight: float = 1.0) -> PolarMeasure:
    """Convenience: d=1 measure concentrated on the positive half line."""
    rc = RadialComponent(tuple(atoms), density, weight)
    return PolarMeasure(1, ((Direction((1.0,)), rc),))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentCheck:
    index: int
    ok: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    level: str
    ok: bool
    components: tuple[ComponentCheck, ...]

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> str:
        """The failing components as "component i: detail", joined by "; "."""
        return "; ".join(f"component {c.index}: {c.detail}"
                         for c in self.components if not c.ok)


_LEVELS = {"levy": -3.0, "levy_l1": -2.0}


def validate(m: PolarMeasure, level: str = "levy") -> ValidationReport:
    """Check the Levy condition (level "levy": (1 ^ r^2) integrable) or the
    stronger first-moment condition (level "levy_l1": (1 ^ r) integrable)
    for every component, symbolically from family metadata."""
    if level not in _LEVELS:
        raise ValueError(f"level must be one of {sorted(_LEVELS)}, got {level!r}")
    if not isinstance(m, PolarMeasure):
        raise MalformedMeasure(f"expected PolarMeasure, got {type(m)!r}")
    threshold = _LEVELS[level]
    checks = []
    for idx, (dirn, rc) in enumerate(m.components):
        ok = True
        notes = []
        dens = rc.density
        if dens is not None:
            lo, hi = dens.support
            if lo == 0.0:
                e = dens.exponent_at_zero()
                if not (e > threshold):
                    ok = False
                    notes.append(f"density exponent {e:g} at 0 fails {level} (needs > {threshold:g})")
            if math.isinf(hi) and not dens.tail_all_moments():
                ok = False
                notes.append("density tail at infinity not certified integrable")
        checks.append(ComponentCheck(idx, ok, "; ".join(notes) or "ok"))
    return ValidationReport(level, all(c.ok for c in checks), tuple(checks))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def integrate(rc: RadialComponent, g: Callable[[np.ndarray], np.ndarray],
              interval: tuple[float, float], **kw) -> float:
    """Integral of g against the radial measure over the half-open interval
    (a, b]. b may be math.inf.

    g is called on arrays of radii, so it must be written with numpy; it
    returns the array of values (a constant broadcasts). Keyword options as
    integrate_batch(), of which this is the case of one integral.
    """
    return float(integrate_batch(rc, lambda r, k: g(r), 1, interval, **kw)[0])


def integrate_batch(rc: RadialComponent, g: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    n: int, interval: tuple[float, float], *,
                    abs_tol: float = DEFAULT_ABS_TOL,
                    g_moment: float = 0.0) -> np.ndarray:
    """The n integrals of g(., k), k = 0..n-1, against the radial measure over
    the half-open interval (a, b], solved as one batch. b may be math.inf, and
    a an array of n lower ends, one per integral.

    g takes an array of radii and the equally long array of integral
    indices and returns the array of values (a constant broadcasts); it is
    called once per atom and on arrays of quadrature nodes for the density
    part. g_moment declares the growth of every g(., k) at infinity
    (|g(r)| <= const * r**g_moment for large r) so the infinite upper limit
    can be truncated at a radius whose certified remainder is below
    abs_tol/10; a density whose weighted_tail_radius is math.inf is
    integrated on the infinite interval directly.

    Integrals that share a partition meet the same nodes, and the density
    is read at all of them in one call. A density's value at a radius must
    not depend on the other radii it is read with, as for every built-in
    density, so the values are those of n separate calls.
    """
    a, b = _interval(interval)
    ks = np.arange(n)
    total = np.zeros(n)
    for loc, mass in rc.atoms:
        inside = (a < loc) & (loc <= b)
        if np.ndim(inside):
            total += np.where(inside, g(np.full(n, loc), ks) * mass, 0.0)
        elif inside:
            total += g(np.full(n, loc), ks) * mass
    if rc.density is not None:
        total += _density_integrals(rc.density, g, n, a, b, abs_tol, g_moment)
    return total


def _interval(interval: tuple[float, float]) -> tuple[float, float]:
    a, b = interval
    if np.any(np.asarray(a) < 0.0):
        raise ValueError(f"interval must sit inside (0, oo], got {interval}")
    return a, math.inf if b is None else b


def _density_integrals(dens: Density, g: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       n: int, a, b: float, abs_tol: float,
                       g_moment: float) -> np.ndarray:
    """The density part of integrate_batch: one quad_batch of
    g(r, k) * dens.values(r). A scalar a gives every integral the same
    partition; an array of lower ends gives each its own."""
    lo = np.maximum(a, dens.support[0])
    hi = min(b, dens.support[1])
    if (hi <= lo).all():
        return np.zeros(n)
    if math.isinf(hi):
        hi = np.maximum(lo * (1.0 + 1e-12), dens.weighted_tail_radius(abs_tol / 10.0, g_moment))
    # break points: the density's kinks (a row per lower end) and, over a
    # long finite range, one mark per decade
    kinks = np.asarray(dens.kinks(), float)
    if np.ndim(lo):
        kinks = np.broadcast_to(kinks, (n, kinks.size))
    pts = np.concatenate([kinks, _decade_marks(lo, hi) if np.isfinite(hi).all() else kinks[..., :0]],
                         axis=-1)
    return quad_batch(lambda r, k: g(r, k) * dens.values(r), n, lo, hi, abs_tol=abs_tol,
                      points=pts, blowups=np.asarray(dens.blowups(), float),
                      label=lambda k: f"radial integral of {dens.provenance_name()}")


def tail(rc: RadialComponent, u, *, abs_tol: float = DEFAULT_ABS_TOL):
    """Mass of (u, oo) under the radial measure (weight not applied). An
    array of tail points gives the array of their tails, solved as one batch,
    each equal to the tail at that point alone."""
    us = np.asarray(u, float)
    if not np.all(us > 0.0):
        raise ValueError(f"tail points must be positive, got {u}")
    if not us.ndim:
        return integrate(rc, lambda r: 1.0, (u, math.inf), abs_tol=abs_tol)
    return integrate_batch(rc, lambda r, k: 1.0, us.size, (us.ravel(), math.inf),
                           abs_tol=abs_tol).reshape(us.shape)


# ---------------------------------------------------------------------------
# power reparametrization
# ---------------------------------------------------------------------------

def _power_map_density(dens: Density, exponent: float) -> Density:
    """The image of dens under r -> r**exponent (exponent 2 or 1/2):
    exp_power in closed form, every other density as its exact lazy
    PowerImageDensity."""
    if exponent not in (2.0, 0.5):
        raise MalformedMeasure("power image exponent must be 2 or 1/2")
    if isinstance(dens, ExpPowerDensity):
        lo, hi = dens.support
        new_support = (lo ** exponent, hi ** exponent)
        if exponent == 2.0:
            return ExpPowerDensity(dens.c / 2.0, (dens.a - 1.0) / 2.0, dens.b,
                                   dens.p / 2.0, new_support)
        return ExpPowerDensity(2.0 * dens.c, 2.0 * dens.a + 1.0, dens.b,
                               2.0 * dens.p, new_support)
    return PowerImageDensity(dens, exponent)


def power_reparam(m: PolarMeasure, exponent: float) -> PolarMeasure:
    """Image measure under r -> r**exponent along each ray, exponent 2 or 1/2.

    Atoms map exactly; exp_power densities are remapped in closed form;
    every other density, tables included, becomes its exact lazy
    PowerImageDensity. The squaring direction asks for the basic
    integrability check up front (it then tightens to the first-moment
    condition: r^2 near zero turns an r^2-integrable measure into an
    r-integrable one).
    """
    if exponent not in (2.0, 0.5, 2, 1 / 2):
        raise MalformedMeasure(f"exponent must be 2 or 1/2, got {exponent}")
    exponent = float(exponent)
    if exponent == 2.0:
        report = validate(m, "levy")
        if not report.ok:
            raise MalformedMeasure("power reparametrization by 2 needs the levy check: "
                                   f"{report.failures()}")

    def mapper(rc: RadialComponent) -> RadialComponent:
        atoms = tuple((loc ** exponent, mass) for loc, mass in rc.atoms)
        dens = _power_map_density(rc.density, exponent) if rc.density is not None else None
        return RadialComponent(atoms, dens, rc.weight)

    return m.map_components(mapper)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def to_json(m: PolarMeasure) -> dict:
    comps = []
    for dirn, rc in m.components:
        entry: dict = {"direction": list(dirn.coords), "weight": rc.weight,
                       "atoms": [[loc, mass] for loc, mass in rc.atoms]}
        if rc.density is not None:
            entry["density"] = rc.density.as_json()
        comps.append(entry)
    return {"d": m.d, "components": comps}


def _density_from_json(obj: dict) -> Density:
    kind = obj.get("kind")
    if kind == "exp_power":
        lo, hi = obj.get("support", [0, None])
        return ExpPowerDensity(float(obj["c"]), float(obj["a"]), float(obj["b"]),
                               float(obj["p"]),
                               (float(lo), math.inf if hi is None else float(hi)))
    if kind == "table":
        return TableDensity(tuple(float(x) for x in obj["xs"]),
                            tuple(float(y) for y in obj["ys"]),
                            provenance=obj.get("provenance"))
    raise MalformedMeasure(f"unknown density kind {kind!r}")


def from_json(obj: dict | str) -> PolarMeasure:
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        d = int(obj["d"])
        comps = []
        for entry in obj.get("components", []):
            dirn = Direction(tuple(float(x) for x in entry["direction"]))
            atoms = tuple((float(l), float(m)) for l, m in entry.get("atoms", []))
            dens = _density_from_json(entry["density"]) if "density" in entry else None
            comps.append((dirn, RadialComponent(atoms, dens, float(entry.get("weight", 1.0)))))
        return PolarMeasure(d, tuple(comps))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise MalformedMeasure(f"cannot parse measure JSON: {exc}") from exc
