"""Integral transforms of polar measures.

Two kernels act on a radial component (atoms + density) and produce a new
radial density evaluated lazily by quadrature:

* the half-integral H(x) = int_(x,oo) (s - x)^(-1/2) src(ds), read at
  x = r^2 with constant 2/pi for the first arcsine transform a1, and at
  x = r with constant pi^(-1/2) for the half-order integral frac_half;
* the scale mixture (upsilon): the image of src under scaling by an
  independent factor drawn from a dilation measure tau; density part
  out(r) = int u^(-1) src_dens(r/u) tau(du), with atom-by-atom cross terms
  handled in closed form. The u-integral runs over the whole range the
  supports allow, unbounded when tau's is and src's starts at 0, with a
  break point at every decade of u around u ~ r.

The other transforms reduce to these two, at most after an exact power map
of the radius (measures.power_reparam). The second arcsine transform a2, kernel
(2/pi) (s^2 - r^2)^(-1/2), is the scale mixture against the arcsine dilation
(2/pi) (1 - u^2)^(-1/2) du on (0, 1), which is the route arcsine2() takes;
it is also a1 after the source radius is squared, the route of
arcsine2_direct(). a1 is in turn a2 after r -> r^(1/2), so it could run on
the scale mixture too, but it stays on the half-integral kernel: that keeps
arcsine2_direct() an independent cross-check of arcsine2() instead of the
same computation twice.

The half-integral kernel and the inversion of a1 share one Abel evaluator,
int f(s**(1/q)) (s - x)^(-1/2) ds, which reads a density f in s = r**q: the
kernel reads its source with q = 1, the inversion its image with q = 2. An
a1 kernel image never reaches it: a1 and its inverse are both half-order
integrals, which compose to a full one, so the inversion returns the tails of
the kernel's source, one integral per point. Nor does an a2 image, a1 of the
squared source: its inversion returns the source's tails at sqrt(u). The
evaluator cuts its range where f blows up, by the rule quad_batch applies to
every integral (quadrature._cut). Every piece (a, b) runs on one map,
s = a + span w**2, which absorbs an inverse square root blowup at a: a finite
piece on w in (0, 1), span b - a; one that ends on a blowup of f on
w = sin(theta), which absorbs one at b too; an unbounded piece on w in
(0, oo), span 1. A finite piece's decade marks start at 1e-3 of the gap from
a down to the nearest point where the integrand may not be smooth, capped at
1e-5 (b - a); an unbounded piece is broken at f's kinks only.

Chain rewrite: with P_p the image under r -> r**p, every op is
Upsilon_sigma o P_p: a1 = (arcsine, 1/2), a2 = (arcsine, 1), and a scale
mixture against tau is (tau, 1). Scale mixtures compose by the multiplicative
convolution of their dilations, and P_p o Upsilon_tau = Upsilon_(P_p tau) o P_p,
so a depth-2 chain is one scale mixture of the source's power image:

    Upsilon_sigma o P_p o Upsilon_tau o P_q = Upsilon_(sigma * P_p tau) o P_pq.

arcsine1() and the scale mixtures (arcsine2, upsilon_tau and what calls them)
take that single integral, over the exact power image of any source, whenever
the component and both dilations are atom-free, the intermediate density is an
a1 or scale-mixture kernel, and this table of closed forms has
sigma * P_p tau in either order (none has P_(1/2) arcsine, so pq is 1 or 1/2):

* arcsine * c u e^(-b u^2) du = c (pi b)^(-1/2) e^(-b v^2) dv, the
  half-normal; P_(1/2) of e^(-u) du and the (-2, 2) power-exp dilation are
  both 2 u e^(-u^2) du;
* arcsine * c e^(-b u) du = (2c/pi) K0(b v) dv;
* arcsine * arcsine = (2/pi)^2 K(1 - v^2) dv on (0, 1).

Every density declares where it blows up in one list, Density.blowups(),
which the kernels hand to quad_batch (scaled into u for the scale mixture).

The rewritten kernel keeps the chain's provenance name. Every other chain
nests: each kernel whose source carries a density adds one quadrature level
(inner tolerance 1e-12), evaluated on demand at any depth, once per distinct
radius of a read. The inversion of a1 reads its image, or the source of an a1
or a2 kernel image, the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.special import ellipkm1, k0

from .errors import DomainError, NotInRange, RangeError
from .measures import (DEFAULT_ABS_TOL, Density, Direction, ExpPowerDensity,
                       PolarMeasure, RadialComponent, _on_support, _power_map_density,
                       integrate, power_reparam, tail, validate)
from .quadrature import _cut, _decade_marks, quad_batch

# a dilation measure is structurally a radial component: atoms plus a density
# on (0, oo), total mass finite near infinity and integrating u^2 near zero.
DilationMeasure = RadialComponent

INNER_ABS_TOL = 1e-12
BREAK_POINT_BUDGET = 1 << 19  # radii x break points per radius made into arrays at once
TWO_OVER_PI = 2.0 / math.pi
INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# dilation measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcsineDilationDensity(Density):
    """(2/pi) (1 - u^2)^(-1/2) on (0, 1); total mass 1."""

    support: tuple[float, float] = field(default=(0.0, 1.0), init=False)

    def values(self, us) -> np.ndarray:
        u = np.asarray(us, float)
        return _on_support(u, (u > 0.0) & (u < 1.0), self._inside)

    @staticmethod
    def _inside(u: np.ndarray) -> np.ndarray:
        w = (1.0 - u) * (1.0 + u)
        return np.divide(TWO_OVER_PI, np.sqrt(w, out=w), out=w)

    def blowups(self) -> tuple[float, ...]:
        return (1.0,)

    def tail_all_moments(self) -> bool:
        return True

    def provenance_name(self) -> str:
        return "arcsine_dilation"


def arcsine_dilation() -> DilationMeasure:
    return RadialComponent((), ArcsineDilationDensity(), 1.0)


def exp_dilation() -> DilationMeasure:
    """e^(-u) du on (0, oo)."""
    return RadialComponent((), ExpPowerDensity(1.0, 0.0, 1.0, 1.0), 1.0)


def power_exp_dilation(alpha: float, beta: float) -> DilationMeasure:
    """beta * s^(-alpha-1) * exp(-s^beta) ds on (0, oo); needs alpha < 2 so
    u^2 is integrable at zero, and 0 < beta <= 2."""
    if not (alpha < 2.0):
        raise DomainError(f"alpha must be < 2, got {alpha}")
    if not (0.0 < beta <= 2.0):
        raise DomainError(f"beta must lie in (0, 2], got {beta}")
    return RadialComponent((), ExpPowerDensity(beta, -alpha - 1.0, 1.0, beta), 1.0)


@dataclass(frozen=True)
class _BesselK0DilationDensity(Density):
    """(2c/pi) K0(b v) on (0, oo): the arcsine dilation composed with
    c e^(-b u) du."""

    c: float
    b: float
    support: tuple[float, float] = field(default=(0.0, math.inf), init=False)

    def values(self, vs) -> np.ndarray:
        v = np.asarray(vs, float)
        return _on_support(v, (v > 0.0) & np.isfinite(v),
                           lambda w: (TWO_OVER_PI * self.c) * k0(self.b * w))

    def blowups(self) -> tuple[float, ...]:
        return (0.0,)

    def tail_all_moments(self) -> bool:
        return True

    @cached_property
    def _envelope(self) -> ExpPowerDensity:
        # K0(x) < (pi/(2x))^(1/2) e^(-x) for x > 0
        return ExpPowerDensity(self.c * math.sqrt(2.0 / (math.pi * self.b)), -0.5, self.b, 1.0)

    def weighted_tail_radius(self, tol: float, moment: float = 0.0) -> float:
        return self._envelope.weighted_tail_radius(tol, moment)

    def provenance_name(self) -> str:
        return "k0_dilation"


@dataclass(frozen=True)
class _EllipticDilationDensity(Density):
    """(2/pi)^2 K(1 - v^2) on (0, 1): the arcsine dilation composed with
    itself; K is the complete elliptic integral of the first kind."""

    support: tuple[float, float] = field(default=(0.0, 1.0), init=False)

    def values(self, vs) -> np.ndarray:
        v = np.asarray(vs, float)
        return _on_support(v, (v > 0.0) & (v <= 1.0), self._inside)

    @staticmethod
    def _inside(v: np.ndarray) -> np.ndarray:
        # below 1e-8, K(1 - v^2) = log(4/v) to double precision, and v^2 may
        # underflow to the pole of ellipkm1
        small = v < 1e-8
        kv = ellipkm1(np.where(small, 0.5, v * v))
        kv[small] = np.log(4.0 / v[small])
        return (TWO_OVER_PI * TWO_OVER_PI) * kv

    def blowups(self) -> tuple[float, ...]:
        return (0.0,)

    def provenance_name(self) -> str:
        return "elliptic_dilation"


# ---------------------------------------------------------------------------
# shared quadrature pieces
# ---------------------------------------------------------------------------

def _rc_tail_radius(rc: RadialComponent, tol: float, moment: float = 0.0) -> float:
    """Radius beyond which the weighted radial mass is certified below tol:
    the last atom or the density's weighted_tail_radius, whichever is
    larger, so math.inf when the density has no envelope."""
    r = max((loc for loc, _ in rc.atoms), default=0.0)
    if rc.density is not None:
        r = max(r, rc.density.weighted_tail_radius(tol, moment))
    return r


def _abel_integrals(f: Density, q: float, xs: np.ndarray, abs_tol: float,
                    label: Callable[[int], str]) -> np.ndarray:
    """int over s > x of f(s**(1/q)) (s - x)^(-1/2) ds for every x of xs, the
    density f read in s = r**q, solved as one batch: q = 1 for the
    half-integral kernel, q = 2 for the inversion of an image that is no a1
    or a2 kernel. The range, its truncation, the blowups and the kinks all
    come from f.

    An unbounded range is cut at max(2x, R**q), R certified by
    f.weighted_tail_radius(abs_tol / (q sqrt(2)), q/2 - 1): beyond 2x,
    (s - x)^(-1/2) <= sqrt(2) s^(-1/2), so after s = r**q the dropped tail is
    at most abs_tol. The range is cut at the blowups of f (f.blowups()) by
    quad_batch's rule, quadrature._cut. Every piece (a, b) runs on one map,
    s = a + span w^2, which absorbs an inverse square root blowup at a, the
    s = x anchor included when a == x:
    * a finite piece takes w in (0, 1), span = b - a;
    * one that ends on a blowup (a cut, or an end _cut finds one at) takes
      w = sin(theta), theta in (0, pi/2): the factor cos(theta) absorbs the
      blowup at b, so the engine never refines into the rounding of b - s;
    * an unbounded piece takes w in (0, oo), span 1, which quad_batch maps.
    The integrand forms s - x = (a - x) + span w^2 itself and never divides
    by a difference that can underflow. The kinks of f are break points,
    mapped by w = ((s - a)/span)^(1/2) (theta = arcsin w), and on a finite
    piece so is every decade of (s - a)/span from the piece's own scale up
    (see the comment at the marks). label(i) names the integral at xs[i]."""
    # f's blowups in s, but one at its low end: that sits at or below every start
    blowups = np.array([rho ** q for rho in f.blowups() if rho > f.support[0]])
    step = max(1, BREAK_POINT_BUDGET // (blowups.size + 1) // (len(f.kinks()) + 11))
    if xs.size > step:
        return np.concatenate([_abel_integrals(f, q, xs[s:s + step], abs_tol,
                                               lambda i, s=s: label(s + i))
                               for s in range(0, xs.size, step)])
    lo, hi = (e ** q for e in f.support)
    his = np.full(xs.shape, hi)
    if math.isinf(hi):
        cut = f.weighted_tail_radius(abs_tol / (q * math.sqrt(2.0)), q / 2.0 - 1.0) ** q
        his = np.maximum(2.0 * xs, cut)
    g = f.values if q == 1.0 else lambda s: f.values(s ** (1.0 / q))
    knots = np.asarray(f.kinks(), float) ** q
    starts = np.maximum(xs, lo)
    rows = np.flatnonzero(his > starts)
    if not rows.size:
        return np.zeros(xs.shape)
    # no cut within 1e-12 of x: g is unresolvable on the sliver, so the
    # integral is read from above
    piece, a, b, _, sine = _cut(starts[rows], his[rows], blowups)
    owner, tols = rows[piece], abs_tol / np.bincount(piece)[piece]
    finite = np.isfinite(b)
    span = np.where(finite, b - a, 1.0)
    lead = a - xs[owner]
    # a piece's break points, mapped, are the kinks inside it and, on a finite
    # piece, the marks rel0 * 10**k below 1 of (s - a)/span. The integrand is
    # smooth on the scale of d0, the distance from a down to x (when a > x),
    # lo, or a blowup or kink, so rel0 = 1e-3 d0/span; the clip to
    # [1e-12, 1e-5] gives a piece that starts on such a point (d0 = 0) the
    # marks 1e-11 ... 1e-1, and every finite piece at least four
    gaps = a[:, None] - np.concatenate([blowups, knots, [lo]])
    d0 = np.fmin(np.where(lead > 0.0, lead, np.inf), np.where(gaps >= 0.0, gaps, np.inf).min(axis=1))
    rel = _decade_marks(0.0, np.ones(a.size), np.clip(1e-3 * d0 / span, 1e-12, 1e-5))
    rel[~finite] = np.nan
    if knots.size:
        inside = (knots > a[:, None]) & (knots < b[:, None])
        rel = np.concatenate([rel, np.where(inside, (knots - a[:, None]) / span[:, None], np.nan)], axis=1)
    points = np.sqrt(rel)
    sined = sine.any()
    if sined:
        points[sine] = np.arcsin(points[sine])

    def integrand(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        # s - x = (a - x) + span w^2: no difference that can cancel, and at
        # a == x the quotient is 2 span^(1/2) g(s); a node theta of a sine
        # piece reads w = sin(theta) and is weighted by dw = cos(theta) dtheta
        w = t
        if sined:
            on = sine[k]
            theta = t[on]
            w = t.copy()
            w[on] = np.sin(theta)
        sp = span[k]
        rise = sp * w
        rise *= w
        out = 2.0 * sp
        out *= w
        out *= g(a[k] + rise)
        rise += lead[k]
        np.divide(out, np.sqrt(rise, out=rise), out=out)
        if sined:
            out[on] *= np.cos(theta)
        return out

    upper = np.where(sine, 0.5 * math.pi, np.where(finite, 1.0, b))
    vals = quad_batch(integrand, owner.size, 0.0, upper, abs_tol=tols, points=points,
                      label=lambda k: label(owner[k]))
    return np.bincount(owner, vals, xs.size)


# ---------------------------------------------------------------------------
# the lazy kernel densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransformedDensity(Density):
    """Radial density produced by a transform kernel from a source radial
    component, evaluated by quadrature on demand. Nothing is memoized across
    calls: value(r) is values() at the single radius r.

    The half-integral kernel and the scale-mixture kernel below subclass it
    and supply support and _exponent (the exponent at zero) as cached
    properties, computed from the source on first read, and _evaluate (on an
    array of radii inside the support), along with the Density metadata.
    name labels provenance and error messages.
    """

    source: RadialComponent
    name: str

    def values(self, rs) -> np.ndarray:
        """The density at every radius of an array, evaluated as one batch.
        A radius's value does not depend on the rest of the batch. Over a
        source density each value costs a quadrature, so each distinct radius
        is evaluated once."""
        r = np.asarray(rs, float)
        lo, hi = self.support
        once = r.size > 1 and self.source.density is not None
        return _on_support(r, np.isfinite(r) & (r > lo) & (r <= hi) & (r > 0.0),
                           self._evaluate_distinct if once else self._evaluate)

    def _evaluate_distinct(self, rs: np.ndarray) -> np.ndarray:
        nodes, back = np.unique(rs, return_inverse=True)
        return self._evaluate(nodes)[back]

    def exponent_at_zero(self) -> float:
        return self._exponent

    def table_radius(self) -> float:
        r = self.weighted_tail_radius(1e-13, 0.0)
        return r if math.isfinite(r) else self._ladder_radius

    @cached_property
    def _ladder_radius(self) -> float:
        r = _rc_tail_radius(self.source, 1e-10, 0.0)
        r = max(1.0, r) if math.isfinite(r) else 1.0
        # the first r 2**k below 1e9 (r >= 1) where the density at it and at
        # 0.7 of it is at most 1e-13 over it, else the first above 1e9; the
        # whole ladder is read in one batch
        rs = min(r, 1e9) * 2.0 ** np.arange(31)
        rs = rs[rs < 1e9]
        vals = self.values(np.concatenate([rs, 0.7 * rs])).reshape(2, -1)
        low = np.flatnonzero(vals.max(axis=0) * rs <= 1e-13)
        return float(rs[low[0]]) if low.size else r * 2.0 ** rs.size

    def provenance_name(self) -> str:
        parts = []
        if self.source.atoms:
            parts.append("atoms")
        if self.source.density is not None:
            parts.append(self.source.density.provenance_name())
        return f"{self.name}({'+'.join(parts)})"


@dataclass(frozen=True, eq=False)
class _HalfIntegralKernel(TransformedDensity):
    """out(r) = const * int_(x,oo) (s - x)^(-1/2) src(ds) read at x = r**power:
    a1 is power 2 with const 2/pi, frac_half power 1 with const pi^(-1/2)."""

    power: float
    const: float

    @cached_property
    def support(self) -> tuple[float, float]:
        return (0.0, self.source.sup_support ** (1.0 / self.power))

    def _evaluate(self, rs: np.ndarray) -> np.ndarray:
        xs = rs ** self.power
        total = np.zeros(rs.shape)
        for loc, mass in self.source.atoms:
            above = xs < loc
            total[above] += mass / np.sqrt(loc - xs[above])
        f = self.source.density
        if f is not None:
            total += _abel_integrals(f, 1.0, xs, INNER_ABS_TOL,
                                     lambda i: f"{self.provenance_name()} kernel at r={float(rs[i])!r}")
        return self.const * total

    @cached_property
    def _exponent(self) -> float:
        # atoms leave exponent 0; a source density ~ s^a at 0 with a < -1/2
        # leaves power (a + 1/2)
        f = self.source.density
        if f is None or f.support[0] > 0.0:
            return 0.0
        return self.power * min(f.exponent_at_zero() + 0.5, 0.0)

    def blowups(self) -> tuple[float, ...]:
        """Each source atom leaves an inverse-square-root blowup at its image.
        A source density leaves one at 0 at most: a negative exponent, or the
        log blowup a density s^(-1/2) at 0 leaves (a1(EX1) = K0)."""
        f = self.source.density
        low = self._exponent < 0.0 or (f is not None and f.support[0] == 0.0
                                       and f.exponent_at_zero() == -0.5)
        return ((0.0,) if low else ()) + tuple(loc ** (1.0 / self.power) for loc, _ in self.source.atoms)

    def tail_all_moments(self) -> bool:
        dens = self.source.density
        return math.isfinite(self.support[1]) or dens is None or dens.tail_all_moments()

    def weighted_tail_radius(self, tol: float, moment: float = 0.0) -> float:
        # with q = (moment + 1)/power, the image tail beyond R is at most
        # (const/power) B(q, 1/2) times the source tail beyond R**power at
        # moment q - 1/2; over moments >= 0 the Beta factor is largest at 0.
        # A finite support is the source's raised to 1/power, and so is R
        q0 = 1.0 / self.power
        c = self.const * q0 * math.gamma(q0) * math.sqrt(math.pi) / math.gamma(q0 + 0.5)
        q = (moment + 1.0) * q0
        return _rc_tail_radius(self.source, tol / c, q - 0.5) ** q0


def _cross_terms(src: RadialComponent, tau: DilationMeasure) -> tuple[list, tuple | None]:
    """The cross terms of src x tau under (s, u) -> s*u that carry a density:
    each density with the atoms of the other side, the dilation's first, and
    the (source, dilation) density pair, or None unless both sides have one."""
    f, t = src.density, tau.density
    scaled = []
    if t is not None and src.atoms:
        scaled.append((t, src.atoms))
    if f is not None and tau.atoms:
        scaled.append((f, tau.atoms))
    return scaled, (None if f is None or t is None else (f, t))


@dataclass(frozen=True, eq=False)
class _ScaleMixtureKernel(TransformedDensity):
    """Image of source x dilation under (s, u) -> s*u; density part
    out(r) = int u^(-1) src_dens(r/u) tau(du), atom cross terms in closed
    form."""

    dilation: DilationMeasure

    @cached_property
    def support(self) -> tuple[float, float]:
        return (0.0, self.source.sup_support * self.dilation.sup_support)

    def _evaluate(self, rs: np.ndarray) -> np.ndarray:
        scaled, pair = _cross_terms(self.source, self.dilation)
        total = np.zeros(rs.shape)
        for d, atoms in scaled:
            for c, m in atoms:
                total += m * d.values(rs / c) / c
        if pair:
            total += self._upsilon_double(rs, *pair)
        return total

    def _upsilon_double(self, rs: np.ndarray, f: Density, t: Density) -> np.ndarray:
        step = max(1, BREAK_POINT_BUDGET // (len(f.kinks()) + len(t.kinks()) + 32))
        if rs.size > step:
            return np.concatenate([self._upsilon_double(rs[s:s + step], f, t)
                                   for s in range(0, rs.size, step)])
        f_lo, f_hi = f.support
        t_lo, t_hi = t.support
        lo_u = np.maximum(t_lo, rs / f_hi)
        hi_u = np.minimum(t_hi, rs / f_lo) if f_lo > 0.0 else np.full(rs.shape, t_hi)
        # the integrand is a bump in log u around u ~ r, so the range starts
        # out cut at every decade from r * 1e-3 (or 1e-12 of the top, if
        # lower) to the top: the upper limit, or for an unbounded range,
        # which quad_batch maps whole, the larger of r and the dilation's
        # table radius; none in the upper half, which quad_batch maps by
        # u = hi - w**2 when a blowup sits at hi (a mark there stalls on the
        # rounding of hi - u). The source's kinks x_k > 0 are met at u = r/x_k,
        # the dilation's at their own radii
        tops = np.maximum(t.table_radius(), rs) if np.isinf(hi_u).any() else hi_u
        points = marks = _decade_marks(lo_u, tops, np.minimum(tops * 1e-12, rs * 1e-3))
        marks[~(marks < 0.5 * (lo_u + tops)[:, None])] = np.nan
        knots, t_kinks = np.asarray(f.kinks(), float), np.asarray(t.kinks(), float)
        if knots.size or t_kinks.size:
            points = np.concatenate([rs[:, None] / knots[knots > 0.0],
                                     np.zeros((rs.size, 1)) + t_kinks, marks], axis=1)
        # the dilation's blowups above 0 sit at their own radii, and the
        # source's at rho > 0 meet it at u = r/rho
        blowups = np.array([u for u in t.blowups() if u > 0.0])
        f_blow = np.array([rho for rho in f.blowups() if rho > 0.0])
        if f_blow.size:
            blowups = np.concatenate([np.zeros((rs.size, 1)) + blowups, rs[:, None] / f_blow], axis=1)

        def integrand(u: np.ndarray, k: np.ndarray) -> np.ndarray:
            out = f.values(rs[k] / u) * t.values(u)
            out /= u
            return out

        return quad_batch(integrand, rs.size, lo_u, hi_u, abs_tol=INNER_ABS_TOL,
                          points=points, blowups=blowups,
                          label=lambda k: f"{self.provenance_name()} kernel at r={float(rs[k])!r}")

    def _densities(self) -> list[Density]:
        scaled, pair = _cross_terms(self.source, self.dilation)
        return [d for d, _ in scaled] + list(pair or ())

    @cached_property
    def _exponent(self) -> float:
        # each density in a cross term contributes, output behaves like the
        # worst; one whose support starts above 0 contributes 0
        exps = [d.exponent_at_zero() if d.support[0] == 0.0 else 0.0 for d in self._densities()]
        return min(exps) if exps else 0.0

    def blowups(self) -> tuple[float, ...]:
        """A density crossed with an atom c of the other side leaves its
        blowups at c times their radii. The density pair leaves one at 0
        where either density blows up there, which covers the log blowups
        of exponent 0 (the K0 and elliptic dilations), and so does a
        negative exponent."""
        scaled, pair = _cross_terms(self.source, self.dilation)
        radii = {c * rho for d, atoms in scaled for c, _ in atoms for rho in d.blowups()}
        if self._exponent < 0.0 or any(d.blowups()[:1] == (0.0,) for d in pair or ()):
            radii.add(0.0)
        return tuple(sorted(radii))

    def kinks(self) -> tuple[float, ...]:
        """A density crossed with an atom c of the other side leaves its kinks
        y at c y."""
        return tuple(sorted({c * y for d, atoms in _cross_terms(self.source, self.dilation)[0]
                             for c, _ in atoms for y in d.kinks()}))

    def tail_all_moments(self) -> bool:
        return math.isfinite(self.support[1]) or all(d.tail_all_moments() for d in self._densities())

    def weighted_tail_radius(self, tol: float, moment: float = 0.0) -> float:
        # an unbounded dilation has no envelope: the support is unbounded too
        hi, tau_hi = self.support[1], self.dilation.sup_support
        if math.isfinite(hi) or math.isinf(tau_hi):
            return hi
        scale = self._dilation_mass * tau_hi ** moment
        return tau_hi * _rc_tail_radius(self.source, tol / max(scale, 1e-300), moment)

    @cached_property
    def _dilation_mass(self) -> float:
        return integrate(self.dilation, lambda u: 1.0, (0.0, math.inf), abs_tol=1e-12)


# ---------------------------------------------------------------------------
# the chain rewrite
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _ChainKernel(_ScaleMixtureKernel):
    """A depth-2 chain rewritten as one scale mixture of the power image of
    its source; name is the chain's provenance, e.g. a1(upsilon(exp_power))."""

    def provenance_name(self) -> str:
        return self.name


def _compose(sigma: Density, tau: Density) -> Density | None:
    """The density of sigma * tau (the law of U V for independent U ~ sigma
    and V ~ tau) where the table of closed forms has it, in either order."""
    if isinstance(tau, ArcsineDilationDensity):
        sigma, tau = tau, sigma
    if not isinstance(sigma, ArcsineDilationDensity):
        return None
    if isinstance(tau, ArcsineDilationDensity):
        return _EllipticDilationDensity()
    if isinstance(tau, ExpPowerDensity) and tau.support == (0.0, math.inf):
        if tau.a == 1.0 and tau.p == 2.0:
            return ExpPowerDensity(tau.c / math.sqrt(math.pi * tau.b), 0.0, tau.b, 2.0)
        if tau.a == 0.0 and tau.p == 1.0:
            return _BesselK0DilationDensity(tau.c, tau.b)
    return None


def _chain_kernel(rc: RadialComponent, outer: str, sigma: DilationMeasure,
                  p: float) -> _ChainKernel | None:
    """The chain outer(rc), outer = Upsilon_sigma o P_p, as one scale mixture,
    or None where it must nest. It needs an atom-free rc whose density is a
    kernel Upsilon_tau o P_q (a1 reads as the arcsine dilation with q = 1/2,
    a scale mixture as its own dilation with q = 1), atom-free sigma and tau,
    and a table entry for sigma * P_p tau."""
    inner = rc.density
    if isinstance(inner, _HalfIntegralKernel) and inner.power == 2.0:
        tau, q = arcsine_dilation(), 0.5
    elif isinstance(inner, _ScaleMixtureKernel):
        tau, q = inner.dilation, 1.0
    else:
        return None
    if rc.atoms or sigma.atoms or tau.atoms or sigma.density is None or tau.density is None:
        return None
    p_tau = tau.density if p == 1.0 else _power_map_density(tau.density, p)
    composed = _compose(sigma.density, p_tau)
    if composed is None:
        return None
    src, e = inner.source, p * q
    dens = src.density if src.density is None or e == 1.0 else _power_map_density(src.density, e)
    image = RadialComponent(tuple((loc ** e, m) for loc, m in src.atoms), dens, rc.weight)
    return _ChainKernel(image, f"{outer}({inner.provenance_name()})", RadialComponent((), composed, 1.0))


def _scale_mixture(rc: RadialComponent, name: str, tau: DilationMeasure) -> TransformedDensity:
    return _chain_kernel(rc, name, tau, 1.0) or _ScaleMixtureKernel(rc, name, tau)


# ---------------------------------------------------------------------------
# public transforms
# ---------------------------------------------------------------------------

def _require(m: PolarMeasure, level: str, op: str) -> None:
    report = validate(m, level)
    if not report.ok:
        raise DomainError(f"{op} requires a measure passing the {level} check: "
                          f"{report.failures()}")


def _kernel_component(dens: TransformedDensity) -> RadialComponent:
    return RadialComponent((), dens, dens.source.weight)


def arcsine1(m: PolarMeasure) -> PolarMeasure:
    """First arcsine transform. Needs the radial first-moment condition near
    zero (levy_l1); the output is again a valid polar measure, atom-free."""
    _require(m, "levy_l1", "arcsine1")
    return m.map_components(lambda rc: _kernel_component(
        _chain_kernel(rc, "a1", arcsine_dilation(), 0.5)
        or _HalfIntegralKernel(rc, "a1", 2.0, TWO_OVER_PI)))


def arcsine2(m: PolarMeasure) -> PolarMeasure:
    """Second arcsine transform, realized as the scale mixture against the
    arcsine dilation on (0, 1). Valid on any measure passing the levy check."""
    _require(m, "levy", "arcsine2")
    tau = arcsine_dilation()
    return m.map_components(lambda rc: _kernel_component(_scale_mixture(rc, "a2", tau)))


def arcsine2_direct(m: PolarMeasure) -> PolarMeasure:
    """Second arcsine transform as the first one after the source radius is
    squared, on the half-integral kernel; cross-check route for arcsine2(),
    which takes the scale mixture."""
    _require(m, "levy", "arcsine2")
    return arcsine1(power_reparam(m, 2.0))


def upsilon_tau(m: PolarMeasure, tau: DilationMeasure) -> PolarMeasure:
    """Scale mixture of a polar measure by a dilation measure on (0, oo):
    the image of nu x tau under (s, u) -> s*u, direction by direction.
    Source atoms crossed with dilation atoms stay atoms; every other cross
    term becomes a density. The output must itself pass the levy check,
    verified post hoc (symbolically) and reported as RangeError."""
    if not isinstance(tau, RadialComponent):
        raise DomainError(f"dilation must be a radial component, got {type(tau)!r}")
    if tau.density is not None:
        td = tau.density
        if td.support[0] == 0.0 and not td.exponent_at_zero() > -3.0:
            raise DomainError("dilation density must integrate u^2 near zero")
        if math.isinf(td.support[1]) and not td.tail_all_moments():
            raise DomainError("dilation density must have finite mass at infinity")

    def mapper(rc: RadialComponent) -> RadialComponent:
        atoms = tuple((s * u0, ms * w) for s, ms in rc.atoms for u0, w in tau.atoms)
        scaled, pair = _cross_terms(rc, tau)
        dens = _scale_mixture(rc, "upsilon", tau) if scaled or pair else None
        return RadialComponent(atoms, dens, rc.weight)

    out = m.map_components(mapper)
    report = validate(out, "levy")
    if not report.ok:
        raise RangeError(f"scale mixture output fails the levy check: {report.failures()}")
    return out


def upsilon0(m: PolarMeasure) -> PolarMeasure:
    """Scale mixture against e^(-u) du."""
    return upsilon_tau(m, exp_dilation())


def upsilon_alpha_beta(m: PolarMeasure, alpha: float, beta: float) -> PolarMeasure:
    """Scale mixture against beta * s^(-alpha-1) * exp(-s^beta) ds,
    alpha < 2 and 0 < beta <= 2. (alpha, beta) = (-1, 1) reproduces upsilon0."""
    _require(m, "levy", "upsilon_alpha_beta")
    return upsilon_tau(m, power_exp_dilation(alpha, beta))


def frac_half(rc: RadialComponent) -> RadialComponent:
    """Half-order fractional integral of a radial component:
    out(u) = pi^(-1/2) * int_(u,oo) (s - u)^(-1/2) src(ds).
    Applying it twice to a point mass at s yields the flat density 1 on (0, s).
    """
    if not isinstance(rc, RadialComponent):
        raise DomainError(f"frac_half expects a radial component, got {type(rc)!r}")
    return _kernel_component(_HalfIntegralKernel(rc, "frac_half", 1.0, INV_SQRT_PI))


# ---------------------------------------------------------------------------
# inversion of the first arcsine transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailTable:
    """Tabulated tail function u -> mass of (u, oo), nonincreasing."""

    us: tuple[float, ...]
    tails: tuple[float, ...]

    def tail(self, u: float) -> float:
        """The tail at u: the first tabulated value at or below us[0],
        linear interpolation up to and including us[-1], and 0 beyond the
        grid, where nothing was recovered."""
        if math.isnan(u):
            raise ValueError(f"tail point must be a number, got {u}")
        us = np.asarray(self.us)
        ts = np.asarray(self.tails)
        if u <= us[0]:
            return float(ts[0])
        if u > us[-1]:
            return 0.0
        return float(np.interp(u, us, ts))


@dataclass(frozen=True)
class TailDecomposition:
    """Recovered pre-image of the first arcsine transform, one tail table per
    direction (the transform determines the radial measure only through its
    tails, which is what gets returned)."""

    d: int
    components: tuple[tuple[Direction, float, TailTable], ...]

    def to_json(self) -> dict:
        return {"d": self.d,
                "components": [{"direction": list(dirn.coords), "weight": w,
                                "us": list(tt.us), "tails": list(tt.tails)}
                               for dirn, w, tt in self.components]}


MONOTONE_SLACK = 1e-7


def invert_arcsine1(m: PolarMeasure, grid: tuple[float, float, int] | None = None,
                    *, abs_tol: float = DEFAULT_ABS_TOL) -> TailDecomposition:
    """Recover the source tails from a first-arcsine image.

    For each direction the candidate pre-image tail is
        tail(u) = (1/2) * int_u^oo (s - u)^(-1/2) dens(sqrt(s)) ds,
    which for an a1 kernel image is exactly the tail of its source at u, and
    for an a2 image (a1 after r -> r**2) that at sqrt(u), computed as such.
    A genuine image produces a nonincreasing, nonnegative tail; any rise (or
    negativity) beyond MONOTONE_SLACK relative to the tail at the left edge of
    the grid raises NotInRange. Atoms in the input are rejected outright: the
    transform always outputs a continuous density.
    """
    comps = []
    for idx, (dirn, rc) in enumerate(m.components):
        if rc.atoms:
            raise NotInRange(f"component {idx} carries atoms; images of the transform are atom-free")
        dens = rc.density
        if dens is None:
            raise NotInRange(f"component {idx} has no density")
        us = _inversion_grid(dens, grid)
        if isinstance(dens, _HalfIntegralKernel) and dens.power == 2.0:
            tails = _source_tails(dens.source, np.array(us), abs_tol).tolist()
        elif (isinstance(dens, _ScaleMixtureKernel) and not dens.dilation.atoms
              and isinstance(dens.dilation.density, ArcsineDilationDensity)):
            tails = _source_tails(dens.source, np.sqrt(us), abs_tol).tolist()
        else:
            tails = (0.5 * _abel_integrals(dens, 2.0, np.array(us), abs_tol, lambda i: (
                f"inversion tail at u={us[i]!r} of {dens.provenance_name()}"))).tolist()
        t0 = max(tails[0], 0.0)
        floor = -MONOTONE_SLACK * max(t0, 1e-300)
        for j in range(len(tails)):
            if tails[j] < floor:
                raise NotInRange(
                    f"component {idx}: recovered tail is negative at u={us[j]:.6g}")
            if j and tails[j] - tails[j - 1] > MONOTONE_SLACK * max(t0, 1e-300):
                raise NotInRange(
                    f"component {idx}: recovered tail increases at u={us[j]:.6g} "
                    f"({tails[j - 1]:.6g} -> {tails[j]:.6g}); not an image of the transform")
        cleaned = tuple(max(t, 0.0) for t in tails)
        comps.append((dirn, rc.weight, TailTable(tuple(us), cleaned)))
    return TailDecomposition(m.d, tuple(comps))


def _source_tails(src: RadialComponent, us: np.ndarray, abs_tol: float) -> np.ndarray:
    """The inversion of an a1 image of src: the two half-order integrals
    compose to a full one, so the recovered tails are src's own. A point
    within 1e-12 (relative) below an atom reads the tail from above, as the
    Abel route does."""
    for loc, _ in src.atoms:
        us = np.where((us < loc) & (loc - us <= 1e-12 * loc), loc, us)
    return tail(src, us, abs_tol=abs_tol)


def _inversion_grid(dens: Density, grid: tuple[float, float, int] | None) -> list[float]:
    if grid is not None:
        lo, hi, n = grid
        # the rule of levyarc invert --grid: finite 0 < LO < HI, an integer count >= 2
        if not (0.0 < lo < hi < math.inf and isinstance(n, (int, np.integer)) and n >= 2):
            raise ValueError(f"bad inversion grid {grid}")
        return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    # the recovered radial variable u lives on the square scale of the image
    hi_r = dens.table_radius()
    hi = max(hi_r * hi_r, 1e-6)
    lo = hi * 1e-8
    n = 257
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]

