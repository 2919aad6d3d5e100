"""Integral transforms of polar measures.

Two kernels act on a radial component (atoms + density) and produce a new
radial density evaluated lazily by quadrature:

* the half-integral H(x) = int_(x,oo) (s - x)^(-1/2) src(ds), read at
  x = r^2 with constant 2/pi for the first arcsine transform a1, and at
  x = r with constant pi^(-1/2) for the half-order integral frac_half;
* the scale mixture (upsilon): the image of src under scaling by an
  independent factor drawn from a dilation measure tau; density part
  out(r) = int u^(-1) src_dens(r/u) tau(du), with atom-by-atom cross terms
  handled in closed form.

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
int g(s) (s - x)^(-1/2) ds; the inversion reads it with g(s) = dens(sqrt(s)).

Nesting discipline: each kernel whose source carries a density adds one
quadrature level. Two levels are evaluated exactly (outer tolerance 1e-10,
inner 1e-12); beyond that the intermediate density is tabulated on a fine
geometric grid before the next kernel is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, NotInRange, RangeError
from .measures import (DEFAULT_ABS_TOL, Density, Direction, ExpPowerDensity,
                       PolarMeasure, RadialComponent, TableDensity, integrate,
                       power_reparam, tabulate_density, validate)
from .quadrature import _decade_marks, quad_batch

# a dilation measure is structurally a radial component: atoms plus a density
# on (0, oo), total mass finite near infinity and integrating u^2 near zero.
DilationMeasure = RadialComponent

INNER_ABS_TOL = 1e-12
MAX_KERNEL_DEPTH = 2
TWO_OVER_PI = 2.0 / math.pi
INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# dilation measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcsineDilationDensity(Density):
    """(2/pi) (1 - u^2)^(-1/2) on (0, 1); total mass 1."""

    support: tuple[float, float] = field(default=(0.0, 1.0), init=False)
    depth: int = field(default=0, init=False, repr=False, compare=False)

    def value(self, u: float) -> float:
        if not 0.0 < u < 1.0:
            return 0.0
        return TWO_OVER_PI / math.sqrt((1.0 - u) * (1.0 + u))

    def values(self, us) -> np.ndarray:
        u = np.asarray(us, float)
        out = np.zeros(u.shape)
        inside = (u > 0.0) & (u < 1.0)
        ui = u[inside]
        out[inside] = TWO_OVER_PI / np.sqrt((1.0 - ui) * (1.0 + ui))
        return out

    def singular_at_high(self) -> bool:
        return True

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


# ---------------------------------------------------------------------------
# shared quadrature pieces
# ---------------------------------------------------------------------------

def _rc_tail_radius(rc: RadialComponent, tol: float, moment: float = 0.0) -> float:
    """Radius beyond which the weighted radial mass is certified below tol.
    Raises NotImplementedError when the density has no envelope."""
    r = max((loc for loc, _ in rc.atoms), default=0.0)
    if rc.density is not None:
        r = max(r, rc.density.weighted_tail_radius(tol, moment))
    return r


def _rc_moment(rc: RadialComponent, moment: float) -> float:
    return integrate(rc, lambda u: u ** moment if moment else 1.0,
                     (0.0, math.inf), abs_tol=1e-12, g_moment=moment)


def _zero_bound(dens: Density) -> tuple[float, float]:
    """(C, a) with density(x) <= C * x**a certified-or-estimated near zero.
    Exact for exp_power and tables; a probe-based estimate for kernels, used
    only to place truncation radii (the quadrature after truncation is exact).
    """
    if isinstance(dens, ExpPowerDensity):
        return dens.c, dens.a
    if isinstance(dens, TableDensity):
        return (max(dens.ys) or 1.0), 0.0
    # kernels: calibrate at a moderate probe and give the exponent half an
    # order of slack, so a logarithmic factor at zero (the boundary case of
    # the exponent algebra) stays below the envelope all the way down
    a = dens.exponent_at_zero() - 0.5
    lo, hi = dens.support
    probe = max(lo * 1.000001, min(1.0, dens.table_radius()) * 1e-2)
    v = dens.value(probe)
    c = 2.0 * v / probe ** a if v > 0 else 1.0
    return c, a


def _abel_integrals(g: Callable[[np.ndarray], np.ndarray], xs: np.ndarray, lo: float,
                    his: np.ndarray, blowups: Iterable[float], knots: Sequence[float],
                    abs_tol: float, label: Callable[[int], str]) -> np.ndarray:
    """int over (max(x, lo), hi) of g(s) (s - x)^(-1/2) ds for every x of xs,
    each with its own hi (which may be inf), solved as one batch; g is
    vectorised.

    g may blow up integrably at either end and at each of the blowups; the
    range is split there so every blowup sits at a piece edge. On a finite
    piece (a, b) the sine map s = a + (b - a) sin^2(theta) absorbs inverse
    square root blowups at both edges, including the s = x anchor when
    a == x, so the integrand never divides by a difference that can
    underflow. knots are kinks of g (the knots of a table), handed to the
    quadrature as break points. label(i) names the integral at xs[i]."""
    blowups = sorted(set(blowups))
    knots = np.asarray(knots, float)
    # one mark per decade of the distance from a piece's start, which the
    # sine map sends to the same angles on every piece
    marks = np.arcsin(np.sqrt(np.array(_decade_marks(0.0, 1.0))))
    owner, starts, ends, anchors, tols = [], [], [], [], []
    for i, (x, hi) in enumerate(zip(xs.tolist(), his.tolist())):
        start = max(x, lo)
        if hi <= start:
            continue
        cuts: list[float] = []
        for c in blowups:
            if not start < c < hi:
                continue
            if c - start <= 1e-12 * c:
                # x sits at this blowup to machine resolution; g is
                # unresolvable on the sliver, so read the integral right
                # continuously from above
                continue
            if math.isfinite(hi) and hi - c <= 1e-12 * hi:
                continue
            if cuts and c - cuts[-1] <= 1e-12 * c:
                continue
            cuts.append(c)
        edges = [start] + cuts + [hi]
        for a, b in zip(edges, edges[1:]):
            owner.append(i)
            starts.append(a)
            ends.append(b)
            anchors.append(x)
            tols.append(abs_tol / (len(edges) - 1))
    if not owner:
        return np.zeros(xs.size)
    a = np.array(starts)
    b = np.array(ends)
    x = np.array(anchors)
    finite = np.isfinite(b)
    span = np.where(finite, b - a, 0.0)
    lead = a - x

    def sine_mapped(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        # s - x = (a - x) + span sin^2(t): no difference that can cancel, and
        # at a == x the quotient is 2 span^(1/2) cos(t) g(s)
        st = np.sin(t)
        sp = span[k]
        rise = sp * st * st
        return 2.0 * sp * st * np.cos(t) * g(a[k] + rise) / np.sqrt(lead[k] + rise)

    def integrand(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        fin = finite[k]
        if fin.all():
            return sine_mapped(t, k)
        out = np.empty(t.shape)
        out[fin] = sine_mapped(t[fin], k[fin])
        # no truncation radius is available; the quotient is safe here
        # because a > x holds on any unbounded piece with cuts before it,
        # and the anchored case runs on the endpoint substitution
        s = t[~fin]
        out[~fin] = g(s) / np.sqrt(s - x[k[~fin]])
        return out

    def points(k: int) -> np.ndarray:
        pts = knots[(knots > a[k]) & (knots < b[k])]
        if not finite[k]:
            return pts
        if not pts.size:
            return marks
        return np.concatenate([marks, np.arcsin(np.sqrt((pts - a[k]) / span[k]))])

    vals = quad_batch(integrand, len(owner), np.where(finite, 0.0, a),
                      np.where(finite, 0.5 * math.pi, b),
                      abs_tol=np.array(tols), singular_left=~finite, points=points,
                      label=lambda k: label(owner[k]))
    return np.bincount(owner, vals, xs.size)


# ---------------------------------------------------------------------------
# the lazy kernel densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransformedDensity(Density):
    """Radial density produced by a transform kernel from a source radial
    component, evaluated by quadrature on demand; scalar reads are memoized
    per point.

    The half-integral kernel and the scale-mixture kernel below subclass it
    and supply _sup, _compute_depth, _evaluate (on an array of radii inside
    the support) and _compute_exponent along with the Density metadata.
    name labels provenance and error messages.
    """

    source: RadialComponent
    name: str

    def __post_init__(self):
        object.__setattr__(self, "support", (0.0, self._sup()))
        object.__setattr__(self, "depth", self._compute_depth())
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_cache", {})

    def value(self, r: float) -> float:
        memo = self._memo
        got = memo.get(r)
        if got is None:
            got = float(self.values(np.array([r], float))[0])
            if len(memo) < 200000:
                memo[r] = got
        return got

    def values(self, rs) -> np.ndarray:
        """The density at every radius of an array, evaluated as one batch.
        A radius's value does not depend on the rest of the batch, so
        value(r) == values([r])[0] bit for bit; only value() is memoized."""
        r = np.asarray(rs, float)
        lo, hi = self.support
        inside = np.isfinite(r) & (r > lo) & (r <= hi) & (r > 0.0)
        out = np.zeros(r.shape)
        if inside.any():
            out[inside] = self._evaluate(r[inside])
        return out

    def exponent_at_zero(self) -> float:
        cache = self._cache
        if "exp0" not in cache:
            cache["exp0"] = self._compute_exponent()
        return cache["exp0"]

    def singular_at_low(self) -> bool:
        return self.exponent_at_zero() < 0.0

    def table_radius(self) -> float:
        lo, hi = self.support
        if math.isfinite(hi):
            return hi
        try:
            return self.weighted_tail_radius(1e-13, 0.0)
        except NotImplementedError:
            pass
        cache = self._cache
        if "table_r" not in cache:
            r = 1.0
            try:
                r = max(1.0, _rc_tail_radius(self.source, 1e-10, 0.0))
            except NotImplementedError:
                pass
            while r < 1e9 and max(self.value(r), self.value(0.7 * r)) * r > 1e-13:
                r *= 2.0
            cache["table_r"] = r
        return cache["table_r"]

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

    def _sup(self) -> float:
        return self.source.sup_support ** (1.0 / self.power)

    def _compute_depth(self) -> int:
        src = self.source
        return src.kernel_depth() + (1 if src.density is not None else 0)

    def _evaluate(self, rs: np.ndarray) -> np.ndarray:
        xs = rs ** self.power
        total = np.zeros(rs.shape)
        for loc, mass in self.source.atoms:
            above = xs < loc
            total[above] += mass / np.sqrt(loc - xs[above])
        f = self.source.density
        if f is not None:
            lo, hi = f.support
            his = np.full(xs.shape, hi)
            if math.isinf(hi) and f.tail_all_moments():
                try:
                    # beyond max(2x, R): (s - x)^(-1/2) <= sqrt(2) s^(-1/2)
                    cut = f.weighted_tail_radius(INNER_ABS_TOL / math.sqrt(2.0), -0.5)
                    his = np.maximum(2.0 * xs, cut)
                except NotImplementedError:
                    pass
            knots = f.xs if isinstance(f, TableDensity) else ()
            total += _abel_integrals(f.values, xs, lo, his, f.interior_singular_radii(), knots,
                                     INNER_ABS_TOL,
                                     lambda i: f"{self.name} kernel at r={float(rs[i])!r}")
        return self.const * total

    def _compute_exponent(self) -> float:
        src = self.source
        exps = [0.0] if src.atoms else []
        f = src.density
        if f is not None:
            a = f.exponent_at_zero()
            exps.append(0.0 if f.support[0] > 0.0 or a >= -0.5 else self.power * (a + 0.5))
        return min(exps, default=0.0)

    def singular_at_high(self) -> bool:
        return self.source.atom_at_sup() and math.isfinite(self.support[1])

    def interior_singular_radii(self) -> tuple[float, ...]:
        """Each source atom leaves an inverse-square-root blowup in the image;
        all but the one at the supremum sit strictly inside the support.
        Densities in the source never do: smearing an atom-free or even an
        integrably singular density through the kernel keeps the image
        locally bounded away from the atom images."""
        hi = self.support[1]
        radii = {loc ** (1.0 / self.power) for loc, _ in self.source.atoms}
        return tuple(sorted(r for r in radii if 0.0 < r < hi))

    def tail_all_moments(self) -> bool:
        dens = self.source.density
        return math.isfinite(self.support[1]) or dens is None or dens.tail_all_moments()

    def weighted_tail_radius(self, tol: float, moment: float = 0.0) -> float:
        lo, hi = self.support
        if math.isfinite(hi):
            return hi
        # with q = (moment + 1)/power, the image tail beyond R is at most
        # (const/power) B(q, 1/2) times the source tail beyond R**power at
        # moment q - 1/2; over moments >= 0 the Beta factor is largest at 0
        q0 = 1.0 / self.power
        c = self.const * q0 * math.gamma(q0) * math.sqrt(math.pi) / math.gamma(q0 + 0.5)
        q = (moment + 1.0) * q0
        return _rc_tail_radius(self.source, tol / c, q - 0.5) ** q0


@dataclass(frozen=True, eq=False)
class _ScaleMixtureKernel(TransformedDensity):
    """Image of source x dilation under (s, u) -> s*u; density part
    out(r) = int u^(-1) src_dens(r/u) tau(du), atom cross terms in closed
    form."""

    dilation: DilationMeasure

    def _sup(self) -> float:
        return self.source.sup_support * self.dilation.sup_support

    def _compute_depth(self) -> int:
        src, tau = self.source, self.dilation
        d = 0
        if src.atoms and tau.density is not None:
            d = max(d, tau.density.depth)
        if src.density is not None and tau.atoms:
            d = max(d, src.density.depth)
        if src.density is not None and tau.density is not None:
            d = max(d, max(src.density.depth, tau.density.depth) + 1)
        return d

    def _evaluate(self, rs: np.ndarray) -> np.ndarray:
        src, tau = self.source, self.dilation
        total = np.zeros(rs.shape)
        tau_dens = tau.density
        if tau_dens is not None:
            for s, m in src.atoms:
                total += m * tau_dens.values(rs / s) / s
        f = src.density
        if f is not None:
            for u0, w in tau.atoms:
                total += w * f.values(rs / u0) / u0
            if tau_dens is not None:
                total += self._upsilon_double(rs, f, tau_dens)
        return total

    def _upsilon_double(self, rs: np.ndarray, f: Density, t: Density) -> np.ndarray:
        f_lo, f_hi = f.support
        t_lo, t_hi = t.support
        lo_u = np.maximum(t_lo, rs / f_hi)
        hi_u = np.minimum(t_hi, rs / f_lo) if f_lo > 0.0 else np.full(rs.shape, t_hi)
        if math.isinf(t_hi) and f_lo == 0.0:
            hi_u = np.array([self._upsilon_u_cut(r, f, t) for r in rs.tolist()])
        sing_lo = (f.singular_at_high() and math.isfinite(f_hi)) & (lo_u <= (rs / f_hi) * (1 + 1e-12))
        sing_hi = (t.singular_at_high() and math.isfinite(t_hi)) & (hi_u >= t_hi)
        if f_lo > 0.0 and f.singular_at_low():
            sing_hi |= np.isfinite(hi_u) & (hi_u >= (rs / f_lo) * (1 - 1e-12))
        # the integrand is a bump in log u, so the range starts out cut at
        # every decade; a table kinks at each knot x_k, which this integral
        # meets at u = r/x_k
        knots = np.asarray(f.xs if isinstance(f, TableDensity) else ())
        # the source's blowups at rho meet it at u = r/rho, the dilation's at
        # its own radii
        f_blow = np.asarray(f.interior_singular_radii(), float)
        t_blow = list(t.interior_singular_radii())

        def points(k: int) -> Sequence[float]:
            lo, hi = float(lo_u[k]), float(hi_u[k])
            marks = _decade_marks(lo, hi) if math.isfinite(hi) else []
            return np.concatenate([rs[k] / knots, marks]) if knots.size else marks

        def blowups(k: int) -> list[float]:
            return t_blow + (rs[k] / f_blow).tolist() if f_blow.size else t_blow

        def integrand(u: np.ndarray, k: np.ndarray) -> np.ndarray:
            return f.values(rs[k] / u) * t.values(u) / u

        return quad_batch(integrand, rs.size, lo_u, hi_u, abs_tol=INNER_ABS_TOL,
                          singular_left=sing_lo, singular_right=sing_hi, points=points,
                          blowups=blowups,
                          label=lambda k: f"{self.name} kernel at r={float(rs[k])!r}")

    def _upsilon_u_cut(self, r: float, f: Density, t: Density) -> float:
        """Truncation point for the u-integral when the dilation has unbounded
        support: the remainder beyond R equals (after s = r/u) a tail moment
        of the dilation weighted by the source's behavior near zero. R is
        rounded up to a power of two, so that nearby radii get equal ranges
        and quad_batch builds their initial partition once."""
        if not t.tail_all_moments():
            return math.inf
        cache = self._cache
        if "zero_bound" not in cache:
            cache["zero_bound"] = _zero_bound(f)
        c_f, a_f = cache["zero_bound"]
        try:
            cut = t.weighted_tail_radius(INNER_ABS_TOL / max(c_f * r ** a_f, 1e-300), -a_f - 1.0)
        except NotImplementedError:
            return math.inf
        return 2.0 ** math.ceil(math.log2(max(cut, 1.0)))

    def _compute_exponent(self) -> float:
        # each cross term contributes, output behaves like the worst
        src = self.source
        src_exp = None
        if src.density is not None:
            d = src.density
            src_exp = d.exponent_at_zero() if d.support[0] == 0.0 else 0.0
        tau = self.dilation
        tau_exp = None
        if tau.density is not None:
            d = tau.density
            tau_exp = d.exponent_at_zero() if d.support[0] == 0.0 else 0.0
        exps = []
        if src.atoms and tau_exp is not None:
            exps.append(tau_exp)
        if src_exp is not None and tau.atoms:
            exps.append(src_exp)
        if src_exp is not None and tau_exp is not None:
            exps.append(min(src_exp, tau_exp))
        return min(exps) if exps else 0.0

    def _blowup_radii(self) -> set[float]:
        """A source atom crossed with a dilation density that blows up at its
        finite supremum, and a source density blowup crossed with a dilation
        atom, leave blowups in the image."""
        radii = set()
        tau = self.dilation
        t_hi = tau.sup_support
        if (tau.density is not None and tau.density.singular_at_high()
                and math.isfinite(t_hi)):
            radii.update(loc * t_hi for loc, _ in self.source.atoms)
        f = self.source.density
        if f is not None and tau.atoms:
            scaled = list(f.interior_singular_radii())
            if f.singular_at_high() and math.isfinite(f.support[1]):
                scaled.append(f.support[1])
            radii.update(u0 * rho for u0, _ in tau.atoms for rho in scaled)
        return radii

    def singular_at_high(self) -> bool:
        """The blowup left by the source's supremum sits at the image's."""
        hi = self.support[1]
        return math.isfinite(hi) and any(r >= hi for r in self._blowup_radii())

    def interior_singular_radii(self) -> tuple[float, ...]:
        hi = self.support[1]
        return tuple(sorted(r for r in self._blowup_radii() if 0.0 < r < hi))

    def tail_all_moments(self) -> bool:
        if math.isfinite(self.support[1]):
            return True
        src_ok = self.source.density is None or self.source.density.tail_all_moments()
        tau_ok = self.dilation.density is None or self.dilation.density.tail_all_moments()
        return src_ok and tau_ok

    def weighted_tail_radius(self, tol: float, moment: float = 0.0) -> float:
        lo, hi = self.support
        if math.isfinite(hi):
            return hi
        tau = self.dilation
        tau_hi = tau.sup_support
        if math.isfinite(tau_hi):
            cache = self._cache
            key = ("tau_mass",)
            if key not in cache:
                cache[key] = _rc_moment(tau, 0.0)
            scale = cache[key] * tau_hi ** moment
            return tau_hi * _rc_tail_radius(self.source, tol / max(scale, 1e-300), moment)
        raise NotImplementedError("no certified tail envelope for this dilation")


def _maybe_tabulated(dens: TransformedDensity) -> Density:
    """Tabulate a kernel whose nesting depth exceeds the evaluation budget."""
    if dens.depth <= MAX_KERNEL_DEPTH:
        return dens
    return tabulate_density(dens)


# ---------------------------------------------------------------------------
# public transforms
# ---------------------------------------------------------------------------

def _require(m: PolarMeasure, level: str, op: str) -> None:
    report = validate(m, level)
    if not report.ok:
        raise DomainError(f"{op} requires a measure passing the {level} check: "
                          f"{report.failures()}")


def _kernel_component(dens: TransformedDensity) -> RadialComponent:
    return RadialComponent((), _maybe_tabulated(dens), dens.source.weight)


def arcsine1(m: PolarMeasure) -> PolarMeasure:
    """First arcsine transform. Needs the radial first-moment condition near
    zero (levy_l1); the output is again a valid polar measure, atom-free."""
    _require(m, "levy_l1", "arcsine1")
    return m.map_components(
        lambda rc: _kernel_component(_HalfIntegralKernel(rc, "a1", 2.0, TWO_OVER_PI)))


def arcsine2(m: PolarMeasure) -> PolarMeasure:
    """Second arcsine transform, realized as the scale mixture against the
    arcsine dilation on (0, 1). Valid on any measure passing the levy check."""
    _require(m, "levy", "arcsine2")
    tau = arcsine_dilation()
    return m.map_components(lambda rc: _kernel_component(_ScaleMixtureKernel(rc, "a2", tau)))


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
        needs_density = ((rc.atoms and tau.density is not None)
                         or (rc.density is not None and (tau.atoms or tau.density is not None)))
        dens = None
        if needs_density:
            dens = _maybe_tabulated(_ScaleMixtureKernel(rc, "upsilon", tau))
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
        us = np.asarray(self.us)
        ts = np.asarray(self.tails)
        if u <= us[0]:
            return float(ts[0])
        if u >= us[-1]:
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
        tail(u) = (1/2) * int_u^oo (s - u)^(-1/2) dens(sqrt(s)) ds.
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
        if dens.depth >= MAX_KERNEL_DEPTH:
            dens = tabulate_density(dens)
        us = _inversion_grid(dens, grid)
        tails = _preimage_tails(dens, np.array(us), abs_tol).tolist()
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


def _inversion_grid(dens: Density, grid: tuple[float, float, int] | None) -> list[float]:
    if grid is not None:
        lo, hi, n = grid
        n = int(n)
        if not (0.0 < lo < hi) or n < 2:
            raise ValueError(f"bad inversion grid {grid}")
        return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    # the recovered radial variable u lives on the square scale of the image
    hi_r = dens.table_radius()
    hi = max(hi_r * hi_r, 1e-6)
    lo = hi * 1e-8
    n = 257
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _preimage_tails(dens: Density, us: np.ndarray, abs_tol: float) -> np.ndarray:
    lo, hi = dens.support
    s_his = np.full(us.shape, hi * hi)
    if math.isinf(hi) and dens.tail_all_moments():
        try:
            r_cut = dens.weighted_tail_radius(abs_tol, 0.0)
            s_his = np.maximum(2.0 * us, r_cut * r_cut)
        except NotImplementedError:
            pass
    # the integrand blows up (integrably) wherever the density does, and a
    # tabulated image is piecewise linear in the radius, so the integrand
    # kinks at every squared knot
    blowups = [rho * rho for rho in dens.interior_singular_radii()]
    knots = [x * x for x in dens.xs] if isinstance(dens, TableDensity) else ()
    return 0.5 * _abel_integrals(lambda s: dens.values(np.sqrt(s)), us, lo * lo, s_his,
                                 blowups, knots, abs_tol,
                                 lambda i: f"inversion tail at u={float(us[i])!r}")
