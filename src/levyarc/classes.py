"""Membership screens for the distribution classes tied to radial Levy
densities: monotone densities (Jurek class), the necessary conditions for the
range of the first arcsine transform, complete monotonicity (class B), and
complete monotonicity in the squared variable (generalized type G).

Complete monotonicity is screened, not certified: the test checks alternating
signs of forward divided differences up to a finite order on a finite grid, so
"member" means "no violation found at order <= k on the grid". Divided
differences amplify evaluation noise enormously at high order on fine grids
(the amplification factor is the sum of inverse products of node gaps, around
1e19 at order 6 near u = 1e-2 on a 64-per-decade grid), so each difference is
compared against a propagated noise bound rather than zero; without that
guard every smooth function would fail the screen in float64.

One structural property of arcsine-transform images, lower semicontinuity of
the density, is not machine-checkable from tabulated values; reports that
rely on it say so in their notes instead of pretending to have checked it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measures import Density, PolarMeasure
from .quadrature import geometric_grid

DEFAULT_ORDER = 6
GRID_LO = 1e-3
GRID_HI = 1e3
GRID_PER_DECADE = 64
FEVAL_REL = 1e-13
NOISE_SAFETY = 4.0
ZERO_LEVEL = 1e-14
MONOTONE_REL = 1e-9
LIMINF_SLOPE = 0.01


@dataclass(frozen=True)
class MembershipReport:
    verdict: str                       # member | non_member | inconclusive
    witness: tuple | None = None       # grid location violating the property
    checked_order: int | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict not in ("member", "non_member", "inconclusive"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "non_member" and self.witness is None:
            raise ValueError("non_member requires a witness")

    def __bool__(self) -> bool:
        return self.verdict == "member"

    def to_json(self) -> dict:
        out = {"verdict": self.verdict,
               "witness": list(self.witness) if self.witness is not None else None,
               "checked_order": self.checked_order}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def default_grid() -> list[float]:
    return geometric_grid(GRID_LO, GRID_HI, GRID_PER_DECADE)


def _density_grid(dens: Density) -> list[float]:
    """The default grid clipped to where the density lives."""
    lo_s, hi_s = dens.support
    hi = min(GRID_HI, dens.table_radius())
    lo = max(GRID_LO, lo_s * (1.0 + 1e-12)) if lo_s > 0.0 else GRID_LO
    if hi <= lo:
        lo = lo_s if lo_s > 0.0 else hi * 1e-6
    if math.isfinite(hi_s):
        hi = min(hi, hi_s)
    if hi <= lo:
        return []
    return geometric_grid(lo, hi, GRID_PER_DECADE)


# ---------------------------------------------------------------------------
# complete monotonicity screen
# ---------------------------------------------------------------------------

def is_completely_monotone(g: Callable[[float], float],
                           grid: Sequence[float] | None = None,
                           order: int = DEFAULT_ORDER,
                           *, feval_rel: float = FEVAL_REL) -> MembershipReport:
    """Finite-order alternating-sign screen on forward divided differences.

    member: (-1)^j * dd_j >= -(noise bound) for every order j <= `order`
    across the grid. The noise bound propagates a per-evaluation uncertainty
    of feval_rel * max|g| through the same divided-difference recursion
    (which reproduces the Lagrange-weight amplification factor exactly) and
    is inflated by a small safety factor.
    """
    if order < 3:
        raise ValueError(f"order must be at least 3, got {order}")
    xs = np.asarray(list(grid) if grid is not None else default_grid(), float)
    return _cm_screen(xs, np.array([float(g(x)) for x in xs]), order, feval_rel)


def _cm_screen(xs: np.ndarray, fs: np.ndarray, order: int,
               feval_rel: float = FEVAL_REL) -> MembershipReport:
    """is_completely_monotone() on values fs already taken at the grid xs."""
    if xs.size < order + 1:
        return MembershipReport("inconclusive", None, order,
                                ("grid shorter than order + 1 points",))
    if not np.all(np.isfinite(fs)):
        bad = int(np.argmax(~np.isfinite(fs)))
        return MembershipReport("inconclusive", (0, float(xs[bad])), order,
                                ("non-finite evaluation",))
    delta = feval_rel * max(float(np.max(np.abs(fs))), 1e-300)
    dd = fs.copy()
    noise = np.full(xs.size, delta)
    sign = 1.0
    for j in range(1, order + 1):
        gaps = xs[j:] - xs[:-j]
        dd = (dd[1:] - dd[:-1]) / gaps
        noise = (noise[1:] + noise[:-1]) / gaps
        sign = -sign
        bad = sign * dd < -(NOISE_SAFETY * noise)
        if np.any(bad):
            i = int(np.argmax(bad))
            return MembershipReport("non_member", (j, float(xs[i])), order)
    return MembershipReport("member", None, order)


# ---------------------------------------------------------------------------
# per-measure predicates
# ---------------------------------------------------------------------------

def _combine(reports: list[MembershipReport], checked_order: int | None,
             extra_notes: tuple[str, ...] = ()) -> MembershipReport:
    notes: tuple[str, ...] = extra_notes
    for r in reports:
        notes = notes + r.notes
    for r in reports:
        if r.verdict == "non_member":
            return MembershipReport("non_member", r.witness, checked_order, notes)
    for r in reports:
        if r.verdict == "inconclusive":
            return MembershipReport("inconclusive", r.witness, checked_order, notes)
    return MembershipReport("member", None, checked_order, notes)


def is_jurek(m: PolarMeasure) -> MembershipReport:
    """member iff every radial component is a density that is nonincreasing
    on the test grid (within 1e-9 of local scale). Atoms disqualify."""
    reports = []
    for idx, (dirn, rc) in enumerate(m.components):
        if rc.atoms:
            reports.append(MembershipReport(
                "non_member", (idx, rc.atoms[0][0]), None,
                (f"component {idx} carries an atom",)))
            continue
        if rc.density is None:
            continue
        xs = _density_grid(rc.density)
        if not xs:
            reports.append(MembershipReport("inconclusive", None, None,
                                            (f"component {idx}: empty grid",)))
            continue
        vals = rc.density.values(np.asarray(xs)).tolist()
        rep = MembershipReport("member")
        for i in range(1, len(xs)):
            scale = max(abs(vals[i - 1]), abs(vals[i]), 1e-300)
            if vals[i] - vals[i - 1] > MONOTONE_REL * scale:
                rep = MembershipReport("non_member", (idx, float(xs[i])), None)
                break
        reports.append(rep)
    return _combine(reports, None)


def class_a_necessary(m: PolarMeasure) -> MembershipReport:
    """Necessary conditions for membership in the image of the first arcsine
    transform: each radial density is strictly positive up to some cutoff and
    effectively zero beyond it, and does not vanish as r -> 0 (checked as a
    log-log slope below LIMINF_SLOPE over the smallest grid decade, so that
    r^p behavior with p > 0 is flagged while log-type blowups pass). Lower
    semicontinuity is required by the underlying characterization but is not
    checkable from tabulated values; every report notes this."""
    note = ("lower semicontinuity not checked (not decidable from tabulated values)",)
    reports = []
    for idx, (dirn, rc) in enumerate(m.components):
        if rc.atoms:
            reports.append(MembershipReport(
                "non_member", (idx, rc.atoms[0][0]), None,
                (f"component {idx} carries an atom",)))
            continue
        if rc.density is None:
            continue
        xs = np.asarray(_density_grid(rc.density), float)
        if xs.size < 4:
            reports.append(MembershipReport("inconclusive", None, None,
                                            (f"component {idx}: empty grid",)))
            continue
        vals = rc.density.values(xs)
        peak = float(np.max(vals))
        if peak <= 0.0:
            reports.append(MembershipReport("non_member", (idx, float(xs[0])), None,
                                            (f"component {idx}: density vanishes",)))
            continue
        tiny = vals < ZERO_LEVEL * peak
        # cutoff detection: first tiny point after which everything stays tiny
        cut = xs.size
        for i in range(xs.size):
            if tiny[i] and np.all(tiny[i:]):
                cut = i
                break
        if np.any(tiny[:cut]):
            i = int(np.argmax(tiny[:cut]))
            reports.append(MembershipReport("non_member", (idx, float(xs[i])), None,
                                            (f"component {idx}: interior zero",)))
            continue
        # behavior at zero: log-log slope over the smallest decade
        head = xs <= xs[0] * 10.0
        hx = np.log(xs[head])
        hv = np.log(np.maximum(vals[head], 1e-300))
        slope = float(np.polyfit(hx, hv, 1)[0]) if hx.size >= 2 else 0.0
        if slope >= LIMINF_SLOPE:
            reports.append(MembershipReport(
                "non_member", (idx, float(xs[0])), None,
                (f"component {idx}: density decays like r^{slope:.3g} at zero",)))
            continue
        reports.append(MembershipReport("member"))
    return _combine(reports, None, note)


def is_type_g(m: PolarMeasure) -> MembershipReport:
    """member iff for every direction the density is g(r^2) with g passing
    the complete-monotonicity screen."""
    reports = []
    for dirn, rc in m.components:
        if rc.atoms:
            reports.append(MembershipReport("non_member", (rc.atoms[0][0],), DEFAULT_ORDER,
                                            ("atoms are not of squared-argument density form",)))
            continue
        if rc.density is None:
            continue
        us = np.asarray(_cm_grid(rc.density, squared=True))
        reports.append(_cm_screen(us, rc.density.values(np.sqrt(us)), DEFAULT_ORDER))
    return _combine(reports, DEFAULT_ORDER)


def is_class_b(m: PolarMeasure) -> MembershipReport:
    """member iff every radial density passes the complete-monotonicity
    screen in r itself."""
    reports = []
    for dirn, rc in m.components:
        if rc.atoms:
            reports.append(MembershipReport("non_member", (rc.atoms[0][0],), DEFAULT_ORDER,
                                            ("atoms are not completely monotone densities",)))
            continue
        if rc.density is None:
            continue
        xs = np.asarray(_cm_grid(rc.density))
        reports.append(_cm_screen(xs, rc.density.values(xs), DEFAULT_ORDER))
    return _combine(reports, DEFAULT_ORDER)


def _cm_grid(dens: Density, squared: bool = False) -> list[float]:
    xs = _density_grid(dens)
    if not xs:
        return xs
    if squared:
        return [x * x for x in xs]
    return xs
