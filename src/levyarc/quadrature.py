"""Adaptive quadrature helpers tuned for radial measures.

Everything funnels into scipy's QUADPACK routines plus the two manipulations
that recur throughout this package:

* integrable inverse-square-root endpoint singularities, removed by the
  substitution u = a + w**2 (or u = b - w**2 at the upper end), which turns
  a (u-a)**(-1/2) blowup into a bounded smooth integrand;

* infinite upper limits, either truncated beforehand at a radius certified
  by the caller's envelope metadata or handed to QUADPACK's infinite-range
  transformation.

Tolerances are absolute. When the error estimate cannot be pushed below the
requested tolerance the partial result is not returned silently:
QuadratureNonConvergence carries both the value and the bound.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from scipy import integrate as _scipy_integrate

from .errors import QuadratureNonConvergence

DEFAULT_ABS_TOL = 1e-10
# QUADPACK subinterval cap. Each adaptive split adds one subinterval, so this
# comfortably exceeds a depth-60 dyadic refinement on real inputs.
QUAD_LIMIT = 200


def _quad_once(f: Callable[[float], float], a: float, b: float,
               abs_tol: float, points: Sequence[float] | None,
               label: str) -> tuple[float, float]:
    kwargs = dict(epsabs=abs_tol * 0.25, epsrel=1e-12, limit=QUAD_LIMIT,
                  full_output=1)
    if points and math.isfinite(b):
        inside = [p for p in points if a < p < b]
        if inside:
            kwargs["points"] = sorted(inside)
            # QAGP needs room for at least the cells the break points induce
            kwargs["limit"] = max(QUAD_LIMIT, 10 * (len(inside) + 2))
    out = _scipy_integrate.quad(f, a, b, **kwargs)
    value, err = out[0], out[1]
    # accept on either criterion handed to QUADPACK: the absolute tolerance or
    # the double-precision relative floor (epsrel above)
    if err > abs_tol + 1e-12 * abs(value):
        raise QuadratureNonConvergence(
            f"{label}: error estimate {err:.3e} exceeds tolerance {abs_tol:.3e} on [{a:g}, {b:g}]",
            partial=value, bound=err)
    return value, err


def _sub_left(f: Callable[[float], float], a: float) -> Callable[[float], float]:
    def g(w: float) -> float:
        if w == 0.0:
            return 0.0
        return 2.0 * w * f(a + w * w)
    return g


def _sub_right(f: Callable[[float], float], b: float) -> Callable[[float], float]:
    def g(v: float) -> float:
        if v == 0.0:
            return 0.0
        return 2.0 * v * f(b - v * v)
    return g


def adaptive_quad(f: Callable[[float], float], a: float, b: float, *,
                  abs_tol: float = DEFAULT_ABS_TOL,
                  singular_left: bool = False,
                  singular_right: bool = False,
                  points: Sequence[float] | None = None,
                  label: str = "integral") -> float:
    """Integrate f over (a, b) to an absolute tolerance.

    singular_left / singular_right announce an integrable algebraic blowup at
    the corresponding endpoint; the w**2 substitution is applied there. b may
    be math.inf (then singular_right must be False).
    """
    if not (b > a):
        return 0.0

    def left_pts(lo: float, hi: float) -> list[float] | None:
        # break points mapped through the w**2 substitution anchored at a
        out = [math.sqrt(p - a) for p in points or [] if lo < p < hi]
        return out or None

    def right_pts(lo: float, hi: float) -> list[float] | None:
        out = [math.sqrt(b - p) for p in points or [] if lo < p < hi]
        return out or None

    pieces: list[tuple[Callable[[float], float], float, float, Sequence[float] | None]] = []
    if math.isinf(b):
        if singular_right:
            raise ValueError("cannot have a right singularity at an infinite endpoint")
        if singular_left:
            cut = a + max(1.0, abs(a))
            pieces.append((_sub_left(f, a), 0.0, math.sqrt(cut - a), left_pts(a, cut)))
            pieces.append((f, cut, math.inf, None))
        else:
            pieces.append((f, a, math.inf, points))
    elif singular_left and singular_right:
        mid = 0.5 * (a + b)
        pieces.append((_sub_left(f, a), 0.0, math.sqrt(mid - a), left_pts(a, mid)))
        pieces.append((_sub_right(f, b), 0.0, math.sqrt(b - mid), right_pts(mid, b)))
    elif singular_left:
        pieces.append((_sub_left(f, a), 0.0, math.sqrt(b - a), left_pts(a, b)))
    elif singular_right:
        pieces.append((_sub_right(f, b), 0.0, math.sqrt(b - a), right_pts(a, b)))
    else:
        pieces.append((f, a, b, points))

    per_tol = abs_tol / len(pieces)
    total = 0.0
    for g, lo, hi, pts in pieces:
        value, _ = _quad_once(g, lo, hi, per_tol, pts, label)
        total += value
    return total


def _decade_marks(lo: float, hi: float) -> list[float]:
    """Break points one decade apart between max(lo, hi * 1e-12) and hi, when
    that range spans more than four decades; none otherwise.

    A slowly decaying envelope can push a truncation radius many orders of
    magnitude past the scale where the mass sits, and the initial
    Gauss-Kronrod pass then never samples that region; a mark at every
    decade forces a subinterval at every scale."""
    floor = max(lo, hi * 1e-12)
    marks: list[float] = []
    if hi > 1e4 * floor:
        x = floor * 10.0
        while x < hi * 0.999:
            marks.append(x)
            x *= 10.0
    return marks


def exp_tail_radius(coeff: float, rate: float, power: float, tol: float,
                    floor: float = 1.0) -> float:
    """Smallest R >= floor with coeff * exp(-rate * R**power) <= tol.

    Closed-form inversion of the exponential envelope used to truncate
    infinite integration ranges.
    """
    if coeff <= tol:
        return floor
    r = (math.log(coeff / tol) / rate) ** (1.0 / power)
    return max(floor, r)


def geometric_grid(lo: float, hi: float, per_decade: int) -> list[float]:
    """Geometric grid from lo to hi inclusive with per_decade points per decade."""
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    decades = math.log10(hi / lo)
    n = max(2, int(round(decades * per_decade)) + 1)
    step = decades / (n - 1)
    return [lo * 10.0 ** (k * step) for k in range(n)]
