"""Adaptive quadrature helpers tuned for radial measures.

Two entry points share one description of an integral, the pieces built by
_pieces():

* quad_batch() is the engine behind every integral against a Density. It
  runs QUADPACK's 21-point Gauss-Kronrod rule (qk21: nodes, weights and
  error estimate from Piessens et al., QUADPACK, 1983) adaptively on a whole
  batch of integrals at once. Each integral keeps its own list of
  subintervals; every pass evaluates the bisected subintervals of all
  unfinished integrals in one call of a vectorised integrand f(x, k), where
  k is the index of the integral each node belongs to.

* adaptive_quad() integrates one callable that takes floats, through scipy's
  QUADPACK. It serves the public API and the special-function oracles, which
  stay independent of the engine.

Both apply the manipulations that recur throughout this package:

* integrable inverse-square-root endpoint singularities, removed by the
  substitution u = a + w**2 (or u = b - w**2 at the upper end), which turns
  a (u-a)**(-1/2) blowup into a bounded smooth integrand;

* break points (kinks, blowups, decade marks), mapped through the
  substitution in force, so every subinterval starts out smooth;

* infinite upper limits, either truncated beforehand at a radius certified
  by the caller's envelope metadata or mapped to a finite range, by
  x = a + t/(1 - t) in the engine and by QUADPACK's own map in
  adaptive_quad.

Tolerances are absolute, with a relative floor of 1e-12 of the value: an
integral is accepted when its error estimate is at most
abs_tol + 1e-12 * |value|. The engine keeps refining until the estimate is a
tenth of that (STOP_FRACTION), which leaves margin for the estimate itself.
When the error cannot be pushed below the tolerance the partial result is
not returned silently: QuadratureNonConvergence carries both the value and
the bound, and its message names the integral through the caller's label.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _scipy_integrate

from .errors import QuadratureNonConvergence

DEFAULT_ABS_TOL = 1e-10
# QUADPACK subinterval cap. Each adaptive split adds one subinterval, so this
# comfortably exceeds a depth-60 dyadic refinement on real inputs.
QUAD_LIMIT = 200
# the engine stops refining an integral once its error estimate is this
# fraction of its acceptance tolerance
STOP_FRACTION = 0.1
# bisections one integral may spend beyond the subintervals its break points
# induce; without extrapolation an algebraic endpoint singularity costs one
# bisection per factor 2**(1 + exponent) of error
SPLIT_LIMIT = 1000
# stalled bisections (see quad_batch) after which an integral stops refining;
# QUADPACK's qags gives up at the sixth
ROUNDOFF_LIMIT = 6
# subintervals evaluated per integrand call (21 nodes each), and initial
# subintervals refined together; they bound the memory of a large batch
CHUNK_INTERVALS = 512
GROUP_CELLS = 1 << 15

# QUADPACK qk21: Kronrod abscissae on [0, 1] in decreasing order (the last is
# the centre), their weights, and the weights of the embedded 10-point Gauss
# rule, whose abscissae are the Kronrod ones at odd positions
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.000000000000000000000000000000000)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980923950, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

# the 21 nodes on [-1, 1] in increasing order, with both weight vectors
_X21 = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_WK21 = np.array(list(_WGK[:-1]) + list(_WGK[::-1]))
_WG21 = np.zeros(21)
for _j in range(10):
    if _j % 2:
        _WG21[_j] = _WG21[20 - _j] = _WG[_j // 2]
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny

# piece kinds: the map from the piece variable t to the integration variable
_PLAIN, _LEFT, _RIGHT, _INF = range(4)


def _pieces(a: float, b: float, singular_left: bool, singular_right: bool,
            points: Sequence[float] | None,
            blowups: Sequence[float] | None = None) -> list[tuple[int, float, float, float, np.ndarray]]:
    """(kind, anchor, lo, hi, break points) per piece of the integral over
    (a, b), all in the piece variable t:

    _PLAIN  x = t on (a, b);
    _LEFT   x = a + t**2, t in (0, sqrt(m - a)), for a blowup at a;
    _RIGHT  x = b - t**2, t in (0, sqrt(b - m)), for a blowup at b;
    _INF    x = anchor + t/(1 - t) in the engine; lo and hi stay in x
            (hi = inf) and QUADPACK maps the range itself.

    A blowup at both ends splits the range at its midpoint m. Interior
    blowups split the range first, each becoming a singular end of the
    ranges on either side."""
    cuts: list[float] = []
    for c in sorted(blowups if blowups is not None else ()):
        if a < c < b and (not cuts or c - cuts[-1] > 1e-12 * c):
            cuts.append(c)
    if cuts:
        edges = [a] + cuts + [b]
        last = len(edges) - 2
        return [p for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
                for p in _pieces(lo, hi, singular_left or i > 0, singular_right or i < last,
                                 points)]
    pts = np.asarray(points if points is not None else (), float)

    def piece(kind: int, anchor: float, lo: float, hi: float):
        if not pts.size:
            return kind, anchor, lo, hi, pts
        if kind == _LEFT:
            inner = np.sqrt(pts[pts > anchor] - anchor)
        elif kind == _RIGHT:
            inner = np.sqrt(anchor - pts[pts < anchor])
        else:
            inner = pts
        return kind, anchor, lo, hi, np.sort(inner[(inner > lo) & (inner < hi)])

    if math.isinf(b):
        if singular_right:
            raise ValueError("cannot have a right singularity at an infinite endpoint")
        if singular_left:
            cut = a + max(1.0, abs(a))
            return [piece(_LEFT, a, 0.0, math.sqrt(cut - a)), piece(_INF, cut, cut, math.inf)]
        return [piece(_INF, a, a, math.inf)]
    if singular_left and singular_right:
        mid = 0.5 * (a + b)
        return [piece(_LEFT, a, 0.0, math.sqrt(mid - a)),
                piece(_RIGHT, b, 0.0, math.sqrt(b - mid))]
    if singular_left:
        return [piece(_LEFT, a, 0.0, math.sqrt(b - a))]
    if singular_right:
        return [piece(_RIGHT, b, 0.0, math.sqrt(b - a))]
    return [piece(_PLAIN, a, a, b)]


# ---------------------------------------------------------------------------
# QUADPACK on one scalar callable
# ---------------------------------------------------------------------------

def _quad_once(f: Callable[[float], float], a: float, b: float,
               abs_tol: float, points: Sequence[float] | None,
               label: str) -> tuple[float, float]:
    kwargs = dict(epsabs=abs_tol * 0.25, epsrel=1e-12, limit=QUAD_LIMIT,
                  full_output=1)
    if points is not None and len(points) and math.isfinite(b):
        kwargs["points"] = sorted(points)
        # QAGP needs room for at least the cells the break points induce
        kwargs["limit"] = max(QUAD_LIMIT, 10 * (len(points) + 2))
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
    """Integrate f over (a, b) to an absolute tolerance with QUADPACK.

    singular_left / singular_right announce an integrable algebraic blowup at
    the corresponding endpoint; the w**2 substitution is applied there. b may
    be math.inf (then singular_right must be False).
    """
    if not (b > a):
        return 0.0
    pieces = _pieces(a, b, singular_left, singular_right, points)
    per_tol = abs_tol / len(pieces)
    total = 0.0
    for kind, anchor, lo, hi, pts in pieces:
        g = {_PLAIN: f, _INF: f, _LEFT: _sub_left(f, anchor),
             _RIGHT: _sub_right(f, anchor)}[kind]
        value, _ = _quad_once(g, lo, hi, per_tol, pts.tolist(), label)
        total += value
    return total


# ---------------------------------------------------------------------------
# the batched Gauss-Kronrod engine
# ---------------------------------------------------------------------------

def _map(t: np.ndarray, kind: np.ndarray, anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integration variable x and the jacobian dx/dt at the nodes t of
    subintervals of the given piece kinds (one row per subinterval)."""
    x = t.copy()
    jac = np.ones_like(t)
    for code in (_LEFT, _RIGHT, _INF):
        rows = kind == code
        if not rows.any():
            continue
        tr = t[rows]
        anc = anchor[rows, None]
        if code == _INF:
            q = 1.0 - tr
            x[rows] = anc + tr / q
            jac[rows] = 1.0 / (q * q)
        else:
            x[rows] = anc + tr * tr if code == _LEFT else anc - tr * tr
            jac[rows] = 2.0 * tr
    return x, jac


def _gk21(f, owner: np.ndarray, kind: np.ndarray, anchor: np.ndarray,
          lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qk21 value and error estimate of every subinterval, in the integration
    variable, evaluating f in chunks of CHUNK_INTERVALS subintervals."""
    m = owner.size
    val = np.empty(m)
    err = np.empty(m)
    for s in range(0, m, CHUNK_INTERVALS):
        sl = slice(s, s + CHUNK_INTERVALS)
        half = 0.5 * (hi[sl] - lo[sl])
        t = (0.5 * (lo[sl] + hi[sl]))[:, None] + half[:, None] * _X21
        kd = kind[sl]
        x, jac = _map(t, kd, anchor[sl]) if kd.any() else (t, None)
        fv = np.asarray(f(x.ravel(), np.repeat(owner[sl], 21)), float)
        fv = np.broadcast_to(fv, (x.size,)).reshape(x.shape)
        if jac is not None:
            fv = fv * jac
        fw = fv * _WK21
        resk = fw.sum(axis=1)
        resg = (fv * _WG21).sum(axis=1)
        ah = np.abs(half)
        resabs = np.abs(fw).sum(axis=1) * ah
        resasc = (np.abs(fv - 0.5 * resk[:, None]) * _WK21).sum(axis=1) * ah
        e = np.abs((resk - resg) * half)
        scaled = (resasc != 0.0) & (e != 0.0)
        ratio = np.ones_like(e)
        np.divide(200.0 * e, resasc, out=ratio, where=scaled)
        e = np.where(scaled, resasc * np.minimum(1.0, ratio) ** 1.5, e)
        e = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum(50.0 * _EPMACH * resabs, e), e)
        val[sl] = resk * half
        err[sl] = e
    return val, err


def _partition(a: float, b: float, singular_left: bool, singular_right: bool,
               points, blowups) -> tuple[np.ndarray, ...]:
    """Initial cells of one integral: their piece kinds, anchors, and lower
    and upper ends in the piece variable."""
    kinds, anchors, edges = [], [], []
    for kind, anchor, lo, hi, inner in _pieces(a, b, singular_left, singular_right,
                                               points, blowups):
        if kind == _INF:
            lo, hi = 0.0, 1.0
            d = inner - anchor
            inner = d / (1.0 + d)
        edges.append(np.concatenate(([lo], inner, [hi])))
        kinds += [kind] * (edges[-1].size - 1)
        anchors += [anchor] * (edges[-1].size - 1)
    return (np.array(kinds), np.array(anchors, float),
            np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges]))


def quad_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray], n: int,
               a, b, *, abs_tol=DEFAULT_ABS_TOL,
               singular_left=False, singular_right=False,
               points: Callable[[int], Sequence[float] | None] | None = None,
               blowups: Callable[[int], Sequence[float] | None] | None = None,
               label: str | Callable[[int], str] = "integral") -> np.ndarray:
    """The n integrals of x -> f(x, k) over (a[k], b[k]), k = 0..n-1, as an
    array.

    f takes an array of abscissae and the equally long array of integral
    indices they belong to, and returns the integrand values there. a, b,
    abs_tol and the two singular flags are scalars or length-n arrays; b may
    be inf. points(k) returns the break points of integral k and blowups(k)
    its integrable interior blowups (either may return None). label is a
    string or a function of k naming integral k in the error raised when it
    does not converge; with several failures the lowest k is named.

    Each integral keeps its own subintervals. A pass bisects, in every
    unfinished integral, each subinterval whose error estimate exceeds the
    integral's stopping target divided by its number of subintervals, and
    evaluates all new halves in one call of f. Integrals are taken in
    groups of about GROUP_CELLS initial subintervals, which bounds the
    memory of a large batch; no integral's result depends on its company.
    Consecutive integrals with equal ranges, flags, break points and
    blowups share one initial partition, built once.
    """
    tol = np.broadcast_to(np.asarray(abs_tol, float), (n,))
    a, b, sing_l, sing_r = (np.broadcast_to(np.asarray(v), (n,)).tolist()
                            for v in (np.asarray(a, float), np.asarray(b, float),
                                      singular_left, singular_right))
    result = np.zeros(n)
    failures: list[tuple[int, float, float]] = []
    group: list[tuple[int, tuple[np.ndarray, ...]]] = []
    cells = 0
    key = part = None
    for k in range(n):
        if not b[k] > a[k]:
            continue
        pts = None if points is None else points(k)
        blow = None if blowups is None else blowups(k)
        pts = np.asarray(() if pts is None else pts, float)
        blow = () if blow is None else tuple(blow)
        new_key = (a[k], b[k], sing_l[k], sing_r[k], pts.tobytes(), blow)
        if new_key != key:
            key, part = new_key, _partition(a[k], b[k], sing_l[k], sing_r[k], pts, blow)
        group.append((k, part))
        cells += part[0].size
        if cells >= GROUP_CELLS:
            _refine(f, n, group, tol, result, failures)
            group, cells = [], 0
    if group:
        _refine(f, n, group, tol, result, failures)
    if failures:
        k, value, error = min(failures)
        name = label(k) if callable(label) else label
        raise QuadratureNonConvergence(
            f"{name}: error estimate {error:.3e} exceeds tolerance {tol[k]:.3e} "
            f"on [{a[k]:g}, {b[k]:g}]", partial=value, bound=error)
    return result


def _refine(f, n: int, group: list[tuple[int, tuple[np.ndarray, ...]]], tol: np.ndarray,
            result: np.ndarray, failures: list[tuple[int, float, float]]) -> None:
    """Run the adaptive passes of quad_batch on one group of integrals,
    writing each value into result and each failure into failures."""
    owner = np.repeat([k for k, _ in group], [part[0].size for _, part in group])
    kind, anchor, lo, hi = (np.concatenate([part[j] for _, part in group]) for j in range(4))
    limit = np.bincount(owner, minlength=n) + SPLIT_LIMIT
    val, err = _gk21(f, owner, kind, anchor, lo, hi)
    # QUADPACK's roundoff test: a bisection whose halves reproduce the value
    # to 1e-5 without lowering the error estimate counts as stalled (rounding
    # noise near a blowup grows as the nodes approach it); after
    # ROUNDOFF_LIMIT of them an integral stops refining and returns its best
    # state that passed the acceptance test
    stalled = np.zeros(n, int)
    best_val = np.zeros(n)
    best_err = np.full(n, math.inf)
    while True:
        value = np.bincount(owner, val, n)
        error = np.bincount(owner, err, n)
        count = np.bincount(owner, minlength=n)
        accept = tol + 1e-12 * np.abs(value)
        stop = STOP_FRACTION * accept
        better = (error <= accept) & (error < best_err)
        best_val[better] = value[better]
        best_err[better] = error[better]
        done = error <= stop
        live = ~done & (stalled < ROUNDOFF_LIMIT) & (count < limit)
        mid = 0.5 * (lo + hi)
        split = (live[owner] & (err > (stop / np.maximum(count, 1))[owner])
                 & (lo < mid) & (mid < hi))
        refining = np.zeros(n, bool)
        refining[owner[split]] = True
        final = (count > 0) & ~refining
        result[final] = value[final]
        for k in np.flatnonzero(final & ~done):
            if math.isfinite(best_err[k]):
                result[k] = best_val[k]
            else:
                failures.append((int(k), float(value[k]), float(error[k])))
        if not split.any():
            return
        keep = refining[owner] & ~split
        owner_s = owner[split]
        c_owner = np.concatenate([owner_s, owner_s])
        c_kind = np.tile(kind[split], 2)
        c_anchor = np.tile(anchor[split], 2)
        c_lo = np.concatenate([lo[split], mid[split]])
        c_hi = np.concatenate([mid[split], hi[split]])
        c_val, c_err = _gk21(f, c_owner, c_kind, c_anchor, c_lo, c_hi)
        m = owner_s.size
        pair_val = c_val[:m] + c_val[m:]
        stall = ((np.abs(val[split] - pair_val) <= 1e-5 * np.abs(pair_val))
                 & (c_err[:m] + c_err[m:] >= 0.99 * err[split]))
        stalled += np.bincount(owner_s[stall], minlength=n)
        owner = np.concatenate([owner[keep], c_owner])
        kind = np.concatenate([kind[keep], c_kind])
        anchor = np.concatenate([anchor[keep], c_anchor])
        lo = np.concatenate([lo[keep], c_lo])
        hi = np.concatenate([hi[keep], c_hi])
        val = np.concatenate([val[keep], c_val])
        err = np.concatenate([err[keep], c_err])


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
