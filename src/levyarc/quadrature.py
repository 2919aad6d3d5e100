"""Adaptive quadrature helpers tuned for radial measures.

Two entry points share one description of an integral, the pieces built by
_pieces():

* quad_batch() is the engine behind every integral against a Density. It
  runs QUADPACK's 21-point Gauss-Kronrod rule (qk21: nodes, weights and
  error estimate from Piessens et al., QUADPACK, 1983) adaptively on a whole
  batch of integrals at once. Each integral keeps its own list of
  subintervals; every pass evaluates the bisected subintervals of all
  unfinished integrals in one call of a vectorised integrand f(x, k), where
  k is the index of the integral each node belongs to. The initial
  subintervals of a whole group of integrals are built with array
  operations, and a pass issues a fixed number of numpy calls however many
  integrals it refines. The rule's sums over each subinterval's 21 nodes
  are einsum contractions, which fix the order of every sum, so no
  subinterval's sums depend on the batch it is evaluated in.

* adaptive_quad() integrates one callable that takes floats, through scipy's
  QUADPACK. It serves the public API and the special-function oracles, which
  stay independent of the engine.

Both apply the manipulations that recur throughout this package:

* integrable inverse-square-root blowups, removed by the substitution
  u = a + w**2 (or u = b - w**2 at the upper end), which turns a
  (u-a)**(-1/2) blowup into a bounded smooth integrand. adaptive_quad takes
  a flag per end; the engine a list of blowups, which _cut turns into cuts
  and mapped ends. _pieces splits a range with a mapped end at its midpoint
  and maps only the half next to the blowup; the other half stays in u:
  b - w**2 resolves u near a only to the absolute rounding of b, which loses
  an integrand whose mass sits at u << b;

* break points (kinks, decade marks), mapped through the substitution in
  force, so every subinterval starts out smooth;

* infinite upper limits, truncated beforehand at a radius certified by the
  caller's envelope metadata, or else mapped to a finite range, by
  x = a + t/(1 - t) in the engine and by QUADPACK's own map in
  adaptive_quad. In the engine a node whose 1 - t rounds to 0 stands for
  x = inf and carries no weight; the scale-mixture kernel's unbounded
  u-ranges and the integrals no envelope truncates are mapped this way.

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
_WG21[1:10:2] = _WG21[19:10:-2] = _WG
_W21 = np.stack([_WK21, _WG21])
_EPMACH = np.finfo(float).eps
_RESABS_MIN = np.finfo(float).tiny / (50.0 * _EPMACH)

# piece kinds: the map from the piece variable t to the integration variable
_PLAIN, _LEFT, _RIGHT, _INF = range(4)
# rows of the engine's cell table: the ends of each subinterval in its piece
# variable, the piece's anchor and kind, and the qk21 value and error estimate
_LO, _HI, _ANCHOR, _KIND, _VAL, _ERR = range(6)
_NO_POINTS = np.empty(0)


def _split(lo: np.ndarray, hi: np.ndarray, inner: np.ndarray) -> tuple[np.ndarray, ...]:
    """The row and ends of every subrange, in order, of the ranges (lo[i],
    hi[i]) cut at the entries of row i of inner (inside it, or NaN)."""
    m, p = inner.shape
    if not p:
        return np.arange(m), lo, hi
    inner = np.sort(inner, axis=1)  # NaN sorts last
    edges = np.empty((m, p + 2))
    edges[:, 0], edges[:, -1] = lo, hi
    edges[:, 1:-1] = np.fmin(inner, hi[:, None])  # NaN pads become hi
    valid = np.concatenate([np.ones((m, 1), bool), inner == inner], axis=1)  # not NaN
    return valid.nonzero()[0], edges[:, :-1][valid], edges[:, 1:][valid]


def _cut(a: np.ndarray, b: np.ndarray, blowups: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ranges (a[i], b[i]) cut at the blowups (one row shared by all, or
    a NaN-padded row each, in any order): the row i and ends lo and hi of
    every subrange, in order, and whether a blowup sits at lo and at hi.
    A blowup within 1e-12 (relative) of a range's end maps that end and
    makes no cut, and so does one within 1e-12 of the cut before it."""
    row, no = np.arange(a.size), np.zeros(a.size, bool)
    if not blowups.shape[-1]:
        return row, a, b, no, no
    tol = 1e-12 * np.abs(blowups)
    above, below = blowups - a[:, None], b[:, None] - blowups
    left = (np.abs(above) <= tol).any(axis=1)
    right = (np.abs(below) <= tol).any(axis=1)
    inside = np.minimum(above, below) > tol
    if not np.count_nonzero(inside):
        return row, a, b, left, right
    c = np.sort(np.where(inside, blowups, np.nan), axis=1)  # NaN sorts last
    cuts, last = np.full(c.shape, np.nan), a
    for j in range(c.shape[1]):
        keep = c[:, j] - last > 1e-12 * np.abs(c[:, j])
        cuts[keep, j] = c[keep, j]
        last = np.where(keep, c[:, j], last)
    row, lo, hi = _split(a, b, cuts)
    # a subrange after the first starts, one before the last ends, at a cut
    left, right, same = left[row], right[row], row[1:] == row[:-1]
    left[1:] |= same
    right[:-1] |= same
    return row, lo, hi, left, right


def _pieces(row: np.ndarray, a: np.ndarray, b: np.ndarray, sl: np.ndarray,
            sr: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pieces of the ranges (a[i], b[i]) of rows row[i], blown up at a
    where sl and at b where sr (as _cut returns them), in order: the row,
    kind, anchor and ends lo and hi in the piece variable t of each (a, b):

    _PLAIN  x = t on (a, b);
    _LEFT   x = a + t**2, t in (0, sqrt(b - a)), for a blowup at a;
    _RIGHT  x = b - t**2, t in (0, sqrt(b - a)), for a blowup at b;
    _INF    x = anchor + t/(1 - t) in the engine; lo and hi stay in x
            (hi = inf) and QUADPACK maps the range itself.

    A range with a blowup at either end splits at its midpoint m (an
    unbounded one at m = a + max(1, |a|)) and each half keeps its outer
    end's flag, so a piece has at most one mapped end."""
    inf = np.isinf(b)
    split = sl | sr
    if not np.count_nonzero(split):
        return row, inf * float(_INF), a, a, b
    # the map stops at the midpoint: b - t**2 resolves x near a only to the
    # absolute rounding of b, so the half away from a blowup stays plain
    mid = np.where(inf, a + np.maximum(1.0, np.abs(a)), 0.5 * (a + b))
    i = np.repeat(np.arange(a.size), split + 1)
    upper = np.zeros(i.size, bool)  # the second half of a split range, lower the first
    upper[1:] = i[1:] == i[:-1]
    lower, m = split[i] ^ upper, mid[i]
    lo, hi = np.where(upper, m, a[i]), np.where(lower, m, b[i])
    left, right = lower & sl[i], upper & sr[i]
    mapped = left | right
    kind = np.where(left, _LEFT, np.where(right, _RIGHT, np.isinf(hi) * _INF))
    return (row[i], kind, np.where(right, hi, lo), np.where(mapped, 0.0, lo),
            np.where(mapped, np.sqrt(hi - lo), hi))


def _piece_points(kind: np.ndarray, anchor: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The break points (one row shared by all pieces, or one row each) in
    every piece's variable, one row per piece, NaN where not strictly inside."""
    if not points.shape[-1]:
        return np.empty((kind.size, 0))
    t, mapped = points, (kind == _LEFT) | (kind == _RIGHT)
    if mapped.any():
        d = np.where((kind == _RIGHT)[:, None], anchor[:, None] - points, points - anchor[:, None])
        t = np.where(mapped[:, None], np.sqrt(np.where(d > 0.0, d, np.nan)), points)
    return np.where((t > lo[:, None]) & (t < hi[:, None]), t, np.nan)


def _partition(a: np.ndarray, b: np.ndarray, points: np.ndarray,
               blowups: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Initial cells of the integrals over (a[i], b[i]): the row of each,
    the cell table (value and error rows unset) and the piece kinds present.
    _INF cells map to d/(1 + d), d = x - anchor (inf clamps to 1)."""
    row, kind, anchor, lo, hi = _pieces(*_cut(a, b, blowups))
    if points.shape[-1]:
        piece, lo, hi = _split(lo, hi, _piece_points(
            kind, anchor, lo, hi, points[row] if points.ndim == 2 else points))
        row, kind, anchor = row[piece], kind[piece], anchor[piece]
    cells = np.empty((6, row.size))
    cells[_LO], cells[_HI], cells[_ANCHOR], cells[_KIND] = lo, hi, anchor, kind
    kinds = np.bincount(kind.astype(np.intp), minlength=4).nonzero()[0].tolist()
    if _INF in kinds:
        inf = kind == _INF
        d = np.minimum(cells[_LO:_HI + 1, inf] - anchor[inf], np.finfo(float).max)
        cells[_LO:_HI + 1, inf] = d / (1.0 + d)
    return row, cells, kinds


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


def _substituted(f: Callable[[float], float], anchor: float,
                 sign: float) -> Callable[[float], float]:
    """The integrand in w after x = anchor + sign * w**2."""
    return lambda w: 0.0 if w == 0.0 else 2.0 * w * f(anchor + sign * (w * w))


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
    if singular_right and math.isinf(b):
        raise ValueError("cannot have a right singularity at an infinite endpoint")
    _, kinds, anchors, los, his = _pieces(np.zeros(1, int), np.array([a], float),
                                          np.array([b], float), np.array([singular_left]),
                                          np.array([singular_right]))
    inner = _piece_points(kinds, anchors, los, his,
                          np.asarray(points if points is not None else (), float))
    total = 0.0
    for kind, anchor, lo, hi, pts in zip(kinds.tolist(), anchors.tolist(), los.tolist(),
                                         his.tolist(), inner):
        g = _substituted(f, anchor, 1.0 if kind == _LEFT else -1.0) if kind in (_LEFT, _RIGHT) else f
        total += _quad_once(g, lo, hi, abs_tol / kinds.size, pts[~np.isnan(pts)].tolist(), label)[0]
    return total


# ---------------------------------------------------------------------------
# the batched Gauss-Kronrod engine
# ---------------------------------------------------------------------------

def _map(t: np.ndarray, kind: np.ndarray, anchor: np.ndarray,
         kinds: list[int]) -> tuple[np.ndarray, np.ndarray | None]:
    """x and dx/dt at nodes t of subintervals (one row each) of the given
    kinds, of which kinds lists those present, not just _PLAIN."""
    if len(kinds) > 1:
        x, jac = t.copy(), np.ones_like(t)
        for code in set(kinds) - {_PLAIN}:
            rows = kind == code
            x[rows], jac[rows] = _map(t[rows], kind[rows], anchor[rows], [code])
        return x, jac
    anchor = anchor[:, None]
    if kinds[0] == _INF:
        q = 1.0 - t
        end = q <= 0.0  # the node stands for x = inf, with no weight
        q[end] = 1.0
        return np.where(end, math.inf, anchor + t / q), np.where(end, 0.0, 1.0 / (q * q))
    return (anchor + t * t if kinds[0] == _LEFT else anchor - t * t), 2.0 * t


def _gk21(f, key: np.ndarray, cells: np.ndarray, kinds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """qk21 value and error estimate of every subinterval of a cell table,
    in the integration variable; key holds the integral index of each.
    Beyond CHUNK_INTERVALS subintervals f is called once per chunk."""
    if key.size > CHUNK_INTERVALS:
        parts = [_gk21(f, key[s:s + CHUNK_INTERVALS], cells[:, s:s + CHUNK_INTERVALS], kinds)
                 for s in range(0, key.size, CHUNK_INTERVALS)]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    lo, hi = cells[_LO], cells[_HI]
    half = 0.5 * (hi - lo)  # >= 0, so it is its own absolute value
    t = half[:, None] * _X21
    t += (0.5 * (lo + hi))[:, None]
    x, jac = (t, None) if kinds == [_PLAIN] else _map(t, cells[_KIND], cells[_ANCHOR], kinds)
    fv = np.asarray(f(x.ravel(), key.repeat(21)), float).reshape(t.shape)
    if jac is not None:  # a fresh array of _map's
        fv = np.multiply(jac, fv, out=jac)
    # both rules, then the Kronrod sums of |f| and |f - mean|, as einsum
    # contractions over each row's 21 nodes: einsum without optimize calls
    # no BLAS, so a row is summed in the same order in a batch of any size
    resk, resg = np.einsum("ij,kj->ki", fv, _W21)
    dev = np.abs(fv)
    resabs = np.einsum("ij,j->i", dev, _WK21) * half
    np.abs(np.subtract(fv, 0.5 * resk[:, None], out=dev), out=dev)
    resasc = np.einsum("ij,j->i", dev, _WK21) * half
    e = np.abs((resk - resg) * half)
    scaled = (resasc != 0.0) & (e != 0.0)
    ratio = 200.0 * e / np.where(scaled, resasc, 1.0)
    e = np.where(scaled, resasc * np.minimum(1.0, ratio) ** 1.5, e)
    # at least 50 ulp of resabs where that is not below the underflow limit
    return resk * half, np.maximum(e, np.where(resabs > _RESABS_MIN, 50.0 * _EPMACH * resabs, 0.0))


def quad_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray], n: int,
               a, b, *, abs_tol=DEFAULT_ABS_TOL,
               points: np.ndarray | None = None, blowups: np.ndarray | None = None,
               label: str | Callable[[int], str] = "integral") -> np.ndarray:
    """The n integrals of x -> f(x, k) over (a[k], b[k]), k = 0..n-1.

    f takes an array of abscissae and the equally long array of integral
    indices they belong to. a, b (possibly inf) and abs_tol are scalars or
    length-n arrays. points (break points) and blowups (integrable blowups,
    ends included: _cut cuts a range at those inside it and maps the ends
    that sit on one) are each one 1-D array shared by every integral, or an
    (n, P) array with row k for integral k, padded with NaN. label names
    integral k, as a string or a function of k, in the error raised when it
    does not converge; of several failures the lowest k.

    Integrals go in groups of at most GROUP_CELLS initial subintervals (or
    of one integral), built with array operations by _partition, which
    takes a row of points or blowups shared by all. A pass bisects, in every
    unfinished integral, each subinterval whose error estimate exceeds the
    integral's stopping target over its number of subintervals, and
    evaluates all new halves in one call of f. No integral's result depends
    on its company.
    """
    tol = np.asarray(abs_tol, float)
    a, b = (v if v.ndim else np.full(n, v) for v in (np.asarray(a, float), np.asarray(b, float)))
    pts, blow = (_NO_POINTS if v is None else np.asarray(v, float) for v in (points, blowups))
    result, failures = np.zeros(n), []
    ids = (b > a).nonzero()[0]
    # two pieces per range between blowups at most, cut at every point
    step = max(1, GROUP_CELLS // (2 * (blow.shape[-1] + 1) * (pts.shape[-1] + 1)))
    for s in range(0, ids.size, step):
        rows = ids[s:s + step]
        own, cells, kinds = _partition(a[rows], b[rows], pts[rows] if pts.ndim == 2 else pts,
                                       blow[rows] if blow.ndim == 2 else blow)
        _refine(f, rows, own, cells, kinds, tol[rows] if tol.ndim else tol, result, failures)
    if failures:
        k, value, error = min(failures)
        name = label(k) if callable(label) else label
        raise QuadratureNonConvergence(
            f"{name}: error estimate {error:.3e} exceeds tolerance "
            f"{float(np.broadcast_to(tol, (n,))[k]):.3e} on [{a[k]:g}, {b[k]:g}]",
            partial=value, bound=error)
    return result


def _refine(f, ids: np.ndarray, own: np.ndarray, cells: np.ndarray, kinds: list[int],
            tol: np.ndarray, result: np.ndarray, failures: list[tuple[int, float, float]]) -> None:
    """The adaptive passes of quad_batch on integrals ids, with tolerances
    tol and cell i of the table (of the kinds listed) in integral
    ids[own[i]]; writes values into result and failures into failures."""
    g = ids.size
    cells[_VAL], cells[_ERR] = _gk21(f, ids[own], cells, kinds)
    count = np.bincount(own, minlength=g).astype(float)
    limit, active = count + SPLIT_LIMIT, np.ones(g, bool)
    # QUADPACK's roundoff test: a bisection whose halves reproduce the value
    # to 1e-5 without lowering the error estimate counts as stalled (rounding
    # noise near a blowup grows as the nodes approach it); after
    # ROUNDOFF_LIMIT of them an integral stops refining and returns its best
    # state that passed the acceptance test
    stalled, best_val, best_err = np.zeros(g), np.zeros(g), np.full(g, math.inf)
    while True:
        lo, hi, val, err = cells[_LO], cells[_HI], cells[_VAL], cells[_ERR]
        value = np.bincount(own, val, g)
        error = np.bincount(own, err, g)
        accept = tol + 1e-12 * np.abs(value)
        stop = STOP_FRACTION * accept
        better = (error <= accept) & (error < best_err)
        np.copyto(best_val, value, where=better)
        np.copyto(best_err, error, where=better)
        done = error <= stop
        # the error above which a subinterval is bisected: its integral's
        # stopping target over its count of subintervals, which is never 0
        cap = np.where(~done & (stalled < ROUNDOFF_LIMIT) & (count < limit), stop / count, math.inf)
        mid = 0.5 * (lo + hi)
        split = (err > cap[own]) & (lo < mid) & (mid < hi)
        s = split.nonzero()[0]
        refining = np.bincount(own[s], minlength=g) > 0
        final = active & ~refining
        active = refining
        if np.count_nonzero(final):
            rescue = final & ~done
            result[ids[final]] = np.where(rescue, best_val, value)[final]
            bad = rescue & (best_err == math.inf)
            failures += zip(ids[bad].tolist(), value[bad].tolist(), error[bad].tolist())
        if not s.size:
            return
        # the kept cells, then the left and the right halves of the split ones
        take = np.concatenate([(refining[own] & ~split).nonzero()[0], s, s])
        k, m = take.size - 2 * s.size, s.size
        own, cells = own[take], cells[:, take]
        cells[_HI, k:k + m] = cells[_LO, k + m:] = mid[s]
        c_val, c_err = _gk21(f, ids[own[k:]], cells[:, k:], kinds)
        pair_val = c_val[:m] + c_val[m:]
        # the left halves still hold their parents' value and error
        stall = ((np.abs(cells[_VAL, k:k + m] - pair_val) <= 1e-5 * np.abs(pair_val))
                 & (c_err[:m] + c_err[m:] >= 0.99 * cells[_ERR, k:k + m]))
        cells[_VAL, k:], cells[_ERR, k:] = c_val, c_err
        count += np.bincount(own[k:k + m], minlength=g)
        stalled += np.bincount(own[k:k + m], stall, g)


def _decade_marks(lo, hi, start=None) -> np.ndarray:
    """Break points one decade apart between max(lo, start) and hi, when
    that range spans more than four decades; none otherwise. start defaults
    to hi * 1e-12. The marks come padded with NaN, one row per element of
    array arguments.

    A slowly decaying envelope can push a truncation radius many orders of
    magnitude past the scale where the mass sits, and the map of an
    unbounded range squeezes the scales below hi into a short stretch of
    t; the initial Gauss-Kronrod pass then never samples that region. A
    mark at every decade forces a subinterval at every scale."""
    hi = np.asarray(hi, float)
    floor = np.maximum(lo, hi * 1e-12 if start is None else start)
    # each mark is ten times the one before, as a running product
    steps = np.full(floor.shape + (int(math.log10(max(1.0, np.max(hi / floor)))) + 2,), 10.0)
    steps[..., 0] = floor
    marks = np.multiply.accumulate(steps, axis=-1)[..., 1:]
    inside = (hi > 1e4 * floor)[..., None] & (marks < (hi * 0.999)[..., None])
    return np.where(inside, marks, np.nan)


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
