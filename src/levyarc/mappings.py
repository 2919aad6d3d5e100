"""Triplets, characteristic functions, and the triplet calculus of
stochastic-integral mappings.

A law is carried as its triplet (Sigma, nu, gamma) with the x/(1+|x|^2)
centering. The mapping induced by integrating a deterministic function f over
[0, T] against the Levy process acts on triplets in closed form:

    Sigma_out = (int_0^T f^2) * Sigma
    nu_out    = scale mixture of nu by tau_f, the image of Lebesgue measure
                on [0, T] under |f|
    gamma_out = (int_0^T f) * gamma + sum_xi w_xi * xi * int D(r) nu_xi(dr),
    D(r)      = int u r [ (1+u^2 r^2)^(-1) - (1+r^2)^(-1) ] tau_f(du)

Four integrands are registered, each with its exact dilation measure and the
closed-form constants the formulas need:

    cos_pi_half        f(t) = cos(pi t / 2)       on [0, 1]
    log                f(t) = -log t              on [0, 1]
    log_sqrt           f(t) = sqrt(-log t)        on [0, 1]
    gauss_tail_inverse f(t) = h*(t), the inverse of h(u) = int_u^oo e^(-v^2) dv,
                       on [0, sqrt(pi)/2]

cos_pi_half's dilation is exactly the arcsine dilation on (0, 1), which ties
the triplet calculus to the second arcsine transform; log gives the
exponential dilation, log_sqrt gives 2 s e^(-s^2) ds, and gauss_tail_inverse
gives e^(-u^2) du.

The drift takes the centering defect D against nu (Fubini): the atoms of
all polar components go through one evaluation of D, which is one engine
batch over tau_f with one integral per radius, and each density is one
integral against nu. Under the arcsine dilation D is in closed form,
(2/pi) [asinh(r)/hypot(1, r) - r/(1+r^2)]. char_exponent solves the real and
imaginary integrals of all points as one batch per direction, and an
arcsine image's exponent as one batch over its source, with cos and sin
averaged over the dilation to J0 and the Struve function H0. An integral's
value does not depend on the rest of its batch, so the results are those
of one integral at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfc, erfcinv, j0, y0

from .errors import GridMismatch, MalformedMeasure
from .measures import (ExpPowerDensity, PolarMeasure, RadialComponent,
                       from_json, integrate, integrate_batch, to_json, validate)
from .transforms import (TWO_OVER_PI, DilationMeasure, _ScaleMixtureKernel,
                         arcsine_dilation, exp_dilation, power_exp_dilation, upsilon_tau)

SQRT_PI = math.sqrt(math.pi)
# _struve_h0's tables: the power series' coefficients c_k = -c_(k-1)/(2k+1)^2
# to k = 17, and the 40-point Gauss-Laguerre rule
_H0_SERIES = np.cumprod(np.r_[1.0, -1.0 / np.arange(3.0, 36.0, 2.0) ** 2])
_LAGUERRE = np.polynomial.laguerre.laggauss(40)


# ---------------------------------------------------------------------------
# gaussian tail function and its inverse
# ---------------------------------------------------------------------------

def gauss_tail(u: float) -> float:
    """h(u) = int_u^oo e^(-v^2) dv = (sqrt(pi)/2) erfc(u)."""
    return 0.5 * SQRT_PI * float(erfc(u))


def gauss_tail_inverse(t: float) -> float:
    """h*(t): the decreasing inverse of gauss_tail on (0, sqrt(pi)/2)."""
    if not 0.0 < t < 0.5 * SQRT_PI:
        if t == 0.5 * SQRT_PI:
            return 0.0
        raise ValueError(f"gauss_tail_inverse needs t in (0, sqrt(pi)/2], got {t}")
    return float(erfcinv(2.0 * t / SQRT_PI))


# ---------------------------------------------------------------------------
# integrand registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrandSpec:
    """A deterministic integrand f on [0, T] with the exact quantities the
    triplet calculus and the simulator consume: the integrals of f and f^2
    over [0, T], and the dilation measure tau_f (image of Lebesgue on [0, T]
    under |f|). f must accept a numpy array of times in (0, T] and return
    the array of values; the sampler evaluates it on all jump times of a
    block at once."""

    name: str
    T: float
    f: Callable[[np.ndarray], np.ndarray]
    lin_integral: float
    sq_integral: float
    tau_factory: Callable[[], DilationMeasure]

    def tau(self) -> DilationMeasure:
        return self.tau_factory()


def _gauss_dilation() -> DilationMeasure:
    return RadialComponent((), ExpPowerDensity(1.0, 0.0, 1.0, 2.0), 1.0)


INTEGRANDS: dict[str, IntegrandSpec] = {
    "cos_pi_half": IntegrandSpec(
        "cos_pi_half", 1.0, lambda t: np.cos(0.5 * math.pi * t),
        2.0 / math.pi, 0.5, arcsine_dilation),
    "log": IntegrandSpec(
        "log", 1.0, lambda t: -np.log(t), 1.0, 2.0, exp_dilation),
    "log_sqrt": IntegrandSpec(
        "log_sqrt", 1.0, lambda t: np.sqrt(-np.log(t)), 0.5 * SQRT_PI, 1.0,
        lambda: power_exp_dilation(-2.0, 2.0)),
    "gauss_tail_inverse": IntegrandSpec(
        "gauss_tail_inverse", 0.5 * SQRT_PI,
        lambda t: erfcinv(2.0 * np.asarray(t) / SQRT_PI), 0.5, 0.25 * SQRT_PI,
        _gauss_dilation),
}


def integrand(name: str | IntegrandSpec) -> IntegrandSpec:
    if isinstance(name, IntegrandSpec):
        return name
    try:
        return INTEGRANDS[name]
    except KeyError:
        raise ValueError(f"unknown integrand {name!r}; choose from {sorted(INTEGRANDS)}") from None


# ---------------------------------------------------------------------------
# triplets
# ---------------------------------------------------------------------------

def _as_matrix(x, d: int) -> np.ndarray:
    a = np.atleast_2d(np.asarray(x, float))
    if a.shape != (d, d):
        raise MalformedMeasure(f"Sigma must be {d}x{d}, got shape {a.shape}")
    return a


def _as_vector(x, d: int) -> np.ndarray:
    a = np.atleast_1d(np.asarray(x, float))
    if a.shape != (d,):
        raise MalformedMeasure(f"gamma must have length {d}, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class Triplet:
    """(Sigma, nu, gamma) with centering x/(1+|x|^2). Sigma must be symmetric
    nonnegative-definite within 1e-12 and nu must pass the levy check."""

    Sigma: np.ndarray
    nu: PolarMeasure
    gamma: np.ndarray

    def __post_init__(self):
        if not isinstance(self.nu, PolarMeasure):
            raise MalformedMeasure(f"nu must be a PolarMeasure, got {type(self.nu)!r}")
        d = self.nu.d
        sig = _as_matrix(self.Sigma, d)
        gam = _as_vector(self.gamma, d)
        if not np.all(np.isfinite(sig)) or not np.all(np.isfinite(gam)):
            raise MalformedMeasure("triplet entries must be finite")
        if np.max(np.abs(sig - sig.T)) > 1e-12:
            raise MalformedMeasure("Sigma must be symmetric within 1e-12")
        if np.min(np.linalg.eigvalsh(0.5 * (sig + sig.T))) < -1e-12:
            raise MalformedMeasure("Sigma must be nonnegative definite within 1e-12")
        report = validate(self.nu, "levy")
        if not report.ok:
            raise MalformedMeasure(f"nu fails the levy check: {report.failures()}")
        object.__setattr__(self, "Sigma", sig)
        object.__setattr__(self, "gamma", gam)

    @property
    def d(self) -> int:
        return self.nu.d

    @staticmethod
    def zero(d: int = 1) -> "Triplet":
        return Triplet(np.zeros((d, d)), PolarMeasure.zero(d), np.zeros(d))

    def to_json(self) -> dict:
        return {"Sigma": self.Sigma.tolist(), "nu": to_json(self.nu),
                "gamma": self.gamma.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "Triplet":
        try:
            sigma, nu, gamma = obj["Sigma"], obj["nu"], obj["gamma"]
            return Triplet(np.asarray(sigma, float), from_json(nu), np.asarray(gamma, float))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedMeasure(f"cannot parse triplet JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def _struve_h0(x: np.ndarray) -> np.ndarray:
    """The Struve function H0: (2/pi) sum_k c_k x^(2k+1) below |x| = 4, and
    from there on sign(x) [Y0(|x|) + (2/pi) int_0^oo e^(-u) (x^2 + u^2)^(-1/2) du]
    with the integral by Gauss-Laguerre; within 2e-15 of mpmath on [0, 300].
    scipy's struve takes about 4 us a point below 4 and reads NaN within about
    1e-6 (relative) of each zero of H0."""
    out, a = np.empty_like(x), np.abs(x)
    near = a < 4.0
    xn = x[near]
    out[near] = TWO_OVER_PI * xn * np.polynomial.polynomial.polyval(xn * xn, _H0_SERIES)
    a = a[~near]
    laplace = sum(w / np.hypot(a, u) for u, w in zip(*_LAGUERRE))
    out[~near] = np.sign(x[~near]) * (y0(a) + TWO_OVER_PI * laplace)
    return out


def char_exponent(t: Triplet, z: Sequence[float] | np.ndarray, *,
                  abs_tol: float = 1e-10) -> complex | np.ndarray:
    """log of the characteristic function at z:
    -(1/2)<Sigma z, z> + i<gamma, z>
    + sum_xi w_xi int (e^{i r s} - 1 - i r s/(1+r^2)) nu_xi(dr),  s = <xi, z>.

    z is one point (length d) or an (n, d) array of points, and the result
    is a complex number or an array of n of them. Per direction, the real
    and the imaginary radial integrals of all points are solved as one
    batch of 2n integrals, so a kernel density is read once per distinct
    node (see integrate_batch). A component that is an atom-free arcsine
    image is integrated over the kernel's source instead, with the
    integrand averaged over the dilation in closed form.
    """
    zv = np.asarray(z, float)
    single = zv.ndim <= 1
    zs = np.atleast_2d(np.atleast_1d(zv))
    if zs.ndim != 2 or zs.shape[1] != t.d:
        want = f"length {t.d}" if single else f"shape (n, {t.d})"
        raise ValueError(f"z must have {want}, got shape {zv.shape}")
    val = (-0.5 * np.einsum("ni,ij,nj->n", zs, t.Sigma, zs)) + 1j * (zs @ t.gamma)
    n = zs.shape[0]
    for dirn, rc in t.nu.components:
        s = zs @ dirn.array
        if not s.any():
            continue

        def g(r: np.ndarray, k: np.ndarray) -> np.ndarray:
            # integrals k < n are the real parts, n <= k < 2n the imaginary ones
            rs = r * s[k % n]
            with np.errstate(over="ignore"):
                rr = r * r
            return np.where(k < n, np.cos(rs) - 1.0, np.sin(rs) - rs / (1.0 + rr))

        def folded(v: np.ndarray, k: np.ndarray) -> np.ndarray:
            # g averaged over the arcsine dilation, at the source radius v:
            # J0(v s) - 1, and H0(v s) - s (2/pi) asinh(v)/hypot(1, v) with the
            # Struve function H0 read on the nodes of the imaginary parts only;
            # both terms round to (2/pi) v s alike, so their difference is 0
            # where v and |v s| are below 1e-8, as the nested integrand's is
            x, im = v * s[k % n], k >= n
            out = j0(x) - 1.0
            v = v[im]
            out[im] = _struve_h0(x[im]) - TWO_OVER_PI * (s[k[im] - n] * np.arcsinh(v)) / np.hypot(1.0, v)
            return out

        over, dens = rc, rc.density
        if not rc.atoms and isinstance(dens, _ScaleMixtureKernel) and dens.dilation == arcsine_dilation():
            over, g = dens.source, folded
        both = integrate_batch(over, g, 2 * n, (0.0, math.inf), abs_tol=abs_tol, g_moment=0.0)
        val = val + rc.weight * (both[:n] + 1j * both[n:])
    return complex(val[0]) if single else val


def char_fn(t: Triplet, z: Sequence[float], *, abs_tol: float = 1e-10) -> complex:
    return complex(np.exp(char_exponent(t, z, abs_tol=abs_tol)))


@dataclass(frozen=True)
class CharFnGrid:
    """Characteristic-function values on a grid of z points."""

    zs: tuple[tuple[float, ...], ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.zs) != len(self.values):
            raise GridMismatch("zs and values must have equal length")

    def to_csv(self) -> str:
        d = len(self.zs[0]) if self.zs else 1
        header = ",".join([f"z{i + 1}" for i in range(d)] + ["re", "im"])
        lines = [header]
        for z, v in zip(self.zs, self.values):
            cells = [f"{x:.17g}" for x in z] + [f"{v.real:.17g}", f"{v.imag:.17g}"]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def char_fn_grid(t: Triplet, zs: Sequence[Sequence[float]], *,
                 abs_tol: float = 1e-10) -> CharFnGrid:
    pts = tuple(tuple(float(x) for x in np.atleast_1d(z)) for z in zs)
    if not pts:
        return CharFnGrid((), ())
    vals = np.exp(char_exponent(t, np.array(pts), abs_tol=abs_tol))
    return CharFnGrid(pts, tuple(complex(v) for v in vals))


# ---------------------------------------------------------------------------
# the triplet transform
# ---------------------------------------------------------------------------

def _centering_defect(tau: DilationMeasure) -> Callable[[np.ndarray], np.ndarray]:
    """D(r) = int u r [ (1+u^2 r^2)^(-1) - (1+r^2)^(-1) ] tau(du) on an array
    of radii, written as u (1-u^2)/(1+(u r)^2) times r (r/hypot(1, r))^2 so
    that it keeps its relative accuracy where it is O(r^3): one batch over
    tau with one integral per radius. Over the arcsine dilation it is the closed form
    (2/pi) [asinh(r) - r/h]/h, h = hypot(1, r), whose bracket is summed as
    its series r^3/3 - 3r^5/10 + 15r^7/56 - 35r^9/144 below r = 1e-2."""
    if tau == arcsine_dilation():
        def closed(r: np.ndarray) -> np.ndarray:
            h, x = np.hypot(1.0, r), np.minimum(r, 1e-2)
            xx = x * x
            series = x * xx * (1.0 / 3.0 + xx * (-0.3 + xx * (15.0 / 56.0 - xx * (35.0 / 144.0))))
            return TWO_OVER_PI * np.where(r < 1e-2, series, np.arcsinh(r) - r / h) / h
        return closed

    def defect(r: np.ndarray) -> np.ndarray:
        scale = r * (r / np.hypot(1.0, r)) ** 2

        def g(u: np.ndarray, k: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):
                return u * (1.0 - u * u) / (1.0 + (u * r[k]) ** 2) * scale[k]

        return integrate_batch(tau, g, r.size, (0.0, math.inf), abs_tol=1e-10, g_moment=1.0)

    return defect


def _drift(comps: Sequence[RadialComponent], D: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Each component's drift integral int D(r) nu(dr): the atoms of all
    components through one call of D, and one integral per density."""
    owner, locs, masses = np.array([(c, *a) for c, rc in enumerate(comps) for a in rc.atoms]
                                   ).reshape(-1, 3).T
    out = np.bincount(owner.astype(int), D(locs) * masses, minlength=len(comps)).astype(float)
    for c, rc in enumerate(comps):
        if rc.density is not None:
            out[c] += integrate(RadialComponent((), rc.density), D, (0.0, math.inf),
                                abs_tol=1e-12, g_moment=0.0)
    return out


def transform_triplet(t: Triplet, f: IntegrandSpec | str) -> Triplet:
    """Triplet of the law of the integral of f against the Levy process whose
    time-1 law has triplet t.

    The drift correction is the time integral of the integrand against the
    centering defect. By Fubini it is int D(r) nu(dr), with D(r) the defect
    between the centering at scaled and at unscaled jump sizes averaged over
    the dilation measure (see _centering_defect): the atoms of all polar
    components go through one evaluation of D, and each density is one
    integral against nu. Over the arcsine dilation (cos_pi_half) D is in
    closed form and the drift makes no engine call for atoms."""
    spec = integrand(f)
    sigma_out = spec.sq_integral * t.Sigma
    nu_out = upsilon_tau(t.nu, spec.tau()) if not t.nu.is_zero() else t.nu
    gamma_out = spec.lin_integral * t.gamma.copy()
    if not t.nu.is_zero():
        vals = _drift([rc for _, rc in t.nu.components], _centering_defect(spec.tau()))
        corr = np.zeros(t.d)
        for (dirn, rc), val in zip(t.nu.components, vals):
            corr += rc.weight * val * dirn.array
        gamma_out = gamma_out + corr
    return Triplet(sigma_out, nu_out, gamma_out)


def compose_g(t: Triplet) -> Triplet:
    """The composite map applying cos_pi_half first and log_sqrt second; the
    two orders agree, which the test suite asserts pointwise."""
    return transform_triplet(transform_triplet(t, "cos_pi_half"), "log_sqrt")


def compose_g_reversed(t: Triplet) -> Triplet:
    return transform_triplet(transform_triplet(t, "log_sqrt"), "cos_pi_half")
