"""Triplets, characteristic functions, and the triplet calculus of
stochastic-integral mappings.

A law is carried as its triplet (Sigma, nu, gamma) with the x/(1+|x|^2)
centering. The mapping induced by integrating a deterministic function f over
[0, T] against the Levy process acts on triplets in closed form:

    Sigma_out = (int_0^T f^2) * Sigma
    nu_out    = scale mixture of nu by tau_f, the image of Lebesgue measure
                on [0, T] under |f|
    gamma_out = (int_0^T f) * gamma + int u * C(u) tau_f(du),
    C(u)      = sum_xi w_xi * xi * int r [ (1+u^2 r^2)^(-1) - (1+r^2)^(-1) ]
                nu_xi(dr)

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

Each operation is one engine batch: transform_triplet solves the drift
integrals of all polar components as one batch over tau_f, and char_exponent
solves the real and imaginary integrals of all points as one batch per
direction. An integral's value does not depend on the rest of its batch, so
the results are those of one integral at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfc, erfcinv

from .errors import GridMismatch, MalformedMeasure
from .measures import (ExpPowerDensity, PolarMeasure, RadialComponent,
                       from_json, integrate_batch, to_json, validate)
from .transforms import (DilationMeasure, arcsine_dilation, exp_dilation,
                         power_exp_dilation, upsilon_tau)

SQRT_PI = math.sqrt(math.pi)


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

def char_exponent(t: Triplet, z: Sequence[float] | np.ndarray, *,
                  abs_tol: float = 1e-10) -> complex | np.ndarray:
    """log of the characteristic function at z:
    -(1/2)<Sigma z, z> + i<gamma, z>
    + sum_xi w_xi int (e^{i r s} - 1 - i r s/(1+r^2)) nu_xi(dr),  s = <xi, z>.

    z is one point (length d) or an (n, d) array of points, and the result
    is a complex number or an array of n of them. Per direction, the real
    and the imaginary radial integrals of all points are solved as one
    batch of 2n integrals, so a kernel density is read once per distinct
    node (see integrate_batch).
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
            return np.where(k < n, np.cos(rs) - 1.0, np.sin(rs) - rs / (1.0 + r * r))

        both = integrate_batch(rc, g, 2 * n, (0.0, math.inf), abs_tol=abs_tol, g_moment=0.0)
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

def _centering_shift(rc, us: np.ndarray, abs_tol: float) -> np.ndarray:
    """int r [ (1+u^2 r^2)^(-1) - (1+r^2)^(-1) ] against one radial measure,
    for every u of an array, as one batch (exactly 0 at u = 1)."""
    uu = us * us

    def g(r: np.ndarray, k: np.ndarray) -> np.ndarray:
        rr = r * r
        return r * (1.0 / (1.0 + uu[k] * rr) - 1.0 / (1.0 + rr))

    return integrate_batch(rc, g, us.size, (0.0, math.inf), abs_tol=abs_tol, g_moment=-1.0)


def _drift_integrand(comps: Sequence[RadialComponent], abs_tol: float):
    """g(u, k) = u * (centering shift of comps[k] at u), on arrays of nodes u
    and component indices k.

    The atoms of all components are evaluated at once: each node is repeated
    once per atom of its component and the terms are summed back in atom
    order, the order integrate_batch adds them in. A component's density
    part goes through _centering_shift on the nodes of that component."""
    counts = np.array([len(rc.atoms) for rc in comps])
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    locs = np.array([loc for rc in comps for loc, _ in rc.atoms])
    masses = np.array([mass for rc in comps for _, mass in rc.atoms])
    densities = [(c, RadialComponent((), rc.density)) for c, rc in enumerate(comps)
                 if rc.density is not None]

    def g(us: np.ndarray, ks: np.ndarray) -> np.ndarray:
        reps = counts[ks]
        node = np.repeat(np.arange(us.size), reps)
        # the atom of each copy: its component's first atom plus the copy's
        # rank among the copies of its node
        atom = np.arange(node.size) + np.repeat(first[ks] - (np.cumsum(reps) - reps), reps)
        r = locs[atom]
        rr = r * r
        terms = r * (1.0 / (1.0 + (us * us)[node] * rr) - 1.0 / (1.0 + rr)) * masses[atom]
        shift = np.bincount(node, terms, minlength=us.size).astype(float, copy=False)
        for c, dens in densities:
            sel = np.flatnonzero(ks == c)
            if sel.size:
                shift[sel] += _centering_shift(dens, us[sel], abs_tol)
        return us * shift

    return g


def transform_triplet(t: Triplet, f: IntegrandSpec | str) -> Triplet:
    """Triplet of the law of the integral of f against the Levy process whose
    time-1 law has triplet t.

    The drift correction integrates, over the dilation measure, the mismatch
    between the centering term evaluated at scaled and unscaled jump sizes;
    that is the change-of-variables form of the time integral of the
    integrand against the centering defect. The corrections of all polar
    components are solved as one batch over the dilation measure; each is
    independent of the others, so the batch gives the values one integral
    per component would."""
    spec = integrand(f)
    sigma_out = spec.sq_integral * t.Sigma
    nu_out = upsilon_tau(t.nu, spec.tau()) if not t.nu.is_zero() else t.nu
    gamma_out = spec.lin_integral * t.gamma.copy()
    if not t.nu.is_zero():
        comps = [rc for _, rc in t.nu.components]
        vals = integrate_batch(spec.tau(), _drift_integrand(comps, 1e-12), len(comps),
                               (0.0, math.inf), abs_tol=1e-10, g_moment=1.0)
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
