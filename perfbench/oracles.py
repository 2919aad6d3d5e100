"""Independent reference values. Nothing here calls levyarc: every oracle is
a closed form or a one-dimensional scipy quadrature of a smooth integrand,
so a change to the library's kernels or quadrature cannot move both sides of
a check at once."""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

SQRT_PI = math.sqrt(math.pi)


def ex1_density(r: float) -> float:
    """(pi/4) r^(-1/2) e^(-sqrt r): the EX1 input, which ups0(EX2) reproduces."""
    return 0.25 * math.pi / math.sqrt(r) * math.exp(-math.sqrt(r))


def ex1_tail(u: float) -> float:
    """Mass of (u, oo) under the EX1 input: (pi/2) e^(-sqrt u)."""
    return 0.5 * math.pi * math.exp(-math.sqrt(u))


def step_tail(atoms, u: float) -> float:
    return sum(mass for loc, mass in atoms if loc > u)


# ---------------------------------------------------------------------------
# characteristic functions of integral laws  int_0^1 f dX
# ---------------------------------------------------------------------------
# For a Levy process with exponent Psi, log E exp(i z int f dX) = int Psi(z f).
# The atom integrators are chosen "uncompensated": gamma equals the centering
# integral, so Psi(u) is the plain jump integral. The density integrator has
# gamma = 0, so Psi(u) is its jump integral minus i u times the centering.

def gauss_cf(integrand: str, z: float) -> complex:
    """Sigma = 1: exp(-z^2/2 int f^2), int f^2 = 1/2 (cos) or 2 (log)."""
    sq = 0.5 if integrand == "cos_pi_half" else 2.0
    return complex(math.exp(-0.5 * z * z * sq))


def atom_log_cf(integrand: str, a: np.ndarray) -> np.ndarray:
    """int_0^1 (e^(i a f(t)) - 1) dt for a unit jump scaled by a:
    J0(a) - 1 + i H0(a) under cos(pi t/2), i a / (1 - i a) under -log t."""
    a = np.asarray(a, float)
    if integrand == "cos_pi_half":
        return special.j0(a) - 1.0 + 1j * special.struve(0, a)
    return 1j * a / (1.0 - 1j * a)


def atoms_cf(integrand: str, z: np.ndarray, dirs: np.ndarray, radii: np.ndarray,
             weights: np.ndarray) -> complex:
    """Compound Poisson with atoms weights_k at radii_k * dirs_k."""
    s = dirs @ np.asarray(z, float)
    return complex(np.exp(np.sum(weights * atom_log_cf(integrand, radii * s))))


def atom_drift(radii: np.ndarray, weights: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The centering integral sum_k w_k xi_k r_k / (1 + r_k^2)."""
    return (weights * radii / (1.0 + radii * radii)) @ dirs


def atom_drift_cos(radii: np.ndarray, weights: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Drift of the cos(pi t/2) image of an uncompensated atom integrator:
    sum_k w_k xi_k int_0^1 r f / (1 + r^2 f^2) dt
      = sum_k w_k xi_k 2 asinh(r_k) / (pi sqrt(1 + r_k^2))."""
    per = 2.0 * np.arcsinh(radii) / (math.pi * np.sqrt(1.0 + radii * radii))
    return (weights * per) @ dirs


class TemperedStable:
    """nu(dr) = r^(-3/2) e^(-r) dr on (0, oo): ExpPowerDensity(1, -1.5, 1, 1).
    int (e^(iur) - 1) nu(dr) = Gamma(-1/2) ((1 - iu)^(1/2) - 1)."""

    def __init__(self):
        # centering integral int r/(1+r^2) nu(dr); r = t^2 makes it smooth
        val, err = integrate.quad(lambda t: 2.0 * math.exp(-t * t) / (1.0 + t ** 4),
                                  0.0, math.inf, epsabs=1e-15, epsrel=1e-12)
        self.centering = val

    @staticmethod
    def jump_exponent(u: float) -> complex:
        return -2.0 * SQRT_PI * (np.sqrt(complex(1.0, -u)) - 1.0)

    def cf(self, integrand: str, z: float) -> complex:
        """cf of int f dX for the integrator with gamma = 0 and no Gaussian part."""
        if integrand == "cos_pi_half":
            f = lambda t: math.cos(0.5 * math.pi * t)
            lin = 2.0 / math.pi
            lo, hi, weight = 0.0, 1.0, (lambda t: 1.0)
        else:
            # t = e^(-v): int_0^1 g(-log t) dt = int_0^oo g(v) e^(-v) dv
            f = lambda v: v
            lin = 1.0
            lo, hi, weight = 0.0, math.inf, (lambda v: math.exp(-v))
        parts = []
        for take in (lambda c: c.real, lambda c: c.imag):
            val, _ = integrate.quad(
                lambda t: take(self.jump_exponent(z * f(t))) * weight(t),
                lo, hi, epsabs=1e-14, epsrel=1e-13, limit=400)
            parts.append(val)
        log_cf = complex(parts[0], parts[1]) - 1j * z * self.centering * lin
        return complex(np.exp(log_cf))
