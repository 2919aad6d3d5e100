"""Monte Carlo sampling of infinitely divisible laws and of deterministic
integrals against their Levy processes.

The sampler is the standard compound-Poisson construction: jumps with radius
above a cut eps arrive at their finite rate and are drawn by inverse-CDF
lookup per direction; the remaining small-jump activity is replaced (when
compensation is on) by a Gaussian with the small-jump second moment. The
drift is the triplet gamma corrected for the centering of both pieces:

    b_eps = gamma - int_{r > eps} r/(1+r^2) nu  (per direction, weighted)
            + int_{r <= eps} r^3/(1+r^2) nu

so that Gaussian + drift + compound Poisson (+ compensation) has exactly the
target characteristic exponent up to the small-jump remainder.

The integrand f on [0, T] is deterministic, so int_0^T f dX is sampled
exactly, with no time grid, as a Poisson series:

    x = (int f) b_eps + sqrt(int f^2) Sigma^(1/2) N
        + sum_i f(tau_i) J_i xi_i + sqrt(int f^2) C_eps^(1/2) N'

Each jump component (direction xi) has Poisson(rate * T) jumps at uniform
times tau = T (1 - U) in (0, T], where f is finite even for the logarithmic
integrands, with radii J from its jump table; C_eps is the small-jump
covariance. The time-1 law is the case f = 1 on [0, 1].

Reproducibility contract: paths are drawn vectorised in blocks of
BLOCK_PATHS. Each (block, variate kind, component) has its own counter-based
Philox stream: the key is (seed, block) and the upper counter words hold
(component index, kind). The kinds are the Gaussian normals, per jump
component its Poisson counts and its (radius, time) uniform pairs, and the
compensation normals. Within a stream the draws are laid out path by path,
and the last block draws only the paths requested, so a path's draws depend
only on (seed, path index), never on the total path count.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, GridMismatch
from .mappings import CharFnGrid, IntegrandSpec, Triplet, integrand
from .measures import RadialComponent, integrate
from .quadrature import geometric_grid

JUMP_TABLE_PER_DECADE = 512
# part of the stream layout: changing it changes every draw
BLOCK_PATHS = 256
_GAUSS, _COUNTS, _JUMPS, _COMP = range(4)


@dataclass(frozen=True)
class SimConfig:
    """Sampler settings. time_steps is validated but has no effect: the
    integral is sampled exactly, without a time grid."""

    paths: int = 100_000
    time_steps: int = 2000
    eps: float = 1e-3
    seed: int = 0
    compensate_small_jumps: bool = True

    def __post_init__(self):
        if not (isinstance(self.paths, int) and self.paths >= 1):
            raise ValueError(f"paths must be a positive integer, got {self.paths}")
        if not (isinstance(self.time_steps, int) and self.time_steps >= 1):
            raise ValueError(f"time_steps must be a positive integer, got {self.time_steps}")
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be positive, got {self.eps}")

    def to_json(self) -> dict:
        return {"paths": self.paths, "time_steps": self.time_steps,
                "eps": self.eps, "seed": self.seed,
                "compensate_small_jumps": self.compensate_small_jumps}


@dataclass(frozen=True)
class SampleSet:
    d: int
    draws: np.ndarray          # paths x d
    config: SimConfig

    def __post_init__(self):
        a = np.asarray(self.draws, float)
        if a.ndim != 2 or a.shape != (self.config.paths, self.d):
            raise ValueError(f"draws must be {self.config.paths} x {self.d}, got {a.shape}")
        object.__setattr__(self, "draws", a)

    def to_csv(self) -> str:
        header = ",".join(f"x{i + 1}" for i in range(self.d))
        lines = [header]
        for row in self.draws:
            lines.append(",".join(f"{x:.17g}" for x in row))
        return "\n".join(lines) + "\n"

    def sidecar_json(self) -> str:
        return json.dumps({"d": self.d, "config": self.config.to_json()}, indent=2)


# ---------------------------------------------------------------------------
# jump machinery
# ---------------------------------------------------------------------------

class _JumpTable:
    """Inverse-CDF sampler for one radial component restricted to (eps, oo).

    The density part is tabulated on a fine geometric grid with trapezoid
    cumulative mass; the rate reported here is the tabulated mass (plus atom
    masses), and sampling inverts the same table, so the simulated jump law
    and its rate are exactly consistent with each other.
    """

    def __init__(self, rc: RadialComponent, eps: float):
        self.direction_weight = rc.weight
        self.atom_locs = np.array([loc for loc, _ in rc.atoms if loc > eps])
        self.atom_masses = np.array([mass for loc, mass in rc.atoms if loc > eps])
        atom_mass = float(self.atom_masses.sum()) if self.atom_masses.size else 0.0
        self.grid = None
        self.cum = None
        dens_mass = 0.0
        dens = rc.density
        if dens is not None:
            hi = dens.table_radius()
            if hi > eps:
                lo = max(eps, dens.support[0])
                grid = np.asarray(geometric_grid(lo, hi, JUMP_TABLE_PER_DECADE))
                vals = np.maximum(dens.values(grid), 0.0)
                seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)
                cum = np.concatenate([[0.0], np.cumsum(seg)])
                dens_mass = float(cum[-1])
                if dens_mass > 0.0:
                    self.grid = grid
                    self.cum = cum
        self.atom_mass = atom_mass
        self.dens_mass = dens_mass
        self.radial_mass = atom_mass + dens_mass
        self.rate = rc.weight * self.radial_mass

    def sizes(self, uniforms: np.ndarray) -> np.ndarray:
        """Map uniforms on (0,1) to jump radii by inverse CDF over the mixed
        atom + tabulated-density mass."""
        targets = uniforms * self.radial_mass
        out = np.empty_like(targets)
        mask_atom = targets < self.atom_mass
        if np.any(mask_atom):
            cum_atoms = np.cumsum(self.atom_masses)
            idx = np.searchsorted(cum_atoms, targets[mask_atom], side="right")
            idx = np.minimum(idx, self.atom_locs.size - 1)
            out[mask_atom] = self.atom_locs[idx]
        rest = ~mask_atom
        if np.any(rest):
            t = targets[rest] - self.atom_mass
            out[rest] = np.interp(t, self.cum, self.grid)
        return out


def _small_jump_stats(nu, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(covariance of jumps with r <= eps, centering defect vector)."""
    d = nu.d
    cov = np.zeros((d, d))
    shift = np.zeros(d)
    for dirn, rc in nu.components:
        xi = dirn.array
        m2 = integrate(rc, lambda r: r * r, (0.0, eps), abs_tol=1e-12)
        small = integrate(rc, lambda r: r ** 3 / (1.0 + r * r), (0.0, eps), abs_tol=1e-12)
        cov += rc.weight * m2 * np.outer(xi, xi)
        shift += rc.weight * small * xi
    return cov, shift


def _big_jump_centering(nu, eps: float) -> np.ndarray:
    d = nu.d
    out = np.zeros(d)
    for dirn, rc in nu.components:
        val = integrate(rc, lambda r: r / (1.0 + r * r), (eps, math.inf),
                        abs_tol=1e-12, g_moment=-1.0)
        out += rc.weight * val * dirn.array
    return out


@dataclass
class _Machine:
    """Precomputed sampling ingredients shared across paths."""

    d: int
    drift: np.ndarray              # b_eps
    gauss_root: np.ndarray | None  # Sigma^(1/2), None when Sigma = 0
    comp_root: np.ndarray | None   # small-jump covariance^(1/2)
    jumps: list[tuple[int, _JumpTable, np.ndarray]]  # (component index, table, xi)


def _sqrt_or_none(mat: np.ndarray) -> np.ndarray | None:
    if float(np.max(np.abs(mat))) == 0.0:
        return None
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    w = np.clip(w, 0.0, None)
    return v @ np.diag(np.sqrt(w)) @ v.T


def _build_machine(t: Triplet, cfg: SimConfig) -> _Machine:
    jumps = []
    for idx, (dirn, rc) in enumerate(t.nu.components):
        tab = _JumpTable(rc, cfg.eps)
        if tab.rate > 0.0:
            jumps.append((idx, tab, dirn.array))
    if not jumps and not t.nu.is_zero():
        warnings.warn("jump cut eps leaves zero jump rate for a nonzero measure",
                      ConfigError)
    cov, shift = _small_jump_stats(t.nu, cfg.eps)
    drift = t.gamma - _big_jump_centering(t.nu, cfg.eps) + shift
    comp = _sqrt_or_none(cov) if cfg.compensate_small_jumps else None
    return _Machine(t.d, drift, _sqrt_or_none(t.Sigma), comp, jumps)


class _Streams:
    """Philox streams keyed by (seed, block); the two upper counter words hold
    (component, kind), so no two streams share a counter value."""

    def __init__(self, seed: int):
        self._seed = seed & 0xFFFFFFFFFFFFFFFF
        self._bits = np.random.Philox(key=[self._seed, 0])
        self._gen = np.random.Generator(self._bits)

    def __call__(self, block: int, kind: int, comp: int = 0) -> np.random.Generator:
        # re-keying one generator costs a quarter of constructing a new one
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([0, 0, comp, kind], np.uint64),
                      "key": np.array([self._seed, block], np.uint64)},
            "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        return self._gen


def _normals(gen: np.random.Generator, root: np.ndarray, n: int) -> np.ndarray:
    """n rows root @ N with N standard normal, summed column by column so
    that a row's bits never depend on n."""
    z = gen.standard_normal((n, root.shape[0]))
    return sum(np.outer(z[:, j], root[:, j]) for j in range(root.shape[0]))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

# f = 1 on [0, 1]: the integral is the time-1 law
_IDENTITY = IntegrandSpec("id", 1.0, np.ones_like, 1.0, 1.0,
                          lambda: RadialComponent(((1.0, 1.0),)))


def _sample(t: Triplet, spec: IntegrandSpec, cfg: SimConfig) -> SampleSet:
    mach = _build_machine(t, cfg)
    scale = math.sqrt(spec.sq_integral)
    gauss = None if mach.gauss_root is None else scale * mach.gauss_root
    comp = None if mach.comp_root is None else scale * mach.comp_root
    drift = spec.lin_integral * mach.drift
    streams = _Streams(cfg.seed)
    out = np.empty((cfg.paths, mach.d))
    for block, lo in enumerate(range(0, cfg.paths, BLOCK_PATHS)):
        n = min(BLOCK_PATHS, cfg.paths - lo)
        x = out[lo:lo + n]
        x[:] = drift
        if gauss is not None:
            x += _normals(streams(block, _GAUSS), gauss, n)
        for idx, tab, xi in mach.jumps:
            counts = streams(block, _COUNTS, idx).poisson(tab.rate * spec.T, n)
            total = int(counts.sum())
            if total:
                u = streams(block, _JUMPS, idx).random((total, 2))
                w = spec.f(spec.T * (1.0 - u[:, 1])) * tab.sizes(u[:, 0])
                x += np.outer(np.bincount(np.repeat(np.arange(n), counts), w, n), xi)
        if comp is not None:
            x += _normals(streams(block, _COMP), comp, n)
    return SampleSet(mach.d, out, cfg)


def sample_id(t: Triplet, cfg: SimConfig) -> SampleSet:
    """Draws of the law at time 1: Gaussian part + corrected drift + compound
    Poisson of jumps with radius above eps (+ aggregated compensation)."""
    return _sample(t, _IDENTITY, cfg)


def sample_integral(t: Triplet, f: IntegrandSpec | str, cfg: SimConfig) -> SampleSet:
    """Exact draws of int_0^T f dX (see the module docstring); cfg.time_steps
    has no effect."""
    return _sample(t, integrand(f), cfg)


# ---------------------------------------------------------------------------
# empirical characteristic function
# ---------------------------------------------------------------------------

def empirical_cf(s: SampleSet, zgrid: Sequence[Sequence[float]]) -> CharFnGrid:
    if s.draws.shape[0] == 0:
        raise ValueError("empty sample set")
    pts = tuple(tuple(float(x) for x in np.atleast_1d(z)) for z in zgrid)
    vals = []
    for z in pts:
        phase = s.draws @ np.asarray(z)
        vals.append(complex(np.mean(np.exp(1j * phase))))
    return CharFnGrid(pts, tuple(vals))


def cf_distance(a: CharFnGrid, b: CharFnGrid) -> float:
    if a.zs != b.zs:
        raise GridMismatch("characteristic-function grids differ")
    return max(abs(x - y) for x, y in zip(a.values, b.values)) if a.values else 0.0
