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

Each jump component (direction xi) with mass above eps has Poisson(rate * T)
jumps at uniform times tau = T (1 - U) in (0, T], where f is finite even for
the logarithmic integrands, with radii J by inverse CDF over its atoms, then
its tabulated density; C_eps is the small-jump covariance. The time-1 law is
the case f = 1 on [0, 1]. These ingredients are built once per triplet and
eps, and reused by later calls while the triplet lives.

Reproducibility contract: paths are drawn vectorised in blocks of
BLOCK_PATHS. Each (block, variate kind) has its own counter-based Philox
stream: the key is (seed, block) and the top counter word holds the kind.
The kinds are the Gaussian normals, the Poisson jump counts, the
(radius, time) uniform pairs of the jumps, and the compensation normals.
Within a stream the draws are laid out path-major and component-minor: the
counts as a paths x K array over the K components with jumps above eps, the
jumps of a path component by component. The last block draws only the paths
requested, so a path's draws depend only on (seed, path index), never on the
total path count. With one polar component this is the layout of the
earlier per-component streams and the draws are unchanged, except that an
atom mass summed over eight or more atoms above eps may now round
differently (it is summed in atom order); measures with several components
draw differently from versions before the shared streams.
"""

from __future__ import annotations

import json
import math
import warnings
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, GridMismatch
from .mappings import CharFnGrid, IntegrandSpec, Triplet, integrand
from .measures import Density, RadialComponent, integrate
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
    """Inverse-CDF table of one radial density restricted to (eps, oo).

    The density is tabulated on a fine geometric grid with trapezoid
    cumulative mass; its component's rate counts the tabulated mass, and
    sampling inverts the same table, so the simulated jump law and its rate
    are exactly consistent with each other.
    """

    def __init__(self, dens: Density, eps: float):
        self.grid = None
        self.cum = None
        self.mass = 0.0
        hi = dens.table_radius()
        if hi > eps:
            lo = max(eps, dens.support[0])
            grid = np.asarray(geometric_grid(lo, hi, JUMP_TABLE_PER_DECADE))
            vals = np.maximum(dens.values(grid), 0.0)
            seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            if cum[-1] > 0.0:
                self.grid, self.cum, self.mass = grid, cum, float(cum[-1])

    def sizes(self, targets: np.ndarray) -> np.ndarray:
        """Radii at cumulative masses in [0, mass). np.interp takes sorted
        targets several times faster, argsort included, and gives each the
        value it gives unsorted."""
        order = np.argsort(targets)
        out = np.empty_like(targets)
        out[order] = np.interp(targets[order], self.cum, self.grid)
        return out


# the integrands of the small-jump second moment, the small-jump centering
# defect and the big-jump centering
def _square(r):
    return r * r


def _small_defect(r):
    return r ** 3 / (1.0 + r * r)


def _centering(r):
    return r / (1.0 + r * r)


@dataclass
class _Machine:
    """Precomputed sampling ingredients shared across paths. The K jump
    components are those with jumps above eps, in measure order."""

    d: int
    drift: np.ndarray              # b_eps
    gauss_root: np.ndarray | None  # Sigma^(1/2), None when Sigma = 0
    comp_root: np.ndarray | None   # small-jump covariance^(1/2)
    xi: np.ndarray                 # K x d directions
    rates: np.ndarray              # K jump rates
    mass: np.ndarray               # K radial masses above eps, atoms first
    atom_mass: np.ndarray          # K atom masses above eps
    atom_locs: np.ndarray          # the atoms above eps, component by component
    atom_cum: np.ndarray           # their running mass across components
    atom_base: np.ndarray          # K running masses before each component's atoms
    atom_last: np.ndarray          # K indices of each component's last atom
    tables: list[tuple[int, _JumpTable]]  # (component, table) for tabulated densities

    def radii(self, comp: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Jump radii by inverse CDF over each jump's component: uniforms u in
        [0, 1) index its atoms first, then its density table."""
        targets = u * self.mass[comp]
        out = np.empty_like(targets)
        on_atom = targets < self.atom_mass[comp]
        if np.any(on_atom):
            # the search starts at the component's first atom; rounding may
            # carry it past its last
            k = comp[on_atom]
            idx = np.searchsorted(self.atom_cum, self.atom_base[k] + targets[on_atom],
                                  side="right")
            out[on_atom] = self.atom_locs[np.minimum(idx, self.atom_last[k])]
        for k, tab in self.tables:
            sel = (comp == k) & ~on_atom
            out[sel] = tab.sizes(targets[sel] - self.atom_mass[k])
        return out


def _sqrt_or_none(mat: np.ndarray) -> np.ndarray | None:
    if float(np.max(np.abs(mat))) == 0.0:
        return None
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    w = np.clip(w, 0.0, None)
    return v @ np.diag(np.sqrt(w)) @ v.T


def _build_machine(t: Triplet, cfg: SimConfig) -> _Machine:
    eps = cfg.eps
    comps = t.nu.components
    n_comps = len(comps)
    xi = np.array([dirn.coords for dirn, _ in comps], float).reshape(n_comps, t.d)
    weight = np.array([rc.weight for _, rc in comps], float)
    # every atom, in the order integrate() adds them: by component, then by
    # location
    owner = np.array([k for k, (_, rc) in enumerate(comps) for _ in rc.atoms], np.intp)
    locs = np.array([loc for _, rc in comps for loc, _ in rc.atoms], float)
    masses = np.array([mass for _, rc in comps for _, mass in rc.atoms], float)
    big = locs > eps

    def atom_sums(g, sel):
        # bincount of no weights counts in integers
        return np.bincount(owner[sel], g(locs[sel]) * masses[sel], n_comps).astype(float)

    m2 = atom_sums(_square, ~big)
    defect = atom_sums(_small_defect, ~big)
    centering = atom_sums(_centering, big)
    atom_mass = atom_sums(np.ones_like, big)  # the integral of 1 over (eps, oo)
    dens_mass = np.zeros(n_comps)
    tables = {}
    for k, (_, rc) in enumerate(comps):
        if rc.density is None:
            continue
        dens = RadialComponent(density=rc.density)
        m2[k] += integrate(dens, _square, (0.0, eps), abs_tol=1e-12)
        defect[k] += integrate(dens, _small_defect, (0.0, eps), abs_tol=1e-12)
        centering[k] += integrate(dens, _centering, (eps, math.inf),
                                  abs_tol=1e-12, g_moment=-1.0)
        tab = _JumpTable(rc.density, eps)
        if tab.mass > 0.0:
            tables[k] = tab
            dens_mass[k] = tab.mass
    mass = atom_mass + dens_mass
    rates = weight * mass
    live = np.flatnonzero(mass > 0.0)

    cov = ((weight * m2)[:, None, None] * (xi[:, :, None] * xi[:, None, :])).sum(axis=0)
    shift = ((weight * defect)[:, None] * xi).sum(axis=0)
    drift = t.gamma - ((weight * centering)[:, None] * xi).sum(axis=0) + shift

    # the atoms above eps all belong to live components: index them among those
    atom_owner = np.searchsorted(live, owner[big])
    atom_cum = np.cumsum(masses[big])
    first = np.searchsorted(atom_owner, np.arange(live.size), side="left")
    last = np.searchsorted(atom_owner, np.arange(live.size), side="right") - 1
    return _Machine(
        t.d, drift, _sqrt_or_none(t.Sigma),
        _sqrt_or_none(cov) if cfg.compensate_small_jumps else None,
        xi[live], rates[live], mass[live], atom_mass[live], locs[big], atom_cum,
        np.concatenate([[0.0], atom_cum])[first], last,
        [(int(np.searchsorted(live, k)), tab) for k, tab in tables.items()])


class _Streams:
    """Philox streams keyed by (seed, block); the top counter word holds the
    variate kind, so no two streams share a counter value."""

    def __init__(self, seed: int):
        self._seed = seed & 0xFFFFFFFFFFFFFFFF
        self._bits = np.random.Philox(key=np.array([self._seed, 0], np.uint64))
        self._gen = np.random.Generator(self._bits)

    def __call__(self, block: int, kind: int) -> np.random.Generator:
        # re-keying one generator costs a quarter of constructing a new one
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([0, 0, 0, kind], np.uint64),
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


# the last machine built for each live triplet (hashed by identity), with its
# key: eps, the compensation flag and the bytes of Sigma and gamma, so that
# changing those arrays in place builds a fresh machine
_MACHINES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _sample(t: Triplet, spec: IntegrandSpec, cfg: SimConfig) -> SampleSet:
    key = (cfg.eps, cfg.compensate_small_jumps, t.Sigma.tobytes(), t.gamma.tobytes())
    hit = _MACHINES.get(t)
    if hit is None or hit[0] != key:
        hit = _MACHINES[t] = key, _build_machine(t, cfg)
    mach = hit[1]
    if not mach.rates.size and not t.nu.is_zero():
        warnings.warn("jump cut eps leaves zero jump rate for a nonzero measure", ConfigError)
    scale = math.sqrt(spec.sq_integral)
    gauss = None if mach.gauss_root is None else scale * mach.gauss_root
    comp = None if mach.comp_root is None else scale * mach.comp_root
    drift = spec.lin_integral * mach.drift
    n_comp = mach.rates.size
    lam = mach.rates * spec.T
    streams = _Streams(cfg.seed)
    out = np.empty((cfg.paths, mach.d))
    for block, lo in enumerate(range(0, cfg.paths, BLOCK_PATHS)):
        n = min(BLOCK_PATHS, cfg.paths - lo)
        x = out[lo:lo + n]
        x[:] = drift
        if gauss is not None:
            x += _normals(streams(block, _GAUSS), gauss, n)
        if n_comp:
            counts = streams(block, _COUNTS).poisson(lam, (n, n_comp))
            slot = np.repeat(np.arange(n * n_comp), counts.ravel())
            if slot.size:
                u = streams(block, _JUMPS).random((slot.size, 2))
                w = spec.f(spec.T * (1.0 - u[:, 1])) * mach.radii(slot % n_comp, u[:, 0])
                # sum per (path, component), then over components per path:
                # with one component that is its sum times xi, as a product
                per = np.bincount(slot, w, n * n_comp).reshape(n, n_comp)
                rows = np.repeat(np.arange(n), n_comp)
                for j in range(mach.d):
                    x[:, j] += np.bincount(rows, (per * mach.xi[:, j]).ravel(), n)
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
    # one row of phases per z point, so each mean sums a contiguous row
    phase = np.array(pts, float).reshape(len(pts), s.d) @ s.draws.T
    vals = np.exp(1j * phase).mean(axis=1)
    return CharFnGrid(pts, tuple(complex(v) for v in vals))


def cf_distance(a: CharFnGrid, b: CharFnGrid) -> float:
    if a.zs != b.zs:
        raise GridMismatch("characteristic-function grids differ")
    return max(abs(x - y) for x, y in zip(a.values, b.values)) if a.values else 0.0
