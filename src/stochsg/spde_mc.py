"""Lattice Monte Carlo oracle for the stochastic sine-Gordon equation.

An explicit leapfrog scheme solves the linear stochastic wave equation with
switched-on white noise and the perturbative hierarchy in the coupling,

    (box + m^2) Psi_0 = chi xi
    (box + m^2) Psi_1 = s a g sin(a Psi_0)
    (box + m^2) Psi_2 = s a^2 g cos(a Psi_0) Psi_1

with the single source sign s = -1 fixed by the equation
(box + m^2) psi + lambda g a sin(a psi) = chi xi.  Realizations are
index-addressable through a counter-based generator (Philox keyed by
(seed, realization)), so runs are reproducible and parallelizable.

With dt = dx the leapfrog stencil propagates on the exact lattice light
cone, which makes causality checks exact per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolation, ConfigError
from .kernels import ModelParams, SmearingFunction, chi_cutoff, parallel_map
from .results import McEstimate

SOURCE_SIGN = -1.0
BOUNDARIES = ("absorbingPad", "periodic")
MIN_REALIZATIONS = 100
MAX_ORDER = 2   # the hierarchy is solved through Psi_2
MAX_CELLS = 2 ** 28   # lattice cells per field: 2 GiB of float64


@dataclass(frozen=True)
class LatticeGrid:
    dt: float
    dx: float
    n_t: int
    n_x: int
    t0: float
    x0: float
    boundary: str = "absorbingPad"  # one of BOUNDARIES

    def __post_init__(self):
        if self.dt > self.dx * (1 + 1e-12):
            raise CflViolation(f"dt = {self.dt} > dx = {self.dx}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_t)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n_x)

    def sample(self, f: SmearingFunction) -> np.ndarray:
        T, X = np.meshgrid(self.times, self.xs, indexing="ij")
        return f(T, X)

    def csv_descriptor(self) -> str:
        return (f"dt={self.dt!r};dx={self.dx!r};nT={self.n_t};nX={self.n_x};"
                f"t0={self.t0!r};x0={self.x0!r};bc={self.boundary}")


def grid_for(params: ModelParams, smearings, dt: float,
             pad: float = 0.25, boundary: str = "absorbingPad") -> LatticeGrid:
    """Grid starting at the noise switch-on whose spatial extent covers the
    domain of dependence of every smearing support, plus a pad.

    ConfigError if no such lattice can be sized: the switch-on is not
    before the end of the supports, the cell count is not finite or above
    MAX_CELLS, or dt^2 overflows.
    """
    t_max = max(f.support_box()[1] for f in smearings)
    x_lo = min(f.support_box()[2] for f in smearings)
    x_hi = max(f.support_box()[3] for f in smearings)
    t0 = params.t_switch
    span = t_max - t0
    x0 = x_lo - span - pad
    width = (x_hi + span + pad) - x0
    if not span > 0:
        raise ConfigError(f"params.t_switch = {t0!r} is not before the end "
                          f"of the smearing supports, t = {t_max!r}")
    # float cell counts, inf when they overflow
    n_t, n_x = span / dt + 2, width / dt + 1
    if not (n_t * n_x <= MAX_CELLS and math.isfinite(dt * dt)):
        raise ConfigError(
            f"mc lattice cannot be sized: dt = {dt!r} over t in [{t0!r}, "
            f"{t_max!r}] with pad {pad!r} gives {n_t:.3g} x {n_x:.3g} cells "
            f"(at most {MAX_CELLS}) and dt^2 = {dt * dt!r}")
    return LatticeGrid(dt, dt, math.ceil(span / dt) + 2,
                       math.ceil(width / dt) + 1, t0, x0, boundary)


def sample_noise(grid: LatticeGrid, params: ModelParams, seed: int,
                 realization: int) -> np.ndarray:
    """chi(t)-modulated white noise, N(0, 1/(dt dx)) per cell."""
    key = np.array([seed, realization], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    xi = rng.standard_normal((grid.n_t, grid.n_x)) / np.sqrt(grid.dt * grid.dx)
    chi = chi_cutoff(grid.times, params.t_switch, params.chi_width)
    return xi * chi[:, None]


def _laplacian(rows: np.ndarray, dx: float, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(rows, 1, axis=-1) - 2.0 * rows
                + np.roll(rows, -1, axis=-1)) / dx ** 2
    out = np.zeros_like(rows)
    out[..., 1:-1] = (rows[..., 2:] - 2.0 * rows[..., 1:-1]
                      + rows[..., :-2]) / dx ** 2
    # zero-Dirichlet edges: the pad keeps reflections outside probe cones
    out[..., 0] = (rows[..., 1] - 2.0 * rows[..., 0]) / dx ** 2
    out[..., -1] = (rows[..., -2] - 2.0 * rows[..., -1]) / dx ** 2
    return out


def _binomial_filter(rows: np.ndarray, periodic: bool) -> np.ndarray:
    """3-point binomial smoothing (1/4, 1/2, 1/4) along the space axis.

    At unit Courant the leapfrog stencil propagates the two checkerboard
    parities independently, so raw white noise produces a pointwise field
    variance twice the continuum one.  The filter annihilates the odd-parity
    mode (transfer (1 + cos k dx)/2 vanishes at k = pi/dx) and perturbs
    smooth sources only at second order.
    """
    if periodic:
        left = np.roll(rows, 1, axis=-1)
        right = np.roll(rows, -1, axis=-1)
    else:
        left = np.zeros_like(rows)
        right = np.zeros_like(rows)
        left[..., 1:] = rows[..., :-1]
        right[..., :-1] = rows[..., 1:]
    return 0.25 * left + 0.5 * rows + 0.25 * right


def solve_linear(source: np.ndarray, grid: LatticeGrid, m: float) -> np.ndarray:
    """Leapfrog solve of (dtt - dxx + m^2) psi = source, zero initial data.

    The source is pre-smoothed with the binomial parity filter (see
    _binomial_filter); ``source`` may carry leading batch axes, the last two
    are (time, space).  Deterministic given the source.
    """
    if grid.dt > grid.dx * (1 + 1e-12):
        raise CflViolation(f"dt = {grid.dt} > dx = {grid.dx}")
    periodic = grid.boundary == "periodic"
    dt2 = grid.dt ** 2
    source = _binomial_filter(source, periodic)
    psi = np.zeros(source.shape)
    # first step from psi(0) = d_t psi(0) = 0: psi_1 = dt^2/2 * S_0
    psi[..., 1, :] = 0.5 * dt2 * source[..., 0, :]
    for n in range(1, grid.n_t - 1):
        cur = psi[..., n, :]
        acc = (_laplacian(cur, grid.dx, periodic) - m * m * cur
               + source[..., n, :])
        psi[..., n + 1, :] = 2.0 * cur - psi[..., n - 1, :] + dt2 * acc
    return psi


def solve_hierarchy(psi0: np.ndarray, grid: LatticeGrid, params: ModelParams,
                    g_grid: np.ndarray, max_order: int = 2):
    """Psi_1 (and Psi_2) driven by the sine-Gordon sources built from Psi_0."""
    if max_order not in (1, 2):
        raise ValueError("max_order must be 1 or 2")
    a = params.a
    src1 = SOURCE_SIGN * a * g_grid * np.sin(a * psi0)
    psi1 = solve_linear(src1, grid, params.m)
    if max_order == 1:
        return (psi1,)
    src2 = SOURCE_SIGN * a * a * g_grid * np.cos(a * psi0) * psi1
    psi2 = solve_linear(src2, grid, params.m)
    return psi1, psi2


@dataclass(frozen=True)
class ObservableSpec:
    """Smeared moment of the hierarchy: expectation or two-point, by order."""

    obs_id: str
    kind: str               # "expect" | "corr"
    legs: tuple[str, ...]
    order: int


def _smear(field: np.ndarray, f_grid: np.ndarray, cell: float) -> np.ndarray:
    return np.sum(field * f_grid, axis=(-2, -1)) * cell


def _per_sample_values(obs: ObservableSpec, smeared: dict) -> np.ndarray:
    """lambda-order extraction from products of hierarchy fields."""
    if obs.kind == "expect":
        return smeared[(obs.legs[0], obs.order)]
    f1, f2 = obs.legs
    s = smeared
    if obs.order == 0:
        return s[(f1, 0)] * s[(f2, 0)]
    if obs.order == 1:
        return s[(f1, 0)] * s[(f2, 1)] + s[(f1, 1)] * s[(f2, 0)]
    return (s[(f1, 0)] * s[(f2, 2)] + s[(f1, 2)] * s[(f2, 0)]
            + s[(f1, 1)] * s[(f2, 1)])


def estimate_correlator(observables, grid: LatticeGrid, params: ModelParams,
                        smearings: dict[str, SmearingFunction],
                        n_samples: int, seed: int, interaction: str = "g",
                        chunk: int = 64) -> dict[str, McEstimate]:
    """Means and standard errors of smeared hierarchy moments.

    Deterministic for fixed (grid, params, seed, n_samples): realizations are
    keyed individually and reduced in index order, independent of the worker
    count.  Each McEstimate carries lambda^order so it is directly comparable
    with the series coefficients.
    """
    observables = list(observables)
    if n_samples < MIN_REALIZATIONS:
        raise ValueError(f"need at least {MIN_REALIZATIONS} realizations")
    max_order = max((o.order for o in observables), default=0)
    if max_order > MAX_ORDER:
        raise ConfigError(f"MC order {max_order} beyond the simulated "
                          f"hierarchy (<= {MAX_ORDER})")
    leg_names = sorted({l for o in observables for l in o.legs})
    f_grids = {name: grid.sample(smearings[name]) for name in leg_names}
    g_grid = grid.sample(smearings[interaction])
    cell = grid.dt * grid.dx

    def run_chunk(lo: int, hi: int):
        noise = np.stack([sample_noise(grid, params, seed, r)
                          for r in range(lo, hi)])
        psi0 = solve_linear(noise, grid, params.m)
        fields = {0: psi0}
        if max_order >= 1:
            hier = solve_hierarchy(psi0, grid, params, g_grid, max_order)
            for k, f in enumerate(hier, start=1):
                fields[k] = f
        smeared = {}
        for name in leg_names:
            for order, fld in fields.items():
                smeared[(name, order)] = _smear(fld, f_grids[name], cell)
        return {o.obs_id: _per_sample_values(o, smeared) for o in observables}

    parts = parallel_map(lambda lo: run_chunk(lo, min(lo + chunk, n_samples)),
                         range(0, n_samples, chunk))

    out = {}
    for o in observables:
        vals = np.concatenate([p[o.obs_id] for p in parts])
        lam_n = params.lam ** o.order
        mean = float(np.mean(vals)) * lam_n
        stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) * abs(lam_n)
        out[o.obs_id] = McEstimate(mean, stderr, len(vals), seed)
    return out
