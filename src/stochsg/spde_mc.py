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
cone, which makes causality checks exact per sample, and lets the
estimator compute only what its outputs read: noise and Psi_0 in the
backward light cones of the legs and of the interaction, and the last
hierarchy level through one adjoint field G^T f per leg, since a level
enters the estimates only through <f, Psi_k> = <G^T f, src_k>.
"""

from __future__ import annotations

import functools
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
                 realization: int, out: np.ndarray | None = None,
                 cells: np.ndarray | None = None) -> np.ndarray:
    """chi(t)-modulated white noise, N(0, 1/(dt dx)) per cell.

    Standard normals are drawn, in row-major order, for the flat cell
    indices ``cells`` (see noise_cells), and every other cell is 0; without
    ``cells`` every cell is drawn.  One Philox key per (seed, realization),
    so a realization does not depend on which chunk or worker draws it.
    Written into ``out`` (a zeroed C-contiguous (n_t, n_x) float64 block)
    when given, of which only the drawn cells are written, else into a new
    array; either way the array is returned.
    """
    key = np.array([seed, realization], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    pick = np.s_[:] if cells is None else cells
    chi = _chi_cells(grid, params.t_switch, params.chi_width)[pick]
    xi = rng.standard_normal(chi.shape)
    xi /= np.sqrt(grid.dt * grid.dx)
    xi *= chi
    if out is None:
        out = np.zeros((grid.n_t, grid.n_x))
    out.reshape(-1)[pick] = xi
    return out


@functools.lru_cache(maxsize=8)
def _chi_cells(grid: LatticeGrid, t_switch: float,
               chi_width: float) -> np.ndarray:
    """chi at every cell of the grid, flat in row-major order and read-only,
    computed once per (grid, t_switch, chi_width) for every realization."""
    col = np.repeat(chi_cutoff(grid.times, t_switch, chi_width), grid.n_x)
    col.setflags(write=False)
    return col


def noise_cells(grid: LatticeGrid, window: np.ndarray) -> np.ndarray:
    """Flat row-major indices of the source cells that solve_linear reads
    when it is limited to ``window`` (see light_cone_windows).

    Psi row n + 1 reads the filtered source row n on its window, so source
    row n is read on that window widened by one column on each side,
    clipped to the grid; on a periodic lattice column 0 also reads column
    n_x - 1 and column n_x - 1 reads column 0.  The last source row is
    never read.
    """
    read = np.zeros((grid.n_t, grid.n_x), dtype=bool)
    for n, (lo, hi) in enumerate(window[1:].tolist()):
        if lo >= hi:
            continue
        read[n, max(lo - 1, 0):hi + 1] = True
        if grid.boundary == "periodic" and lo == 0:
            read[n, -1] = True
        if grid.boundary == "periodic" and hi == grid.n_x:
            read[n, 0] = True
    return np.flatnonzero(read)


def _nonzero_box(values: np.ndarray) -> tuple[int, int, int, int]:
    """Rows [n0, n1) and columns [j0, j1) spanned by the non-zero cells of a
    (time, space) array; (0, 0, 0, 0) if every cell is zero."""
    live = values != 0
    rows = np.flatnonzero(live.any(axis=1))
    if rows.size == 0:
        return 0, 0, 0, 0
    cols = np.flatnonzero(live.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _clip_windows(lo: np.ndarray, hi: np.ndarray,
                  grid: LatticeGrid) -> np.ndarray:
    """Per-row column windows [lo, hi) clipped to the grid, as an (n_t, 2)
    int array.  On a periodic lattice a window that leaves the row wraps
    round, so it becomes the whole row."""
    if grid.boundary == "periodic":
        wraps = (lo < hi) & ((lo < 0) | (hi > grid.n_x))
        lo, hi = np.where(wraps, 0, lo), np.where(wraps, grid.n_x, hi)
    return np.stack([np.clip(lo, 0, grid.n_x), np.clip(hi, 0, grid.n_x)],
                    axis=1)


def light_cone_windows(grid: LatticeGrid, leg_grids, g_grid: np.ndarray):
    """Per-row column windows of the Psi_0 solve and of the Psi_1 solve,
    each an (n_t, 2) int array of [lo, hi), empty where hi <= lo.

    A leapfrog cell at row n + 1 reads its neighbours at row n, its own
    cell at row n - 1 and the filtered source at row n, which spans three
    source cells.  So a field is exact on a box when it is solved on the
    box's backward cone: the box, one cell wider per row back in time.
    Psi_0 is read on the sampled legs and on g, so it is solved on the hull
    of their backward cones.  Psi_1 is read only on g's box, to build the
    Psi_2 source.  Its source vanishes off g's box, so it vanishes outside
    g's forward cone, which the filter widens by one cell and which starts
    one row after g's first row; its window is g's backward cone cut to
    that forward cone.  Every cell a windowed cell reads is then either in
    the window of its row or exactly zero.
    """
    rows = np.arange(grid.n_t)

    def backward(boxes):
        lo = np.full(grid.n_t, grid.n_x)
        hi = np.zeros(grid.n_t, dtype=int)
        for _, n1, j0, j1 in boxes:
            back = n1 - 1 - rows
            lo = np.where(back >= 0, np.minimum(lo, j0 - back), lo)
            hi = np.where(back >= 0, np.maximum(hi, j1 + back), hi)
        return _clip_windows(lo, hi, grid)

    g_box = _nonzero_box(g_grid)
    psi0 = backward([*map(_nonzero_box, leg_grids), g_box])
    n0, n1, j0, j1 = g_box
    if n0 == n1:
        return psi0, np.zeros_like(psi0)
    ahead = rows - n0
    cone = _clip_windows(np.where(ahead >= 1, j0 - ahead, grid.n_x),
                         np.where(ahead >= 1, j1 + ahead, 0), grid)
    g_back = backward([g_box])
    return psi0, np.stack([np.maximum(g_back[:, 0], cone[:, 0]),
                           np.minimum(g_back[:, 1], cone[:, 1])], axis=1)


def _neighbours(row: np.ndarray, lo: int, hi: int, periodic: bool):
    """(left, centre, right) columns of ``row`` around the columns [lo, hi);
    past an edge column the neighbour wraps round when periodic and is a
    0.0 column otherwise."""
    def edge(j):
        return row[..., [j]] if periodic else np.zeros_like(row[..., :1])
    left, right = row[..., max(lo - 1, 0):hi - 1], row[..., lo + 1:hi + 1]
    if lo == 0:
        left = np.concatenate([edge(-1), left], axis=-1)
    if hi == row.shape[-1]:
        right = np.concatenate([right, edge(0)], axis=-1)
    return left, row[..., lo:hi], right


def _laplacian(cur: np.ndarray, lo: int, hi: int, dx: float,
               periodic: bool) -> np.ndarray:
    """Discrete d_xx of ``cur`` on the columns [lo, hi)."""
    l, c, r = _neighbours(cur, lo, hi, periodic)
    if periodic:
        return (l - 2.0 * c + r) / dx ** 2
    # zero-Dirichlet edges: the pad keeps reflections outside probe cones
    return (r - 2.0 * c + l) / dx ** 2


def _binomial_filter(row: np.ndarray, lo: int, hi: int,
                     periodic: bool) -> np.ndarray:
    """3-point binomial smoothing (1/4, 1/2, 1/4) along the space axis, on
    the columns [lo, hi).

    At unit Courant the leapfrog stencil propagates the two checkerboard
    parities independently, so raw white noise produces a pointwise field
    variance twice the continuum one.  The filter annihilates the odd-parity
    mode (transfer (1 + cos k dx)/2 vanishes at k = pi/dx) and perturbs
    smooth sources only at second order.  Off a Dirichlet edge the
    neighbour is 0.0, added as such so that edge cells round alike.
    """
    l, c, r = _neighbours(row, lo, hi, periodic)
    return 0.25 * l + 0.5 * c + 0.25 * r


def solve_linear(source: np.ndarray, grid: LatticeGrid, m: float,
                 window: np.ndarray | None = None) -> np.ndarray:
    """Leapfrog solve of (dtt - dxx + m^2) psi = source, zero initial data.

    The source is smoothed with the binomial parity filter (see
    _binomial_filter) as each row is stepped; ``source`` may carry leading
    batch axes, the last two are (time, space).  Deterministic given the
    source.

    ``window`` ((n_t, 2) ints, see light_cone_windows) limits each row to
    the columns [lo, hi); cells outside stay 0.  A computed cell takes the
    same float operations as in the whole-row solve (window None), so it
    is exact when every cell it reads is.
    """
    periodic = grid.boundary == "periodic"
    dt2 = grid.dt ** 2
    mm = m * m
    rows = [[0, grid.n_x]] * grid.n_t if window is None else window.tolist()
    psi = np.zeros(source.shape)
    for n, (lo, hi) in enumerate(rows[1:]):
        if lo >= hi:
            continue
        s = _binomial_filter(source[..., n, :], lo, hi, periodic)
        if n == 0:
            # first step from psi(0) = d_t psi(0) = 0: psi_1 = dt^2/2 * S_0
            psi[..., 1, lo:hi] = 0.5 * dt2 * s
            continue
        cur = psi[..., n, :]
        here = cur[..., lo:hi]
        acc = _laplacian(cur, lo, hi, grid.dx, periodic) - mm * here + s
        psi[..., n + 1, lo:hi] = (2.0 * here - psi[..., n - 1, lo:hi]
                                  + dt2 * acc)
    return psi


def adjoint_field(f_grid: np.ndarray, grid: LatticeGrid,
                  m: float) -> np.ndarray:
    """a = G^T f for the linear map G = solve_linear (whole rows), so that
    sum(f * solve_linear(s)) == sum(a * s) for every source s, to rounding.

    With K = 2 + dt^2 (d_xx - m^2), solve_linear is the recursion
    psi_{n+1} = K psi_n - psi_{n-1} + r_n from psi_0 = 0, forced by
    r_n = c_n dt^2 B s_n (B the binomial filter, c_0 = 1/2, else 1).  K and
    B are symmetric under both boundaries, so the adjoint is the backward
    sweep lam_n = f_n + K lam_{n+1} - lam_{n+2} from lam = 0 past the last
    row, and a_n = c_n dt^2 B lam_{n+1}; the last source row is never read.
    This is the discrete adjoint of Giles & Pierce, Flow Turb. Combust. 65
    (2000).
    """
    periodic = grid.boundary == "periodic"
    dt2 = grid.dt ** 2
    mm = m * m
    n_t, n_x = grid.n_t, grid.n_x
    lam = np.zeros((n_t + 2, n_x))
    for n in range(n_t - 1, 0, -1):
        nxt = lam[n + 1]
        acc = _laplacian(nxt, 0, n_x, grid.dx, periodic) - mm * nxt
        lam[n] = f_grid[n] + 2.0 * nxt - lam[n + 2] + dt2 * acc
    adj = np.zeros((n_t, n_x))
    adj[:-1] = dt2 * _binomial_filter(lam[1:n_t], 0, n_x, periodic)
    adj[0] *= 0.5
    return adj


def solve_hierarchy(psi0: np.ndarray, grid: LatticeGrid, params: ModelParams,
                    g_grid: np.ndarray, max_order: int = 2,
                    window: np.ndarray | None = None):
    """The sine-Gordon sources of Psi_1 .. Psi_max_order built from Psi_0,
    each on the index box of g's non-zero cells (it is 0 elsewhere), with
    shape (..., n1 - n0, j1 - j0).

    Only the levels below the last are solved: the estimates read the
    last level through smeared values, <f, G s> = <G^T f, s>
    (adjoint_field).  So at max_order 2 Psi_1 is solved, with ``window``
    passed to solve_linear, to build the Psi_2 source; Psi_0 and Psi_1 must
    be exact on g's box.
    """
    if max_order not in (1, 2):
        raise ValueError("max_order must be 1 or 2")
    a = params.a
    n0, n1, j0, j1 = _nonzero_box(g_grid)
    on_g = np.s_[..., n0:n1, j0:j1]
    g = g_grid[on_g]
    src1 = SOURCE_SIGN * a * g * np.sin(a * psi0[on_g])
    if max_order == 1:
        return (src1,)
    whole = np.zeros(psi0.shape)
    whole[on_g] = src1
    psi1 = solve_linear(whole, grid, params.m, window)
    return src1, SOURCE_SIGN * a * a * g * np.cos(a * psi0[on_g]) * psi1[on_g]


@dataclass(frozen=True)
class ObservableSpec:
    """Smeared moment of the hierarchy: expectation or two-point, by order."""

    obs_id: str
    kind: str               # "expect" | "corr"
    legs: tuple[str, ...]
    order: int


def _smear(field: np.ndarray, weights: np.ndarray, cell: float) -> np.ndarray:
    return np.sum(field * weights, axis=(-2, -1)) * cell


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
    count.  Only what an estimate reads is computed:
    - noise on the cells the windowed Psi_0 solve reads (noise_cells);
    - Psi_0 in the backward light cones of the legs and of the interaction
      (light_cone_windows), smeared over each leg's index box;
    - the last hierarchy level through one adjoint field per leg,
      <f, Psi_k> = <G^T f, src_k> over g's box (adjoint_field), so orders
      0-1 solve Psi_0 alone and order 2 solves Psi_1 only on g's box.
    Each McEstimate carries lambda^order so it is directly comparable with
    the series coefficients.
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

    window0, window1 = light_cone_windows(grid, f_grids.values(), g_grid)
    cells = noise_cells(grid, window0)
    legs = {}
    for name, f in f_grids.items():
        n0, n1, j0, j1 = _nonzero_box(f)
        legs[name] = (np.s_[..., n0:n1, j0:j1], f[n0:n1, j0:j1])
    if max_order >= 1:
        n0, n1, j0, j1 = _nonzero_box(g_grid)
        adjoint_on_g = {name: adjoint_field(f, grid, params.m)[n0:n1, j0:j1]
                        for name, f in f_grids.items()}

    def run_chunk(lo: int, hi: int):
        noise = np.zeros((hi - lo, grid.n_t, grid.n_x))
        for i in range(hi - lo):
            sample_noise(grid, params, seed, lo + i, out=noise[i],
                         cells=cells)
        psi0 = solve_linear(noise, grid, params.m, window0)
        smeared = {}
        for name, (on_f, f) in legs.items():
            smeared[(name, 0)] = _smear(psi0[on_f], f, cell)
        if max_order >= 1:
            sources = solve_hierarchy(psi0, grid, params, g_grid, max_order,
                                      window1)
            for name, adj in adjoint_on_g.items():
                for k, src in enumerate(sources, start=1):
                    smeared[(name, k)] = _smear(src, adj, cell)
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
