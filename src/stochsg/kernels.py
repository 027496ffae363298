"""Propagator kernels of the 2D Minkowski Klein-Gordon operator and the
noise covariance Q.

Conventions.  A point is z = (t, x) with Lorentzian square z^2 = -t^2 + x^2,
computed as (x - t) * (x + t) to avoid cancellation near the cone.  Null
coordinates are u = t - x, v = t + x; the closed future cone of the origin
is {u >= 0, v >= 0}.

The retarded kernel carries a global sign convention: "paper" gives
-1/2 * J0(m * sqrt(t^2 - x^2)) * theta(t - |x|), "green" the genuine Green
kernel +1/2 * J0 * theta inverting dt^2 - dx^2 + m^2.  Quantities quadratic
in the propagator (Q in particular) do not depend on the flag.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (ConfigError, EvalOnLightcone, NonFiniteValue,
                     OutOfDomain, QTableFormatError)
from .results import QuadResult

LIGHTCONE_FLOOR = 1e-12


class SpacetimePoint(NamedTuple):
    t: float
    x: float


def lorentzian_square(t, x):
    """z^2 = -t^2 + x^2 evaluated as (x - t)(x + t)."""
    return (np.asarray(x) - np.asarray(t)) * (np.asarray(x) + np.asarray(t))


def in_future_cone(t, x):
    """Membership of the closed future cone J^+(0)."""
    t = np.asarray(t)
    return t >= np.abs(np.asarray(x))


@dataclass(frozen=True)
class ModelParams:
    m: float = 0.0              # mass
    a: float = 1.0              # vertex charge
    hbar: float = 1.0
    lam: float = 1.0            # coupling
    mu: float = 1.0             # diamond half-size
    mu_ref: float | None = None  # log-kernel reference scale; defaults to mu
    t_switch: float = 0.0       # noise switch-on time T
    sign_convention: str = "paper"
    chi_width: float = 1.0      # ramp width of the switch-on cutoff

    def __post_init__(self):
        if self.mu_ref is None:
            object.__setattr__(self, "mu_ref", self.mu)
        if self.sign_convention not in ("paper", "green"):
            raise ValueError(f"unknown sign convention {self.sign_convention!r}")
        if self.mu <= 0 or self.chi_width <= 0:
            raise ValueError("mu and chi_width must be positive")
        if self.m < 0 or self.a < 0 or self.hbar < 0 or self.lam < 0:
            raise ValueError("m, a, hbar, lam must be nonnegative")

    @property
    def alpha(self) -> float:
        """Ultraviolet exponent a^2 hbar / (4 pi)."""
        return self.a ** 2 * self.hbar / (4.0 * np.pi)

    @property
    def retarded_sign(self) -> float:
        return -1.0 if self.sign_convention == "paper" else 1.0

    def with_(self, **kw) -> "ModelParams":
        return replace(self, **kw)


# ---------------------------------------------------------------------------
# switch-on cutoff
# ---------------------------------------------------------------------------

def _mollifier_step(s):
    """C-infinity monotone step: 0 for s<=0, 1 for s>=1."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = np.where(s > 0.0, np.exp(-1.0 / np.where(s > 0.0, s, 1.0)), 0.0)
        g = np.where(s < 1.0, np.exp(-1.0 / np.where(s < 1.0, 1.0 - s, 1.0)), 0.0)
    return f / (f + g)


def chi_cutoff(t, T: float, width: float = 1.0):
    """Smooth switch-on: 0 for t < T, 1 for t >= T + width."""
    return _mollifier_step((np.asarray(t, dtype=float) - T) / width)


# ---------------------------------------------------------------------------
# propagator kernels, all as functions of the difference z = (t, x)
# ---------------------------------------------------------------------------

def retarded_massive(t, x, m: float, sign: float = -1.0):
    """sign * 1/2 * J0(m sqrt(t^2 - x^2)) on the closed future cone."""
    from scipy.special import j0 as _j0
    if m < 0:
        raise ValueError("mass must be nonnegative")
    inside = in_future_cone(t, x)
    s2 = np.maximum(-lorentzian_square(t, x), 0.0)
    # J0 only inside the cone: the same values as np.where over every point
    cone = 0.5 * sign * _j0(m * np.sqrt(s2[inside]))
    out = np.zeros(inside.shape, dtype=cone.dtype)
    out[inside] = cone
    return out


def advanced(t, x, m: float, sign: float = -1.0):
    """Reflection advanced(z) = retarded(-z); supported in the past cone."""
    return retarded_massive(-np.asarray(t), -np.asarray(x), m, sign)


def pauli_jordan(t, x, m: float, sign: float = -1.0):
    """Commutator kernel Delta = Delta^R - Delta^A."""
    return retarded_massive(t, x, m, sign) - advanced(t, x, m, sign)


def _check_off_cone(t, x, floor: float):
    if np.any(np.abs(lorentzian_square(t, x)) < floor):
        raise EvalOnLightcone("|z^2| below the lightcone floor %g" % floor)


def hadamard_massless(t, x, mu_ref: float, floor: float = LIGHTCONE_FLOOR,
                      check: bool = True):
    """H0(z) = -(1/4pi) log|z^2 / (4 mu_ref^2)|."""
    if check:
        _check_off_cone(t, x, floor)
    s2 = np.abs(lorentzian_square(t, x))
    return -np.log(np.maximum(s2, floor) / (4.0 * mu_ref ** 2)) / (4.0 * np.pi)


def hadamard_massive(t, x, m: float, floor: float = LIGHTCONE_FLOOR,
                     check: bool = True):
    """H(z) = (1/2pi) Re K0(m sqrt(z^2)).

    Spacelike separation gives K0 of a real argument; timelike separation
    uses Re K0(i m s) = -(pi/2) Y0(m s).
    """
    from scipy.special import k0 as _k0, y0 as _y0
    if m <= 0:
        raise ValueError("hadamard_massive needs m > 0; use hadamard_massless")
    if check:
        _check_off_cone(t, x, floor)
    s2 = lorentzian_square(t, x)
    mag = np.sqrt(np.maximum(np.abs(s2), floor))
    # K0 only on spacelike points, Y0 only on the others
    space = s2 > 0.0
    time = ~space
    k0 = _k0(m * mag[space]) / (2.0 * np.pi)
    y0 = -_y0(m * mag[time]) / 4.0
    out = np.empty(space.shape, dtype=np.result_type(k0, y0))
    out[space] = k0
    out[time] = y0
    return out


def hadamard(t, x, p: ModelParams, floor: float = LIGHTCONE_FLOOR,
             check: bool = True):
    """Mass-aware Hadamard kernel: massive for m>0, else the log kernel."""
    if p.m > 0:
        return hadamard_massive(t, x, p.m, floor, check)
    return hadamard_massless(t, x, p.mu_ref, floor, check)


def wightman(t, x, p: ModelParams, floor: float = LIGHTCONE_FLOOR,
             check: bool = True):
    """omega = H + (i/2) Delta."""
    h = hadamard(t, x, p, floor, check)
    return h + 0.5j * pauli_jordan(t, x, p.m, p.retarded_sign)


def feynman(t, x, p: ModelParams, floor: float = LIGHTCONE_FLOOR,
            check: bool = True):
    """Delta_F = omega + i Delta^A."""
    return wightman(t, x, p, floor, check) + 1j * advanced(t, x, p.m, p.retarded_sign)


def antifeynman(t, x, p: ModelParams, floor: float = LIGHTCONE_FLOOR,
                check: bool = True):
    """Delta_AF = omega - i Delta^R."""
    return wightman(t, x, p, floor, check) - 1j * retarded_massive(t, x, p.m, p.retarded_sign)


# ---------------------------------------------------------------------------
# smearing functions: finite mixtures of scaled C-infinity bumps
# ---------------------------------------------------------------------------

_MIN_RADIUS = math.sqrt(np.finfo(float).tiny)
_MAX_RADIUS = math.sqrt(np.finfo(float).max)


@dataclass(frozen=True)
class BumpComponent:
    center: SpacetimePoint
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        # the profile divides by radius^2, which must be a normal float
        if not _MIN_RADIUS <= self.radius <= _MAX_RADIUS:
            raise ValueError(f"bump radius {self.radius} must be in "
                             f"[{_MIN_RADIUS:.3g}, {_MAX_RADIUS:.3g}]")


def _bump_profile(r2):
    """exp(1 - 1/(1 - r2)) for r2 < 1, zero outside; peak value 1."""
    r2 = np.asarray(r2, dtype=float)
    inside = r2 < 1.0
    safe = np.where(inside, r2, 0.0)
    with np.errstate(over="ignore"):
        val = np.exp(1.0 - 1.0 / (1.0 - safe))
    return np.where(inside, val, 0.0)


def _component_value(c: BumpComponent, t, x):
    r2 = ((t - c.center.t) ** 2 + (x - c.center.x) ** 2) / c.radius ** 2
    return c.amplitude * _bump_profile(r2)


@dataclass(frozen=True)
class SmearingFunction:
    """Compactly supported test function: a finite sum of Euclidean bumps."""

    components: tuple[BumpComponent, ...]
    name: str = "f"

    @staticmethod
    def bump(t0: float, x0: float, radius: float, amplitude: float = 1.0,
             name: str = "f") -> "SmearingFunction":
        return SmearingFunction(
            (BumpComponent(SpacetimePoint(t0, x0), radius, amplitude),), name)

    def __call__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        total = np.zeros(np.broadcast(t, x).shape)
        for c in self.components:
            total = total + _component_value(c, t, x)
        return total

    def support_box(self) -> tuple[float, float, float, float]:
        """(tmin, tmax, xmin, xmax) bounding the support."""
        tmin = min(c.center.t - c.radius for c in self.components)
        tmax = max(c.center.t + c.radius for c in self.components)
        xmin = min(c.center.x - c.radius for c in self.components)
        xmax = max(c.center.x + c.radius for c in self.components)
        return tmin, tmax, xmin, xmax

    def inside_diamond(self, mu: float) -> bool:
        umin, umax, vmin, vmax = self.null_box()
        return umin > -mu and umax < mu and vmin > -mu and vmax < mu

    def null_box(self) -> tuple[float, float, float, float]:
        """(umin, umax, vmin, vmax) bounding the support in the null
        coordinates u = t - x, v = t + x: a disk of radius r reaches
        r sqrt(2) in each."""
        r2 = np.sqrt(2.0)
        u = [(c.center.t - c.center.x, c.radius * r2) for c in self.components]
        v = [(c.center.t + c.center.x, c.radius * r2) for c in self.components]
        return (min(a - r for a, r in u), max(a + r for a, r in u),
                min(a - r for a, r in v), max(a + r for a, r in v))

    def is_nonnegative(self) -> bool:
        return all(c.amplitude >= 0 for c in self.components)

    def _component_grids(self, n: int):
        """(component, T, X, W) for each bump: the n x n tensor
        Gauss-Legendre nodes over its box and their weights."""
        gl_x, gl_w = np.polynomial.legendre.leggauss(n)
        for c in self.components:
            T, X = np.meshgrid(c.center.t + c.radius * gl_x,
                               c.center.x + c.radius * gl_x, indexing="ij")
            yield c, T, X, np.outer(gl_w, gl_w) * c.radius ** 2

    def weighted_nodes(self, n: int = 24) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes (k, 2) and weights including the f values.

        Sum_j w_j K(z - y_j) approximates the smeared kernel (K f)(z).
        """
        pts, wts = [], []
        for c, T, X, W in self._component_grids(n):
            vals = _component_value(c, T, X)
            keep = vals != 0.0
            pts.append(np.stack([T[keep], X[keep]], axis=-1))
            wts.append((W * vals)[keep])
        return np.concatenate(pts, axis=0), np.concatenate(wts, axis=0)

    def integral(self, n: int = 48) -> float:
        _, w = self.weighted_nodes(n)
        return float(np.sum(w))

    def norm_lq(self, q: float, n: int = 48) -> float:
        """L^q norm over the plane (the support is compact).

        Component k integrates its share |a_k phi_k| / sum_j |a_j phi_j| of
        |f|^q over its own box, so overlapping bumps count once; q = inf
        gives the largest |f| at those nodes and at the bump centers.
        """
        top = 0.0
        parts = []   # (|f|, weight) at each component's nodes
        for c, T, X, W in self._component_grids(n):
            f = np.abs(self(T, X))
            top = max(top, float(f.max()))
            if q == np.inf:
                top = max(top, abs(float(self(c.center.t, c.center.x))))
                continue
            mine = np.abs(_component_value(c, T, X))
            every = sum(np.abs(_component_value(d, T, X))
                        for d in self.components)
            share = np.divide(mine, every, out=np.zeros_like(mine),
                              where=every > 0)
            parts.append((f, W * share))
        if q == np.inf:
            return top
        # |f| / scale keeps the powers in range; scale is 1 whenever
        # max|f|^q is a normal float, so such norms keep their bits
        with np.errstate(over="ignore", under="ignore"):
            power = np.float64(top) ** q
        normal = top == 0.0 or np.finfo(float).tiny <= power < np.inf
        scale = 1.0 if normal else math.ldexp(1.0, math.frexp(top)[1])
        total = sum(float(np.sum(w * (f / scale) ** q)) for f, w in parts)
        return scale * total ** (1.0 / q)


# ---------------------------------------------------------------------------
# noise covariance Q
# ---------------------------------------------------------------------------

def covariance_q0_sharp(z: SpacetimePoint, zp: SpacetimePoint, T: float) -> float:
    """Closed-form massless Q with a sharp theta(t - T) cutoff.

    The intersection of two past cones is the past cone of the null-coordinate
    meet; truncated at t >= T it is a triangle of Euclidean area (t* - T)^2,
    and the two factors of +-1/2 contribute 1/4.
    """
    ustar = min(z.t - z.x, zp.t - zp.x)
    vstar = min(z.t + z.x, zp.t + zp.x)
    tstar = 0.5 * (ustar + vstar)
    if tstar <= T:
        return 0.0
    return 0.25 * (tstar - T) ** 2


def _gl_nodes(lo, hi, n):
    """Affine Gauss-Legendre nodes/weights on [lo, hi]; lo/hi may be arrays."""
    gx, gw = np.polynomial.legendre.leggauss(n)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * gx, half * gw


def _q_segment(t, x, tp, xp, p: ModelParams, lo, hi, n_outer: int, n_inner: int):
    """Integral of chi^2 * Delta^R Delta^R over t-hat in [lo, hi], vectorized."""
    from scipy.special import j0 as _j0
    th, wout = _gl_nodes(lo, hi, n_outer)              # (..., n_outer)
    chi2 = chi_cutoff(th, p.t_switch, p.chi_width) ** 2
    dt1 = t[..., None] - th
    dt2 = tp[..., None] - th
    xlo = np.maximum(x[..., None] - dt1, xp[..., None] - dt2)
    xhi = np.minimum(x[..., None] + dt1, xp[..., None] + dt2)
    length = np.maximum(xhi - xlo, 0.0)
    if p.m == 0.0:
        inner = 0.25 * length
    else:
        xh, winn = _gl_nodes(xlo, xhi, n_inner)        # (..., n_outer, n_inner)
        s1 = np.maximum(dt1[..., None] ** 2 - (x[..., None, None] - xh) ** 2, 0.0)
        s2 = np.maximum(dt2[..., None] ** 2 - (xp[..., None, None] - xh) ** 2, 0.0)
        vals = 0.25 * _j0(p.m * np.sqrt(s1)) * _j0(p.m * np.sqrt(s2))
        inner = np.sum(winn * vals, axis=-1)
    return np.sum(wout * chi2 * inner, axis=-1)


def _q_values(t, x, tp, xp, p: ModelParams, n_outer: int, n_inner: int):
    """Q(z, z') for arrays of point pairs, by nested Gauss-Legendre.

    Entries with t* <= T are exactly 0 and are never integrated; the outer
    integral is split at the end of the chi ramp, and its tail runs only
    on the entries that reach past the ramp."""
    t, x, tp, xp = np.broadcast_arrays(*map(np.asarray, (t, x, tp, xp)))
    shape = t.shape
    t, x, tp, xp = (v.astype(float).ravel() for v in (t, x, tp, xp))
    ustar = np.minimum(t - x, tp - xp)
    vstar = np.minimum(t + x, tp + xp)
    tstar = 0.5 * (ustar + vstar)
    T, T_end = p.t_switch, p.t_switch + p.chi_width
    live = np.flatnonzero(tstar > T)
    tail = np.flatnonzero(tstar > T_end)    # a subset of live: chi_width > 0
    out = np.zeros(t.size)
    for rows, lo, hi in ((live, T, np.minimum(tstar, T_end)),
                         (tail, T_end, tstar)):
        if rows.size:
            out[rows] += _q_segment(t[rows], x[rows], tp[rows], xp[rows], p,
                                    np.full(rows.size, lo), hi[rows],
                                    n_outer, n_inner)
    return out.reshape(shape)


def covariance_q(z: SpacetimePoint, zp: SpacetimePoint, p: ModelParams,
                 budget: int = 256) -> QuadResult:
    """Q(z, z') = int chi^2 Delta^R(z - .) Delta^R(z' - .), with an error
    estimate from comparing two quadrature resolutions.

    The result does not depend on the sign convention (the integrand is
    quadratic in Delta^R).  An empty integration region gives exactly 0.
    """
    if budget < MIN_Q_BUDGET:
        raise ValueError(f"budget must be >= {MIN_Q_BUDGET}")
    ustar = min(z.t - z.x, zp.t - zp.x)
    vstar = min(z.t + z.x, zp.t + zp.x)
    if 0.5 * (ustar + vstar) <= p.t_switch:
        return QuadResult(0.0, 0.0, 0)
    n = max(6, int(round(budget ** 0.5)))
    nc = max(3, n // 2)
    t = np.asarray([z.t]); x = np.asarray([z.x])
    tp = np.asarray([zp.t]); xp = np.asarray([zp.x])
    fine = float(_q_values(t, x, tp, xp, p, n, n)[0])
    coarse = float(_q_values(t, x, tp, xp, p, nc, nc)[0])
    err = abs(fine - coarse) + 1e-15 * abs(fine)
    return QuadResult(fine, err, 2 * n * n)


# ---------------------------------------------------------------------------
# tabulated Q with interpolation
# ---------------------------------------------------------------------------

MIN_TABLE_NODES = 4
MAX_TABLE_ENTRIES = 2 ** 28     # n_t^2 n_x: 2 GiB of float64
MIN_Q_BUDGET = 1
# a table entry integrates over round(sqrt(budget))^2 inner nodes, so the
# budget bounds the build time; the arrays of a pool task stay within
# _Q_BLOCK floats at any budget
MAX_Q_BUDGET = 2 ** 15
MIN_SMEARING_NODES = 1  # Gauss-Legendre nodes per axis of weighted_nodes
# No node sum holds more than one block of (query, node) pairs, or more
# table slices than one per node position up to MAX_FOLD_ENTRIES floats,
# so the node limits bound time: the order-1 oracle's DeltaA legs read n^2
# kernel values per quadrature point (16384 at 128), and a Q scalar pair
# (2n)^2 nodes against 2n node positions.
MAX_LEG_NODES = 128
# floats of the folded table slices a context keeps for one leg (32 MiB);
# a larger fold is redone one slice at a time on each read
MAX_FOLD_ENTRIES = 2 ** 22
MAX_PAIR_NODES = 48
INTERP_METHODS = ("linear", "cubic")
# float64 entries per (entries, outer nodes, inner nodes) array of a
# build_q_table pool task (2 MiB): a task takes _Q_BLOCK // n^2 entries
_Q_BLOCK = 2 ** 18
_QTBL_MAGIC = b"QTBL"
_QTBL_VERSION = 2
_QTBL_HEAD = 20 + 80    # "<4sIIII", then 10 float64
_SIGN_CODE = {"paper": 0.0, "green": 1.0}


def _spline_coeffs(values: np.ndarray, order: int) -> np.ndarray:
    """Prefiltered tensor B-spline coefficients of gridded values."""
    if order == 1:
        return values
    from scipy import ndimage
    return ndimage.spline_filter(values, order=order, mode="mirror")


def _spline_read(coeffs: np.ndarray, coords, order: int) -> np.ndarray:
    """The spline with prefiltered ``coeffs`` at fractional grid
    coordinates, one array per axis, each clipped to the grid."""
    from scipy import ndimage
    coords = np.stack([np.clip(c, 0, n - 1)
                       for c, n in zip(coords, coeffs.shape)])
    shape = coords.shape[1:]
    out = ndimage.map_coordinates(coeffs, coords.reshape(len(coords), -1),
                                  order=order, mode="mirror", prefilter=False)
    return out.reshape(shape)


def _grid_coords(v, grid: np.ndarray) -> np.ndarray:
    """Fractional coordinates of v on a uniform grid; OutOfDomain where v
    lies beyond either end by more than 1e-9 of a cell."""
    c = (np.asarray(v, dtype=float) - grid[0]) / (grid[1] - grid[0])
    if np.any(c < -1e-9) or np.any(c > len(grid) - 1 + 1e-9):
        raise OutOfDomain("Q table query outside the tabulated box")
    return c


def _spline_taps(c, n: int, order: int):
    """(indices, weights), each (..., order + 1): the taps of the tensor
    B-spline along one axis of n nodes at grid coordinates c, clipped and
    mirrored as in _spline_read: the node-time taps of QTable.leg_sum."""
    c = np.clip(c, 0, n - 1)
    base = np.floor(c)
    x = c - base
    if order == 1:
        w = np.stack([1.0 - x, x], axis=-1)
    else:
        z = 1.0 - x
        w0 = z * z * z / 6.0
        w1 = (x * x * (x - 2.0) * 3.0 + 4.0) / 6.0
        w2 = (z * z * (z - 2.0) * 3.0 + 4.0) / 6.0
        w = np.stack([w0, w1, w2, 1.0 - w0 - w1 - w2], axis=-1)
        base -= 1
    idx = np.abs(base.astype(np.intp)[..., None] + np.arange(order + 1))
    return np.where(idx > n - 1, 2 * (n - 1) - idx, idx), w


@dataclass
class QTable:
    """Q tabulated on (t, t', x - x') over D_mu x D_mu.

    Spatial translation invariance reduces Q(z, z') to three variables.
    Interpolation is a tensor B-spline (tricubic by default, trilinear as a
    fallback) on the uniform grid, evaluated through spline coefficients
    prefiltered when the table is made.
    """

    time_grid: np.ndarray
    space_offset_grid: np.ndarray
    values: np.ndarray          # (nT, nT, nX)
    params: ModelParams
    interp_method: str = "cubic"
    budget: int | None = None   # quadrature budget of the build, if known
    _coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._coeffs = _spline_coeffs(self.values, self.spline_order)

    @property
    def spline_order(self) -> int:
        return 1 if self.interp_method == "linear" else 3

    def interp(self, t, x, tp, xp):
        """Q(z, z') with z = (t, x), z' = (tp, xp); raises OutOfDomain."""
        t, x, tp, xp = np.broadcast_arrays(*map(np.asarray, (t, x, tp, xp)))
        tg, dg = self.time_grid, self.space_offset_grid
        coords = (_grid_coords(t, tg), _grid_coords(tp, tg),
                  _grid_coords(np.asarray(x, dtype=float)
                               - np.asarray(xp, dtype=float), dg))
        return _spline_read(self._coeffs, coords, self.spline_order)

    def _leg_taps(self, pts, w):
        """(node_x, taps): the distinct node positions x_j, and taps[q, m]
        the weight of node-time tap q at position m, of the rows y_j of
        ``pts`` with weights w_j; OutOfDomain where a node time lies
        outside the grid."""
        tg = self.time_grid
        node_x, col = np.unique(pts[:, 1], return_inverse=True)
        nidx, nw = _spline_taps(_grid_coords(pts[:, 0], tg), len(tg),
                                self.spline_order)
        return node_x, np.bincount(
            (nidx * node_x.size + col[:, None]).ravel(),
            (nw * w[:, None]).ravel(),
            len(tg) * node_x.size).reshape(len(tg), node_x.size)

    def _fold_taps(self, taps_m):
        # a fixed-order sum (no BLAS, whose kernel the CPU picks)
        return np.einsum("pqr,q->pr", self._coeffs, taps_m)

    def leg_fold(self, pts, w):
        """(node_x, one 2D coefficient array per position) for leg_sum: the
        node taps of every position folded into the coefficients once."""
        node_x, taps = self._leg_taps(pts, w)
        return node_x, [self._fold_taps(c) for c in taps.T]

    def leg_sum(self, t, x, pts, w, fold=None):
        """sum_j w_j Q((t, x), y_j) over the rows y_j of ``pts``, raising
        OutOfDomain where interp would at some (query, node) pair.  The
        spline is separable: the node weights and node-time taps are folded
        into the coefficients once per distinct node position x_j, leaving a
        2D spline in (t, x - x_j), read as _spline_read reads it.  ``fold``
        is leg_fold(pts, w) if built already; else each position is folded
        as it is read."""
        from scipy import ndimage
        t, x = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(x, dtype=float))
        shape, t, x = t.shape, t.ravel(), x.ravel()
        tg, dg = self.time_grid, self.space_offset_grid
        n_t, n_x, order = len(tg), len(dg), self.spline_order
        # clipped grid coordinates: the query times once, x - x_j per x_j
        coords = np.stack([np.clip(_grid_coords(t, tg), 0, n_t - 1), x])
        if fold is None:
            node_x, taps = self._leg_taps(pts, w)
            fold = node_x, map(self._fold_taps, taps.T)
        out = np.zeros(t.size)
        for xm, c in zip(*fold):
            coords[1] = np.clip(_grid_coords(x - xm, dg), 0, n_x - 1)
            out += ndimage.map_coordinates(c, coords, order=order,
                                           mode="mirror", prefilter=False)
        return out.reshape(shape)

    def diag(self, t, x):
        return self.interp(t, x, t, x)

    def save(self, path: str) -> None:
        p = self.params
        header = struct.pack(
            "<4sIIII", _QTBL_MAGIC, _QTBL_VERSION,
            len(self.time_grid), len(self.space_offset_grid),
            0 if self.interp_method == "linear" else 1)
        # budget 0 stands for unknown: a build budget is at least 1
        meta = struct.pack("<10d", p.m, p.a, p.hbar, p.lam, p.mu, p.mu_ref,
                           p.t_switch, _SIGN_CODE[p.sign_convention],
                           p.chi_width, self.budget or 0)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(meta)
            fh.write(np.ascontiguousarray(self.time_grid, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.space_offset_grid, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @staticmethod
    def load(path: str) -> "QTable":
        """Read a table written by save; a budget of 0 reads as unknown
        (None).  A file that is not one complete QTBL table of the current
        version, that holds a non-finite number, or whose grids are not bit
        for bit those build_q_table makes from its mu, raises
        QTableFormatError."""
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < 20 or data[:4] != _QTBL_MAGIC:
            raise QTableFormatError(f"{path}: not a QTBL file")
        _, version, n_t, n_x, interp_code = struct.unpack_from("<4sIIII", data)
        if version != _QTBL_VERSION:
            raise QTableFormatError(
                f"{path}: unsupported QTBL version {version}")
        size = _QTBL_HEAD + 8 * (n_t + n_x + n_t * n_t * n_x)
        if len(data) != size:
            raise QTableFormatError(f"{path}: {len(data)} bytes, but a "
                                    f"{n_t}x{n_t}x{n_x} table takes {size}")
        meta = struct.unpack_from("<10d", data, 20)
        m, a, hbar, lam, mu, mu_ref, t_switch, sign, chi_width, budget = meta
        body = np.frombuffer(data, dtype="<f8", offset=_QTBL_HEAD)
        if not (np.isfinite(body).all() and np.isfinite(meta).all()):
            raise QTableFormatError(f"{path}: non-finite number in the table")
        if sign not in (0.0, 1.0):
            raise QTableFormatError(f"{path}: sign code {sign!r}")
        if budget < 0 or budget != int(budget):
            raise QTableFormatError(f"{path}: budget {budget!r}")
        with np.errstate(all="ignore"):   # a huge mu fails the test below
            grids = (np.linspace(-mu, mu, n_t),
                     np.linspace(-2 * mu, 2 * mu, n_x))
        if (body[:n_t + n_x].tobytes()
                != np.concatenate(grids).astype("<f8").tobytes()):
            raise QTableFormatError(f"{path}: grids other than the uniform "
                                    f"ones over [-mu, mu] and [-2 mu, 2 mu]")
        vals = body[n_t + n_x:].reshape(n_t, n_t, n_x).copy()
        try:
            params = ModelParams(
                m=m, a=a, hbar=hbar, lam=lam, mu=mu, mu_ref=mu_ref,
                t_switch=t_switch,
                sign_convention="paper" if sign == 0.0 else "green",
                chi_width=chi_width)
        except ValueError as exc:
            raise QTableFormatError(f"{path}: {exc}") from exc
        return QTable(*grids, vals, params,
                      "linear" if interp_code == 0 else "cubic",
                      int(budget) or None)


FIELD_NODES = 65    # grid nodes per axis of a tabulated field (odd)
FIELD_PAD = 8       # grid cells between the tabulated box and each edge
FIELD_REACH = 2     # grid cells around the nearest node that bound() covers


@dataclass(frozen=True, eq=False)
class FieldTable:
    """A function of z = (t, x) on a uniform grid, read back by a tensor
    B-spline of the given order; queries are clipped to the grid.  The grid
    axes are (t, x), or the null coordinates (t - x, t + x) if ``null``.

    Its error comes from two resolutions: the spline through every node
    (fine) and the one through every other node (coarse).  ``bound(t, x)``
    is the largest |fine - coarse| over the nodes within FIELD_REACH cells
    of the node nearest z, which covers the coarse cell around z.

    An axis with a ``grade`` (t_a, t_b, gamma) is uniform between the
    nodes t_a and t_b only: node t lies at origin + step (t + gamma
    tau^3), tau the distance of t beyond [t_a, t_b], so the cells widen
    smoothly away from that range.
    """

    origin: tuple[float, float]
    step: tuple[float, float]
    coeffs: np.ndarray
    order: int
    local: np.ndarray = field(repr=False)
    null: bool = False
    grade: tuple = (None, None)

    def _coords(self, t, x):
        a, b = np.asarray(t), np.asarray(x)
        if self.null:
            a, b = a - b, a + b
        a = (a - self.origin[0]) / self.step[0]
        b = (b - self.origin[1]) / self.step[1]
        ga, gb = self.grade
        return (a if ga is None else _ungrade(a, *ga),
                b if gb is None else _ungrade(b, *gb))

    def __call__(self, t, x):
        return _spline_read(self.coeffs, self._coords(t, x), self.order)

    def bound(self, t, x):
        return _spline_read(self.local, self._coords(t, x), 0)


@dataclass(frozen=True, eq=False)
class FieldSum:
    """A leg field read as the sum of the FieldTables of its parts."""

    parts: tuple[FieldTable, ...]

    def __call__(self, t, x):
        return sum(p(t, x) for p in self.parts)

    def bound(self, t, x):
        return sum(p.bound(t, x) for p in self.parts)


def _ungrade(c, t_a: float, t_b: float, gamma: float):
    """The node coordinate t of the uniform coordinate c = t + gamma tau^3
    on a graded axis (FieldTable): tau + gamma tau^3 = e, e the distance
    of c beyond [t_a, t_b], has the one real root
    (2 / r) sinh(asinh(3 r e / 2) / 3), r = sqrt(3 gamma)."""
    mid = np.clip(c, t_a, t_b)
    r = math.sqrt(3.0 * gamma)
    return mid + (2.0 / r) * np.sinh(np.arcsinh(1.5 * r * (c - mid)) / 3.0)


def _field_table(fine: np.ndarray, coarse: np.ndarray, origin, step,
                 order: int, null: bool = False, floor: float = 0.0,
                 grade: tuple = (None, None)) -> FieldTable:
    """The FieldTable of ``fine`` on an odd number of nodes per axis, bounded
    by its distance to the spline through ``coarse``, the values on every
    other node, plus a uniform ``floor``."""
    from scipy import ndimage
    I, J = np.meshgrid(np.arange(fine.shape[0]) / 2.0,
                       np.arange(fine.shape[1]) / 2.0, indexing="ij")
    approx = _spline_read(_spline_coeffs(coarse, order), (I, J), order)
    local = ndimage.maximum_filter(np.abs(fine - approx),
                                   size=2 * FIELD_REACH + 1, mode="nearest")
    return FieldTable(origin, step, _spline_coeffs(fine, order), order,
                      local + floor if floor else local, null, grade)


def tabulate_field(fn, box: tuple[float, float, float, float],
                   domain: tuple[float, float, float, float],
                   order: int) -> FieldTable:
    """Tabulate fn(t, x) over box = (tmin, tmax, xmin, xmax), padded by
    FIELD_PAD cells per side, so that the first-order accurate edge cells of
    the mirror-boundary spline lie outside the box.  fn is evaluated once,
    on the node grid, at node coordinates clipped to ``domain``, the box in
    which fn is defined."""
    cells = FIELD_NODES - 1 - 2 * FIELD_PAD
    k = np.arange(-FIELD_PAD, FIELD_NODES - FIELD_PAD)
    st = (box[1] - box[0]) / cells
    sx = (box[3] - box[2]) / cells
    T, X = np.meshgrid(np.clip(box[0] + st * k, domain[0], domain[1]),
                       np.clip(box[2] + sx * k, domain[2], domain[3]),
                       indexing="ij")
    vals = fn(T, X)
    return _field_table(vals, vals[::2, ::2],
                        (box[0] - FIELD_PAD * st, box[2] - FIELD_PAD * sx),
                        (st, sx), order)


# ---------------------------------------------------------------------------
# leg fields of the difference kernels on a null grid
# ---------------------------------------------------------------------------
#
# In null coordinates U = u_z - u_y, V = v_z - v_y, and with dy = du dv / 2,
#   DeltaR(z - y) = (s/2) J0(m sqrt(UV)) theta(U) theta(V),
#   J0(m sqrt(UV)) = sum_k (-m^2 UV / 4)^k / (k!)^2     (the Riemann function),
#   H(z - y) = A(UV) (ln|U| + ln|V|) + B(UV),
# with A, B the entire series of K0 and Y0 (Abramowitz & Stegun 9.6.13,
# 9.1.13; one expression covers both signs of UV), and A = -1/(4 pi),
# B = ln(4 mu_ref^2) / (4 pi) for H0.  Every term is separable in (U, V), so
# a leg field is a short sum of 1D integral operators applied to the leg's
# density f(u, v) on one uniform null lattice.  Since
# int_{u' < u} (u - u')^k phi(u') du' = k! (I^{k+1} phi)(u), I the causal
# cumulative integral, the term k of DeltaR f is (s/4) (-m^2/4)^k
# I_u^{k+1} I_v^{k+1} f.

NULL_LEG_CELLS = 64      # lattice cells across the leg's null box
NULL_MAX_NODES = 513     # lattice nodes per axis; a wider span widens the step
NULL_MIN_CELLS = 16      # a leg spanning fewer cells gets a graded lattice
NULL_GRADE_CELLS = 16    # graded cells over which the cell width first doubles
NULL_GRADE_NODES = 128   # graded nodes per side that reach the cover at most
MAX_SERIES_TERMS = 256   # more Riemann/Bessel terms than this are refused
_SERIES_EPS = 2.0 ** -60  # relative size of the first series term dropped
_EPS = np.finfo(float).eps
# the trapezoid rule's half weight at its upper end, minus 1, and
# Gregory's corrections -1/12, -1/24, -19/720, -3/160 of the backward
# differences there: taps on the end node and the 4 below it
_GREGORY = (-1 / 12, -1 / 24, -19 / 720, -3 / 160)
_GREGORY_TAPS = tuple((s == 0) * -0.5
                      + sum(g * (-1) ** s * math.comb(r, s)
                            for r, g in enumerate(_GREGORY, 1) if r >= s)
                      for s in range(len(_GREGORY) + 1))
# zeta(3), zeta(5), zeta(7): the log corrections of the trapezoid rule
_ZETA_ODD = (1.2020569031595942, 1.0369277551433699, 1.0083492773819228)


def _taylor_stencils(p: int) -> np.ndarray:
    """s[d, n + p]: phi^(d)(0) / d! ~ h^-d sum_n s[d, n + p] phi(n h), exact
    for polynomials of degree 2p: the coefficients of the Lagrange basis on
    the nodes -p..p (integers, each divided once)."""
    nodes = np.arange(-p, p + 1)
    rows = []
    for n in nodes:
        others = nodes[nodes != n]
        poly = np.ones(1)
        for m in others:
            poly = np.convolve(poly, [-m, 1.0])
        rows.append(poly / np.prod(n - others))
    return np.array(rows).T


_LOG_STENCILS = _taylor_stencils(len(_ZETA_ODD))


def _cumulative(a: np.ndarray, reverse: bool) -> np.ndarray:
    """int of a along axis 0 from the first node (the last, if reverse) to
    each node, in units of the step: the cumulative sum with _GREGORY_TAPS
    at the node, which read only the node and the 4 before it.  The first
    node must lie where a and its derivatives vanish."""
    if reverse:
        a = a[::-1]
    out = np.cumsum(a, axis=0)
    for s, c in enumerate(_GREGORY_TAPS):
        out[s:] += c * a[:len(a) - s]
    return out[::-1] if reverse else out


def _log_weights(k: int, h: float, offsets: np.ndarray,
                 log_u: np.ndarray) -> np.ndarray:
    """w[n] for the integer offsets n, log_u = ln|n h| (any value at 0):
    sum_n w[n] phi(u - n h) ~ int (u - u')^k ln|u - u'| phi(u') du' for a
    smooth phi of compact support.  It is the trapezoid rule without its
    singular node plus the Navot-Sidi terms h ln(h / 2 pi) psi(0) +
    sum_j (-1)^j zeta(2j+1) (2j)! / (2 pi)^2j h^(2j+1) [x^2j] psi(x), with
    psi(x) = x^k phi(u - x), whose Taylor coefficients central stencils over
    |n| <= 3 read."""
    U = offsets * h
    w = np.where(offsets != 0, h * U ** k * log_u, 0.0)
    if k == 0:
        w[offsets == 0] = h * math.log(h / (2.0 * math.pi))
    p = len(_ZETA_ODD)
    near = np.abs(offsets) <= p
    corr = np.zeros(int(near.sum()))
    for j, zeta in enumerate(_ZETA_ODD, 1):
        if 2 * j >= k:
            corr += ((-1) ** j * zeta * math.factorial(2 * j)
                     / (2.0 * math.pi) ** (2 * j)
                     * _LOG_STENCILS[2 * j - k, offsets[near] + p])
    w[near] += h ** (k + 1) * corr
    return w


def _series(zeta: float) -> tuple[int, float, float]:
    """(K, S, T) for sum_k zeta^k / (k!)^2: the last term kept, the sum of
    the kept terms and a bound on the dropped ones, K the first index whose
    successor is at most _SERIES_EPS.  ConfigError past MAX_SERIES_TERMS."""
    k, term, total = 0, 1.0, 1.0
    while term * zeta / (k + 1) ** 2 > _SERIES_EPS:
        k += 1
        if k > MAX_SERIES_TERMS:
            raise ConfigError(
                f"m^2 UV / 4 = {zeta:.4g} over the null grid of a leg "
                f"field needs more than {MAX_SERIES_TERMS} series terms")
        term *= zeta / (k * k)
        total += term
    nxt = term * zeta / (k + 1) ** 2
    return k, total, nxt / (1.0 - zeta / (k + 2) ** 2) if zeta else 0.0


def _riemann_field(dens: np.ndarray, h: float, m: float, reverse: bool,
                   terms: int, graded=((), ())) -> np.ndarray:
    """sum_k (-m^2/4)^k I_u^{k+1} I_v^{k+1} dens / 4, k <= terms, on the
    lattice: the retarded field over s, or the advanced one with reverse.
    ``graded`` holds per axis (below, above): the coordinates, in cells
    from the first lattice node, of further nodes beyond the lattice's
    ends, which the density does not reach.  On the side the kernel does
    not reach the field there is 0; on the other, I^{k+1} of a density
    wholly behind the node is its moment against |u - u'|^k / k!."""
    total = np.zeros(dens.shape)
    F = 0.25 * h * h * dens
    for k in range(terms + 1):
        # F is the term k itself, so no factor (m^2/4)^k can overflow; the
        # v sum runs on the transposed copy, along its rows
        F = _cumulative(F, reverse)
        F = np.ascontiguousarray(_cumulative(np.ascontiguousarray(F.T),
                                             reverse).T)
        total += F
        F *= -0.25 * m * m * h * h
    if not any(len(lo) + len(hi) for lo, hi in graded):
        return total
    n_lo = [len(lo) for lo, _ in graded]
    out = np.zeros(tuple(len(lo) + n + len(hi)
                         for (lo, hi), n in zip(graded, dens.shape)))
    lat = tuple(slice(b, b + n) for b, n in zip(n_lo, dens.shape))
    out[lat] = total
    rows = [np.flatnonzero(np.any(dens != 0.0, axis=1 - ax)) for ax in (0, 1)]
    if rows[0].size == 0:
        return out
    far = [np.asarray(lo if reverse else hi, dtype=float)
           for lo, hi in graded]
    far_sl = [slice(0, b) if reverse else slice(b + n, None)
              for b, n in zip(n_lo, dens.shape)]
    dist = [h * np.abs(f[:, None] - r[None, :]) for f, r in zip(far, rows)]
    # the far side carries h (m/2)^k |u - u'|^k / k! (Pu, Pv), or its
    # (-m/2)^k twin (Qv); the lattice side (-m/2)^k I^{k+1} dens along v
    # on the density's u rows (Gv), along u on its v rows (Gu)
    Pu, Pv, Qv = h * np.ones(dist[0].shape), h * np.ones(dist[1].shape), \
        h * np.ones(dist[1].shape)
    Gv, Gu = dens[rows[0], :], dens[:, rows[1]]
    win = dens[np.ix_(*rows)]
    fl, lf, ff = 0.0, 0.0, 0.0
    for k in range(terms + 1):
        if k:
            Pu = Pu * (0.5 * m / k) * dist[0]
            Pv = Pv * (0.5 * m / k) * dist[1]
            Qv = Qv * (-0.5 * m / k) * dist[1]
            Gv, Gu = -0.5 * m * Gv, -0.5 * m * Gu
        Gv = h * _cumulative(Gv.T, reverse).T
        Gu = h * _cumulative(Gu, reverse)
        fl = fl + np.einsum("ij,jl->il", Pu, Gv)
        lf = lf + np.einsum("ij,lj->il", Gu, Pv)
        ff = ff + np.einsum("il,ml->im", np.einsum("ij,jl->il", Pu, win), Qv)
    out[far_sl[0], lat[1]] = 0.25 * fl
    out[lat[0], far_sl[1]] = 0.25 * lf
    out[far_sl[0], far_sl[1]] = 0.25 * ff
    return out


def _hadamard_coeffs(p: ModelParams, terms: int):
    """(a_k, b_k), k <= terms: H = A(w)(ln|U| + ln|V|) + B(w), w = UV,
    A = sum a_k w^k, B = sum b_k w^k."""
    if p.m == 0.0:
        return ([-1.0 / (4.0 * np.pi)],
                [math.log(4.0 * p.mu_ref ** 2) / (4.0 * np.pi)])
    a, b = [], []
    term, harmonic = 1.0, 0.0
    log_half = math.log(0.5 * p.m) + np.euler_gamma
    for k in range(terms + 1):
        if k:
            term *= -0.25 * p.m * p.m / (k * k)
            harmonic += 1.0 / k
        a.append(-term / (4.0 * np.pi))
        b.append((harmonic - log_half) * term / (2.0 * np.pi))
    return a, b


def _hadamard_field(dens: np.ndarray, h: float, p: ModelParams,
                    terms: int, graded=((), ())) -> np.ndarray:
    """(H f) on the lattice from the density window: the log factor by
    _log_weights, the polynomial ones through moments of the density about
    its window's centre node, (v - v')^k = sum_l C(k, l) dv^(k-l) (-dv')^l.
    ``graded`` adds nodes beyond the lattice as _riemann_field's does;
    they lie more than 3 cells from the density, where the log weights
    need no correction."""
    a, b = _hadamard_coeffs(p, terms)
    K = len(a)
    pos = [np.concatenate([lo, np.arange(n), hi])
           for (lo, hi), n in zip(graded, dens.shape)]
    rows = [np.flatnonzero(np.any(dens != 0.0, axis=1 - ax)) for ax in (0, 1)]
    if rows[0].size == 0:
        return np.zeros((len(pos[0]), len(pos[1])))
    rows = [np.arange(r[0], r[-1] + 1) for r in rows]
    win = dens[np.ix_(*rows)]
    centre = [(r[0] + r[-1]) // 2 for r in rows]
    k_pow = np.arange(K)
    # powers of the offsets from the centre: inside the window and at nodes
    p_in = [((r - c) * h) ** k_pow[:, None] for r, c in zip(rows, centre)]
    p_out = [((x - c) * h)[:, None] ** k_pow for x, c in zip(pos, centre)]
    # binom[k][e] = C(k, k - e) (-1)^(k - e): the weight of dv^e in (v - v')^k
    binom = [np.array([math.comb(k, e) * (-1.0) ** (k - e)
                       for e in range(k + 1)]) for k in range(K)]

    def log_along(ax):
        # the A terms with ln|U| on axis ax: log weights along ax, moments
        # along the other axis
        w = win if ax == 0 else win.T
        mom = h * np.einsum("jc,lc->jl", w, p_in[1 - ax])
        # the weights depend on the offset i - j alone: one row of them
        # per k, gathered into the (grid node, window node) matrix
        first = -rows[ax][-1]
        offsets = np.arange(first, dens.shape[ax] - rows[ax][0])
        log_u = np.log(np.where(offsets != 0, np.abs(offsets * h), 1.0))
        gather = (np.arange(dens.shape[ax])[:, None] - rows[ax][None, :]
                  - first)
        G = np.zeros((dens.shape[ax], K))
        for k in range(K):
            lm = np.einsum("ij,jl->il",
                           _log_weights(k, h, offsets, log_u)[gather],
                           mom[:, k::-1])
            G[:, :k + 1] += a[k] * binom[k] * lm
        lo, hi = graded[ax]
        if len(lo) + len(hi):
            # graded nodes: the trapezoid weights h U^k ln|U| alone
            U = h * (np.concatenate([lo, hi])[:, None] - rows[ax][None, :])
            Wk, Gf = h * np.log(np.abs(U)), np.zeros((U.shape[0], K))
            for k in range(K):
                if k:
                    Wk = Wk * U
                Gf[:, :k + 1] += a[k] * binom[k] * np.einsum(
                    "ij,jl->il", Wk, mom[:, k::-1])
            G = np.concatenate([Gf[:len(lo)], G, Gf[len(lo):]])
        out = np.einsum("ie,je->ij", G, p_out[1 - ax])
        return out if ax == 0 else out.T

    mom2 = h * h * np.einsum("lj,je->le", p_in[0],
                             np.einsum("jc,ec->je", win, p_in[1]))
    coef = np.zeros((K, K))
    for k in range(K):
        coef[:k + 1, :k + 1] += (b[k] * np.outer(binom[k], binom[k])
                                 * mom2[k::-1, k::-1])
    out = log_along(0) + log_along(1)
    out += np.einsum("ie,je->ij", np.einsum("ie,ef->if", p_out[0], coef),
                     p_out[1])
    return 0.5 * out


class _NullAxis(NamedTuple):
    """One null axis of a leg field's lattice: the uniform lattice's node
    positions (on a graded lattice, their offsets in cells from the bump's
    centre), the graded nodes beyond its ends (in cells from its first
    node; empty on a uniform lattice), the table's slice of all the nodes,
    its grade (FieldTable), the position of table node 0 and the distance
    from the first node to the last."""

    nodes: np.ndarray
    below: np.ndarray
    above: np.ndarray
    kept: slice
    grade: tuple | None
    origin: float
    span: float


_NONE = np.empty(0)


def _null_width(leg: SmearingFunction) -> float:
    lb = leg.null_box()
    return max(lb[1] - lb[0], lb[3] - lb[2])


def _null_step(leg: SmearingFunction, cover) -> float:
    """The step of a uniform lattice with NULL_LEG_CELLS cells across the
    leg's null box, widened until the lattice over the leg and the cover
    has at most NULL_MAX_NODES nodes per axis."""
    boxes = [leg.null_box()] + [c.null_box() for c in cover]
    span = max(max(b[2 * ax + 1] for b in boxes) - min(b[2 * ax] for b in boxes)
               for ax in (0, 1))
    # an axis has at most span / h + 2 FIELD_PAD + 5 nodes
    return max(_null_width(leg) / NULL_LEG_CELLS,
               span / (NULL_MAX_NODES - 2 * FIELD_PAD - 5))


def _null_lattice(leg: SmearingFunction, cover, h: float):
    """(dens, axes): the uniform lattice of step h anchored at the leg's
    lowest null corner, spanning the leg's null box and the boxes of
    ``cover``, each padded by FIELD_PAD cells, and the leg's density f(u, v)
    on it; each axis keeps the nodes over the cover's boxes and their pads.
    Every axis and slice has an even number of cells, so every other node
    is the coarse lattice."""
    lb = leg.null_box()
    boxes = [c.null_box() for c in cover]
    axes = []
    for ax in (0, 1):
        anchor = lb[2 * ax]
        lo = min(b[2 * ax] for b in boxes)
        hi = max(b[2 * ax + 1] for b in boxes)
        # node indices relative to the anchor: the cover's, then the leg's
        c0 = math.floor((lo - anchor) / h) - FIELD_PAD
        c1 = math.ceil((hi - anchor) / h) + FIELD_PAD
        c0, c1 = c0 - c0 % 2, c1 + c1 % 2
        i0 = min(c0, 0)
        i1 = max(c1, math.ceil((lb[2 * ax + 1] - anchor) / h))
        i1 += i1 % 2
        nodes = anchor + h * np.arange(i0, i1 + 1)
        axes.append(_NullAxis(nodes, _NONE, _NONE, slice(c0 - i0, c1 - i0 + 1),
                              None, nodes[c0 - i0], nodes[-1] - nodes[0]))
    U, V = np.meshgrid(axes[0].nodes, axes[1].nodes, indexing="ij")
    return leg(0.5 * (U + V), 0.5 * (V - U)), axes


def _graded_lattice(c: BumpComponent, cover, h: float):
    """_null_lattice's (dens, axes) for one bump too narrow for a uniform
    lattice over the cover: NULL_LEG_CELLS cells of step h across the
    bump's null box and FIELD_PAD beyond each side, then graded nodes out
    to the cover's box and FIELD_PAD nodes past it; the table keeps every
    node.  The cell width first doubles NULL_GRADE_CELLS cells out, or
    sooner where the cover lies more than NULL_GRADE_NODES graded nodes
    away.  The density is read at offsets from the centre in cells, so a
    bump narrower than the rounding of its centre keeps its shape."""
    half = NULL_LEG_CELLS // 2
    k = np.arange(-half - FIELD_PAD, half + FIELD_PAD + 1)
    n = k.size
    axes = []
    for ax, centre in enumerate((c.center.t - c.center.x,
                                 c.center.t + c.center.x)):
        # how far the cover reaches beyond each end of the lattice, in cells
        reach = ((centre - min(b.null_box()[2 * ax] for b in cover)) / h,
                 (max(b.null_box()[2 * ax + 1] for b in cover) - centre) / h)
        reach = tuple(e - k[-1] for e in reach)
        gamma = max(1.0 / (3 * NULL_GRADE_CELLS ** 2),
                    max(reach) / NULL_GRADE_NODES ** 3)
        # graded nodes per side: to the cover, then FIELD_PAD more, even
        counts = [0 if e <= -FIELD_PAD else
                  math.ceil(_ungrade(max(e, 0.0), 0.0, 0.0, gamma))
                  + FIELD_PAD for e in reach]
        nb, na = (m + m % 2 for m in counts)
        tb, ta = np.arange(-nb, 0.0), np.arange(1.0, na + 1)
        below, above = tb + gamma * tb ** 3, n - 1 + ta + gamma * ta ** 3
        lo = below[0] if nb else 0.0
        hi = above[-1] if na else n - 1.0
        axes.append(_NullAxis(k, below, above, slice(0, nb + n + na),
                              (nb, nb + n - 1, gamma),
                              centre + h * (k[0] - nb), h * (hi - lo)))
    # the bump's null half-width r sqrt 2 is `half` cells
    r2 = (k[:, None] ** 2 + k[None, :] ** 2) / float(half * half)
    return c.amplitude * _bump_profile(r2), axes


def _leg_parts(leg: SmearingFunction, cover) -> list:
    """[(part, step, dens, axes)]: the leg on the lattice of _null_step,
    or, where that lattice spans fewer than NULL_MIN_CELLS cells of one of
    its bumps, each bump on its own: a bump that still spans too few cells
    gets _graded_lattice.  A leg field is the sum over the parts."""
    h = _null_step(leg, cover)
    if len(leg.components) > 1 and min(
            _null_width(SmearingFunction((c,))) for c in leg.components
    ) < NULL_MIN_CELLS * h:
        return [part for c in leg.components
                for part in _leg_parts(SmearingFunction((c,), leg.name),
                                       cover)]
    if _null_width(leg) >= NULL_MIN_CELLS * h:
        return [(leg, h, *_null_lattice(leg, cover, h))]
    c = leg.components[0]
    h = 2.0 * math.sqrt(2.0) * c.radius / NULL_LEG_CELLS
    return [(leg, h, *_graded_lattice(c, cover, h))]


def _zeta(p: ModelParams, axes) -> float:
    """m^2 UV / 4 at the largest UV of a lattice."""
    return p.m * p.m * axes[0].span * axes[1].span / 4.0


def check_leg_field(p: ModelParams, leg: SmearingFunction, cover) -> None:
    """ConfigError where tabulate_leg_field(basis, p, leg, cover) would need
    more than MAX_SERIES_TERMS series terms."""
    for *_, axes in _leg_parts(leg, cover):
        _series(_zeta(p, axes))


def tabulate_leg_field(basis: str, p: ModelParams, leg: SmearingFunction,
                       cover):
    """(K f)(z) of a difference kernel of the real basis (H, H0, DeltaR,
    DeltaA, with the retarded sign of the params' convention) and the leg
    f, tabulated on a null lattice over f's support and the supports of the
    smearings in ``cover``, read by a bicubic spline at (t - x, t + x): a
    FieldTable, or the FieldSum of one per bump (_leg_parts).

    The table holds the field from the lattice of _null_lattice or
    _graded_lattice; the coarse field is the same computation on every
    other node.  The bound is their two-resolution distance (quadrature and
    interpolation), plus a uniform bound on the dropped series terms and on
    the rounding of the kept ones, which grows as e^(m sqrt(UV)) where the
    series cancels.  Only cumulative sums and einsum contractions reduce,
    so the bits are fixed."""
    if basis not in ("H", "H0", "DeltaR", "DeltaA"):
        raise KeyError(f"unknown kernel symbol {basis!r}")
    if basis == "H0":
        p = p.with_(m=0.0)
    parts = [_leg_table(basis, p, *part) for part in _leg_parts(leg, cover)]
    return parts[0] if len(parts) == 1 else FieldSum(tuple(parts))


def _leg_table(basis: str, p: ModelParams, leg: SmearingFunction, h: float,
               dens: np.ndarray, axes) -> FieldTable:
    zeta = _zeta(p, axes)
    u_max, v_max = axes[0].span, axes[1].span
    terms, series_sum, tail = _series(zeta)
    mass = h * h * float(np.sum(np.abs(dens)))  # int |f| du dv
    # rounding: each kept term passes about (terms + 2)(n_u + n_v) sums
    ops = (terms + 2) * sum(len(a.nodes) + len(a.below) + len(a.above)
                            for a in axes) * _EPS
    if basis in ("DeltaR", "DeltaA"):
        def fn(d, step, graded):
            return p.retarded_sign * _riemann_field(
                d, step, p.m, basis == "DeltaA", terms, graded)
        # |I_u^{k+1} I_v^{k+1} f| <= (u_max v_max)^k / (k!)^2 int |f|
        floor = 0.25 * mass * (tail + ops * series_sum)
    else:
        def fn(d, step, graded):
            return _hadamard_field(d, step, p, terms, graded)
        # |a_k w^k| <= zeta^k / (k!)^2 / (4 pi), |b_k w^k| <= that times
        # 2 (H_k + |ln(m/2) + gamma|), |ln|U|| <= logs on the lattice, and
        # the binomial sums of _hadamard_field reach (2 u_max)^k (2 v_max)^k
        logs = max(abs(math.log(h)), abs(math.log(u_max)),
                   abs(math.log(v_max)))
        b_max = (abs(math.log(4.0 * p.mu_ref ** 2)) / (4.0 * np.pi)
                 if p.m == 0.0 else
                 (sum(1.0 / k for k in range(1, terms + 2))
                  + abs(math.log(0.5 * p.m) + np.euler_gamma)) / (2.0 * np.pi))
        binomial_sum, term = 1.0, 1.0
        for k in range(1, terms + 1):
            term *= 4.0 * zeta / (k * k)
            binomial_sum += term
        floor = (0.5 * mass * (logs / (2.0 * np.pi) + b_max)
                 * (tail + ops * binomial_sum))
    kept = tuple(a.kept for a in axes)
    half = tuple(slice(k.start // 2, k.stop // 2 + 1) for k in kept)
    # the coarse lattice's graded nodes are those at even table indices
    return _field_table(
        fn(dens, h, [(a.below, a.above) for a in axes])[kept],
        fn(dens[::2, ::2], 2 * h,
           [(a.below[::2] / 2.0, a.above[1::2] / 2.0) for a in axes])[half],
        tuple(a.origin for a in axes), (h, h), 3, null=True, floor=floor,
        grade=tuple(a.grade for a in axes))


def worker_count() -> int:
    """Thread-pool width: the WORKERS environment variable (a positive
    integer), else the number of cores."""
    env = os.environ.get("WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        n = 0  # reported below, with the non-positive values
    if n < 1:
        raise ConfigError(f"WORKERS must be a positive integer, got {env!r}")
    return n


def parallel_map(fn, items) -> list:
    """[fn(x) for x in items] on a pool of worker_count() threads; results
    keep the order of ``items``, so the output does not depend on WORKERS."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def build_q_table(p: ModelParams, n_t: int = 64, n_x: int = 128,
                  budget: int = 256, interp_method: str = "cubic") -> QTable:
    """Tabulate Q(t, t', x - x') over D_mu x D_mu.

    Blocks of entries are independent, so they run on the thread pool of
    parallel_map, each within _Q_BLOCK inner nodes; the output is
    deterministic either way.  NonFiniteValue if the grid span, a grid node
    or an entry is not finite.
    """
    if n_t < MIN_TABLE_NODES or n_x < MIN_TABLE_NODES:
        raise ValueError(f"n_t and n_x must be >= {MIN_TABLE_NODES}")
    if not np.isfinite(4 * p.mu):  # the span of the offset grid
        raise NonFiniteValue(f"Q table grid over a non-finite span at {p}")
    tgrid = np.linspace(-p.mu, p.mu, n_t)
    dgrid = np.linspace(-2 * p.mu, 2 * p.mu, n_x)
    n = max(6, int(round(budget ** 0.5)))
    T, TP, D = np.meshgrid(tgrid, tgrid, dgrid, indexing="ij")
    t = T.ravel(); tp = TP.ravel(); d = D.ravel()
    vals = np.empty(t.shape)
    per_task = max(1, _Q_BLOCK // (n * n))

    def fill(lo: int):
        sl = slice(lo, lo + per_task)
        # an overflow shows as a non-finite entry, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            vals[sl] = _q_values(t[sl], d[sl], tp[sl], np.zeros_like(d[sl]),
                                 p, n, n)

    parallel_map(fill, range(0, t.size, per_task))
    if not all(np.isfinite(x).all() for x in (tgrid, dgrid, vals)):
        raise NonFiniteValue(f"Q table with a non-finite node or entry at {p}")
    values = vals.reshape(n_t, n_t, n_x)
    return QTable(tgrid, dgrid, values, p, interp_method, budget)


def gq_weight_arrays(t, x, p: ModelParams, table: QTable, g: SmearingFunction):
    """Dressed cutoff g_Q(z) = g(z) exp(-(a^2/2) Q(z, z)) at z = (t, x)."""
    return g(t, x) * np.exp(-0.5 * p.a ** 2 * table.diag(t, x))


# ---------------------------------------------------------------------------
# numeric kernel bindings for the quadrature layer
# ---------------------------------------------------------------------------

def difference_kernel(symbol: str, p: ModelParams) -> Callable:
    """Vectorized evaluator K(dt, dx) of a translation-invariant kernel of
    the real basis: H, H0, DeltaR or DeltaA, with the retarded sign of the
    params' convention.  The composite kernels (Delta, Omega, DeltaF,
    DeltaAF) are sums over this basis (algebra.KernelExpr.real_basis), so
    any other symbol raises KeyError."""
    sign = p.retarded_sign
    if symbol == "H":
        return lambda dt, dx: hadamard(dt, dx, p, check=False)
    if symbol == "H0":
        return lambda dt, dx: hadamard_massless(dt, dx, p.mu_ref, check=False)
    if symbol == "DeltaR":
        return lambda dt, dx: retarded_massive(dt, dx, p.m, sign)
    if symbol == "DeltaA":
        return lambda dt, dx: advanced(dt, dx, p.m, sign)
    raise KeyError(f"unknown kernel symbol {symbol!r}")
