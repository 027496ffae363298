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
        # a disk of radius r reaches r*sqrt(2) in the null coordinates
        root2 = np.sqrt(2.0)
        for c in self.components:
            u, v = c.center.t - c.center.x, c.center.t + c.center.x
            if abs(u) + c.radius * root2 >= mu:
                return False
            if abs(v) + c.radius * root2 >= mu:
                return False
        return True

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
# No node sum holds more than one block of (query, node) pairs or one table
# slice per node position, so the node limits bound time: a direct leg field
# reads n^2 kernel values per quadrature point (16384 at 128), a non-Q
# scalar pair (2n)^4, 85M at 48.
MAX_LEG_NODES = 128
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

    def leg_sum(self, t, x, pts, w):
        """sum_j w_j Q((t, x), y_j) over the rows y_j of ``pts``, raising
        OutOfDomain where interp would at some (query, node) pair.  The
        spline is separable: the node weights and node-time taps are folded
        into the coefficients once per distinct node position x_j, leaving a
        2D spline in (t, x - x_j), read as _spline_read reads it."""
        from scipy import ndimage
        t, x = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(x, dtype=float))
        shape, t, x = t.shape, t.ravel(), x.ravel()
        tg, dg = self.time_grid, self.space_offset_grid
        n_t, n_x, order = len(tg), len(dg), self.spline_order
        # clipped grid coordinates: the query times once, x - x_j per x_j
        coords = np.stack([np.clip(_grid_coords(t, tg), 0, n_t - 1), x])
        node_x, col = np.unique(pts[:, 1], return_inverse=True)
        nidx, nw = _spline_taps(_grid_coords(pts[:, 0], tg), n_t, order)
        # taps[q, m]: node weight at node-time tap q and position m
        taps = np.bincount((nidx * node_x.size + col[:, None]).ravel(),
                           (nw * w[:, None]).ravel(),
                           n_t * node_x.size).reshape(n_t, node_x.size)
        out = np.zeros(t.size)
        for m, xm in enumerate(node_x):
            # a fixed-order sum (no BLAS, whose kernel the CPU picks)
            c = np.einsum("pqr,q->pr", self._coeffs, taps[:, m])
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
    B-spline of the given order; queries are clipped to the grid.

    Its error comes from two resolutions: the spline through every node
    (fine) and the one through every other node (coarse).  ``bound(t, x)``
    is the largest |fine - coarse| over the nodes within FIELD_REACH cells
    of the node nearest z, which covers the coarse cell around z.
    """

    origin: tuple[float, float]
    step: tuple[float, float]
    coeffs: np.ndarray
    order: int
    local: np.ndarray = field(repr=False)

    def _coords(self, t, x):
        return ((np.asarray(t) - self.origin[0]) / self.step[0],
                (np.asarray(x) - self.origin[1]) / self.step[1])

    def __call__(self, t, x):
        return _spline_read(self.coeffs, self._coords(t, x), self.order)

    def bound(self, t, x):
        return _spline_read(self.local, self._coords(t, x), 0)


def tabulate_field(fn, box: tuple[float, float, float, float],
                   domain: tuple[float, float, float, float],
                   order: int) -> FieldTable:
    """Tabulate fn(t, x) over box = (tmin, tmax, xmin, xmax), padded by
    FIELD_PAD cells per side, so that the first-order accurate edge cells of
    the mirror-boundary spline lie outside the box.  fn is evaluated once,
    on the node grid, at node coordinates clipped to ``domain``, the box in
    which fn is defined."""
    from scipy import ndimage
    cells = FIELD_NODES - 1 - 2 * FIELD_PAD
    k = np.arange(-FIELD_PAD, FIELD_NODES - FIELD_PAD)
    st = (box[1] - box[0]) / cells
    sx = (box[3] - box[2]) / cells
    T, X = np.meshgrid(np.clip(box[0] + st * k, domain[0], domain[1]),
                       np.clip(box[2] + sx * k, domain[2], domain[3]),
                       indexing="ij")
    vals = fn(T, X)
    half = np.arange(FIELD_NODES) / 2.0
    I, J = np.meshgrid(half, half, indexing="ij")
    coarse = _spline_read(_spline_coeffs(vals[::2, ::2], order), (I, J), order)
    return FieldTable(
        (box[0] - FIELD_PAD * st, box[2] - FIELD_PAD * sx), (st, sx),
        _spline_coeffs(vals, order), order,
        ndimage.maximum_filter(np.abs(vals - coarse),
                               size=2 * FIELD_REACH + 1, mode="nearest"))


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
