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
from scipy import ndimage
from scipy.special import j0 as _j0, k0 as _k0, y0 as _y0

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

def retarded_massless(t, x, sign: float = -1.0):
    """sign * 1/2 on the closed future cone, 0 elsewhere."""
    return np.where(in_future_cone(t, x), 0.5 * sign, 0.0)


def retarded_massive(t, x, m: float, sign: float = -1.0):
    """sign * 1/2 * J0(m sqrt(t^2 - x^2)) on the closed future cone."""
    if m < 0:
        raise ValueError("mass must be nonnegative")
    inside = in_future_cone(t, x)
    if m == 0.0:
        return np.where(inside, 0.5 * sign, 0.0)
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

    def weighted_nodes(self, n: int = 24) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes (k, 2) and weights including the f values.

        Sum_j w_j K(z - y_j) approximates the smeared kernel (K f)(z).
        """
        gl_x, gl_w = np.polynomial.legendre.leggauss(n)
        pts, wts = [], []
        for c in self.components:
            tt = c.center.t + c.radius * gl_x
            xx = c.center.x + c.radius * gl_x
            T, X = np.meshgrid(tt, xx, indexing="ij")
            W = np.outer(gl_w, gl_w) * c.radius ** 2
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
        gl_x, gl_w = np.polynomial.legendre.leggauss(n)
        top = 0.0
        parts = []   # (|f|, weight) at each component's nodes
        for c in self.components:
            tt = c.center.t + c.radius * gl_x
            xx = c.center.x + c.radius * gl_x
            T, X = np.meshgrid(tt, xx, indexing="ij")
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
            W = np.outer(gl_w, gl_w) * c.radius ** 2
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
    """Q(z, z') for arrays of point pairs, by nested Gauss-Legendre."""
    t, x, tp, xp = np.broadcast_arrays(*map(np.asarray, (t, x, tp, xp)))
    t = t.astype(float); x = x.astype(float)
    tp = tp.astype(float); xp = xp.astype(float)
    ustar = np.minimum(t - x, tp - xp)
    vstar = np.minimum(t + x, tp + xp)
    tstar = 0.5 * (ustar + vstar)
    T = p.t_switch
    out = np.zeros(t.shape)
    active = tstar > T
    if not np.any(active):
        return out
    ts = np.where(active, tstar, T)
    # split the outer integral at the end of the chi ramp
    ramp_end = np.minimum(ts, T + p.chi_width)
    val = _q_segment(t, x, tp, xp, p, np.full_like(ts, T), ramp_end,
                     n_outer, n_inner)
    tail = ts > T + p.chi_width
    if np.any(tail):
        val = val + np.where(
            tail,
            _q_segment(t, x, tp, xp, p, np.full_like(ts, T + p.chi_width),
                       ts, n_outer, n_inner),
            0.0)
    return np.where(active, val, 0.0)


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
MIN_Q_BUDGET = 1
MIN_SMEARING_NODES = 1  # Gauss-Legendre nodes per axis of weighted_nodes
INTERP_METHODS = ("linear", "cubic")
_Q_CHUNK = 8192     # table entries per pool task
_QTBL_MAGIC = b"QTBL"
_QTBL_VERSION = 2
_QTBL_HEAD = 20 + 80    # "<4sIIII", then 10 float64
_SIGN_CODE = {"paper": 0.0, "green": 1.0}


def _spline_coeffs(values: np.ndarray, order: int) -> np.ndarray:
    """Prefiltered tensor B-spline coefficients of gridded values."""
    if order == 1:
        return values
    return ndimage.spline_filter(values, order=order, mode="mirror")


def _spline_read(coeffs: np.ndarray, coords, order: int) -> np.ndarray:
    """The spline with prefiltered ``coeffs`` at fractional grid
    coordinates, one array per axis, each clipped to the grid."""
    coords = np.stack([np.clip(c, 0, n - 1)
                       for c, n in zip(coords, coeffs.shape)])
    shape = coords.shape[1:]
    out = ndimage.map_coordinates(coeffs, coords.reshape(len(coords), -1),
                                  order=order, mode="mirror", prefilter=False)
    return out.reshape(shape)


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
        st = tg[1] - tg[0]
        sd = dg[1] - dg[0]
        it = (np.asarray(t, dtype=float) - tg[0]) / st
        jt = (np.asarray(tp, dtype=float) - tg[0]) / st
        kd = (np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
              - dg[0]) / sd
        eps = 1e-9
        if (np.any(it < -eps) or np.any(it > len(tg) - 1 + eps)
                or np.any(jt < -eps) or np.any(jt > len(tg) - 1 + eps)
                or np.any(kd < -eps) or np.any(kd > len(dg) - 1 + eps)):
            raise OutOfDomain("Q table query outside the tabulated box")
        return _spline_read(self._coeffs, (it, jt, kd),
                            self.spline_order)

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
        version, or that holds a non-finite number, raises
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
        tgrid = body[:n_t].copy()
        dgrid = body[n_t:n_t + n_x].copy()
        vals = body[n_t + n_x:].reshape(n_t, n_t, n_x).copy()
        try:
            params = ModelParams(
                m=m, a=a, hbar=hbar, lam=lam, mu=mu, mu_ref=mu_ref,
                t_switch=t_switch,
                sign_convention="paper" if sign == 0.0 else "green",
                chi_width=chi_width)
        except ValueError as exc:
            raise QTableFormatError(f"{path}: {exc}") from exc
        return QTable(tgrid, dgrid, vals, params,
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
                   order: int, batch: int) -> FieldTable:
    """Tabulate fn(t, x) over box = (tmin, tmax, xmin, xmax), padded by
    FIELD_PAD cells per side, so that the first-order accurate edge cells of
    the mirror-boundary spline lie outside the box.  fn is evaluated on at
    most ``batch`` nodes at a time, at node coordinates clipped to
    ``domain``, the box in which fn is defined."""
    cells = FIELD_NODES - 1 - 2 * FIELD_PAD
    k = np.arange(-FIELD_PAD, FIELD_NODES - FIELD_PAD)
    st = (box[1] - box[0]) / cells
    sx = (box[3] - box[2]) / cells
    T, X = np.meshgrid(np.clip(box[0] + st * k, domain[0], domain[1]),
                       np.clip(box[2] + sx * k, domain[2], domain[3]),
                       indexing="ij")
    t, x = T.ravel(), X.ravel()
    vals = np.concatenate([fn(t[lo:lo + batch], x[lo:lo + batch])
                           for lo in range(0, t.size, batch)]).reshape(T.shape)
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

    Chunks of entries are independent, so they run on the thread pool of
    parallel_map; the output is deterministic either way.  NonFiniteValue
    if the grid span, a grid node or an entry is not finite.
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

    def fill(lo: int):
        sl = slice(lo, lo + _Q_CHUNK)
        # an overflow shows as a non-finite entry, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            vals[sl] = _q_values(t[sl], d[sl], tp[sl], np.zeros_like(d[sl]),
                                 p, n, n)

    parallel_map(fill, range(0, t.size, _Q_CHUNK))
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
    """Vectorized evaluator K(dt, dx) for a translation-invariant kernel,
    with the retarded sign of the params' convention."""
    sign = p.retarded_sign
    if symbol == "H":
        return lambda dt, dx: hadamard(dt, dx, p, check=False)
    if symbol == "H0":
        return lambda dt, dx: hadamard_massless(dt, dx, p.mu_ref, check=False)
    if symbol == "DeltaR":
        return lambda dt, dx: retarded_massive(dt, dx, p.m, sign)
    if symbol == "DeltaA":
        return lambda dt, dx: advanced(dt, dx, p.m, sign)
    if symbol == "Delta":
        return lambda dt, dx: pauli_jordan(dt, dx, p.m, sign)
    if symbol == "Omega":
        return lambda dt, dx: wightman(dt, dx, p, check=False)
    if symbol == "DeltaF":
        return lambda dt, dx: feynman(dt, dx, p, check=False)
    if symbol == "DeltaAF":
        return lambda dt, dx: antifeynman(dt, dx, p, check=False)
    raise KeyError(f"unknown kernel symbol {symbol!r}")
