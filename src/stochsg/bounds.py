"""Convergence-bound constants and order-by-order bound checks.

The n-th order magnitude of the Q-deformed S-matrix coefficients is bounded
by

    2 (2 mu)^(n alpha) C_Q^(n^2) / (n!)^(1 - 1/p)
      * (2 lambda e^(a^2 K_hbar / 2) / hbar)^n  ||g||_Lq^n  C~^(n/p)

with alpha = a^2 hbar / (4 pi), 1/p + 1/q = 1, p in [1, 1/alpha).  The
constants are computed, not assumed:

- C_Q = sqrt(sup e^(a^2 Q)) from the tabulated covariance,
- K from the positive/negative Fourier split of the conditioned kernel
  difference (H0 - H) Omega; the difference kernel being conditioned is
  hbar (H0 - H), so the exponent uses K_hbar = hbar * K,
- C~ from the closed-form 1D integrals int |u|^(-alpha p) over [-2 mu, 2 mu]
  that bound each Cauchy-determinant permutation factor (conservative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels as ker
from .errors import (ConfigError, DegenerateConfiguration, GridTooCoarse,
                     InvalidExponent, OutOfDomain, StochSGError)

MIN_GRID_N = 256
MIN_P_HAT = 1.0
_TAIL_REL_FLOOR = 1e-16   # tail_bound stops below this share of its sum
_TAIL_MAX_N = 400


def valid_grid_n(grid_n: int) -> bool:
    """Conditioning grids are powers of two, at least MIN_GRID_N."""
    return grid_n >= MIN_GRID_N and not grid_n & (grid_n - 1)


@dataclass(frozen=True)
class BoundReport:
    n: int
    alpha: float
    p: float
    q: float
    c_q_mu: float
    k_conditioning: float
    c_tilde: float
    bound_value: float
    computed_magnitude: float | None = None
    satisfied: bool | None = None

    def csv_row(self) -> dict:
        return {
            "n": self.n, "alpha": self.alpha, "p": self.p, "q": self.q,
            "c_q_mu": self.c_q_mu, "k_conditioning": self.k_conditioning,
            "c_tilde": self.c_tilde, "bound": self.bound_value,
            "measured": "" if self.computed_magnitude is None
            else self.computed_magnitude,
            "satisfied": "" if self.satisfied is None else self.satisfied,
        }


def c_q_constant(table: ker.QTable, a: float, mu: float) -> float:
    """C_Q(mu) = (sup over D_mu^2 of e^{a^2 Q})^(1/2), from the table."""
    if table.params.mu < mu - 1e-12:
        raise OutOfDomain(f"table covers mu = {table.params.mu} < {mu}")
    sup_q = float(np.max(table.values))
    return float(np.exp(0.5 * a ** 2 * sup_q))


def _omega_window(mu: float):
    """Radial plateau bump: 1 on the disk of radius 2 mu (which contains
    D_{2mu}), supported inside radius 2.1 mu (inside D_{3mu})."""
    def omega(t, x):
        rho = np.sqrt(np.asarray(t) ** 2 + np.asarray(x) ** 2)
        s = (2.1 * mu - rho) / (0.1 * mu)
        return ker._mollifier_step(s)
    return omega


def conditioning_constants(p: ker.ModelParams, grid_n: int = 256,
                           kernel_pair=None, tol: float = 0.05,
                           _return_parts: bool = False):
    """K = ||W-hat||_L1 and ||N-hat||_L1 for W = (H0 - H) Omega.

    W is sampled on a uniform grid containing the support, Fourier
    transformed, and split into positive and negative parts.  Both values
    must be grid-converged: a relative change above ``tol`` under doubling
    raises GridTooCoarse.  The log singularities of H0 and H cancel, so W
    extends continuously across the lightcone and the origin.  ConfigError
    if the scale 4 mu_ref^2 of H0 is not a positive finite number.
    """
    if not valid_grid_n(grid_n):
        raise ValueError(f"grid_n must be a power of two >= {MIN_GRID_N}")
    if kernel_pair is None:
        if p.m <= 0:
            raise ValueError("conditioning requires a massive model")
        if not 0.0 < 4.0 * p.mu_ref * p.mu_ref < math.inf:
            raise ConfigError(f"mu_ref = {p.mu_ref}: the log-kernel scale "
                              "4 mu_ref^2 is not a positive finite number")
        floor = 1e-14

        def h0(t, x):
            return ker.hadamard_massless(t, x, p.mu_ref, floor, check=False)

        def h(t, x):
            return ker.hadamard_massive(t, x, p.m, floor, check=False)
        kernel_pair = (h0, h)
    omega = _omega_window(p.mu)
    L = 2.2 * p.mu

    def norms(n):
        step = 2.0 * L / n
        axis = -L + step * np.arange(n)
        T, X = np.meshgrid(axis, axis, indexing="ij")
        w = (kernel_pair[0](T, X) - kernel_pair[1](T, X)) * omega(T, X)
        spec = np.fft.fft2(np.fft.ifftshift(w)).real
        k_norm = float(np.sum(np.abs(spec)) / n ** 2)
        n_norm = float(np.sum(np.maximum(-spec, 0.0)) / n ** 2)
        return k_norm, n_norm

    k1, n1 = norms(grid_n)
    k2, n2 = norms(2 * grid_n)
    if abs(k2 - k1) > tol * max(abs(k2), 1e-300):
        raise GridTooCoarse(
            f"K changed {k1:g} -> {k2:g} under grid doubling")
    if _return_parts:
        return k2, n2, (k1, n1)
    return k2, n2


def c_tilde_constant(mu: float, alpha: float, p_hat: float) -> float:
    """Closed-form bound on each permutation's factorized 1D integral:
    (1/2) int int_{[-mu,mu]^2} |u - u'|^{-alpha p} du du', per null axis."""
    beta = alpha * p_hat
    if not 0.0 <= beta < 1.0:
        raise InvalidExponent(f"alpha * p_hat = {beta} not in [0, 1)")
    return (2.0 * mu) ** (2.0 - beta) / ((1.0 - beta) * (2.0 - beta))


def _check_p(alpha: float, p_hat: float):
    if alpha >= 1.0:
        raise InvalidExponent(f"alpha = {alpha} >= 1")
    if p_hat < MIN_P_HAT or p_hat >= 1.0 / alpha:
        raise InvalidExponent(
            f"p = {p_hat} outside [1, 1/alpha) = [1, {1.0 / alpha})")


def _log_qs_bound(n: int, p_hat: float, params: ker.ModelParams,
                  c_q: float, k_conditioning: float, g_norm_q: float,
                  c_tilde: float) -> float:
    """log of the n-th bound; -inf for n >= 1 at lambda = 0 or
    ||g||_q = 0, since the bound carries (lambda ||g||_q)^n."""
    log_power = 0.0
    if n > 0:
        if params.lam == 0.0 or g_norm_q == 0.0:
            return -math.inf
        k_hbar = params.hbar * k_conditioning
        log_rate = (math.log(2.0 * params.lam) + 0.5 * params.a ** 2 * k_hbar
                    - math.log(params.hbar))
        log_power = n * (log_rate + math.log(g_norm_q))
    return (math.log(2.0) + n * params.alpha * math.log(2.0 * params.mu)
            + n * n * math.log(c_q)
            - (1.0 - 1.0 / p_hat) * math.lgamma(n + 1)
            + log_power
            + (n / p_hat) * math.log(c_tilde))


def qs_term_bound(n: int, p_hat: float, params: ker.ModelParams,
                  c_q: float, k_conditioning: float, g_norm_q: float,
                  computed_magnitude: float | None = None) -> BoundReport:
    """Bound on |[Gamma_Q S(lambda V)]_n| (coupling and 1/n! included)."""
    alpha = params.alpha
    _check_p(alpha, p_hat)
    q = p_hat / (p_hat - 1.0) if p_hat > 1.0 else math.inf
    c_tilde = c_tilde_constant(params.mu, alpha, p_hat)
    log_bound = _log_qs_bound(n, p_hat, params, c_q, k_conditioning,
                              g_norm_q, c_tilde)
    bound = math.exp(log_bound) if log_bound < 700.0 else math.inf
    satisfied = None
    if computed_magnitude is not None:
        satisfied = bool(computed_magnitude <= bound)
    return BoundReport(n, alpha, p_hat, q, c_q, k_conditioning, c_tilde,
                       bound, computed_magnitude, satisfied)


def tail_bound(n_from: int, p_hat: float, params: ker.ModelParams,
               c_q: float, k_conditioning: float, g_norm_q: float) -> float:
    """Sum of qs_term_bound values for n > n_from, stopped once a term
    drops below _TAIL_REL_FLOOR times the partial sum.

    The C_Q^(n^2) factor eventually dominates the (n!)^(1-1/p) decay, so the
    bound series is only numerically summable when the per-order rate is
    small enough for the terms to fall below the floor first; otherwise this
    raises instead of returning a spuriously finite value.  A term of 0
    (lambda = 0 or ||g||_q = 0) ends the sum: every later term is 0 too.
    """
    alpha = params.alpha
    _check_p(alpha, p_hat)
    c_tilde = c_tilde_constant(params.mu, alpha, p_hat)
    total = 0.0
    prev_log = math.inf
    for n in range(n_from + 1, _TAIL_MAX_N + 1):
        log_term = _log_qs_bound(n, p_hat, params, c_q, k_conditioning,
                                 g_norm_q, c_tilde)
        if log_term == -math.inf:
            return total
        if log_term > 700.0 or (log_term > prev_log
                                and total > 0.0
                                and log_term > math.log(total)):
            raise StochSGError(
                f"bound terms grow again at n = {n} before reaching the "
                "floor: the C_Q^(n^2) growth dominates at these parameters")
        term = math.exp(log_term)
        total += term
        if total > 0 and term < _TAIL_REL_FLOOR * total:
            return total
        prev_log = log_term
    raise StochSGError(f"tail bound did not stabilize below n = {_TAIL_MAX_N}")


# ---------------------------------------------------------------------------
# Cauchy determinant identity
# ---------------------------------------------------------------------------

def cauchy_det_check(xs, ys, floor: float = 1e-10) -> float:
    """Relative residual of the Cauchy-determinant factorization

        prod_{i<j} |(x_i - x_j)^2| |(y_i - y_j)^2| / prod_{i,j} |(x_i-y_j)^2|
            = |det 1/(x_i^u - y_j^u)| * |det 1/(x_i^v - y_j^v)|

    in null coordinates u = t - x, v = t + x.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = xs.shape[0]
    if ys.shape[0] != n:
        raise ValueError("need equally many x and y points")
    xu, xv = xs[:, 0] - xs[:, 1], xs[:, 0] + xs[:, 1]
    yu, yv = ys[:, 0] - ys[:, 1], ys[:, 0] + ys[:, 1]

    def check_sep(arr):
        d = arr[:, None] - arr[None, :]
        d = d[~np.eye(n, dtype=bool)]
        if d.size and np.min(np.abs(d)) < floor:
            raise DegenerateConfiguration("null-coordinate difference below "
                                          f"{floor}")
    for arr in (xu, xv, yu, yv):
        check_sep(arr)
    dxu = np.abs(xu[:, None] - yu[None, :])
    dxv = np.abs(xv[:, None] - yv[None, :])
    if np.min(dxu) < floor or np.min(dxv) < floor:
        raise DegenerateConfiguration("x-y null difference below floor")

    log_lhs = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            log_lhs += (np.log(np.abs(xu[i] - xu[j])) + np.log(np.abs(xv[i] - xv[j]))
                        + np.log(np.abs(yu[i] - yu[j])) + np.log(np.abs(yv[i] - yv[j])))
    log_lhs -= np.sum(np.log(dxu)) + np.sum(np.log(dxv))
    det_u = np.linalg.det(1.0 / (xu[:, None] - yu[None, :]))
    det_v = np.linalg.det(1.0 / (xv[:, None] - yv[None, :]))
    rhs = np.abs(det_u) * np.abs(det_v)
    lhs = np.exp(log_lhs)
    return float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
