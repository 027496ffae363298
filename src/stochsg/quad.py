"""Deterministic-seeded quasi-Monte Carlo integration.

A randomized rank-1 lattice rule (Korobov generating vector, 8 independent
uniform shifts) integrates term-graph integrands over products of spacetime
diamonds.  Designated vertex pairs with an integrable |z^2|^{-alpha}
singularity on the mutual lightcone are sampled through a power-law
importance map of the null-coordinate differences, which neutralizes the
weight.  Results are bit-reproducible from (spec, budget, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidExponent, SingularityBudgetExceeded
from .kernels import parallel_map
from .results import QuadResult

N_SHIFTS = 8
_KOROBOV_A = 1664525  # odd, so coprime with power-of-two lattice sizes
MIN_BUDGET = 1 << 10
# bounds time: every (point, node) array of a node sum is a block, so the
# arrays left grow with the points alone (an order-2 correlation at 2^17
# points peaked at 43 MiB traced, two workers)
MAX_BUDGET = 1 << 17
_POWER_FLOOR = 1e-10  # smallest |d| the power map samples, over its half


@dataclass(frozen=True)
class SingularPair:
    """Pair of vertices whose mutual lightcone carries |z^2|^{-alpha}."""

    i: int
    j: int
    alpha: float


@dataclass(frozen=True)
class IntegrandSpec:
    """Integrand over n 2D vertices.

    ``fn`` receives points of shape (N, n, 2) in (t, x) coordinates and
    returns values of shape (N,), or a pair (values, envelope) whose
    envelope bounds the error of each value; the integral of the envelope
    is then added to the reported error.  With ``boxes`` unset each vertex
    ranges over the diamond D_mu (sampled in null coordinates, Jacobian 1/2
    per vertex); otherwise vertex k ranges uniformly over boxes[k] =
    (tmin, tmax, xmin, xmax).
    """

    n_vertices: int
    fn: Callable[[np.ndarray], np.ndarray]
    mu: float = 1.0
    singular_pairs: tuple[SingularPair, ...] = ()
    boxes: tuple[tuple[float, float, float, float], ...] | None = None


def _lattice_points(n_points: int, dim: int, shift: np.ndarray) -> np.ndarray:
    z = np.empty(dim, dtype=np.uint64)
    acc = 1
    for k in range(dim):
        z[k] = acc
        acc = (acc * _KOROBOV_A) % n_points
    idx = np.arange(n_points, dtype=np.uint64)
    pts = (np.outer(idx, z) % n_points) / float(n_points)
    return (pts + shift) % 1.0


def _power_map(r: np.ndarray, beta: float, half: float):
    """Inverse-CDF sample of density c |d|^{-beta} on [-half, half].

    |d| is floored at _POWER_FLOOR * half so the difference survives the
    floating-point addition to the base coordinate; the density is evaluated
    at the clamped point, leaving a bias of order _POWER_FLOOR^(1-alpha).
    """
    xi = 2.0 * r - 1.0
    sgn = np.where(xi >= 0.0, 1.0, -1.0)
    mag = half * np.abs(xi) ** (1.0 / (1.0 - beta))
    mag = np.maximum(mag, _POWER_FLOOR * half)
    dens = (1.0 - beta) / (2.0 * half ** (1.0 - beta)) * mag ** (-beta)
    return sgn * mag, 1.0 / dens


def _map_points(r: np.ndarray, spec: IntegrandSpec, p_hat: float):
    """Unit-cube points -> spacetime points (N, n, 2) and weights (N,)."""
    n_pts = r.shape[0]
    n = spec.n_vertices
    t = np.empty((n_pts, n))
    x = np.empty((n_pts, n))
    weight = np.ones(n_pts)

    if spec.boxes is not None:
        for k, (tmin, tmax, xmin, xmax) in enumerate(spec.boxes):
            t[:, k] = tmin + (tmax - tmin) * r[:, 2 * k]
            x[:, k] = xmin + (xmax - xmin) * r[:, 2 * k + 1]
            weight *= (tmax - tmin) * (xmax - xmin)
        return np.stack([t, x], axis=-1), weight

    mu = spec.mu
    dependents = {sp.j: sp for sp in spec.singular_pairs}
    if len(dependents) != len(spec.singular_pairs):
        raise ValueError("a vertex may depend on at most one singular pair")
    u = np.empty((n_pts, n))
    v = np.empty((n_pts, n))
    for k in range(n):
        sp = dependents.get(k)
        if sp is None:
            u[:, k] = mu * (2.0 * r[:, 2 * k] - 1.0)
            v[:, k] = mu * (2.0 * r[:, 2 * k + 1] - 1.0)
            weight *= (2.0 * mu) ** 2
        else:
            if sp.i >= k:
                raise ValueError("singular pair base must precede dependent")
            beta = sp.alpha * p_hat
            du, wu = _power_map(r[:, 2 * k], beta, 2.0 * mu)
            dv, wv = _power_map(r[:, 2 * k + 1], beta, 2.0 * mu)
            u[:, k] = u[:, sp.i] + du
            v[:, k] = v[:, sp.i] + dv
            weight *= wu * wv
            weight *= ((np.abs(u[:, k]) < mu) & (np.abs(v[:, k]) < mu))
            # rejected points carry zero weight; clip them into the domain
            # so integrands with a bounded evaluation box stay valid
            np.clip(u[:, k], -mu, mu, out=u[:, k])
            np.clip(v[:, k], -mu, mu, out=v[:, k])
    # u = t - x, v = t + x; dt dx = du dv / 2
    t[:] = 0.5 * (u + v)
    x[:] = 0.5 * (v - u)
    weight *= 0.5 ** n
    return np.stack([t, x], axis=-1), weight


def _run_lattice(spec: IntegrandSpec, n_points: int, shifts: np.ndarray,
                 p_hat: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-shift means over the n_points lattice, over its even-indexed
    points, which form the embedded n_points/2 lattice exactly, and of the
    integrand's envelope (0 where fn returns plain values).  The shifts
    run on the pool of kernels.parallel_map and are gathered in shift
    order, so the sums do not depend on WORKERS."""
    def sums(shift):
        r = _lattice_points(n_points, 2 * spec.n_vertices, shift)
        pts, w = _map_points(r, spec, p_hat)
        out = spec.fn(pts)
        out, env = out if isinstance(out, tuple) else (out, 0.0)
        vals = np.asarray(out) * w
        return (np.sum(vals) / n_points,
                np.sum(vals[::2]) / (n_points // 2),
                np.sum(env * w) / n_points)

    means, halves, envelopes = zip(*parallel_map(sums, shifts))
    return np.asarray(means), np.asarray(halves), np.asarray(envelopes)


def _replicate_error(means: np.ndarray) -> float:
    # an overflow shows as a non-finite error, which evaluate_terms refuses
    with np.errstate(over="ignore", invalid="ignore"):
        var = np.std(means.real, ddof=1) ** 2 + np.std(means.imag, ddof=1) ** 2
    return float(var) ** 0.5 / np.sqrt(N_SHIFTS)


def integrate(spec: IntegrandSpec, budget: int, seed: int,
              p_hat: float = 1.5) -> QuadResult:
    """Randomized lattice-rule estimate with an empirical standard error.

    Deterministic for fixed (spec, budget, seed).  Raises
    SingularityBudgetExceeded when the replicate error grows by more than
    a factor 4 under doubling the point count, which flags a singular
    integrand the importance map failed to tame; the half-size rule is the
    embedded sublattice, so the check evaluates no extra points.
    """
    if budget < MIN_BUDGET:
        raise ValueError(f"budget must be >= {MIN_BUDGET}")
    for sp in spec.singular_pairs:
        if not 0.0 <= sp.alpha * p_hat < 1.0:
            raise InvalidExponent(
                f"alpha * p_hat = {sp.alpha * p_hat} outside [0, 1) for "
                f"pair ({sp.i},{sp.j})")
    n_points = 1 << int(np.ceil(np.log2(budget)))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    shifts = rng.random((N_SHIFTS, 2 * spec.n_vertices))

    means, halves, envelopes = _run_lattice(spec, n_points, shifts, p_hat)
    value = complex(np.mean(means))
    err = _replicate_error(means)
    if value.imag == 0.0:
        value = value.real

    if spec.singular_pairs:
        err_half = _replicate_error(halves)
        if err > 4.0 * err_half and err > 1e-12 * (abs(value) + 1e-300):
            raise SingularityBudgetExceeded(
                f"error grew from {err_half:g} to {err:g} under doubling")
    return QuadResult(value, err + float(sum(envelopes)) / N_SHIFTS,
                      n_points * N_SHIFTS, seed)


def smeared_pairing(kernel: Callable, f, fp, budget: int, seed: int) -> QuadResult:
    """Bilinear pairing  int int K(z, z') f(z) f'(z') dz dz'.

    ``kernel`` is called as kernel(t, x, tp, xp) on arrays; f and fp are
    smearing functions exposing __call__ and support_box().
    """
    box_f = f.support_box()
    box_fp = fp.support_box()

    def fn(pts):
        t, x = pts[:, 0, 0], pts[:, 0, 1]
        tp, xp = pts[:, 1, 0], pts[:, 1, 1]
        fv = f(t, x)
        fpv = fp(tp, xp)
        live = (fv != 0.0) & (fpv != 0.0)
        out = np.zeros(t.shape, dtype=complex)
        if np.any(live):
            kv = kernel(t[live], x[live], tp[live], xp[live])
            out[live] = fv[live] * fpv[live] * np.asarray(kv)
        if np.all(np.abs(out.imag) == 0.0):
            return out.real
        return out

    spec = IntegrandSpec(2, fn, boxes=(box_f, box_fp))
    return integrate(spec, budget, seed)
