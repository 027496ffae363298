import numpy as np
import pytest

from stochsg import kernels as ker
from stochsg import quad as qd
from stochsg import spde_mc as mc
from stochsg.errors import CflViolation
from stochsg.kernels import SpacetimePoint


@pytest.fixture(scope="module")
def small_grid(params):
    return mc.LatticeGrid(0.05, 0.05, 40, 120, params.t_switch, -3.0)


class TestGrid:
    def test_cfl_violation(self):
        with pytest.raises(CflViolation):
            mc.LatticeGrid(0.2, 0.1, 10, 10, 0.0, 0.0)

    def test_grid_for_covers_dependence(self, params, smearings):
        grid = mc.grid_for(params, list(smearings.values()), dt=0.05, pad=0.2)
        t_max = max(f.support_box()[1] for f in smearings.values())
        assert grid.times[-1] >= t_max
        span = t_max - params.t_switch
        assert grid.xs[0] <= min(f.support_box()[2]
                                 for f in smearings.values()) - span
        assert grid.dt == grid.dx


class TestNoise:
    def test_zero_before_switch_on(self, params, small_grid):
        xi = mc.sample_noise(small_grid, params, seed=1, realization=0)
        before = small_grid.times < params.t_switch
        assert np.all(xi[before, :] == 0.0)

    def test_cell_variance(self, params, small_grid):
        # rows with chi = 1: variance 1/(dt dx) within 3 standard errors
        rows = small_grid.times >= params.t_switch + params.chi_width
        samples = np.concatenate([
            mc.sample_noise(small_grid, params, seed=2, realization=r)[rows, :].ravel()
            for r in range(10)])
        var = samples.var()
        target = 1.0 / (small_grid.dt * small_grid.dx)
        stderr = target * np.sqrt(2.0 / samples.size)
        assert abs(var - target) <= 3 * stderr

    def test_realizations_independent(self, params, small_grid):
        a = mc.sample_noise(small_grid, params, seed=3, realization=0).ravel()
        b = mc.sample_noise(small_grid, params, seed=3, realization=1).ravel()
        live = (a != 0) & (b != 0)
        corr = np.corrcoef(a[live], b[live])[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(live.sum())

    def test_counter_addressable(self, params, small_grid):
        a1 = mc.sample_noise(small_grid, params, seed=4, realization=7)
        a2 = mc.sample_noise(small_grid, params, seed=4, realization=7)
        assert np.array_equal(a1, a2)
        b = mc.sample_noise(small_grid, params, seed=5, realization=7)
        assert not np.array_equal(a1, b)


class TestSolver:
    def test_zero_noise(self, small_grid):
        psi = mc.solve_linear(np.zeros((small_grid.n_t, small_grid.n_x)),
                              small_grid, m=1.0)
        assert np.all(psi == 0.0)

    def _manufactured(self, dt, m=1.0):
        # psi = (1 - cos(w t~)) cos(k x), t~ = t - t0; zero initial data
        L = 4.0
        n_x = int(round(L / dt))
        k = 2.0 * np.pi * 3 / L
        w = 1.7
        grid = mc.LatticeGrid(dt, dt, int(round(1.5 / dt)) + 1, n_x,
                              0.0, 0.0, boundary="periodic")
        T, X = np.meshgrid(grid.times, grid.xs, indexing="ij")
        exact = (1.0 - np.cos(w * T)) * np.cos(k * X)
        source = (w * w * np.cos(w * T) * np.cos(k * X)
                  + (k * k + m * m) * (1.0 - np.cos(w * T)) * np.cos(k * X))
        psi = mc.solve_linear(source, grid, m)
        err = psi[-1] - exact[-1]
        return np.sqrt(np.mean(err ** 2))

    def test_manufactured_solution_order(self):
        e1 = self._manufactured(0.05)
        e2 = self._manufactured(0.025)
        assert e1 / e2 >= 3.5

    def test_lattice_matches_q_diagonal(self, params, smearings):
        grid = mc.grid_for(params, [smearings["f1"]], dt=0.02, pad=0.3)
        probe = SpacetimePoint(0.35, -0.25)
        it = int(round((probe.t - grid.t0) / grid.dt))
        ix = int(round((probe.x - grid.x0) / grid.dx))
        n = 3000
        vals = []
        for lo in range(0, n, 500):
            noise = np.stack([mc.sample_noise(grid, params, 6, r)
                              for r in range(lo, lo + 500)])
            psi0 = mc.solve_linear(noise, grid, params.m)
            vals.append(psi0[:, it, ix] ** 2)
        vals = np.concatenate(vals)
        q_ref = ker.covariance_q(probe, probe, params, budget=400)
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - q_ref.value) <= 3 * stderr + q_ref.error

    def test_domain_of_dependence_exact(self, params, small_grid):
        noise = mc.sample_noise(small_grid, params, seed=7, realization=0)
        it, ix = 30, 60
        psi = mc.solve_linear(noise, small_grid, params.m)
        # perturb outside the past cone of the probe: |dx| > dt steps back
        tampered = noise.copy()
        tampered[10, ix + (it - 10) + 5] += 100.0
        psi2 = mc.solve_linear(tampered, small_grid, params.m)
        assert psi2[it, ix] == psi[it, ix]
        # perturbing inside the cone does change it
        tampered2 = noise.copy()
        tampered2[10, ix] += 100.0
        psi3 = mc.solve_linear(tampered2, small_grid, params.m)
        assert psi3[it, ix] != psi[it, ix]


class TestHierarchy:
    def test_vanishing_charge_or_cutoff(self, params, small_grid, smearings):
        noise = mc.sample_noise(small_grid, params, seed=8, realization=0)
        psi0 = mc.solve_linear(noise, small_grid, params.m)
        g_grid = small_grid.sample(smearings["g"])
        p0 = params.with_(a=0.0)
        psi1, psi2 = mc.solve_hierarchy(psi0, small_grid, p0, g_grid)
        assert np.all(psi1 == 0.0) and np.all(psi2 == 0.0)
        psi1, psi2 = mc.solve_hierarchy(psi0, small_grid, params,
                                        np.zeros_like(g_grid))
        assert np.all(psi1 == 0.0) and np.all(psi2 == 0.0)

    def test_noise_sign_flip_parity(self, params, small_grid, smearings):
        noise = mc.sample_noise(small_grid, params, seed=9, realization=0)
        g_grid = small_grid.sample(smearings["g"])
        psi0 = mc.solve_linear(noise, small_grid, params.m)
        psi0f = mc.solve_linear(-noise, small_grid, params.m)
        assert np.array_equal(psi0f, -psi0)
        (psi1,) = mc.solve_hierarchy(psi0, small_grid, params, g_grid,
                                     max_order=1)
        (psi1f,) = mc.solve_hierarchy(psi0f, small_grid, params, g_grid,
                                      max_order=1)
        assert np.array_equal(psi1f, -psi1)
        f1 = small_grid.sample(smearings["f1"])
        f2 = small_grid.sample(smearings["f2"])
        cell = small_grid.dt * small_grid.dx
        prod = np.sum(psi0 * f1) * np.sum(psi1 * f2) * cell ** 2
        prodf = np.sum(psi0f * f1) * np.sum(psi1f * f2) * cell ** 2
        assert prod == prodf  # even in the noise sign, per sample


class TestEstimator:
    def test_reproducible_across_workers(self, params, smearings, mc_grid,
                                         monkeypatch):
        obs = [mc.ObservableSpec("c0", "corr", ("f1", "f2"), 0)]
        monkeypatch.setenv("WORKERS", "1")
        a = mc.estimate_correlator(obs, mc_grid, params, smearings, 300, 10)
        monkeypatch.setenv("WORKERS", "4")
        b = mc.estimate_correlator(obs, mc_grid, params, smearings, 300, 10)
        assert a == b

    def test_centered_moments(self, mc_estimates):
        e0 = mc_estimates["e0"]
        e1 = mc_estimates["e1"]
        assert abs(e0.mean) <= 3 * e0.stderr
        assert abs(e1.mean) <= 3 * e1.stderr

    def test_corr0_matches_pairing(self, params, qtable, smearings,
                                   mc_estimates):
        pair = qd.smeared_pairing(
            lambda t, x, tp, xp: qtable.interp(t, x, tp, xp),
            smearings["f1"], smearings["f2"], 8192, 11)
        e = mc_estimates["corr0"]
        err = np.hypot(e.stderr, pair.error) + 1e-3 * abs(pair.value)
        assert abs(e.mean - complex(pair.value).real) <= 3 * err

    def test_sample_floor(self, params, smearings, mc_grid):
        with pytest.raises(ValueError):
            mc.estimate_correlator([mc.ObservableSpec("c", "corr",
                                                      ("f1", "f2"), 0)],
                                   mc_grid, params, smearings, 50, 13)
