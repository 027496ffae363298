import dataclasses

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

    def test_writes_only_the_drawn_cells(self, params, small_grid):
        # a given block keeps every cell that is not drawn, so callers
        # zero it once
        shape = (small_grid.n_t, small_grid.n_x)
        cells = np.arange(5, shape[0] * shape[1], 3)
        fresh = mc.sample_noise(small_grid, params, seed=9, realization=2,
                                cells=cells)
        garbage = np.random.default_rng(0).normal(size=shape)
        block = garbage.copy()
        out = mc.sample_noise(small_grid, params, seed=9, realization=2,
                              out=block, cells=cells)
        assert out is block
        drawn = np.zeros(block.size, dtype=bool)
        drawn[cells] = True
        drawn = drawn.reshape(shape)
        assert np.array_equal(block[drawn], fresh[drawn])
        assert np.array_equal(block[~drawn], garbage[~drawn])
        assert np.all(fresh[~drawn] == 0.0)


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
        src1, src2 = mc.solve_hierarchy(psi0, small_grid, p0, g_grid)
        assert src1.size and np.all(src1 == 0.0) and np.all(src2 == 0.0)
        src1, src2 = mc.solve_hierarchy(psi0, small_grid, params,
                                        np.zeros_like(g_grid))
        assert np.all(src1 == 0.0) and np.all(src2 == 0.0)

    def test_noise_sign_flip_parity(self, params, small_grid, smearings):
        noise = mc.sample_noise(small_grid, params, seed=9, realization=0)
        g_grid = small_grid.sample(smearings["g"])
        psi0 = mc.solve_linear(noise, small_grid, params.m)
        psi0f = mc.solve_linear(-noise, small_grid, params.m)
        assert np.array_equal(psi0f, -psi0)
        (src1,) = mc.solve_hierarchy(psi0, small_grid, params, g_grid,
                                     max_order=1)
        (src1f,) = mc.solve_hierarchy(psi0f, small_grid, params, g_grid,
                                      max_order=1)
        assert np.array_equal(src1f, -src1)
        f1 = small_grid.sample(smearings["f1"])
        n0, n1, j0, j1 = mc._nonzero_box(g_grid)
        a2 = mc.adjoint_field(small_grid.sample(smearings["f2"]), small_grid,
                              params.m)[n0:n1, j0:j1]
        cell = small_grid.dt * small_grid.dx
        prod = np.sum(psi0 * f1) * np.sum(src1 * a2) * cell ** 2
        prodf = np.sum(psi0f * f1) * np.sum(src1f * a2) * cell ** 2
        assert prod == prodf  # even in the noise sign, per sample


class TestAdjoint:
    @pytest.mark.parametrize("boundary", mc.BOUNDARIES)
    @pytest.mark.parametrize("n_x", [2, 3, 17])
    @pytest.mark.parametrize("n_t", [2, 3, 12])
    def test_adjoint_identity(self, params, boundary, n_x, n_t):
        # <f, G s> = <G^T f, s> for random f and s, to rounding relative to
        # the size of the terms summed
        grid = mc.LatticeGrid(0.05, 0.05, n_t, n_x, 0.0, 0.0, boundary)
        rng = np.random.default_rng(100 * n_t + n_x)
        f, s = rng.standard_normal((2, n_t, n_x))
        psi = mc.solve_linear(s, grid, params.m)
        adj = mc.adjoint_field(f, grid, params.m)
        lhs, rhs = np.sum(f * psi), np.sum(adj * s)
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(f * psi))
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(adj * s))


def _reference_solve(source, grid, m):
    """Whole-block leapfrog with the filter and the Laplacian applied to
    full rows through np.roll or zero-filled neighbours: the reference the
    row-stepped solve_linear must match bit for bit."""
    periodic = grid.boundary == "periodic"

    def neighbours(rows):
        if periodic:
            return np.roll(rows, 1, axis=-1), np.roll(rows, -1, axis=-1)
        left, right = np.zeros_like(rows), np.zeros_like(rows)
        left[..., 1:] = rows[..., :-1]
        right[..., :-1] = rows[..., 1:]
        return left, right

    def laplacian(rows):
        if periodic:
            left, right = neighbours(rows)
            return (left - 2.0 * rows + right) / grid.dx ** 2
        out = np.zeros_like(rows)
        out[..., 1:-1] = (rows[..., 2:] - 2.0 * rows[..., 1:-1]
                          + rows[..., :-2]) / grid.dx ** 2
        out[..., 0] = (rows[..., 1] - 2.0 * rows[..., 0]) / grid.dx ** 2
        out[..., -1] = (rows[..., -2] - 2.0 * rows[..., -1]) / grid.dx ** 2
        return out

    left, right = neighbours(source)
    source = 0.25 * left + 0.5 * source + 0.25 * right
    dt2 = grid.dt ** 2
    psi = np.zeros(source.shape)
    psi[..., 1, :] = 0.5 * dt2 * source[..., 0, :]
    for n in range(1, grid.n_t - 1):
        cur = psi[..., n, :]
        acc = laplacian(cur) - m * m * cur + source[..., n, :]
        psi[..., n + 1, :] = 2.0 * cur - psi[..., n - 1, :] + dt2 * acc
    return psi


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def _inside(window, shape):
    """Boolean (n_t, n_x) mask of the cells in per-row windows [lo, hi)."""
    cols = np.arange(shape[1])
    return (cols >= window[:, :1]) & (cols < window[:, 1:])


class TestWindowedSolve:
    """Solving only the light-cone windows leaves every computed cell
    bit-identical to the whole-lattice solve."""

    def _check(self, grid, params, leg_grids, g_grid, seed):
        rng = np.random.default_rng(seed)
        source = rng.standard_normal((3, grid.n_t, grid.n_x))
        w0, w1 = mc.light_cone_windows(grid, leg_grids, g_grid)
        in0 = _inside(w0, (grid.n_t, grid.n_x))
        in1 = _inside(w1, (grid.n_t, grid.n_x))
        full0 = mc.solve_linear(source, grid, params.m)
        assert np.array_equal(_bits(full0),
                              _bits(_reference_solve(source, grid, params.m)))
        part0 = mc.solve_linear(source, grid, params.m, w0)
        assert np.array_equal(part0[:, in0], full0[:, in0])
        assert np.all(part0[:, ~in0] == 0.0)
        # the windowed solve reads no source cell outside noise_cells
        read = np.zeros(grid.n_t * grid.n_x, dtype=bool)
        read[mc.noise_cells(grid, w0)] = True
        read = read.reshape(grid.n_t, grid.n_x)
        junk = np.where(read, source, rng.standard_normal(source.shape))
        assert not read.all()
        assert np.array_equal(
            _bits(mc.solve_linear(junk, grid, params.m, w0)), _bits(part0))
        # the sources on g's box, built from Psi_0 and Psi_1 solved on their
        # windows, match those of whole-lattice solves
        full = mc.solve_hierarchy(full0, grid, params, g_grid)
        part = mc.solve_hierarchy(part0, grid, params, g_grid, window=w1)
        for f, p in zip(full, part):
            assert np.array_equal(_bits(p), _bits(f))
        n0, n1, j0, j1 = mc._nonzero_box(g_grid)
        src1 = np.zeros(source.shape)
        src1[:, n0:n1, j0:j1] = full[0]
        psi1 = mc.solve_linear(src1, grid, params.m, w1)
        assert np.array_equal(psi1[:, in1],
                              mc.solve_linear(src1, grid, params.m)[:, in1])
        return w0

    @pytest.mark.parametrize("boundary", mc.BOUNDARIES)
    @pytest.mark.parametrize("n_x", [2, 3, 17])
    def test_whole_rows_match_reference(self, params, boundary, n_x):
        # every bit, signed zeros included, at the edges and inside
        grid = mc.LatticeGrid(0.05, 0.05, 12, n_x, 0.0, 0.0, boundary)
        source = np.random.default_rng(n_x).standard_normal((2, 12, n_x))
        source[:, :3] = 0.0
        source[:, 0] = -0.0     # psi row 1 is the filtered row 0, sign and all
        source[0, 5, 0] = -0.0
        assert np.array_equal(
            _bits(mc.solve_linear(source, grid, params.m)),
            _bits(_reference_solve(source, grid, params.m)))

    @pytest.mark.parametrize("boundary", mc.BOUNDARIES)
    @pytest.mark.parametrize("pad,trim", [(0.25, 0), (0.0, 0), (0.0, 6)])
    def test_windowed_cells_match_full_solve(self, params, smearings,
                                             boundary, pad, trim):
        # trim cuts cells off both sides of the lattice, so the backward
        # cones of the supports reach its edges
        grid = mc.grid_for(params, list(smearings.values()), dt=0.05,
                           pad=pad, boundary=boundary)
        grid = dataclasses.replace(grid, x0=grid.x0 + trim * grid.dx,
                                   n_x=grid.n_x - 2 * trim)
        legs = [grid.sample(smearings[k]) for k in ("f1", "f2")]
        w0 = self._check(grid, params, legs, grid.sample(smearings["g"]), 1)
        reaches = w0[:, 0].min() == 0 and w0[:, 1].max() == grid.n_x
        assert reaches == (trim > 0)

    @pytest.mark.parametrize("boundary", mc.BOUNDARIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_boxes(self, params, boundary, seed):
        # legs and g non-zero on random boxes, some touching an edge
        grid = mc.LatticeGrid(0.05, 0.05, 30, 40, params.t_switch, -1.0,
                              boundary)
        rng = np.random.default_rng(seed)

        def boxed():
            values = np.zeros((grid.n_t, grid.n_x))
            n0, n1 = sorted(rng.integers(0, grid.n_t + 1, 2))
            j0, j1 = sorted(rng.integers(0, grid.n_x + 1, 2))
            values[n0:n1 + 1, j0:j1 + 1] = rng.uniform(0.5, 1.5)
            return values
        self._check(grid, params, [boxed(), boxed()], boxed(), seed)

    def test_windows_of_empty_interaction(self, params, small_grid):
        g = np.zeros((small_grid.n_t, small_grid.n_x))
        leg = g.copy()
        leg[20:25, 50:60] = 1.0
        w0, w1 = mc.light_cone_windows(small_grid, [leg], g)
        assert not (w1[:, 1] > w1[:, 0]).any()
        assert np.array_equal(w0[24], [50, 60])
        assert np.array_equal(w0[0], [26, 84])
        assert not (w0[25:, 1] > w0[25:, 0]).any()


class TestEstimator:
    def test_reproducible_across_workers(self, params, smearings, mc_grid,
                                         monkeypatch):
        obs = [mc.ObservableSpec("c0", "corr", ("f1", "f2"), 0)]
        monkeypatch.setenv("WORKERS", "1")
        a = mc.estimate_correlator(obs, mc_grid, params, smearings, 300, 10)
        monkeypatch.setenv("WORKERS", "4")
        b = mc.estimate_correlator(obs, mc_grid, params, smearings, 300, 10)
        assert a == b

    def test_order2_reproducible_across_workers(self, params, smearings,
                                                mc_grid, monkeypatch):
        # the Psi_2 path, two-leg and one-leg, over several chunks
        obs = [mc.ObservableSpec(f"{kind}{n}", kind, legs, n)
               for kind, legs in (("corr", ("f1", "f2")), ("expect", ("f1",)))
               for n in range(3)]
        monkeypatch.setenv("WORKERS", "1")
        a = mc.estimate_correlator(obs, mc_grid, params, smearings, 200, 14,
                                   chunk=48)
        monkeypatch.setenv("WORKERS", "2")
        b = mc.estimate_correlator(obs, mc_grid, params, smearings, 200, 14,
                                   chunk=48)
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

    def test_matches_direct_path(self, params, smearings, mc_grid):
        # the adjoint path against whole solves of Psi_0, Psi_1 and Psi_2
        # from the same noise, smeared over the whole lattice
        obs = [mc.ObservableSpec(f"{kind}{n}", kind, legs, n)
               for kind, legs in (("corr", ("f1", "f2")), ("expect", ("f1",)))
               for n in range(3)]
        n, seed = 150, 21
        got = mc.estimate_correlator(obs, mc_grid, params, smearings, n, seed,
                                     chunk=64)
        want = _direct_estimates(obs, mc_grid, params, smearings, n, seed)
        for o in obs:
            g, w = got[o.obs_id], want[o.obs_id]
            assert abs(g.mean - w[0]) <= 1e-12 * abs(w[0]), o.obs_id
            assert abs(g.stderr - w[1]) <= 1e-12 * w[1], o.obs_id


def _direct_estimates(obs, grid, params, smearings, n, seed):
    """Means and standard errors of the observables by the direct path:
    the estimator's noise draws, whole-lattice solves of every hierarchy
    level, and smears over every cell."""
    legs = [grid.sample(smearings[k]) for k in ("f1", "f2")]
    g = grid.sample(smearings["g"])
    window0, _ = mc.light_cone_windows(grid, legs, g)
    cells = mc.noise_cells(grid, window0)
    noise = np.stack([mc.sample_noise(grid, params, seed, r, cells=cells)
                      for r in range(n)])
    a = params.a
    psi0 = mc.solve_linear(noise, grid, params.m)
    psi1 = mc.solve_linear(mc.SOURCE_SIGN * a * g * np.sin(a * psi0), grid,
                           params.m)
    psi2 = mc.solve_linear(mc.SOURCE_SIGN * a * a * g * np.cos(a * psi0)
                           * psi1, grid, params.m)
    cell = grid.dt * grid.dx
    s = {(name, k): np.sum(psi * leg, axis=(-2, -1)) * cell
         for name, leg in zip(("f1", "f2"), legs)
         for k, psi in enumerate((psi0, psi1, psi2))}
    out = {}
    for o in obs:
        if o.kind == "expect":
            vals = s[(o.legs[0], o.order)]
        else:
            vals = sum(s[(o.legs[0], k)] * s[(o.legs[1], o.order - k)]
                       for k in range(o.order + 1))
        lam_n = params.lam ** o.order
        out[o.obs_id] = (np.mean(vals) * lam_n,
                         np.std(vals, ddof=1) / np.sqrt(n) * abs(lam_n))
    return out
