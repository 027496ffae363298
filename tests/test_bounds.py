import math

import numpy as np
import pytest

from stochsg import bounds as bnd
from stochsg import kernels as ker
from stochsg import series as ser
from stochsg.errors import (DegenerateConfiguration, GridTooCoarse,
                            InvalidExponent, OutOfDomain, StochSGError)


def _flat_table(params, value):
    tg = np.linspace(-params.mu, params.mu, 5)
    dg = np.linspace(-2 * params.mu, 2 * params.mu, 5)
    return ker.QTable(tg, dg, np.full((5, 5, 5), float(value)), params)


class TestCQ:
    def test_zero_table(self, params):
        assert bnd.c_q_constant(_flat_table(params, 0.0), 1.0, 1.0) == 1.0

    def test_zero_charge(self, qtable):
        assert bnd.c_q_constant(qtable, 0.0, 1.0) == 1.0

    def test_monotone_in_a(self, qtable):
        assert bnd.c_q_constant(qtable, 2.0, 1.0) > \
            bnd.c_q_constant(qtable, 1.0, 1.0) >= 1.0

    def test_coverage_check(self, qtable):
        with pytest.raises(OutOfDomain):
            bnd.c_q_constant(qtable, 1.0, qtable.params.mu * 2)

    def test_massless_sharp_oracle_scan(self):
        # near-sharp massless table: sup Q matches the closed-form scan
        p = ker.ModelParams(m=0.0, t_switch=0.0, chi_width=1e-3, mu=1.0)
        table = ker.build_q_table(p, n_t=16, n_x=25, budget=144)
        sup = -1.0
        for t in table.time_grid:
            for tp in table.time_grid:
                for d in table.space_offset_grid:
                    z = ker.SpacetimePoint(t, d)
                    zp = ker.SpacetimePoint(tp, 0.0)
                    sup = max(sup, ker.covariance_q0_sharp(z, zp, 0.0))
        got = bnd.c_q_constant(table, 1.0, 1.0)
        assert got == pytest.approx(math.exp(0.5 * sup), rel=2e-2)
        # the maximum sits at the top corner t = t' = mu, d = 0
        assert sup == pytest.approx(0.25)


class TestConditioning:
    def test_identical_kernels_zero(self, params):
        zero = lambda t, x: np.zeros(np.shape(t))
        k, n = bnd.conditioning_constants(params, 256, kernel_pair=(zero, zero))
        assert k == 0.0 and n == 0.0

    def test_massive_converges(self, params):
        k, n = bnd.conditioning_constants(params.with_(m=1.0), 256)
        assert k > 0 and 0 <= n <= k + 1e-12

    def test_split_parts_nonnegative(self, params):
        k, n, (k1, n1) = bnd.conditioning_constants(
            params.with_(m=1.0), 256, _return_parts=True)
        assert n >= 0 and k >= n
        assert abs(k - k1) <= 0.05 * k

    def test_grid_validation(self, params):
        with pytest.raises(ValueError):
            bnd.conditioning_constants(params.with_(m=1.0), 100)
        with pytest.raises(ValueError):
            bnd.conditioning_constants(params.with_(m=1.0), 300)

    def test_too_coarse_detected(self, params):
        # a kernel pair rough enough to defeat a 256-point grid
        rng_kernel = lambda t, x: np.cos(40.0 * np.pi * np.asarray(t)) \
            * np.cos(38.0 * np.pi * np.asarray(x))
        zero = lambda t, x: np.zeros(np.shape(t))
        with pytest.raises(GridTooCoarse):
            bnd.conditioning_constants(params, 256, tol=1e-4,
                                       kernel_pair=(rng_kernel, zero))


class TestQSBound:
    def test_order_zero_is_two(self, params_alpha_half):
        rep = bnd.qs_term_bound(0, 1.5, params_alpha_half, 1.1, 0.4, 0.5)
        assert rep.bound_value == pytest.approx(2.0)

    def test_invalid_exponent(self, params_alpha_half):
        with pytest.raises(InvalidExponent):
            bnd.qs_term_bound(1, 2.5, params_alpha_half, 1.1, 0.4, 0.5)
        with pytest.raises(InvalidExponent):
            bnd.qs_term_bound(1, 0.5, params_alpha_half, 1.1, 0.4, 0.5)

    def test_conjugate_exponent(self, params_alpha_half):
        rep = bnd.qs_term_bound(1, 1.5, params_alpha_half, 1.1, 0.4, 0.5)
        assert 1.0 / rep.p + 1.0 / rep.q == pytest.approx(1.0)

    def test_eventually_decreasing_at_cq_one(self, params_alpha_half):
        vals = [bnd.qs_term_bound(n, 1.5, params_alpha_half, 1.0, 0.4, 0.5)
                .bound_value for n in range(12)]
        ratios = [vals[n + 1] / vals[n] for n in range(6, 11)]
        assert ratios[-1] < 1.0
        assert all(r2 <= r1 * 1.01 for r1, r2 in zip(ratios, ratios[1:]))

    def test_satisfaction_alpha_half(self, ctx_alpha_half, params_alpha_half,
                                     qtable_alpha_half, smearings):
        c_q = bnd.c_q_constant(qtable_alpha_half, params_alpha_half.a,
                               params_alpha_half.mu)
        k_cond, _ = bnd.conditioning_constants(params_alpha_half, 256)
        g_norm = smearings["g"].norm_lq(3.0)
        for n in (1, 2, 3):
            mag = ser.qs_term_magnitude(ctx_alpha_half, n, 2048, 31 + n)
            rep = bnd.qs_term_bound(n, 1.5, params_alpha_half, c_q, k_cond,
                                    g_norm, mag.value)
            assert rep.satisfied is True

    @pytest.mark.parametrize("lam,g_norm", [(0.0, 0.5), (0.5, 0.0)])
    def test_zero_coupling_or_cutoff(self, params_alpha_half, lam, g_norm):
        # the bound carries (lambda ||g||_q)^n
        p = params_alpha_half.with_(lam=lam)
        bounds = [bnd.qs_term_bound(n, 1.5, p, 1.1, 0.4, g_norm, 0.0)
                  for n in range(3)]
        assert [r.bound_value for r in bounds] == [
            bnd.qs_term_bound(0, 1.5, params_alpha_half, 1.1, 0.4,
                              0.5).bound_value, 0.0, 0.0]
        assert all(r.satisfied is True for r in bounds)


class TestTail:
    def test_decreasing_in_start(self, params_alpha_half):
        p = params_alpha_half.with_(lam=1e-3)
        t1 = bnd.tail_bound(0, 1.5, p, 1.12, 0.4, 0.55)
        t2 = bnd.tail_bound(1, 1.5, p, 1.12, 0.4, 0.55)
        t3 = bnd.tail_bound(2, 1.5, p, 1.12, 0.4, 0.55)
        assert t1 > t2 > t3 > 0

    @pytest.mark.parametrize("lam,g_norm", [(0.0, 0.55), (1e-3, 0.0)])
    def test_zero_tail(self, params_alpha_half, lam, g_norm):
        p = params_alpha_half.with_(lam=lam)
        assert bnd.tail_bound(0, 1.5, p, 1.12, 0.4, g_norm) == 0.0

    def test_divergent_config_raises(self, params_alpha_half):
        with pytest.raises(StochSGError):
            bnd.tail_bound(0, 1.5, params_alpha_half.with_(lam=10.0),
                           1.2, 0.4, 0.55)

    def test_partial_sums_cauchy(self, params_alpha_half):
        p = params_alpha_half.with_(lam=1e-3)
        terms = [bnd.qs_term_bound(n, 1.5, p, 1.12, 0.4, 0.55).bound_value
                 for n in range(30)]
        partial = np.cumsum(terms)
        tail_var = np.abs(np.diff(partial[8:]))
        assert np.all(tail_var < 1e-12 * partial[-1])


class TestCauchyDet:
    def test_n1_exact(self):
        xs = np.array([[0.3, 0.1]])
        ys = np.array([[-0.2, 0.4]])
        assert bnd.cauchy_det_check(xs, ys) < 1e-14

    def test_random_configs(self):
        rng = np.random.default_rng(123)
        for n, tol in ((2, 1e-10), (3, 1e-9), (4, 1e-8)):
            done = 0
            while done < 25:
                xs = rng.uniform(-1, 1, (n, 2))
                ys = rng.uniform(-1, 1, (n, 2))
                try:
                    res = bnd.cauchy_det_check(xs, ys)
                except DegenerateConfiguration:
                    continue
                assert res < tol
                done += 1

    def test_degenerate_raises(self):
        xs = np.array([[0.3, 0.1], [0.3, 0.1 + 1e-12]])
        ys = np.array([[-0.2, 0.4], [0.5, -0.3]])
        with pytest.raises(DegenerateConfiguration):
            bnd.cauchy_det_check(xs, ys)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            bnd.cauchy_det_check(np.zeros((2, 2)), np.zeros((3, 2)))
