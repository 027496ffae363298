import sys
import time

import numpy as np
import pytest

from stochsg import algebra as alg
from stochsg import kernels as ker
from stochsg import quad as qd
from stochsg import series as ser
from stochsg.errors import ConfigError, NonFiniteValue


class TestExpectation:
    def test_order_zero_exact(self, ctx):
        c = ser.expectation_coefficient(0, ctx, "f1", 2048, 1)
        assert c.value.value == 0.0 and c.value.error == 0.0

    def test_order_one_exact_zero(self, ctx):
        # the two charge sectors cancel pointwise inside the integrand
        c = ser.expectation_coefficient(1, ctx, "f1", 2048, 2)
        assert abs(complex(c.value.value)) <= 1e-14

    def test_order_two_consistent_with_zero(self, ctx):
        c = ser.expectation_coefficient(2, ctx, "f1", 2048, 3)
        assert abs(complex(c.value.value)) <= 3.0 * c.value.error + 1e-12


class TestCorrelation:
    def test_order_zero_is_smeared_q(self, ctx, qtable, smearings):
        c = ser.correlation_coefficient(0, ctx, "f1", "f2", 2048, 4)
        pair = qd.smeared_pairing(
            lambda t, x, tp, xp: qtable.interp(t, x, tp, xp),
            smearings["f1"], smearings["f2"], 8192, 5)
        err = c.value.error + pair.error + 1e-4 * abs(pair.value)
        assert abs(complex(c.value.value) - complex(pair.value)) <= 3 * err

    def test_symmetry_in_legs(self, ctx):
        a = ser.correlation_coefficient(1, ctx, "f1", "f2", 2048, 6)
        b = ser.correlation_coefficient(1, ctx, "f2", "f1", 2048, 6)
        comb = a.value.error + b.value.error
        assert abs(complex(a.value.value) - complex(b.value.value)) \
            <= 3 * comb + 1e-12

    def test_order_one_matches_oracle(self, ctx):
        c = ser.correlation_coefficient(1, ctx, "f1", "f2", 4096, 7)
        orc = ser.order1_correction_oracle(ctx, "f1", "f2", "g", 4096, 8)
        err = np.hypot(c.value.error, orc.error) + 1e-3 * abs(orc.value)
        assert abs(complex(c.value.value) - complex(orc.value)) <= 3 * err

    def test_order_two_matches_mc_hierarchy(self, ctx, mc_estimates):
        # deep cross-check of the n = 2 classical stratum (telescoping,
        # H-cancellation, Q-leg attachments) against the lattice oracle
        c2 = ser.correlation_coefficient(2, ctx, "f1", "f2", 8192, 360)
        e = mc_estimates["corr2"]
        z = abs(complex(c2.value.value).real - e.mean) \
            / np.hypot(c2.value.error, e.stderr)
        assert z < 3.0

    def test_support_before_switch_on_vanishes(self, params, qtable,
                                               smearings):
        early = ker.SmearingFunction.bump(params.t_switch - 0.3, 0.0, 0.1,
                                          name="early")
        sm = dict(smearings)
        sm["early"] = early
        ctx2 = ser.EvalContext(params, qtable, sm)
        for n in (0, 1, 2):
            c = ser.correlation_coefficient(n, ctx2, "early", "f2", 2048, 9)
            assert abs(complex(c.value.value)) <= 3 * c.value.error + 1e-13


class TestFieldTables:
    @pytest.mark.parametrize("leg", ["f1", "f2"])
    def test_tables_match_direct_sums(self, ctx, smearings, leg):
        # 2000 random points of supp g, in the disc of radius 0.5 at the
        # origin where g does not underflow to 0
        rng = np.random.default_rng(31)
        r = 0.5 * np.sqrt(rng.random(3000))
        phi = 2.0 * np.pi * rng.random(3000)
        t, x = r * np.cos(phi), r * np.sin(phi)
        live = smearings["g"](t, x) > 0
        t, x = t[live][:2000], x[live][:2000]
        assert t.size == 2000
        tab = ctx.field_table(leg)
        direct = ctx.smeared_kernel("Q", leg, t, x)
        err = np.abs(tab(t, x) - direct)
        bound = tab.bound(t, x)
        assert np.all(err <= bound)
        assert 0 < np.max(bound) <= 1e-3 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n,seed,recorded", [
        (1, 21, -3.8057778491312565e-07),
        (2, 22, 9.059371746314433e-08),
    ])
    def test_values_agree_with_direct_sums(self, ctx, n, seed, recorded):
        # recorded with every Q field summed over the leg nodes at each
        # quadrature point; the tables move them by 3e-7 relative or less
        c = ser.correlation_coefficient(n, ctx, "f1", "f2", 1024, seed)
        diff = abs(complex(c.value.value).real - recorded)
        assert diff <= c.value.error
        assert diff <= 1e-6 * abs(recorded)

    def test_caches_shared_across_hbar(self, params, qtable, smearings):
        ctx0 = ser.EvalContext(params, qtable, smearings)
        ser.quantum_coefficient(0, 0.1, ctx0, ["f1", "f2"], 1024, 7)
        ser.quantum_coefficient(1, 0.05, ctx0, ["f1", "f2"], 1024, 7)
        assert set(ctx0._field_tables) == {"f1", "f2"}
        assert ("Q", "f1", "f2") in ctx0._pairs


class TestWorkers:
    def test_results_do_not_depend_on_workers(self, params, qtable,
                                              smearings, monkeypatch):
        runs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("WORKERS", workers)
            c = ser.EvalContext(params, qtable, smearings, leg_nodes=12,
                                pair_nodes=12)
            runs.append((
                ser.correlation_coefficient(1, c, "f1", "f2", 1024, 3).value,
                ser.correlation_coefficient(2, c, "f1", "f2", 1024, 4).value,
                ser.quantum_coefficient(2, 0.1, c, ["f1", "f2"], 1024,
                                        5).value,
                ser.order1_correction_oracle(c, "f1", "f2", "g", 1024, 6)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("workers", ["2", "8"])
    def test_field_tables_built_once(self, params, qtable, smearings,
                                     monkeypatch, workers):
        monkeypatch.setenv("WORKERS", workers)
        tabulate = ker.tabulate_field
        built = []

        def counted(fn, box, domain, *args):
            built.append(domain)
            # hold the build open so that a second shift asks meanwhile
            time.sleep(0.2)
            return tabulate(fn, box, domain, *args)
        monkeypatch.setattr(ker, "tabulate_field", counted)
        c = ser.EvalContext(params, qtable, smearings)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ser.correlation_coefficient(1, c, "f1", "f2", 1024, 3)
            ser.quantum_coefficient(1, 0.05, c, ["f1", "f2"], 1024, 3)
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 2 and len(set(built)) == 2
        assert set(c._field_tables) == {"f1", "f2"}


class TestKernelBinding:
    def test_q_is_the_table(self, ctx, qtable):
        assert ctx.kernel("Q") == qtable.interp

    def test_advanced_field_is_the_leg_first_retarded_sum(self, ctx, params):
        # (DeltaA f)(z) = sum_j w_j DeltaR(y_j - z), the leg in the first slot
        rng = np.random.default_rng(5)
        t, x = rng.uniform(-0.4, 0.4, (2, 200))
        pts, w = ctx.nodes("f1")
        ret = ker.difference_kernel("DeltaR", params.with_(
            sign_convention=ser.ALGEBRA_CONVENTION))
        leg_first = np.sum(w * ret(pts[None, :, 0] - t[:, None],
                                   pts[None, :, 1] - x[:, None]), axis=-1)
        assert np.any(leg_first != 0.0)
        assert np.array_equal(ctx.smeared_kernel("DeltaA", "f1", t, x),
                              leg_first)


class TestNonFinite:
    def test_nan_table_entry_is_refused(self, params, qtable, smearings):
        values = qtable.values.copy()
        values[12, 12, 24] = np.nan
        bad = ker.QTable(qtable.time_grid, qtable.space_offset_grid, values,
                         params)
        ctx = ser.EvalContext(params, bad, smearings)
        with pytest.raises(NonFiniteValue):
            ser.correlation_coefficient(1, ctx, "f1", "f2", 1024, 1)


class TestOracle:
    def test_vanishing_charge(self, params, qtable, smearings):
        p0 = params.with_(a=0.0)
        ctx0 = ser.EvalContext(p0, qtable, smearings)
        r = ser.order1_correction_oracle(ctx0, "f1", "f2", "g", 2048, 10)
        assert r.value == pytest.approx(0.0, abs=1e-15)

    def test_vanishing_interaction(self, ctx, params, qtable, smearings):
        sm = dict(smearings)
        sm["g0"] = ker.SmearingFunction.bump(0.0, 0.0, 0.5, amplitude=0.0,
                                             name="g0")
        ctx2 = ser.EvalContext(params, qtable, sm)
        r = ser.order1_correction_oracle(ctx2, "f1", "f2", "g0", 2048, 11)
        assert r.value == 0.0

    def test_sign_convention_invariance(self, params, qtable, smearings):
        green = params.with_(sign_convention="green")
        # Q is convention independent, so the same table applies
        ctx_g = ser.EvalContext(green, qtable, smearings)
        ctx_p = ser.EvalContext(params, qtable, smearings)
        rg = ser.order1_correction_oracle(ctx_g, "f1", "f2", "g", 2048, 12)
        rp = ser.order1_correction_oracle(ctx_p, "f1", "f2", "g", 2048, 12)
        assert complex(rg.value) == pytest.approx(complex(rp.value), rel=1e-12)


class TestQuantum:
    def test_m1_order1_vanishes_identically(self, ctx):
        q = ser.quantum_coefficient(1, 0.1, ctx, ["f1"], 2048, 13)
        c = ser.expectation_coefficient(1, ctx, "f1", 2048, 13)
        assert abs(complex(q.value.value)) <= 1e-14
        assert abs(complex(c.value.value)) <= 1e-14

    def test_hbar_zero_equals_classical(self, ctx):
        q = ser.quantum_coefficient(1, 0.0, ctx, ["f1", "f2"], 2048, 14)
        c = ser.correlation_coefficient(1, ctx, "f1", "f2", 2048, 14)
        assert complex(q.value.value) == complex(c.value.value)

    def test_richardson_ratio(self, ctx):
        cl = ser.correlation_coefficient(1, ctx, "f1", "f2", 4096, 15)
        qa = ser.quantum_coefficient(1, 0.1, ctx, ["f1", "f2"], 4096, 15)
        qb = ser.quantum_coefficient(1, 0.05, ctx, ["f1", "f2"], 4096, 15)
        da = abs(complex(qa.value.value) - complex(cl.value.value))
        db = abs(complex(qb.value.value) - complex(cl.value.value))
        assert 1.4 <= da / db <= 2.6

    def test_order_zero_carries_scalar_pair_error(self, ctx):
        # vertex-free generator terms are a Q pairing of the two legs, the
        # same value and error as the classical order-0 coefficient
        q = ser.quantum_coefficient(0, 0.1, ctx, ["f1", "f2"], 1024, 7)
        c = ser.correlation_coefficient(0, ctx, "f1", "f2", 1024, 7)
        assert complex(q.value.value) == complex(c.value.value)
        assert q.value.error == c.value.error > 0.0

    def test_vertex_term_carries_scalar_pair_error(self, params, qtable,
                                                  smearings):
        # one two-vertex term whose only leg factor is the pairing Q(f1, f2),
        # evaluated with a coarse pairing rule
        term = next(t for t in alg.collected_raw_list(
            alg.bogoliubov_generators(2, ["f1", "f2"]))
            if t.n_vertices == 2 and t.scalar_pairs and not t.free_legs)
        coarse = ser.EvalContext(params, qtable, smearings, pair_nodes=3)
        pair = coarse.scalar_pair("Q", "f1", "f2")
        res = ser.evaluate_terms(coarse, [term], 1024, 7, singular=True)
        assert res.error >= abs(res.value) * pair.error / abs(pair.value)

    def test_alpha_gate(self, ctx):
        with pytest.raises(ConfigError):
            ser.quantum_coefficient(1, 4.1 * np.pi, ctx, ["f1", "f2"],
                                    2048, 16)


class TestMassless:
    def test_massless_pipeline_consistency(self, smearings):
        # the m = 0 branch swaps in the log Hadamard kernel and the
        # analytic inner covariance integral; the triangle must still close
        p = ker.ModelParams(m=0.0, a=1.0, hbar=0.1, lam=0.5, mu=1.0,
                            t_switch=-0.6)
        table = ker.build_q_table(p, n_t=20, n_x=40, budget=144)
        ctx0 = ser.EvalContext(p, table, smearings)
        c1 = ser.correlation_coefficient(1, ctx0, "f1", "f2", 2048, 62)
        orc = ser.order1_correction_oracle(ctx0, "f1", "f2", "g", 2048, 63)
        err = np.hypot(c1.value.error, orc.error) + 1e-3 * abs(orc.value)
        assert abs(complex(c1.value.value) - complex(orc.value)) <= 3 * err
        q = ser.quantum_coefficient(1, 0.1, ctx0, ["f1", "f2"], 2048, 64)
        assert np.isfinite(complex(q.value.value).real)
        assert complex(q.value.value).real != pytest.approx(
            complex(c1.value.value).real, rel=1e-3)  # hbar correction visible


class TestQSMagnitude:
    def test_order_one_vs_dense_reference(self, ctx_alpha_half,
                                          params_alpha_half, smearings):
        # |[Gamma_Q S]_1| = (lambda / hbar) * integral of g_Q
        mag = ser.qs_term_magnitude(ctx_alpha_half, 1, 4096, 17)
        g = smearings["g"]
        gx, gw = np.polynomial.legendre.leggauss(96)
        tt = 0.5 * gx
        xx = 0.5 * gx
        T, X = np.meshgrid(tt, xx, indexing="ij")
        W = np.outer(gw, gw) * 0.25
        vals = ker.gq_weight_arrays(T, X, params_alpha_half,
                                    ctx_alpha_half.table, g)
        ref = params_alpha_half.lam / params_alpha_half.hbar \
            * float(np.sum(W * vals))
        assert mag.value == pytest.approx(ref, rel=1e-3)

    def test_order_two_runs_with_singularity(self, ctx_alpha_half):
        mag = ser.qs_term_magnitude(ctx_alpha_half, 2, 4096, 18)
        assert mag.value > 0
        assert mag.error < 0.1 * mag.value


class TestModifiedTestFunctions:
    def test_csv_row_shape(self, ctx):
        c = ser.correlation_coefficient(0, ctx, "f1", "f2", 2048, 19)
        row = c.csv_row()
        assert set(row) == {"order", "observable", "value_re", "value_im",
                            "error", "samples", "seed", "hbar"}
        assert row["observable"] == "corr:f1:f2"
