import itertools
import threading

import numpy as np
import pytest

from stochsg import kernels as ker
from stochsg.errors import InvalidExponent, OutOfDomain
from stochsg.quad import (IntegrandSpec, SingularPair, _lattice_points,
                          _run_lattice, integrate, smeared_pairing)


def diamond_fn(f):
    """Wrap f(u, v) per vertex 0 into an integrand over (N, 1, 2) points."""
    def fn(pts):
        t, x = pts[:, 0, 0], pts[:, 0, 1]
        return f(t - x, t + x)
    return fn


# --- closed-form bank over the unit diamond (Jacobian 1/2 in null coords) --

def _bump1d_integral():
    s = np.linspace(-1.0, 1.0, 40001)
    prof = np.where(np.abs(s) < 1.0,
                    np.exp(1.0 - 1.0 / (1.0 - s ** 2 + 1e-300)), 0.0)
    return float(np.trapezoid(prof, s))


BUMP1D = _bump1d_integral()

BANK = [
    (diamond_fn(lambda u, v: np.ones_like(u)), 2.0),
    (diamond_fn(lambda u, v: u ** 2), (2.0 / 3.0) * 2.0 / 2.0),
    (diamond_fn(lambda u, v: u ** 2 * v ** 2), (2.0 / 3.0) ** 2 / 2.0),
    (diamond_fn(lambda u, v: u ** 4 * v ** 2), (2.0 / 5.0) * (2.0 / 3.0) / 2.0),
    (diamond_fn(lambda u, v: np.cos(u) * np.cos(v)),
     (2.0 * np.sin(1.0)) ** 2 / 2.0),
    (diamond_fn(lambda u, v: np.exp(u + v)),
     (np.exp(1.0) - np.exp(-1.0)) ** 2 / 2.0),
    (diamond_fn(lambda u, v: np.exp(1 - 1 / np.maximum(1 - u ** 2, 1e-12))
                * (np.abs(u) < 1) * np.exp(1 - 1 / np.maximum(1 - v ** 2, 1e-12))
                * (np.abs(v) < 1)), BUMP1D ** 2 / 2.0),
    (diamond_fn(lambda u, v: np.abs(u) ** 0.5), (2.0 / 1.5) * 2.0 / 2.0),
    (diamond_fn(lambda u, v: u * v + 1.0), 2.0),
    (diamond_fn(lambda u, v: np.sin(2 * u) ** 2),
     (1.0 - np.sin(4.0) / 4.0) * 2.0 / 2.0),
]


def _pair_integral(beta):
    # int int_{(-1,1)^2} |s - t|^{-beta} ds dt
    return 2.0 * 2.0 ** (2.0 - beta) / ((1.0 - beta) * (2.0 - beta))


def singular_fn(alpha):
    def fn(pts):
        du = (pts[:, 0, 0] - pts[:, 0, 1]) - (pts[:, 1, 0] - pts[:, 1, 1])
        dv = (pts[:, 0, 0] + pts[:, 0, 1]) - (pts[:, 1, 0] + pts[:, 1, 1])
        return (np.abs(du) * np.abs(dv) + 1e-300) ** (-alpha)
    return fn


SINGULAR_BANK = [
    (IntegrandSpec(2, singular_fn(0.25), mu=1.0,
                   singular_pairs=(SingularPair(0, 1, 0.25),)),
     0.25 * _pair_integral(0.25) ** 2),
    (IntegrandSpec(2, singular_fn(0.5), mu=1.0,
                   singular_pairs=(SingularPair(0, 1, 0.5),)),
     0.25 * _pair_integral(0.5) ** 2),
]


class TestLatticeRule:
    def test_constant_area(self):
        r = integrate(IntegrandSpec(1, lambda p: np.ones(p.shape[0]), mu=1.0),
                      4096, 3)
        assert r.value == pytest.approx(2.0, rel=1e-10)

    def test_determinism(self):
        spec = IntegrandSpec(1, diamond_fn(lambda u, v: np.cos(u * v)), mu=1.0)
        r1 = integrate(spec, 2048, 9)
        r2 = integrate(spec, 2048, 9)
        assert r1 == r2

    def test_seed_changes_result(self):
        spec = IntegrandSpec(1, diamond_fn(lambda u, v: np.cos(u * v)), mu=1.0)
        assert integrate(spec, 2048, 9).value != integrate(spec, 2048, 10).value

    def test_budget_floor(self):
        spec = IntegrandSpec(1, lambda p: np.ones(p.shape[0]), mu=1.0)
        with pytest.raises(ValueError):
            integrate(spec, 512, 1)

    def test_bank_accuracy(self):
        for k, (fn, exact) in enumerate(BANK):
            r = integrate(IntegrandSpec(1, fn, mu=1.0), 8192, 100 + k)
            assert r.value == pytest.approx(exact, rel=5e-3), f"bank #{k}"

    def test_error_honesty(self):
        # true error above 3x the estimate in at most 1 of 20 cases
        budgets = (4096, 16384)
        failures = 0
        cases = 0
        for k, (fn, exact) in enumerate(BANK):
            for b in budgets:
                r = integrate(IntegrandSpec(1, fn, mu=1.0), b, 37 + k)
                cases += 1
                if abs(r.value - exact) > 3.0 * max(r.error, 1e-15 * abs(exact)):
                    failures += 1
        assert cases == 20
        assert failures <= 1

    def test_error_scaling(self):
        ratios = []
        for k, (fn, exact) in enumerate(BANK):
            e1 = integrate(IntegrandSpec(1, fn, mu=1.0), 4096, 71 + k).error
            e2 = integrate(IntegrandSpec(1, fn, mu=1.0), 8192, 71 + k).error
            if e2 > 0:
                ratios.append(e1 / e2)
        assert np.median(ratios) >= 1.3

    def test_dressed_vertex_vs_simpson_oracle(self, params, qtable, smearings):
        # integral of g_Q over the diamond against a dense tensor Simpson rule
        g = smearings["g"]

        def gq(t, x):
            return ker.gq_weight_arrays(t, x, params, qtable, g)

        def fn(pts):
            return gq(pts[:, 0, 0], pts[:, 0, 1])

        r = integrate(IntegrandSpec(1, fn, mu=1.0), 16384, 21)
        # Simpson oracle on the support box (g_Q vanishes outside)
        tmin, tmax, xmin, xmax = g.support_box()
        n = 161
        tt = np.linspace(tmin, tmax, n)
        xx = np.linspace(xmin, xmax, n)
        wt = np.ones(n); wt[1:-1:2] = 4.0; wt[2:-1:2] = 2.0
        wt *= (tt[1] - tt[0]) / 3.0
        wx = np.ones(n); wx[1:-1:2] = 4.0; wx[2:-1:2] = 2.0
        wx *= (xx[1] - xx[0]) / 3.0
        T, X = np.meshgrid(tt, xx, indexing="ij")
        ref = float(np.einsum("i,j,ij->", wt, wx, gq(T, X)))
        assert r.value == pytest.approx(ref, rel=1e-4)

    def test_complex_componentwise(self):
        def fn(pts):
            u = pts[:, 0, 0] - pts[:, 0, 1]
            return np.exp(1j * u)
        r = integrate(IntegrandSpec(1, fn, mu=1.0), 8192, 5)
        assert complex(r.value).real == pytest.approx(2.0 * np.sin(1.0), rel=1e-5)
        assert abs(complex(r.value).imag) <= 3.0 * r.error  # odd part ~ 0


class TestSingular:
    def test_singular_pair_accuracy(self):
        for spec, exact in SINGULAR_BANK:
            r = integrate(spec, 16384, 7)
            assert r.value == pytest.approx(exact, rel=1e-2)

    def test_invalid_exponent(self):
        spec = IntegrandSpec(2, singular_fn(0.8), mu=1.0,
                             singular_pairs=(SingularPair(0, 1, 0.8),))
        with pytest.raises(InvalidExponent):
            integrate(spec, 2048, 1, p_hat=1.5)

    @pytest.mark.parametrize("n_points", [1024, 4096])
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_half_lattice_is_embedded(self, n_points, dim):
        shift = np.random.default_rng(dim).random(dim)
        assert np.array_equal(_lattice_points(n_points, dim, shift)[::2],
                              _lattice_points(n_points // 2, dim, shift))

    def test_doubling_check_reuses_points(self):
        # the half-lattice means of the doubling check equal a separate
        # run at half the point count
        spec, _ = SINGULAR_BANK[0]
        shifts = np.random.default_rng(3).random((8, 2 * spec.n_vertices))
        _, halves, _ = _run_lattice(spec, 4096, shifts, 1.5)
        means, _, _ = _run_lattice(spec, 2048, shifts, 1.5)
        assert np.allclose(halves, means, rtol=1e-12, atol=0.0)


class TestWorkerPool:
    def test_worker_error_keeps_its_type(self, monkeypatch):
        # the fourth shift's integrand fails on a pool thread
        monkeypatch.setenv("WORKERS", "2")
        calls = itertools.count()
        callers = set()

        def fn(pts):
            callers.add(threading.get_ident())
            if next(calls) == 3:
                raise OutOfDomain("query outside the table")
            return np.ones(pts.shape[0])
        before = set(threading.enumerate())
        with pytest.raises(OutOfDomain):
            integrate(IntegrandSpec(1, fn), 1024, 1)
        assert threading.get_ident() not in callers
        assert set(threading.enumerate()) == before


class TestSmearedPairing:
    def test_antisymmetric_kernel_vanishes(self, params):
        f = ker.SmearingFunction.bump(0.3, 0.0, 0.25, name="f")

        def kernel(t, x, tp, xp):
            return ker.pauli_jordan(t - tp, x - xp, params.m,
                                    params.retarded_sign)
        r = smeared_pairing(kernel, f, f, 8192, 3)
        assert abs(r.value) <= 3 * r.error + 1e-12

    def test_empty_causal_region_exact_zero(self, params):
        # supports entirely before the switch-on: Q vanishes identically
        late = params.with_(t_switch=5.0)
        table = ker.build_q_table(late, n_t=6, n_x=8, budget=36)
        f1 = ker.SmearingFunction.bump(0.2, -0.3, 0.2, name="f1")
        f2 = ker.SmearingFunction.bump(0.2, 0.3, 0.2, name="f2")
        r = smeared_pairing(lambda t, x, tp, xp: table.interp(t, x, tp, xp),
                            f1, f2, 2048, 4)
        assert r.value == 0.0 and r.error == 0.0

    def test_q_positivity_sample(self, params, qtable):
        rng = np.random.default_rng(12)
        for k in range(5):
            f = ker.SmearingFunction.bump(rng.uniform(-0.3, 0.5),
                                          rng.uniform(-0.3, 0.3),
                                          rng.uniform(0.1, 0.25), name="f")
            r = smeared_pairing(
                lambda t, x, tp, xp: qtable.interp(t, x, tp, xp),
                f, f, 2048, 100 + k)
            assert complex(r.value).real >= -r.error
