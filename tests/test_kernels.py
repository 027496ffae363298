import math
import os
import struct
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import j0, k0, y0

from stochsg import kernels as ker
from stochsg.errors import (EvalOnLightcone, NonFiniteValue, OutOfDomain,
                            QTableFormatError)
from stochsg.kernels import ModelParams, SmearingFunction, SpacetimePoint


# independent special-function oracles (power series), used to freeze values
def j0_series(x, terms=40):
    total, term = 0.0, 1.0
    for k in range(terms):
        if k:
            term *= -(x / 2.0) ** 2 / k ** 2
        total += term
    return total


def k0_series(x, terms=40):
    # K0(x) = -(log(x/2) + gamma) I0(x) + sum_{k>=1} (x/2)^{2k}/(k!)^2 H_k
    gamma = 0.5772156649015328606
    i0, term, s = 1.0, 1.0, 0.0
    hk = 0.0
    for k in range(1, terms):
        term *= (x / 2.0) ** 2 / k ** 2
        i0 += term
        hk += 1.0 / k
        s += term * hk
    return -(math.log(x / 2.0) + gamma) * i0 + s


class TestChiCutoff:
    def test_below_and_above(self):
        assert ker.chi_cutoff(-1.0, 0.0) == 0.0
        assert ker.chi_cutoff(2.0, 0.0) == 1.0

    def test_ramp_symmetry(self):
        # the chosen mollifier ramp satisfies chi(t) = 1 - chi(1 - t) on [0,1]
        for t in (0.1, 0.25, 0.5, 0.77):
            v = ker.chi_cutoff(t, 0.0)
            assert 0.0 < v < 1.0
            assert v == pytest.approx(1.0 - ker.chi_cutoff(1.0 - t, 0.0),
                                      abs=1e-15)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_range_and_monotone(self, t1, t2):
        a, b = sorted((t1, t2))
        va, vb = ker.chi_cutoff(a, 0.0), ker.chi_cutoff(b, 0.0)
        assert 0.0 <= va <= 1.0
        assert va <= vb + 1e-15

    def test_width(self):
        assert ker.chi_cutoff(0.5e-3, 0.0, width=1e-3) == pytest.approx(0.5)
        assert ker.chi_cutoff(2e-3, 0.0, width=1e-3) == 1.0


class TestPropagators:
    def test_retarded_massless_paper(self):
        assert ker.retarded_massive(1.0, 0.0, 0.0, sign=-1.0) == -0.5

    def test_retarded_outside_cone(self):
        assert ker.retarded_massive(-1.0, 0.0, 1.0) == 0.0
        assert ker.retarded_massive(1.0, 2.0, 1.0) == 0.0

    def test_support(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-2, 2, 10000)
        x = rng.uniform(-2, 2, 10000)
        vals = ker.retarded_massive(t, x, 0.7)
        outside = ~ker.in_future_cone(t, x)
        assert np.all(vals[outside] == 0.0)

    def test_massive_value_vs_series_oracle(self):
        # green convention, z = (2, 0), m = 1 -> +J0(2)/2
        got = float(ker.retarded_massive(2.0, 0.0, 1.0, sign=1.0))
        assert got == pytest.approx(0.5 * j0_series(2.0), rel=1e-12)
        assert got == pytest.approx(0.11194538957, rel=1e-9)

    def test_cone_boundary_matches_massless(self):
        inside = ker.retarded_massive(1.0, 1.0 - 1e-13, 1.0)
        assert inside == pytest.approx(
            float(ker.retarded_massive(1.0, 1.0 - 1e-13, 0.0, sign=-1.0)),
            abs=1e-12)

    def test_massless_reduction(self):
        rng = np.random.default_rng(1)
        t, x = rng.uniform(-2, 2, 100), rng.uniform(-2, 2, 100)
        # J0 of a vanishing mass is 1.0, so the massive branch gives the
        # massless values
        assert np.array_equal(ker.retarded_massive(t, x, 0.0, sign=-1.0),
                              ker.retarded_massive(t, x, 1e-300, sign=-1.0))

    def test_advanced_is_reflection(self):
        rng = np.random.default_rng(2)
        t, x = rng.uniform(-2, 2, 500), rng.uniform(-2, 2, 500)
        assert np.array_equal(ker.advanced(t, x, 0.8),
                              ker.retarded_massive(-t, -x, 0.8))
        assert ker.advanced(1.0, 0.0, 1.0) == 0.0
        assert ker.advanced(0.0, 0.5, 1.0) == 0.0

    def test_hadamard_point_vs_series_oracle(self):
        got = float(ker.hadamard_massive(0.0, 1.0, 1.0))
        assert got == pytest.approx(k0_series(1.0) / (2 * np.pi), rel=1e-10)
        assert got == pytest.approx(0.067008120, rel=1e-7)

    def test_hadamard_massless_reference_scale(self):
        # |z^2| = 4 mu_ref^2 -> H0 = 0
        mu_ref = 0.75
        x = 2.0 * mu_ref
        assert float(ker.hadamard_massless(0.0, x, mu_ref)) == pytest.approx(
            0.0, abs=1e-14)

    def test_lightcone_floor_raises(self):
        with pytest.raises(EvalOnLightcone):
            ker.hadamard_massive(1.0, 1.0 + 1e-13, 1.0)
        with pytest.raises(EvalOnLightcone):
            ker.hadamard_massless(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("convention", ["paper", "green"])
    def test_kernel_identities(self, convention):
        p = ModelParams(m=1.0, sign_convention=convention)
        rng = np.random.default_rng(3)
        t = rng.uniform(-2, 2, 1000)
        x = rng.uniform(-2, 2, 1000)
        keep = np.abs(ker.lorentzian_square(t, x)) > 1e-6
        t, x = t[keep], x[keep]
        w = ker.wightman(t, x, p)
        dr = ker.retarded_massive(t, x, p.m, p.retarded_sign)
        da = ker.advanced(t, x, p.m, p.retarded_sign)
        h = ker.hadamard(t, x, p)
        dF = ker.feynman(t, x, p)
        dAF = ker.antifeynman(t, x, p)
        scale = np.abs(dF) + 1e-30
        assert np.max(np.abs(dF - w - 1j * da) / scale) < 1e-12
        assert np.max(np.abs(dAF - w + 1j * dr) / scale) < 1e-12
        assert np.max(np.abs(dF.real - h) / scale) < 1e-12
        assert np.max(np.abs(dAF.real - h) / scale) < 1e-12
        assert np.max(np.abs(w.real - h) / scale) < 1e-12
        assert np.max(np.abs(w.imag - 0.5 * (dr - da)) / scale) < 1e-12
        # the evaluator binds only the real basis: a composite is a sum
        with pytest.raises(KeyError):
            ker.difference_kernel("DeltaF", p)

    @given(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_lorentzian_square_form(self, t, x):
        assert ker.lorentzian_square(t, x) == (x - t) * (x + t)


def _hadamard_massive_where(t, x, m, floor=ker.LIGHTCONE_FLOOR):
    """Reference: both special functions on every point, one picked."""
    s2 = ker.lorentzian_square(t, x)
    mag = np.sqrt(np.maximum(np.abs(s2), floor))
    space = k0(m * mag) / (2.0 * np.pi)
    time = -y0(m * mag) / 4.0
    return np.where(s2 > 0.0, space, time)


def _retarded_massive_where(t, x, m, sign):
    """Reference: J0 on every point, 0 picked outside the cone."""
    inside = ker.in_future_cone(t, x)
    s2 = np.maximum(-ker.lorentzian_square(t, x), 0.0)
    return np.where(inside, 0.5 * sign * j0(m * np.sqrt(s2)), 0.0)


def _masked_cases():
    rng = np.random.default_rng(41)
    t, x = rng.uniform(-2, 2, (2, 1000))
    c = rng.uniform(-2, 2, 200)
    return {
        "random": (t, x),
        "future-cone": (np.abs(c), c),
        "t=x": (c, c),
        "t=-x": (-c, c),
        "origin-and-signed-zeros": (np.array([0.0, -0.0, 0.0, -0.0, 1.0]),
                                    np.array([0.0, 0.0, -0.0, -0.0, -0.0])),
        "scalar-spacelike": (0.3, 1.0),
        "scalar-timelike": (1.0, 0.3),
        "scalar-origin": (0.0, -0.0),
        "broadcast": (np.linspace(-1.5, 1.5, 13)[:, None],
                      np.linspace(-1.5, 1.5, 17)[None, :]),
    }


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestMaskedKernels:
    """Each special function is evaluated only where it is used; every
    element keeps the value of the np.where formula."""

    @pytest.mark.parametrize("case", sorted(_masked_cases()))
    @pytest.mark.parametrize("m", [0.5, 3.0])
    def test_hadamard_massive(self, case, m):
        t, x = _masked_cases()[case]
        assert _same_bits(ker.hadamard_massive(t, x, m, check=False),
                          _hadamard_massive_where(t, x, m))

    @pytest.mark.parametrize("case", sorted(_masked_cases()))
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_retarded_and_advanced(self, case, sign):
        t, x = _masked_cases()[case]
        assert _same_bits(ker.retarded_massive(t, x, 0.7, sign),
                          _retarded_massive_where(t, x, 0.7, sign))
        assert _same_bits(ker.advanced(t, x, 0.7, sign),
                          _retarded_massive_where(-np.asarray(t),
                                                  -np.asarray(x), 0.7, sign))

    @pytest.mark.parametrize("case", sorted(_masked_cases()) + ["grid"])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_massless_is_half_sign_on_the_cone(self, case, sign):
        # J0(0) is 1.0 exactly, so at m = 0 the massive formula gives the
        # closed form sign / 2 on the closed cone bit for bit
        if case == "grid":
            t, x = np.meshgrid(np.linspace(-2, 2, 401),
                               np.linspace(-2, 2, 401))
        else:
            t, x = _masked_cases()[case]
        t, x = np.asarray(t), np.asarray(x)
        for got, past in ((ker.retarded_massive(t, x, 0.0, sign), False),
                          (ker.advanced(t, x, 0.0, sign), True)):
            inside = (ker.in_future_cone(-t, -x) if past
                      else ker.in_future_cone(t, x))
            assert _same_bits(got, np.where(inside, 0.5 * sign, 0.0))


class TestCovarianceQ:
    def test_sharp_closed_forms(self):
        z = SpacetimePoint(1.0, 0.0)
        assert ker.covariance_q0_sharp(z, z, 0.0) == 0.25
        assert ker.covariance_q0_sharp(z, SpacetimePoint(1.0, 1.0), 0.0) \
            == 0.0625
        # triangle area (t - T)^2 / 4
        zz = SpacetimePoint(0.7, 0.2)
        assert ker.covariance_q0_sharp(zz, zz, -0.3) == pytest.approx(0.25)
        # nested cones: region is the earlier cone
        inner = SpacetimePoint(0.5, 0.0)
        outer = SpacetimePoint(2.0, 0.0)
        assert ker.covariance_q0_sharp(inner, outer, 0.0) == \
            pytest.approx(0.5 ** 2 / 4.0)

    def test_disjoint_cones_zero(self):
        z = SpacetimePoint(1.0, -5.0)
        zp = SpacetimePoint(1.0, 5.0)
        assert ker.covariance_q0_sharp(z, zp, 0.0) == 0.0

    def test_before_switch_on_exact_zero(self, params):
        z = SpacetimePoint(params.t_switch - 0.1, 0.0)
        r = ker.covariance_q(z, z, params, budget=100)
        assert r.value == 0.0 and r.error == 0.0

    def test_near_sharp_matches_closed_form(self):
        p = ModelParams(m=0.0, t_switch=0.0, chi_width=1e-3)
        z = SpacetimePoint(1.0, 0.0)
        r = ker.covariance_q(z, z, p, budget=400)
        assert r.value == pytest.approx(0.25, rel=1e-2)
        r2 = ker.covariance_q(z, SpacetimePoint(1.0, 1.0), p, budget=400)
        assert r2.value == pytest.approx(0.0625, rel=1e-2)

    def test_massless_sharp_oracle_random_pairs(self):
        # the ramp of width w removes O(w * (t* - T)) mass, so the 1%
        # comparison applies to pairs whose meet cone is not microscopic
        p = ModelParams(m=0.0, t_switch=-0.6, chi_width=1e-3)
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 25:
            u, v = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            z = SpacetimePoint(0.5 * (u[0] + v[0]), 0.5 * (v[0] - u[0]))
            zp = SpacetimePoint(0.5 * (u[1] + v[1]), 0.5 * (v[1] - u[1]))
            exact = ker.covariance_q0_sharp(z, zp, p.t_switch)
            if exact < 5e-3:
                continue
            got = ker.covariance_q(z, zp, p, budget=400)
            assert got.value == pytest.approx(exact, rel=1e-2)
            checked += 1

    def test_symmetry(self, params):
        rng = np.random.default_rng(8)
        for _ in range(10):
            z = SpacetimePoint(*rng.uniform(-0.8, 0.8, 2))
            zp = SpacetimePoint(*rng.uniform(-0.8, 0.8, 2))
            r1 = ker.covariance_q(z, zp, params, budget=300)
            r2 = ker.covariance_q(zp, z, params, budget=300)
            assert abs(r1.value - r2.value) <= 2 * (r1.error + r2.error) + 1e-14

    def test_budget_validation(self, params):
        with pytest.raises(ValueError):
            ker.covariance_q(SpacetimePoint(1, 0), SpacetimePoint(1, 0),
                             params, budget=0)

    def test_causal_vanishing_any_partner(self, params):
        z = SpacetimePoint(params.t_switch - 0.05, 0.3)
        for zp in (SpacetimePoint(0.9, 0.0), SpacetimePoint(0.2, -0.7),
                   SpacetimePoint(5.0, 1.0)):
            r = ker.covariance_q(z, zp, params, budget=100)
            assert r.value == 0.0 and r.error == 0.0

    def test_sign_convention_independence(self, params):
        z = SpacetimePoint(0.6, 0.1)
        zp = SpacetimePoint(0.4, -0.2)
        a = ker.covariance_q(z, zp, params, budget=300)
        b = ker.covariance_q(z, zp, params.with_(sign_convention="green"),
                             budget=300)
        assert a.value == b.value


def _mixed_pairs(p: ModelParams):
    """Point pairs (t, x, tp, xp) and their meet time t*, holding entries
    with t* <= T, with T < t* <= T + chi_width and with t* past the ramp."""
    rng = np.random.default_rng(12)
    t, x, tp, xp = rng.uniform(-1.0, 1.0, (4, 90))
    tstar = 0.5 * (np.minimum(t - x, tp - xp) + np.minimum(t + x, tp + xp))
    T, T_end = p.t_switch, p.t_switch + p.chi_width
    for rows in (tstar <= T, (tstar > T) & (tstar <= T_end), tstar > T_end):
        assert np.count_nonzero(rows) >= 5
    return (t, x, tp, xp), tstar


class TestQValues:
    # t_switch -0.6 and chi_width 0.8 put the three kinds of entry in the
    # batch in comparable numbers
    @pytest.fixture(params=[0.5, 0.0], ids=["massive", "massless"])
    def p(self, request, params):
        return params.with_(m=request.param, chi_width=0.8)

    def test_batch_equals_one_entry_at_a_time(self, p):
        pairs, _ = _mixed_pairs(p)
        batch = ker._q_values(*pairs, p, 8, 8)
        single = np.array([
            ker._q_values(*(v[i:i + 1] for v in pairs), p, 8, 8)[0]
            for i in range(len(pairs[0]))])
        assert batch.tobytes() == single.tobytes()

    def test_inactive_entries_are_exact_zeros(self, p):
        pairs, tstar = _mixed_pairs(p)
        got = ker._q_values(*pairs, p, 8, 8)
        dead = got[tstar <= p.t_switch]
        assert np.array_equal(dead, np.zeros_like(dead))
        assert not np.any(np.signbit(dead))
        assert np.all(got[tstar > p.t_switch] != 0.0)

    def test_segments_see_only_their_rows(self, p, monkeypatch):
        # the ramp integrates the entries with t* > T, the tail only those
        # with t* > T + chi_width
        pairs, tstar = _mixed_pairs(p)
        segment = ker._q_segment
        seen = {}

        def counted(t, x, tp, xp, p, lo, hi, n_outer, n_inner):
            seen.setdefault(float(lo[0]), []).append(t.copy())
            return segment(t, x, tp, xp, p, lo, hi, n_outer, n_inner)
        monkeypatch.setattr(ker, "_q_segment", counted)
        ker._q_values(*pairs, p, 8, 8)
        T, T_end = p.t_switch, p.t_switch + p.chi_width
        assert sorted(seen) == sorted([T, T_end])
        for lo, rows in ((T, tstar > T), (T_end, tstar > T_end)):
            [t] = seen[lo]
            assert np.array_equal(t, pairs[0][rows])

    def test_all_inactive_batch_never_integrates(self, params, monkeypatch):
        def refuse(*args):
            raise AssertionError("integrated an entry with t* <= T")
        monkeypatch.setattr(ker, "_q_segment", refuse)
        t = np.full((2, 3), params.t_switch - 0.1)
        got = ker._q_values(t, 0.0, t, 0.0, params, 8, 8)
        assert got.shape == (2, 3)
        assert np.array_equal(got, np.zeros((2, 3)))


class TestBuildQTable:
    def test_workers_do_not_change_the_table(self, params, monkeypatch):
        tables = []
        for workers in ("1", "2"):
            monkeypatch.setenv("WORKERS", workers)
            tables.append(ker.build_q_table(params, 8, 12, 36).values)
        assert tables[0].tobytes() == tables[1].tobytes()

    @pytest.mark.parametrize("entries", [1, 7])
    def test_task_size_does_not_change_the_table(self, params, monkeypatch,
                                                 entries):
        # budget 36 integrates over 6 x 6 inner nodes per entry; 7 entries
        # per task leave a shorter last task
        monkeypatch.setenv("WORKERS", "2")
        whole = ker.build_q_table(params, 6, 8, 36).values
        monkeypatch.setattr(ker, "_Q_BLOCK", entries * 36)
        tasks = []
        parallel_map = ker.parallel_map

        def counted(fn, items):
            items = list(items)
            tasks.append(len(items))
            return parallel_map(fn, items)
        monkeypatch.setattr(ker, "parallel_map", counted)
        blocked = ker.build_q_table(params, 6, 8, 36).values
        assert tasks == [-(-6 * 6 * 8 // entries)]
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("shape,budget", [
        ((24, 48), 256),                        # the conftest table
        ((4, 4), ker.MAX_Q_BUDGET)])            # 181^2 inner nodes per entry
    def test_traced_peak_is_bounded(self, params, monkeypatch, shape, budget):
        # each pool thread holds one task of at most _Q_BLOCK inner nodes
        # per array: about 14 MiB of temporaries per thread
        monkeypatch.setenv("WORKERS", "2")
        tracemalloc.start()
        try:
            ker.build_q_table(params, *shape, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20


@st.composite
def small_tables(draw):
    """A QTable of 4-6 nodes per axis with arbitrary finite entries."""
    n_t, n_x = draw(st.integers(4, 6)), draw(st.integers(4, 6))
    pos = st.floats(1e-3, 1e3)
    p = ModelParams(m=draw(st.floats(0, 10)), a=draw(st.floats(0, 10)),
                    hbar=draw(st.floats(0, 10)), lam=draw(st.floats(0, 10)),
                    mu=draw(pos), mu_ref=draw(pos),
                    t_switch=draw(st.floats(-10, 10)),
                    sign_convention=draw(st.sampled_from(["paper", "green"])),
                    chi_width=draw(pos))
    values = draw(arrays(np.float64, (n_t, n_t, n_x),
                         elements=st.floats(allow_nan=False,
                                            allow_infinity=False)))
    return ker.QTable(np.linspace(-p.mu, p.mu, n_t),
                      np.linspace(-2 * p.mu, 2 * p.mu, n_x), values, p,
                      draw(st.sampled_from(ker.INTERP_METHODS)))


class TestQTableFile:
    @given(small_tables())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "q.bin")
            table.save(path)
            back = ker.QTable.load(path)
        assert np.array_equal(back.values, table.values)
        assert np.array_equal(back.time_grid, table.time_grid)
        assert np.array_equal(back.space_offset_grid, table.space_offset_grid)
        assert back.params == table.params
        assert back.interp_method == table.interp_method

    @given(small_tables())
    @settings(max_examples=5, deadline=None)
    def test_every_truncation_is_typed_error(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "q.bin")
            table.save(path)
            with open(path, "rb") as fh:
                whole = fh.read()
            for cut in range(len(whole)):
                with open(path, "wb") as fh:
                    fh.write(whole[:cut])
                with pytest.raises(QTableFormatError):
                    ker.QTable.load(path)

    @given(small_tables(), st.data())
    @settings(max_examples=20, deadline=None)
    def test_non_finite_number_is_typed_error(self, table, data):
        # any one double of the file, header parameters and grids included
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "q.bin")
            table.save(path)
            with open(path, "rb") as fh:
                whole = bytearray(fh.read())
            slots = range(20, len(whole), 8)
            at = data.draw(st.sampled_from(slots))
            bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            whole[at:at + 8] = np.float64(bad).astype("<f8").tobytes()
            with open(path, "wb") as fh:
                fh.write(whole)
            with pytest.raises(QTableFormatError):
                ker.QTable.load(path)


class TestQTable:
    def test_non_finite_entry_is_refused(self, params):
        # t_switch -1e308 makes the covariance integrand inf - inf
        with pytest.raises(NonFiniteValue):
            ker.build_q_table(params.with_(t_switch=-1e308), 4, 4, 16)

    def test_overflowing_grid_is_refused_without_warning(self, params):
        # the offset grid spans [-2 mu, 2 mu], whose width overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue):
                ker.build_q_table(params.with_(mu=1e308), 4, 4, 16)

    def test_spline_coeffs_filled_once(self, qtable, monkeypatch):
        # the table is prefiltered once, on the thread that makes it, and
        # never by a read, however many pool threads read it
        monkeypatch.setenv("WORKERS", "8")
        prefilter = ker._spline_coeffs
        calls = []

        def counted(values, order):
            calls.append((order, threading.current_thread()))
            return prefilter(values, order)
        monkeypatch.setattr(ker, "_spline_coeffs", counted)
        fresh = ker.QTable(qtable.time_grid, qtable.space_offset_grid,
                           qtable.values, qtable.params)
        assert calls == [(3, threading.main_thread())]
        got = ker.parallel_map(
            lambda k: fresh.interp(0.1, 0.0, 0.2, 0.1), range(8))
        assert len(calls) == 1
        assert all(g == qtable.interp(0.1, 0.0, 0.2, 0.1) for g in got)

    def test_nodes_reproduced(self, params, qtable):
        tg, dg = qtable.time_grid, qtable.space_offset_grid
        scale = qtable.values.max()
        for (i, j, k) in ((0, 0, 0), (5, 7, 11), (23, 23, 47), (12, 3, 30)):
            got = float(qtable.interp(tg[i], dg[k], tg[j], 0.0))
            assert got == pytest.approx(float(qtable.values[i, j, k]),
                                        abs=1e-10 * scale)

    def test_storage_symmetry(self, qtable):
        v = qtable.values
        assert np.allclose(v, v.transpose(1, 0, 2)[:, :, ::-1],
                           atol=1e-12 * v.max())

    def test_interp_symmetry(self, qtable):
        rng = np.random.default_rng(9)
        t, x = rng.uniform(-0.9, 0.9, 50), rng.uniform(-0.45, 0.45, 50)
        tp, xp = rng.uniform(-0.9, 0.9, 50), rng.uniform(-0.45, 0.45, 50)
        a = qtable.interp(t, x, tp, xp)
        b = qtable.interp(tp, xp, t, x)
        assert np.max(np.abs(a - b)) < 1e-12 * qtable.values.max()

    def test_diagonal_nonnegative(self, qtable):
        t = np.linspace(-0.99, 0.99, 41)
        assert np.all(qtable.diag(t, np.zeros_like(t)) >= -1e-10)

    def test_held_out_probes(self, params, qtable):
        rng = np.random.default_rng(10)
        t, x = rng.uniform(-0.9, 0.9, 12), rng.uniform(-0.4, 0.4, 12)
        tp, xp = rng.uniform(-0.9, 0.9, 12), rng.uniform(-0.4, 0.4, 12)
        direct = ker._q_values(t, x, tp, xp, params, 24, 24)
        interp = qtable.interp(t, x, tp, xp)
        assert np.max(np.abs(direct - interp)) < 1e-3 * qtable.values.max()

    def test_out_of_domain(self, qtable):
        with pytest.raises(OutOfDomain):
            qtable.interp(1.5, 0.0, 0.0, 0.0)
        with pytest.raises(OutOfDomain):
            qtable.interp(0.0, 2.5, 0.0, 0.0)

    def test_roundtrip(self, qtable, tmp_path):
        path = str(tmp_path / "q.bin")
        qtable.save(path)
        back = ker.QTable.load(path)
        assert np.array_equal(back.values, qtable.values)
        assert np.array_equal(back.time_grid, qtable.time_grid)
        assert back.params == qtable.params
        assert back.interp_method == qtable.interp_method
        assert float(back.interp(0.3, 0.1, 0.2, -0.1)) == \
            float(qtable.interp(0.3, 0.1, 0.2, -0.1))

    def test_header_magic(self, qtable, tmp_path):
        path = str(tmp_path / "q.bin")
        qtable.save(path)
        with open(path, "rb") as fh:
            assert fh.read(4) == b"QTBL"

    @pytest.mark.parametrize("damage", [
        *(lambda d, k=k: d[:k] for k in (0, 3, 19, 20, 91, 92, 500, -8, -1)),
        lambda d: d + b"\0",
        lambda d: b"QTBX" + d[4:],
        lambda d: d[:4] + (3).to_bytes(4, "little") + d[8:],
        # one node of each grid moved: the 24 x 48 table's t_1 and d_0
        lambda d: d[:108] + struct.pack("<d", -0.89) + d[116:],
        lambda d: d[:292] + struct.pack("<d", -1.99) + d[300:],
    ], ids=["cut0", "cut3", "cut19", "cut20", "cut91", "cut92", "cut500",
            "cut-8", "cut-1", "trailing", "magic", "version", "time-grid",
            "offset-grid"])
    def test_damaged_file_is_typed_error(self, qtable, tmp_path, damage):
        path = tmp_path / "q.bin"
        qtable.save(str(path))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(QTableFormatError):
            ker.QTable.load(str(path))

    def test_budget_roundtrip(self, params, tmp_path):
        path = str(tmp_path / "q.bin")
        ker.build_q_table(params, n_t=6, n_x=8, budget=36).save(path)
        assert ker.QTable.load(path).budget == 36

    @pytest.mark.parametrize("budget", [-1.0, 2.5])
    def test_bad_budget_is_typed_error(self, qtable, tmp_path, budget):
        path = tmp_path / "q.bin"
        qtable.save(str(path))
        data = path.read_bytes()
        path.write_bytes(data[:92] + struct.pack("<d", budget) + data[100:])
        with pytest.raises(QTableFormatError):
            ker.QTable.load(str(path))

    def test_linear_method(self, params):
        t = ker.build_q_table(params, n_t=6, n_x=8, budget=36,
                              interp_method="linear")
        assert float(t.interp(t.time_grid[2], 0.0, t.time_grid[3], 0.0)) == \
            pytest.approx(float(t.values[2, 3, 4]), abs=1e-12)

    def test_resolution_validation(self, params):
        with pytest.raises(ValueError):
            ker.build_q_table(params, n_t=3, n_x=8)


def _interp_sum(table, t, x, pts, w):
    """sum_j w_j Q((t, x), y_j) read pointwise through QTable.interp."""
    return np.sum(w * table.interp(t[..., None], x[..., None],
                                   pts[:, 0], pts[:, 1]), axis=-1)


# a two-bump mixture whose node times and offsets form no single tensor grid
TWO_BUMPS = SmearingFunction((
    ker.BumpComponent(SpacetimePoint(0.3, -0.2), 0.15),
    ker.BumpComponent(SpacetimePoint(-0.1, 0.33), 0.21, -0.7)))


class TestLegSum:
    @pytest.fixture(scope="class", params=["cubic", "linear"])
    def table(self, request, qtable):
        return ker.QTable(qtable.time_grid, qtable.space_offset_grid,
                          qtable.values, qtable.params, request.param)

    @staticmethod
    def _queries(table, pts):
        rng = np.random.default_rng(4)
        mu, two_mu = table.time_grid[-1], table.space_offset_grid[-1]
        # t = +-mu, then just past it, within interp's tolerance
        edges = [-mu, mu, -mu - 5e-12, mu + 5e-12, -mu, mu]
        t = np.concatenate([rng.uniform(-mu, mu, 300), edges])
        # the last two reach both ends of the offset grid
        x = np.concatenate([rng.uniform(-0.4, 0.4, 304),
                            [pts[:, 1].max() - two_mu,
                             pts[:, 1].min() + two_mu]])
        return t, x

    @pytest.mark.parametrize("leg,nodes", [
        (SmearingFunction.bump(0.35, -0.25, 0.18), 12),
        (TWO_BUMPS, 12),
        (SmearingFunction.bump(0.35, -0.25, 0.18), 1),
        (TWO_BUMPS, 1)], ids=["one-bump", "two-bumps", "one-node",
                              "two-nodes"])
    def test_matches_pointwise_sum(self, table, leg, nodes):
        pts, w = leg.weighted_nodes(nodes)
        t, x = self._queries(table, pts)
        want = _interp_sum(table, t, x, pts, w)
        got = table.leg_sum(t, x, pts, w)
        scale = np.max(np.abs(want))
        assert scale > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * scale)

    def test_traced_peak_is_bounded(self, table):
        # a field table's 65^2 queries against 96 node positions: no array
        # grows with queries x positions
        pts, w = TWO_BUMPS.weighted_nodes(48)
        assert np.unique(pts[:, 1]).size == 96
        k = np.linspace(-0.5, 0.5, 65)
        t, x = np.meshgrid(k, k, indexing="ij")
        tracemalloc.start()
        try:
            table.leg_sum(t, x, pts, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_shape_and_empty_leg(self, table):
        pts, w = TWO_BUMPS.weighted_nodes(6)
        t = np.linspace(-0.5, 0.5, 12).reshape(3, 4)
        got = table.leg_sum(t, 0.1, pts, w)
        assert got.shape == (3, 4)
        np.testing.assert_allclose(
            got, _interp_sum(table, t, np.full_like(t, 0.1), pts, w),
            rtol=1e-13, atol=1e-13 * np.max(np.abs(got)))
        empty = SmearingFunction.bump(0.0, 0.0, 0.2, 0.0).weighted_nodes(6)
        assert np.array_equal(table.leg_sum(t, 0.1, *empty), np.zeros((3, 4)))

    @pytest.mark.parametrize("t,x,center,raises", [
        (0.2, 0.0, 0.3, False),
        (1.5, 0.0, 0.3, True),
        (1.0 + 1e-12, 0.0, 0.3, False),   # within interp's tolerance
        (0.2, 1.95, 0.3, True),
        (0.2, 2.5, 0.3, True),
        (0.2, -2.5, 0.3, True),
        (0.2, 0.0, 0.95, True),           # the leg's nodes pass t = mu
        (0.2, 0.0, -0.95, True),
    ])
    def test_out_of_domain_exactly_when_interp(self, table, t, x, center,
                                               raises):
        pts, w = SmearingFunction.bump(center, 0.0, 0.2).weighted_nodes(8)
        t, x = np.array([0.0, t]), np.array([0.0, x])
        for read in (_interp_sum, type(table).leg_sum):
            if raises:
                with pytest.raises(OutOfDomain):
                    read(table, t, x, pts, w)
            else:
                read(table, t, x, pts, w)


class TestGqWeight:
    def _flat_table(self, params, value):
        tg = np.linspace(-1, 1, 5)
        dg = np.linspace(-2, 2, 5)
        vals = np.full((5, 5, 5), float(value))
        return ker.QTable(tg, dg, vals, params)

    def test_no_dressing_at_zero_charge(self, params, smearings):
        table = self._flat_table(params.with_(a=0.0), 1.3)
        g = smearings["g"]
        z = SpacetimePoint(0.1, 0.0)
        assert float(ker.gq_weight_arrays(z.t, z.x, params.with_(a=0.0),
                                          table, g)) == \
            pytest.approx(float(g(z.t, z.x)))

    def test_exponential_dressing(self, params):
        table = self._flat_table(params, 2.0)
        g = SmearingFunction.bump(0.0, 0.0, 0.5)
        z = SpacetimePoint(0.0, 0.0)   # g(0,0) = 1 at the bump peak
        assert float(ker.gq_weight_arrays(z.t, z.x, params.with_(a=1.0),
                                          table, g)) == \
            pytest.approx(math.exp(-1.0))

    def test_dominated_by_g(self, params, qtable, smearings):
        g = smearings["g"]
        rng = np.random.default_rng(11)
        t, x = rng.uniform(-0.5, 0.5, 200), rng.uniform(-0.5, 0.5, 200)
        gq = ker.gq_weight_arrays(t, x, params, qtable, g)
        assert np.all(gq <= g(t, x) + 1e-15)
        assert np.all(gq >= 0.0)


class TestSmearing:
    def test_support_and_peak(self):
        f = SmearingFunction.bump(0.0, 0.0, 0.5, amplitude=2.0)
        assert float(f(0.0, 0.0)) == pytest.approx(2.0)
        assert float(f(0.0, 0.51)) == 0.0
        assert float(f(0.6, 0.0)) == 0.0

    def test_weighted_nodes_integral(self):
        f = SmearingFunction.bump(0.2, -0.1, 0.3, amplitude=1.5)
        # bump integral = amplitude * r^2 * (2 pi) int_0^1 e^{1-1/(1-s^2)} s ds
        s = np.linspace(0.0, 1.0, 20001)
        prof = np.where(s < 1.0, np.exp(1.0 - 1.0 / (1.0 - s ** 2 + 1e-300)),
                        0.0)
        ref = 1.5 * 0.3 ** 2 * 2 * np.pi * np.trapezoid(prof * s, s)
        assert f.integral() == pytest.approx(ref, rel=1e-6)

    def test_norm_consistency(self):
        f = SmearingFunction.bump(0.0, 0.0, 0.4)
        assert f.norm_lq(1.0) == pytest.approx(f.integral(), rel=1e-9)
        assert f.norm_lq(2.0) > 0

    def test_norm_of_coincident_bumps(self):
        f = SmearingFunction.bump(0.1, -0.2, 0.4)
        twice = SmearingFunction(f.components * 2)
        assert twice.norm_lq(3.0) / f.norm_lq(3.0) == pytest.approx(2.0,
                                                                    rel=1e-9)

    @pytest.mark.parametrize("amplitude", [1e-300, 1e300])
    def test_norm_is_homogeneous_at_extreme_amplitudes(self, amplitude):
        # |f|^q under- or overflows unless it is scaled first
        ref = SmearingFunction.bump(0.1, 0.0, 0.4).norm_lq(3.0)
        f = SmearingFunction.bump(0.1, 0.0, 0.4, amplitude=amplitude)
        assert f.norm_lq(3.0) == pytest.approx(amplitude * ref, rel=1e-12,
                                               abs=0.0)

    def test_sup_norm(self):
        f = SmearingFunction.bump(0.0, 0.0, 0.5, amplitude=2.0)
        assert f.norm_lq(float("inf")) == 2.0

    def test_inside_diamond(self):
        assert SmearingFunction.bump(0.0, 0.0, 0.5).inside_diamond(1.0)
        assert not SmearingFunction.bump(0.5, 0.0, 0.5).inside_diamond(1.0)
