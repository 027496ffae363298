"""Wrap the public entry points of each stochsg layer with spans and counts.

Nothing under src/ changes: the wrappers replace module and class
attributes at run time.  Callers inside the package look these names up
through the module (``ker.build_q_table``, ``qd.integrate``) or as module
globals (``solve_linear`` inside the MC pool workers), so every call passes
through the wrapper.  Span names are ``<layer>.<function>``.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .spans import Tracer


def _wrap(tracer: Tracer, owner, attr: str, name: str, after=None,
          static: bool = False):
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = orig(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def _note_coefficient(tracer: Tracer, c) -> None:
    obs = c.observable.split(":", 1)[0]
    tag = f"{obs}.o{c.order}" + ("" if c.hbar == 0 else f".hbar{c.hbar:g}")
    tracer.note(f"series.value.{tag}", complex(c.value.value).real)
    tracer.note(f"series.error.{tag}", c.value.error)


def install(tracer: Tracer) -> None:
    """Instrument kernels, quad, series, algebra, spde_mc and bounds."""
    from stochsg import algebra, bounds, kernels, quad, series, spde_mc

    # kernels --------------------------------------------------------------
    def q_built(table, *a, **k):
        tracer.add("kernels.q_entries", table.values.size)
        tracer.add("kernels.q_builds")
    _wrap(tracer, kernels, "build_q_table", "kernels.build_q_table", q_built)
    _wrap(tracer, kernels.QTable, "load", "kernels.qtable_load",
          lambda *a, **k: tracer.add("kernels.q_loads"), static=True)

    def interp_done(out, *a, **k):
        tracer.add("kernels.interp_calls")
        tracer.add("kernels.interp_points", np.size(out))
    _wrap(tracer, kernels.QTable, "interp", "kernels.interp", interp_done)

    diff_kernel = kernels.difference_kernel

    @functools.wraps(diff_kernel)
    def difference_kernel(*args, **kwargs):
        fn = diff_kernel(*args, **kwargs)

        def evaluator(dt, dx):
            with tracer.span("kernels.kernel_eval"):
                out = fn(dt, dx)
            tracer.add("kernels.kernel_eval_points", np.size(out))
            return out
        return evaluator
    kernels.difference_kernel = difference_kernel

    # quad -----------------------------------------------------------------
    integrate = quad.integrate

    @functools.wraps(integrate)
    def counted_integrate(spec, *args, **kwargs):
        inner = spec.fn

        def fn(pts):
            with tracer.span("quad.integrand"):
                out = inner(pts)
            tracer.add("quad.points", pts.shape[0])
            return out
        with tracer.span("quad.integrate"):
            if spec.singular_pairs:
                tracer.add("quad.singular_calls")
            return integrate(dataclasses.replace(spec, fn=fn), *args,
                             **kwargs)
    quad.integrate = counted_integrate

    # series ---------------------------------------------------------------
    def coefficient(c, *a, **k):
        tracer.add("series.coefficients")
        _note_coefficient(tracer, c)
    for fname in ("expectation_coefficient", "correlation_coefficient",
                  "quantum_coefficient"):
        _wrap(tracer, series, fname, f"series.{fname}", coefficient)

    def oracle(r, *a, **k):
        tracer.note("series.value.oracle.o1", complex(r.value).real)
        tracer.note("series.error.oracle.o1", r.error)
    _wrap(tracer, series, "order1_correction_oracle",
          "series.order1_correction_oracle", oracle)
    _wrap(tracer, series.EvalContext, "scalar_pair", "series.scalar_pair")

    # algebra --------------------------------------------------------------
    def gens(out, *a, **k):
        tracer.add("algebra.generators", len(out))

    def terms(out, *a, **k):
        tracer.add("algebra.terms", len(out))
    _wrap(tracer, algebra, "bogoliubov_generators",
          "algebra.bogoliubov_generators", gens)
    _wrap(tracer, algebra, "qs_term", "algebra.qs_term", gens)
    _wrap(tracer, algebra, "classical_term", "algebra.classical_term", terms)
    _wrap(tracer, algebra, "classical_term_labeled",
          "algebra.classical_term_labeled", terms)

    # spde_mc --------------------------------------------------------------
    def estimated(est, observables, *a, **k):
        for o in observables:
            e = est[o.obs_id]
            tag = f"{o.kind}.o{o.order}"
            tracer.note(f"spde_mc.mean.{tag}", e.mean)
            tracer.note(f"spde_mc.stderr.{tag}", e.stderr)
    _wrap(tracer, spde_mc, "estimate_correlator",
          "spde_mc.estimate_correlator", estimated)
    _wrap(tracer, spde_mc, "sample_noise", "spde_mc.sample_noise",
          lambda *a, **k: tracer.add("spde_mc.realizations"))
    _wrap(tracer, spde_mc, "solve_hierarchy", "spde_mc.solve_hierarchy")
    solve_linear = spde_mc.solve_linear

    @functools.wraps(solve_linear)
    def counted_solve(source, *args, **kwargs):
        # a solve not issued by solve_hierarchy is the Psi_0 solve that
        # every chunk starts with
        if tracer.current() != "spde_mc.solve_hierarchy":
            tracer.add("spde_mc.chunks")
        with tracer.span("spde_mc.solve_linear"):
            out = solve_linear(source, *args, **kwargs)
        tracer.add("spde_mc.solves", int(np.prod(source.shape[:-2])))
        tracer.add("spde_mc.cell_updates", source.size)
        return out
    spde_mc.solve_linear = counted_solve

    # bounds ---------------------------------------------------------------
    _wrap(tracer, bounds, "c_q_constant", "bounds.c_q_constant")

    def conditioned(out, p, grid_n=256, *a, **k):
        # the constants are computed on an n x n grid and again at 2n
        tracer.add("bounds.fft_points", 5 * grid_n * grid_n)
    _wrap(tracer, bounds, "conditioning_constants",
          "bounds.conditioning_constants", conditioned)
