"""Per-layer metrics of a traced run, from the spans and counters of every
traced process.

Each metric covers the workload's set-up once plus one timed operation:
set-up spans count in full and the spans of the timed operations are
divided by the number of operations.  Every operation of a workload does the
same work, so the counts repeat exactly from run to run.  Busy times
(``*_s``) of pool work are summed over threads.
"""

from __future__ import annotations

from collections import defaultdict

CLI_STAGES = ("compute-q", "coeff", "corr", "mc", "bounds", "compare",
              "expand")

# name, unit, better
PER_LAYER = [
    ("kernels.build_q_table_s", "s", "lower"),
    ("kernels.q_entries", "count", "lower"),
    ("kernels.q_entries_per_s", "1/s", "higher"),
    ("kernels.interp_s", "s", "lower"),
    ("kernels.interp_calls", "count", "lower"),
    ("kernels.interp_points", "count", "lower"),
    ("kernels.kernel_eval_s", "s", "lower"),
    ("kernels.kernel_eval_points", "count", "lower"),
    ("quad.integrate_s", "s", "lower"),
    ("quad.integrate_calls", "count", "lower"),
    ("quad.singular_calls", "count", "lower"),
    ("quad.points", "count", "lower"),
    ("quad.integrand_s", "s", "lower"),
    ("quad.self_s", "s", "lower"),
    ("quad.points_per_s", "1/s", "higher"),
    ("series.self_s", "s", "lower"),
    ("series.coefficients", "count", "lower"),
    ("series.scalar_pair_calls", "count", "lower"),
    ("series.scalar_pair_s", "s", "lower"),
    ("algebra.expand_s", "s", "lower"),
    ("algebra.generators", "count", "lower"),
    ("algebra.terms", "count", "lower"),
    ("algebra.survival_ratio", "ratio", "higher"),
    ("spde_mc.estimate_s", "s", "lower"),
    ("spde_mc.realizations", "count", "lower"),
    ("spde_mc.chunks", "count", "lower"),
    ("spde_mc.noise_s", "s", "lower"),
    ("spde_mc.solve_s", "s", "lower"),
    ("spde_mc.solves", "count", "lower"),
    ("spde_mc.cell_updates", "count", "lower"),
    ("spde_mc.pool_busy_frac", "ratio", "higher"),
    ("bounds.c_q_s", "s", "lower"),
    ("bounds.conditioning_s", "s", "lower"),
    ("bounds.fft_points", "count", "lower"),
    ("cli.startup_s", "s", "lower"),
    *[(f"cli.{st.replace('-', '_')}_s", "s", "lower") for st in CLI_STAGES],
    ("cli.qtable_builds", "count", "lower"),
    ("cli.qtable_loads", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

SERIES_SPANS = ("series.expectation_coefficient",
                "series.correlation_coefficient", "series.quantum_coefficient",
                "series.order1_correction_oracle", "series.scalar_pair")
ALGEBRA_SPANS = ("algebra.classical_term", "algebra.classical_term_labeled",
                 "algebra.bogoliubov_generators", "algebra.qs_term")
MC_POOL_SPANS = ("spde_mc.sample_noise", "spde_mc.solve_linear",
                 "spde_mc.solve_hierarchy")


def combine(reports, n_ops: int):
    """Sum span rows and counters over processes: set-up in full, timed
    operations per operation."""
    spans: dict = defaultdict(lambda: defaultdict(float))
    counts: dict = defaultdict(float)
    for rep in reports:
        for phase, rows in rep["aggregate"].items():
            scale = 1.0 if phase == "setup" else 1.0 / n_ops
            for name, row in rows.items():
                for field, v in row.items():
                    spans[name][field] += v * scale
        for phase, rows in rep["counters"].items():
            scale = 1.0 if phase == "setup" else 1.0 / n_ops
            for name, v in rows.items():
                counts[name] += v * scale
    return spans, counts


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def layer_metrics(reports, n_ops: int, workers: int, stage_s: dict,
                  coverage: float, overhead: float) -> dict[str, float]:
    """Every PER_LAYER metric; a layer that did not run reports 0.

    ``stage_s`` maps CLI stages (and "startup") to seconds per pass; it is
    empty for the in-process workloads.
    """
    spans, c = combine(reports, n_ops)

    def busy(*names, field="busy_s"):
        return sum(spans[n][field] for n in names if n in spans)

    m = {
        "kernels.build_q_table_s": busy("kernels.build_q_table"),
        "kernels.q_entries": c["kernels.q_entries"],
        "kernels.interp_s": busy("kernels.interp"),
        "kernels.interp_calls": c["kernels.interp_calls"],
        "kernels.interp_points": c["kernels.interp_points"],
        "kernels.kernel_eval_s": busy("kernels.kernel_eval"),
        "kernels.kernel_eval_points": c["kernels.kernel_eval_points"],
        "quad.integrate_s": busy("quad.integrate"),
        "quad.integrate_calls": busy("quad.integrate", field="calls"),
        "quad.singular_calls": c["quad.singular_calls"],
        "quad.points": c["quad.points"],
        "quad.integrand_s": busy("quad.integrand"),
        "quad.self_s": busy("quad.integrate", field="self_s"),
        "series.self_s": busy(*SERIES_SPANS, field="self_s"),
        "series.coefficients": c["series.coefficients"],
        "series.scalar_pair_calls": busy("series.scalar_pair", field="calls"),
        "series.scalar_pair_s": busy("series.scalar_pair"),
        "algebra.expand_s": busy(*ALGEBRA_SPANS, field="outer_s"),
        "algebra.generators": c["algebra.generators"],
        "algebra.terms": c["algebra.terms"],
        "spde_mc.estimate_s": busy("spde_mc.estimate_correlator"),
        "spde_mc.realizations": c["spde_mc.realizations"],
        "spde_mc.chunks": c["spde_mc.chunks"],
        "spde_mc.noise_s": busy("spde_mc.sample_noise"),
        "spde_mc.solve_s": busy("spde_mc.solve_linear"),
        "spde_mc.solves": c["spde_mc.solves"],
        "spde_mc.cell_updates": c["spde_mc.cell_updates"],
        "bounds.c_q_s": busy("bounds.c_q_constant"),
        "bounds.conditioning_s": busy("bounds.conditioning_constants"),
        "bounds.fft_points": c["bounds.fft_points"],
        "cli.startup_s": stage_s.get("startup", 0.0),
        "cli.qtable_builds": c["kernels.q_builds"] if stage_s else 0.0,
        "cli.qtable_loads": c["kernels.q_loads"] if stage_s else 0.0,
        "trace.coverage": coverage,
        "trace.overhead_frac": overhead,
    }
    for st in CLI_STAGES:
        m[f"cli.{st.replace('-', '_')}_s"] = stage_s.get(st, 0.0)
    m["kernels.q_entries_per_s"] = _ratio(m["kernels.q_entries"],
                                          m["kernels.build_q_table_s"])
    m["quad.points_per_s"] = _ratio(m["quad.points"], m["quad.integrate_s"])
    m["algebra.survival_ratio"] = _ratio(m["algebra.terms"],
                                         m["algebra.generators"])
    m["spde_mc.pool_busy_frac"] = _ratio(
        busy(*MC_POOL_SPANS, field="pool_s"),
        workers * m["spde_mc.estimate_s"])
    return m
