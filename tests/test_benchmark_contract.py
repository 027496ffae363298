"""The traced benchmark wraps package entry points by name
(perfbench/instrument.py); a renamed or deleted one fails its install, and
a wrapper that reads a renamed attribute fails inside a traced call."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one small call through each wrapped layer, then the names of the spans
# and counters it recorded
TRACED_CALLS = """
import json
from perfbench.instrument import install
from perfbench.spans import Tracer
tracer = Tracer()
install(tracer)
from stochsg import algebra, bounds, kernels as ker, series as ser
from stochsg import spde_mc as mc
params = ker.ModelParams(m=0.5, a=1.0, hbar=0.1, lam=0.5, mu=1.0,
                         t_switch=-0.6)
sm = {"f1": ker.SmearingFunction.bump(0.35, -0.25, 0.18, name="f1"),
      "f2": ker.SmearingFunction.bump(0.40, 0.20, 0.18, name="f2"),
      "g": ker.SmearingFunction.bump(0.0, 0.0, 0.5, name="g")}
ctx = ser.EvalContext(params, ker.build_q_table(params, 12, 24, 100), sm,
                      leg_nodes=12, pair_nodes=12)
ser.quantum_coefficient(2, 0.1, ctx, ["f1", "f2"], 1024, 1)
ser.order1_correction_oracle(ctx, "f1", "f2", "g", 1024, 2)
grid = mc.grid_for(params, list(sm.values()), dt=0.05, pad=0.25)
mc.estimate_correlator([mc.ObservableSpec("c1", "corr", ("f1", "f2"), 1)],
                       grid, params, sm, n_samples=100, seed=3)
bounds.conditioning_constants(params, 256)
algebra.classical_term(1, 1)
print(json.dumps([sorted({s.name for s in tracer.spans}),
                  sorted({name for _, name in tracer.counters})]))
"""

SPANS = {
    "kernels.build_q_table", "kernels.interp", "kernels.kernel_eval",
    "quad.integrate", "quad.integrand",
    "series.quantum_coefficient", "series.order1_correction_oracle",
    "series.scalar_pair", "algebra.bogoliubov_generators",
    "algebra.classical_term", "spde_mc.estimate_correlator",
    "spde_mc.sample_noise", "spde_mc.solve_linear",
    "spde_mc.solve_hierarchy", "bounds.conditioning_constants",
}
COUNTERS = {"quad.singular_calls", "quad.points", "spde_mc.realizations",
            "bounds.fft_points"}


def _run(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_instrumentation_installs():
    res = _run("from perfbench.instrument import install; "
               "from perfbench.spans import Tracer; install(Tracer())")
    assert res.returncode == 0, res.stderr


def test_traced_calls_open_every_span():
    res = _run(TRACED_CALLS)
    assert res.returncode == 0, res.stderr
    spans, counters = json.loads(res.stdout.splitlines()[-1])
    assert SPANS <= set(spans), SPANS - set(spans)
    assert COUNTERS <= set(counters), COUNTERS - set(counters)
