"""The traced benchmark wraps package entry points by name
(perfbench/instrument.py); a renamed or deleted one fails its install."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_instrumentation_installs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run(
        [sys.executable, "-c",
         "from perfbench.instrument import install; "
         "from perfbench.spans import Tracer; install(Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
