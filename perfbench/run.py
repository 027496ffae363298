"""stochsg benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Run from the root of a checkout.  Every measured process starts in a fresh
interpreter with WORKERS set to the number of usable cores.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A record of the run, with provenance and the values each layer
produced, goes to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT

from perfbench.layers import CLI_STAGES, PER_LAYER, layer_metrics  # noqa: E402
from perfbench.seeds import derive  # noqa: E402
from perfbench.stats import Ledger, describe_timing, median  # noqa: E402
from perfbench.workloads import Z_MAX, fingerprints  # noqa: E402

CHILD = os.path.join(ROOT, "perfbench", "child.py")
CONFIG = os.path.join(ROOT, "configs", "example.json")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("cli-example", "order2-series", "mc-order2", "symbolic-order3")
SETUP_ONLY_RUNS = 4        # plus the set-up of the timed process: 5 samples
DEADLINE_S = 170.0         # the whole run, children included

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
ACCURACY_UNITS = {"max_z": "1", "rel_err_o1": "ratio", "abs_err_o2": "1"}


def workers() -> int:
    return len(os.sched_getaffinity(0))


class Runner:
    """Starts the measured processes of one workload and keeps the deadline."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = dict(os.environ, WORKERS=str(workers()))
        self.count = 0

    def spawn(self, mode: str, *args: str, stage_args=()) -> tuple[dict, int | None, float]:
        """Run one child; returns its stats, exit code (None on timeout)
        and wall time from start to exit."""
        self.count += 1
        stats = os.path.join(self.dir, f"p{self.count:03d}-{mode}.json")
        log = stats[:-5] + ".log"
        spawn = time.monotonic()
        cmd = [sys.executable, CHILD, mode, *args, "--spawn", repr(spawn),
               "--stats", stats]
        if stage_args:
            cmd += ["--", *stage_args]
        with open(log, "w") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - spawn))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:   # timed out or interrupted
                    proc.kill()
                    proc.wait()
        wall = time.monotonic() - spawn
        try:
            with open(stats) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            data = {}
        data["log"] = os.path.relpath(log, ROOT)
        return data, code, wall


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def _workload_args(name: str, seed: int, seconds: float, trace: int):
    return ["--workload", name, "--seed", str(seed), "--seconds",
            repr(seconds), "--trace", str(trace)]


def _timed_run(runner: Runner, ledger: Ledger, name: str, seed: int,
               seconds: float, trace: int) -> dict:
    data, code, _ = runner.spawn("run", *_workload_args(name, seed, seconds,
                                                        trace))
    if "ledger" in data:
        ledger.merge(data["ledger"])
    if code != 0 or not data.get("samples"):
        ledger.check(f"{name} timed process", False,
                     f"exit {code}; see {data['log']}")
    return data


def run_in_process(name: str, seed: int, seconds: float, trace: int) -> dict:
    runner = Runner(name, seed, trace)
    ledger = Ledger()
    if trace:
        plain = _timed_run(runner, ledger, name, seed, seconds, 0)
        traced = _timed_run(runner, ledger, name, seed, seconds, 1)
        if not plain.get("samples") or "trace" not in traced:
            return {"ledger": ledger}
        rep = traced["trace"]
        n_ops = len(traced["samples"])
        metrics = layer_metrics(
            [rep], n_ops, workers(), {},
            rep["root_s"] / sum(traced["samples"]),
            median(traced["samples"]) / median(plain["samples"]) - 1.0)
        return {"ledger": ledger, "metrics": metrics,
                "values": rep["values"], "samples": traced["samples"],
                "accuracy": traced.get("accuracy", {})}
    setups = []
    for _ in range(SETUP_ONLY_RUNS):
        data, code, _ = runner.spawn("setup", *_workload_args(name, seed,
                                                              seconds, 0))
        ledger.merge(data.get("ledger", {"attempted": 1, "failed": 1,
                                         "failures": [data["log"]]}))
        if code == 0 and "setup_s" in data:
            setups.append(data["setup_s"])
    data = _timed_run(runner, ledger, name, seed, seconds, 0)
    if not data.get("samples"):
        return {"ledger": ledger}
    setups.append(data["setup_s"])
    return {"ledger": ledger, "samples": data["samples"], "setups": setups,
            "peak_rss_mb": data["maxrss_mb"],
            "accuracy": data.get("accuracy", {})}


# ---------------------------------------------------------------------------
# cli-example: the seven CLI stages, each in its own process
# ---------------------------------------------------------------------------

def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _fingerprint_expand(out_dir: str) -> str | None:
    files = glob.glob(os.path.join(out_dir, "expand_order*_*.json"))
    return _sha256(files[0]) if len(files) == 1 else None


def _read_csv(path: str) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []


def cli_pass(runner: Runner, ledger: Ledger, seed: int, k: int,
             trace: int) -> dict:
    """One pass of the seven stages into an empty output directory."""
    out_dir = os.path.join(runner.dir, f"pass{k}-trace{trace}")
    os.makedirs(out_dir)
    cli_seed = str(derive(seed, "cli-example", k))
    stages, reports = {}, []
    start = time.monotonic()
    logs = {}
    for st in CLI_STAGES:
        argv = [st, "--config", CONFIG, "--out", out_dir, "--seed", cli_seed]
        if st == "compare":
            argv.append("--strict")
        data, code, wall = runner.spawn("stage", "--trace", str(trace),
                                        stage_args=argv)
        ledger.check(f"stage {st} exits 0", code == 0,
                     f"exit {code}; see {data['log']}")
        stages[st] = {"wall_s": wall, "startup_s": data.get("startup_s"),
                      "maxrss_mb": data.get("maxrss_mb", 0.0)}
        logs[st] = data["log"]
        if "trace" in data:
            reports.append(data["trace"])
    wall = time.monotonic() - start

    rows = _read_csv(os.path.join(out_dir, "compare.csv"))
    zs = [float(r["z_score"]) for r in rows]
    max_z = max(zs) if zs else math.inf
    ledger.check("compare max z <= 3", bool(zs) and max_z <= Z_MAX,
                 f"max z = {max_z}")
    with open(os.path.join(ROOT, logs["bounds"])) as fh:
        bounds_log = fh.read()
    ledger.check("bounds ALL SATISFIED", "ALL SATISFIED" in bounds_log,
                 bounds_log.strip()[-200:])
    fp = _fingerprint_expand(out_dir)
    ledger.check("expand JSON fingerprint",
                 fp == fingerprints()["cli-example"]["expand_json_sha256"],
                 str(fp))
    accuracy = {"max_z": max_z}
    for r in _read_csv(os.path.join(out_dir, "correlation.csv")):
        if r["order"] == "1" and float(r["hbar"]) == 0.0:
            accuracy["rel_err_o1"] = float(r["error"]) / abs(
                float(r["value_re"]))
    return {"wall_s": wall, "stages": stages, "reports": reports,
            "accuracy": accuracy}


def _cli_passes(runner, ledger, seed, seconds, trace, first_k=0):
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(cli_pass(runner, ledger, seed, first_k + len(passes),
                               trace))
        if time.monotonic() > runner.deadline:
            break
    return passes


def _worst(passes) -> dict:
    out: dict = {}
    for p in passes:
        for key, v in p["accuracy"].items():
            out[key] = max(out.get(key, v), v)
    return out


def run_cli(seed: int, seconds: float, trace: int) -> dict:
    runner = Runner("cli-example", seed, trace)
    ledger = Ledger()
    if trace:
        plain = _cli_passes(runner, ledger, seed, seconds, 0)
        traced = _cli_passes(runner, ledger, seed, seconds, 1,
                             first_k=len(plain))
        n = len(traced)
        stage_s = {st: sum(p["stages"][st]["wall_s"] for p in traced) / n
                   for st in CLI_STAGES}
        stage_s["startup"] = sum(s["startup_s"] or 0.0 for p in traced
                                 for s in p["stages"].values()) / n
        walls = [p["wall_s"] for p in traced]
        coverage = sum(stage_s[st] for st in CLI_STAGES) / (sum(walls) / n)
        overhead = median(walls) / median([p["wall_s"] for p in plain]) - 1
        reports = [r for p in traced for r in p["reports"]]
        metrics = layer_metrics(reports, n, workers(), stage_s, coverage,
                                overhead)
        values: dict = {}
        for r in reports:
            values.update(r["values"])
        return {"ledger": ledger, "metrics": metrics, "values": values,
                "samples": walls, "accuracy": _worst(traced)}
    passes = _cli_passes(runner, ledger, seed, seconds, 0)
    startups = [s["startup_s"] for p in passes for s in p["stages"].values()
                if s["startup_s"] is not None]
    return {"ledger": ledger, "samples": [p["wall_s"] for p in passes],
            "setups": startups,
            "peak_rss_mb": max(s["maxrss_mb"] for p in passes
                               for s in p["stages"].values()),
            "accuracy": _worst(passes)}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def provenance(seed: int, seconds: float, trace: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = os.path.join(ROOT, "src", "stochsg")
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": workers(), "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit, "source_sha256": h.hexdigest(),
        "config": os.path.relpath(CONFIG, ROOT),
        "config_sha256": _sha256(CONFIG),
        "seed": seed, "seconds": seconds, "trace": trace,
        "WORKERS": workers(),
    }


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    if name == "cli-example":
        res = run_cli(seed, seconds, trace)
    else:
        res = run_in_process(name, seed, seconds, trace)
    ledger: Ledger = res["ledger"]
    out = {"workload": name, "provenance": provenance(seed, seconds, trace),
           "attempted": ledger.attempted, "failed": ledger.failed,
           "fail_frac": ledger.fail_frac, "failures": ledger.failures,
           "accuracy": res.get("accuracy", {}),
           "samples_s": res.get("samples", [])}
    if trace and "metrics" in res:
        out["metrics"] = {}
        for n, unit, _ in PER_LAYER:
            v = float(res["metrics"][n])
            if unit == "count" and v.is_integer():
                v = int(v)
            out["metrics"][n] = {"value": v, "unit": unit}
        out["layer_values"] = res["values"]
    elif not trace and res.get("samples") and res.get("setups"):
        values = {"setup_s": median(res["setups"]),
                  "run_s": median(res["samples"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        out["metrics"] = {n: {"value": values[n], "unit": u}
                          for n, u in END_TO_END_UNITS.items()}
        out["setup_samples_s"] = res["setups"]
    return out


def report(out: dict) -> None:
    """Human-readable lines: every metric by name, value and unit."""
    p = out["provenance"]
    print(f"[{out['workload']}] seed={p['seed']} trace={p['trace']} "
          f"WORKERS={p['WORKERS']} nproc={p['nproc']} cpu={p['cpu_model']!r} "
          f"python={p['python']} numpy={p['numpy']} scipy={p['scipy']}")
    metrics = out.get("metrics", {})
    for name, m in metrics.items():
        note = ""
        if name == "run_s":
            note = f"  ({describe_timing(out['samples_s'])})"
        elif name == "setup_s":
            note = f"  (median of {len(out['setup_samples_s'])} fresh " \
                   "interpreters)"
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_frac':28s} {out['fail_frac']:.6g} ratio  "
          f"({out['failed']} failed / {out['attempted']} attempted)")
    for name, unit in ACCURACY_UNITS.items():
        if name in out["accuracy"]:
            print(f"  {name:28s} {out['accuracy'][name]:.6g} {unit}")
    for name, v in sorted(out.get("layer_values", {}).items()):
        print(f"  {name:28s} {v:.6g}")
    for f in out["failures"]:
        print(f"  FAILED: {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    for need in (os.path.join(ROOT, "src", "stochsg", "__init__.py"), CONFIG):
        if not os.path.isfile(need):
            print(f"perfbench: {os.path.relpath(need, ROOT)} not found; run "
                  "from the root of a stochsg checkout", file=sys.stderr)
            return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        out = measure(name, args.seed, args.seconds, args.trace)
        with open(os.path.join(
                OUT, f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"),
                "w") as fh:
            json.dump(out, fh, indent=1)
        report(out)
        if "metrics" not in out:
            print(f"perfbench: {name} produced no measurement",
                  file=sys.stderr)
            return 1
        results.append(out)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
