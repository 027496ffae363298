"""One measured process: a workload's set-up, its timed run, or a CLI stage.

Started by run.py in a fresh interpreter, so that imports, config parsing
and table construction are paid as a user pays them.  It writes what it
measured to the JSON file named by --stats:

    python3 perfbench/child.py setup --workload W --seed S --spawn T --stats F
    python3 perfbench/child.py run --workload W --seed S --seconds X
                                   --trace 0|1 --spawn T --stats F
    python3 perfbench/child.py stage --trace 0|1 --spawn T --stats F -- ARGS

--spawn is the CLOCK_MONOTONIC time at which the parent started the process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# this directory must not shadow other modules: import it as a package
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))


def _check_source() -> None:
    import stochsg
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(stochsg.__file__).startswith(src + os.sep):
        raise SystemExit(f"stochsg imported from {stochsg.__file__}, "
                         f"not from {src}")


def _tracer(enabled: bool):
    if not enabled:
        return None
    from perfbench.instrument import install
    from perfbench.spans import Tracer
    tracer = Tracer()
    install(tracer)
    return tracer


def _trace_report(tracer, stats_path: str) -> dict:
    from perfbench.spans import aggregate, root_time
    tracer.enabled = False
    with open(stats_path + ".spans.json", "w") as fh:
        json.dump([[s.sid, s.parent, s.name, s.thread, s.start, s.end,
                    s.phase] for s in tracer.spans], fh)
    counters: dict = {}
    for (phase, name), v in tracer.counters.items():
        counters.setdefault(phase, {})[name] = v
    return {"aggregate": aggregate(tracer.spans), "counters": counters,
            "values": dict(tracer.values),
            "root_s": root_time(tracer.spans, tracer.home)}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args, setup_only: bool) -> dict:
    from perfbench.stats import Ledger
    tracer = _tracer(bool(args.trace))
    from perfbench.workloads import IN_PROCESS
    workload = IN_PROCESS[args.workload]
    ledger = Ledger()
    _check_source()
    state = ledger.call("set-up", workload.setup, ROOT, args.seed)
    setup_s = time.monotonic() - args.spawn
    out = {"setup_s": setup_s}
    if setup_only or state is None:
        out["ledger"] = ledger.as_dict()
        return out
    if tracer is not None:
        tracer.phase = "op"
    samples, results = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(workload.op(state, len(samples), ledger))
        samples.append(time.perf_counter() - t0)
        if len(samples) == 1:
            # set-up plus one operation: later operations repeat the same
            # work, and how many fit in the window varies from run to run
            out["maxrss_mb"] = _maxrss_mb()
        if time.perf_counter() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.enabled = False
    out["accuracy"] = workload.check(state, results, ledger)
    out.update(samples=samples, ledger=ledger.as_dict())
    if tracer is not None:
        out["trace"] = _trace_report(tracer, args.stats)
    return out


def run_stage(args) -> dict:
    tracer = _tracer(bool(args.trace))
    if tracer is not None:
        tracer.phase = "op"
    _check_source()
    from stochsg import cli
    loaded = {}
    load = cli._load

    def stamped_load(*a, **k):
        cfg = load(*a, **k)
        loaded.setdefault("at", time.monotonic())
        return cfg
    cli._load = stamped_load
    try:
        cli.main(args=args.stage_args, prog_name="stochsg",
                 standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (
            0 if exc.code is None else 1)
    sys.stdout.flush()
    out = {"exit_code": code, "maxrss_mb": _maxrss_mb(),
           "startup_s": loaded.get("at", time.monotonic()) - args.spawn}
    if tracer is not None:
        out["trace"] = _trace_report(tracer, args.stats)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["setup", "run", "stage"])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--stats", required=True)
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    args.stage_args = argv[cut + 1:]
    if args.mode == "stage":
        out = run_stage(args)
    else:
        out = run_workload(args, setup_only=args.mode == "setup")
    with open(args.stats, "w") as fh:
        json.dump(out, fh)
    return out.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
