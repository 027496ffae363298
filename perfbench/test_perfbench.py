"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import json
import os
import threading
import time

import pytest

from perfbench import layers, run, stats
from perfbench.seeds import derive
from perfbench.spans import (Span, Tracer, aggregate, root_time, self_times,
                             union_length)


def span(sid, parent, name, start, end, phase="op", thread=1):
    return Span(sid, parent, name, thread, start, end, phase)


# --- self time ---------------------------------------------------------------

def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert union_length([], 0, 1) == 0
    assert union_length([(3, 4)], 0, 2) == 0


def test_self_time_nested_spans():
    # a [0, 10] > b [1, 4] > c [2, 3]; a > d [6, 7]
    spans = [span(0, None, "a", 0, 10), span(1, 0, "b", 1, 4),
             span(2, 1, "c", 2, 3), span(3, 0, "d", 6, 7)]
    st = self_times(spans)
    assert st == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    # the grandchild is not subtracted twice from the root
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_overlapping_children_counts_the_union():
    # two pool threads under one parent: [1, 6] and [3, 8] cover [1, 8]
    spans = [span(0, None, "spde_mc.estimate_correlator", 0, 10),
             span(1, 0, "spde_mc.solve_linear", 1, 6, thread=2),
             span(2, 0, "spde_mc.solve_linear", 3, 8, thread=3)]
    st = self_times(spans)
    assert st[0] == pytest.approx(3.0)
    agg = aggregate(spans)["op"]
    # busy time is summed over threads and exceeds the parent's wall time
    assert agg["spde_mc.solve_linear"]["busy_s"] == pytest.approx(10.0)
    assert agg["spde_mc.solve_linear"]["pool_s"] == pytest.approx(10.0)


def test_outer_time_skips_spans_nested_in_the_same_layer():
    spans = [span(0, None, "series.correlation_coefficient", 0, 10),
             span(1, 0, "algebra.classical_term", 1, 5),
             span(2, 1, "algebra.bogoliubov_generators", 1, 2)]
    agg = aggregate(spans)["op"]
    assert agg["algebra.classical_term"]["outer_s"] == 4
    assert agg["algebra.bogoliubov_generators"]["outer_s"] == 0


def test_tracer_threads_take_the_home_span_as_parent():
    tracer = Tracer()
    tracer.phase = "op"

    def work():
        with tracer.span("spde_mc.solve_linear"):
            time.sleep(0.01)
        tracer.add("spde_mc.solves", 2)

    with tracer.span("spde_mc.estimate_correlator"):
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    root = next(s for s in tracer.spans if s.parent is None)
    kids = [s for s in tracer.spans if s.parent == root.sid]
    assert len(kids) == 4 and len(tracer.spans) == 5
    assert tracer.counters[("op", "spde_mc.solves")] == 8
    assert root_time(tracer.spans, tracer.home) == pytest.approx(
        root.duration)
    assert 0 <= self_times(tracer.spans)[root.sid] < root.duration


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.enabled = False
    with tracer.span("x"):
        tracer.add("n")
        tracer.note("v", 1.0)
    assert not tracer.spans and not tracer.counters and not tracer.values


# --- percentile rule -----------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n))
    tail = stats.tail_percentile(values)
    if expected is None:
        assert tail is None
        return
    p, v = tail
    assert p == expected
    assert sum(1 for x in values if x > v) >= stats.MIN_BEYOND


def test_nearest_rank():
    assert stats.nearest_rank([5, 1, 3], 50) == (3, 1)
    assert stats.nearest_rank([4.0], 99.9) == (4.0, 0)
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


def test_describe_timing_states_the_sample_count():
    assert stats.describe_timing([1.0]).startswith("median of 1;")
    assert "p50 = " in stats.describe_timing([float(i) for i in range(20)])


# --- fail_frac accounting ------------------------------------------------------

def test_ledger_counts_raises_and_failed_checks():
    ledger = stats.Ledger()
    assert ledger.call("ok", lambda: 3) == 3

    def boom():
        raise ValueError("no")
    assert ledger.call("raises", boom) is None
    assert ledger.check("good", True)
    assert not ledger.check("bad", False, "z = 4")
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.fail_frac == 0.5
    assert ledger.failures == ["raises: ValueError: no", "bad: z = 4"]


def test_ledger_merge_and_empty():
    assert stats.Ledger().fail_frac == 1.0   # nothing attempted is no pass
    ledger = stats.Ledger()
    ledger.check("a", True)
    ledger.merge({"attempted": 3, "failed": 1, "failures": ["x"]})
    assert (ledger.attempted, ledger.failed, ledger.failures) == (4, 1, ["x"])


# --- per-layer metrics ---------------------------------------------------------

def _report(setup_rows, op_rows, setup_counts, op_counts):
    return {"aggregate": {"setup": setup_rows, "op": op_rows},
            "counters": {"setup": setup_counts, "op": op_counts}}


def _row(busy, calls=1, self_s=None, outer=None, pool=0.0):
    return {"calls": calls, "busy_s": busy,
            "self_s": busy if self_s is None else self_s,
            "outer_s": busy if outer is None else outer, "pool_s": pool}


def test_layer_metrics_count_setup_once_and_ops_per_op():
    rep = _report(
        {"kernels.build_q_table": _row(1.0)},
        {"quad.integrate": _row(4.0, calls=8, self_s=1.0)},
        {"kernels.q_entries": 100},
        {"quad.points": 64, "algebra.terms": 6, "algebra.generators": 12})
    m = layers.layer_metrics([rep], n_ops=2, workers=2, stage_s={},
                             coverage=0.95, overhead=0.01)
    assert set(m) == {name for name, _, _ in layers.PER_LAYER}
    assert m["kernels.build_q_table_s"] == 1.0
    assert m["kernels.q_entries_per_s"] == 100.0
    assert m["quad.integrate_s"] == 2.0 and m["quad.integrate_calls"] == 4
    assert m["quad.self_s"] == 0.5 and m["quad.points"] == 32
    assert m["quad.points_per_s"] == 16.0
    assert m["algebra.survival_ratio"] == 0.5
    assert m["spde_mc.pool_busy_frac"] == 0.0     # no MC ran
    assert m["cli.qtable_builds"] == 0.0 and m["cli.corr_s"] == 0.0


def test_pool_busy_fraction():
    rep = _report({}, {"spde_mc.estimate_correlator": _row(2.0),
                       "spde_mc.solve_linear": _row(3.0, pool=3.0)}, {}, {})
    m = layers.layer_metrics([rep], 1, 2, {}, 1.0, 0.0)
    assert m["spde_mc.pool_busy_frac"] == 0.75


# --- seeds and the benchmark definition -------------------------------------

def test_derived_seeds_are_fixed_and_distinct():
    assert derive(3, "mc-order2", 0) == derive(3, "mc-order2", 0)
    seeds = {derive(s, "w", k) for s in range(5) for k in range(5)}
    assert len(seeds) == 25
    assert all(0 <= s < 2 ** 32 for s in seeds)


def test_benchmark_json_matches_the_code():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
