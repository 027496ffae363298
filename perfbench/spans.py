"""Thread-safe spans and counters, kept in memory and aggregated at the end.

A span records its name, start, end, the span that caused it and the phase
of the run it belongs to ("setup" or "op").  A span opened on a pool thread
with nothing open on that thread takes as parent the innermost span open on
the thread that created the tracer: the layer call that fanned the work out.
Self time is a span's duration minus the part of its interval that its child
spans cover; children on pool threads may overlap each other, so the covered
part is the length of the union of their intervals.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - union_length(children[s.sid], s.start, s.end)
            for s in spans}


class Tracer:
    """Collects spans and counters from any thread of one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._names: dict[int, str] = {}
        self.home = threading.get_ident()
        self._home_stack: list[int] = self._stack()
        self._next_id = 0
        self.phase = "setup"
        self.enabled = True
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.values: dict[str, float] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost span open on this thread, if any."""
        stack = self._stack()
        return self._names.get(stack[-1]) if stack else None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self.home and self._home_stack:
                parent = self._home_stack[-1]
            else:
                parent = None
            self._names[sid] = name
        phase = self.phase
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name,
                                       threading.get_ident(), start, end,
                                       phase))
                del self._names[sid]

    def add(self, name: str, n: float = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counters[(self.phase, name)] += n

    def note(self, name: str, value: float) -> None:
        """Keep the latest value a layer produced, to store beside its time."""
        if self.enabled:
            with self._lock:
                self.values[name] = float(value)


def aggregate(spans) -> dict:
    """Per (phase, name): calls, busy time, self time, the time of spans not
    nested inside another span of the same layer ("outer"), and the time of
    spans run directly under an MC estimate, on its pool or inline ("pool")."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        parent = by_id.get(s.parent)
        outer = parent is None or layer_of(parent.name) != layer_of(s.name)
        row = out.setdefault(s.phase, {}).setdefault(
            s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                     "outer_s": 0.0, "pool_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += s.duration
        row["self_s"] += selfs[s.sid]
        if outer:
            row["outer_s"] += s.duration
        if parent is not None and parent.name == "spde_mc.estimate_correlator":
            row["pool_s"] += s.duration
    return out


def root_time(spans, home_thread: int, phase: str = "op") -> float:
    """Summed duration of the top-level spans of one phase on one thread."""
    return sum(s.duration for s in spans
               if s.parent is None and s.thread == home_thread
               and s.phase == phase)
