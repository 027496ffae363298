"""Arithmetic of the benchmark: timing summaries and failure accounting."""

from __future__ import annotations

import math
import statistics
import traceback

# Percentiles considered for the tail of a timing, highest last.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(values, p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above its rank."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    idx = max(0, math.ceil(round(p / 100.0 * len(xs), 9)) - 1)
    return xs[idx], len(xs) - idx - 1


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it,
    as (p, value); None when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        value, beyond = nearest_rank(values, p)
        if beyond >= MIN_BEYOND:
            best = (p, value)
    return best


def describe_timing(values) -> str:
    """Median, the tail percentile the sample count supports, and the count."""
    text = f"median of {len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        return text + (f"; no percentile has {MIN_BEYOND} samples beyond it")
    p, v = tail
    return text + f"; p{p:g} = {v:.6g} s"


class Ledger:
    """Counts operations (public layer calls and correctness checks) and the
    ones that failed.  A raise, a non-zero exit or a failed check is a
    failure; nothing is skipped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        """Run one layer call; a raise is recorded and gives None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any raise from the layer is a failure
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc()
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}".rstrip(": "))
        return ok

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.failures.extend(other["failures"])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": list(self.failures)}

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def median(values) -> float:
    return float(statistics.median(values))
