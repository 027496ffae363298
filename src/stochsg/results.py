"""Numeric results that carry an explicit error estimate."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with a deterministic or replicate-based error bar."""

    value: complex
    error: float
    samples: int
    seed: int = 0

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(self.value + other.value,
                          (self.error ** 2 + other.error ** 2) ** 0.5,
                          self.samples + other.samples, self.seed)

    def scaled(self, c: complex) -> "QuadResult":
        return QuadResult(c * self.value, abs(c) * self.error, self.samples, self.seed)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with standard error over independent realizations."""

    mean: float
    stderr: float
    n_samples: int
    seed: int
