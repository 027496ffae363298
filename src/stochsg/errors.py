"""Exception types shared across the package."""


class StochSGError(Exception):
    """Base class for all package errors."""


class EvalOnLightcone(StochSGError):
    """Hadamard-type kernel queried too close to the lightcone."""


class OutOfDomain(StochSGError):
    """Query point outside a tabulated domain."""


class SingularCoincidence(StochSGError):
    """A deformation would require a divergent coincidence-limit self-weight."""


class CancellationFailure(StochSGError):
    """An exact cancellation certificate found a surviving term."""


class NegativeGrade(StochSGError):
    """A nonzero term with hbar-grade below zero survived grading."""


class SingularityBudgetExceeded(StochSGError):
    """Quadrature replicate variance failed the stabilization test."""


class InvalidExponent(StochSGError):
    """Hoelder exponent outside the admissible range [1, 1/alpha)."""


class GridTooCoarse(StochSGError):
    """A grid-convergence criterion failed under doubling."""


class DegenerateConfiguration(StochSGError):
    """Point configuration with a vanishing null-coordinate difference."""


class CflViolation(StochSGError):
    """Lattice step sizes violate the CFL stability condition."""


class QTableFormatError(StochSGError):
    """A Q-table file that is not a complete QTBL table of this version."""


class ConfigError(StochSGError):
    """Invalid or inconsistent run configuration."""


class NonFiniteValue(StochSGError):
    """A numeric result overflowed the float range or is not a number."""
