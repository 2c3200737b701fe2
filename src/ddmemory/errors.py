"""Exception hierarchy shared across the toolkit, and its argument checks.

Each class maps to a distinct CLI exit code so scripted callers can
tell misuse, domain violations, convergence trouble and resource
exhaustion apart. require_positive, require_nonnegative and require_count
spell the common argument rules once, each raising DomainError naming it.
"""

from __future__ import annotations

import math
import numbers


class DDMemoryError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class DomainError(DDMemoryError):
    """Input outside the mathematical domain of an operation."""

    exit_code = 3


class CalibrationError(DomainError):
    """Spectrum strength calibration cannot be completed."""


class AccuracyError(DDMemoryError):
    """Quadrature failed to meet the requested tolerance.

    Carries the best available estimate and its error bound so callers
    can decide whether the partial result is still usable.
    """

    exit_code = 4

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class ConsistencyError(AccuracyError):
    """Two evaluation routes disagree beyond the allowed tolerance."""


class DivergenceError(DomainError):
    """An asymptotic quantity does not exist for the given inputs.

    The message names the inequality that failed, e.g. a spectrum whose
    low-frequency weight makes the plateau integral infinite.
    """


class ResourceLimitError(DDMemoryError):
    """A configured size or time limit would be exceeded."""

    exit_code = 5


class SuppressionFitError(DomainError):
    """Log-log slope fit did not look like a power law.

    The raw slope is attached for diagnostics.
    """

    def __init__(self, message: str, raw_slope: float, residual: float):
        super().__init__(message)
        self.raw_slope = raw_slope
        self.residual = residual


def require_positive(name: str, x: float) -> None:
    """Raise DomainError naming `name` unless x is finite and > 0."""
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be finite and positive, got {x}")


def require_nonnegative(name: str, x: float) -> None:
    """Raise DomainError naming `name` unless x is finite and >= 0."""
    if not (math.isfinite(x) and x >= 0):
        raise DomainError(f"{name} must be finite and nonnegative, got {x}")


def require_count(name: str, m: int, least: int = 1) -> None:
    """Raise DomainError naming `name` unless m is an integer >= least; bools are not counts."""
    if not (isinstance(m, numbers.Integral) and not isinstance(m, bool) and m >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {m!r}")
