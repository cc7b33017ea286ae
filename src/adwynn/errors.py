"""Exception types shared across the package."""

from __future__ import annotations

import math


class AdwynnError(Exception):
    """Base class for all package errors."""


class DomainError(AdwynnError):
    """An input lies outside its declared space or violates a precondition."""


class SingularMatrixError(AdwynnError):
    """An information matrix is not positive definite above the working floor."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(f"{message} (min eigenvalue {min_eigenvalue:.3e})")
        self.min_eigenvalue = min_eigenvalue


class ConvergenceError(AdwynnError):
    """An iterative solver stopped before reaching its tolerance."""

    def __init__(self, message: str, gap: float):
        super().__init__(f"{message} (final gap {gap:.3e})")
        self.gap = gap


class InitializationError(AdwynnError):
    """No starting design clearing the positive-definiteness floor was found."""


class FitFailureError(AdwynnError):
    """Least-squares fitting produced no finite objective value."""


class AcquisitionError(AdwynnError):
    """A response source could not supply the requested observation."""


class StudyError(AdwynnError):
    """Too many Monte Carlo replicates failed for the study to be trusted."""

    def __init__(self, message: str, failed_indices: list[int]):
        super().__init__(message)
        self.failed_indices = failed_indices


class ConfigError(AdwynnError):
    """A run configuration is malformed or inconsistent."""


def require_positive_finite(name: str, value: float) -> None:
    """DomainError naming ``name`` unless ``value`` is finite and positive."""
    if not 0 < value < math.inf:  # NaN fails too
        raise DomainError(f"{name} must be finite and positive, got {value!r}")
