"""Shared accuracy contracts and error types.

Every numerical routine in this package either meets its requested
tolerance or raises; a silently degraded result is never returned.
NaNs are treated as bugs, not values: inputs are validated and
non-finite intermediate results raise ``AccuracyError``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass


@dataclass(frozen=True)
class EvalAccuracy:
    """Truncation/tolerance control for series and quadrature.

    abs_tol must be strictly positive; max_terms caps any internally
    adaptive expansion.
    """

    abs_tol: float = 1e-12
    max_terms: int = 200_000

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be a positive integer")


DEFAULT_ACCURACY = EvalAccuracy()


class PoleError(ValueError):
    """Evaluation requested exactly at a pole of the function."""


class DomainError(ValueError):
    """Argument outside the validity region of a representation."""


class AccuracyError(ArithmeticError):
    """Requested tolerance could not be met; carries the achieved bound."""

    def __init__(self, message: str, achieved: float = float("inf")):
        super().__init__(f"{message} (achieved bound: {achieved:.3e})")
        self.achieved = achieved


class MissedZeroError(RuntimeError):
    """A Rosser block of the zero scan does not hold exactly its count of zeros after refinement."""


class InsufficientZerosError(ValueError):
    """More zeros requested than the supplied list contains."""


class CacheParseError(ValueError):
    """Zero-cache file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CacheChecksumError(ValueError):
    """Zero-cache checksum line does not match the file contents."""


class MeasureDivergenceError(RuntimeError):
    """Total-variation integral fails the Cauchy criterion; carries partials."""

    def __init__(self, message: str, partials):
        super().__init__(message)
        self.partials = tuple(partials)


def ensure_finite(s: complex, what: str = "argument") -> complex:
    """Reject NaN/inf inputs up front instead of letting them propagate."""
    z = complex(s)
    if not (cmath.isfinite(z)):
        raise ValueError(f"non-finite {what}: {s!r}")
    return z
