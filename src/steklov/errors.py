"""Shared exception types."""

from __future__ import annotations

__all__ = [
    "BracketError",
    "IterationLimitError",
    "UnsupportedOrderError",
]


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


class IterationLimitError(RuntimeError):
    """Root iteration hit its cap; carries the best iterate found."""

    def __init__(self, message: str, best: float | None = None):
        super().__init__(message)
        self.best = best


class UnsupportedOrderError(ValueError):
    """Requested derivative order above the supported cap."""

