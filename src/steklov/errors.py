"""Shared exception types."""

from __future__ import annotations

__all__ = [
    "BracketError",
    "IterationLimitError",
    "UnsupportedOrderError",
]


class BracketError(ValueError):
    """No sign change; context (N, M, l, eps, bracket) goes to cli's report."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class IterationLimitError(RuntimeError):
    """Root iteration hit its cap; carries the best iterate and a context."""

    def __init__(self, message: str, best: float | None = None, **context):
        super().__init__(message)
        self.best = best
        self.context = context


class UnsupportedOrderError(ValueError):
    """Requested derivative order above the supported cap."""

