"""The bracketed root solver of both eigenvalue routes (characteristic, shooting)."""

from __future__ import annotations

import math
from typing import Callable

from .errors import IterationLimitError

__all__ = ["shrink_bracket"]

_MAX_STEPS = 200


def shrink_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    *,
    xtol: float = 0.0,
) -> tuple[float, float]:
    """Shrink [lo, hi], with f_lo and f_hi of opposite signs, onto a root of f.

    Illinois false position (Dowell & Jarratt, BIT 11, 1971): an end kept
    two steps in a row has its value halved, and a step that rounds outside
    the open bracket becomes the midpoint. Returns the final bracket, either
    adjacent floats across which f changes sign or ends at most xtol apart,
    or (x, x) at once for an exact zero x. f is called only strictly inside
    the current bracket; IterationLimitError past _MAX_STEPS steps.
    """
    if f_lo == 0.0 or f_hi == 0.0:
        x = lo if f_lo == 0.0 else hi
        return x, x
    kept = 0  # 1 or -1 when hi or lo stayed put on the last step
    for _ in range(_MAX_STEPS):
        if hi - lo <= xtol or math.nextafter(lo, hi) == hi:
            return lo, hi
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = lo + 0.5 * (hi - lo)
        fx = f(x)
        if fx == 0.0:
            return x, x
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, fx
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    raise IterationLimitError(
        f"bracket [{lo!r}, {hi!r}] not shrunk in {_MAX_STEPS} steps",
        best=lo + 0.5 * (hi - lo),
    )
