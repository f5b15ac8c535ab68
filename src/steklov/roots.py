"""The bracketed root solver of both eigenvalue routes (characteristic, shooting)."""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from .errors import IterationLimitError

__all__ = ["newton_step", "shrink_bracket"]

_MAX_STEPS = 200

Value = Union[float, tuple[float, Optional[float]]]  # f(x), or (f(x), f'(x) or None)


def _pair(value: Value) -> tuple[float, float | None]:
    return value if isinstance(value, tuple) else (value, None)


def newton_step(x: float, fx: float, dx: float) -> float:
    """x - fx/dx, or one ulp from x toward the root where that rounds to x."""
    step = x - fx / dx
    if step == x:
        step = math.nextafter(x, -math.inf if (fx > 0) == (dx > 0) else math.inf)
    return step


def shrink_bracket(
    f: Callable[[float], Value],
    lo: float,
    hi: float,
    f_lo: Value,
    f_hi: Value,
    *,
    xtol: float = 0.0,
) -> tuple[float, float]:
    """Shrink [lo, hi], with f of opposite signs at the ends, onto a root of f.

    f returns a Value, as f_lo and f_hi are at lo and hi. A step is a
    newton_step from the point evaluated last (at first, the end with the
    smaller |f|) when that has a nonzero slope and the step lands strictly
    inside the bracket, else Illinois false position (Dowell & Jarratt,
    BIT 11, 1971): an end kept two steps in a row has its value halved, and
    a step that rounds outside the open bracket becomes the midpoint.
    Returns the final bracket, either adjacent floats across which f
    changes sign or ends at most xtol apart, or (x, x) at once for an exact
    zero x. f is called only strictly inside the current bracket;
    IterationLimitError past _MAX_STEPS steps.
    """
    (f_lo, d_lo), (f_hi, d_hi) = _pair(f_lo), _pair(f_hi)
    if f_lo == 0.0 or f_hi == 0.0:
        x = lo if f_lo == 0.0 else hi
        return x, x
    x, fx, dx = (lo, f_lo, d_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi, d_hi)
    kept = 0  # 1 or -1 when hi or lo stayed put on the last step
    for _ in range(_MAX_STEPS):
        if hi - lo <= xtol or math.nextafter(lo, hi) == hi:
            return lo, hi
        step = newton_step(x, fx, dx) if dx else None
        if step is not None and lo < step < hi:
            x = step
        else:
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if not lo < x < hi:
                x = lo + 0.5 * (hi - lo)
        fx, dx = _pair(f(x))
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
