"""The bracketed root solver shared by find_root and eigenvalue_by_shooting."""

from __future__ import annotations

import math

import pytest

from steklov import roots
from steklov.errors import IterationLimitError
from steklov.roots import shrink_bracket


def _recorded(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def test_stops_on_adjacent_floats_around_sqrt2():
    f, calls = _recorded(lambda x: x * x - 2.0)
    lo, hi = shrink_bracket(f, 1.0, 2.0, -1.0, 2.0)
    assert math.nextafter(lo, math.inf) == hi
    assert lo * lo - 2.0 < 0.0 < hi * hi - 2.0
    assert hi == math.sqrt(2.0)
    # every point once, strictly inside the starting bracket
    assert len(set(calls)) == len(calls)
    assert all(1.0 < x < 2.0 for x in calls)


def test_convex_function_does_not_stall_one_end():
    # plain false position keeps lo fixed here and never reaches adjacent floats
    f, calls = _recorded(lambda x: x**8 - 0.5)
    lo, hi = shrink_bracket(f, 0.0, 1.5, -0.5, 1.5**8 - 0.5)
    assert math.nextafter(lo, math.inf) == hi
    assert f(lo) < 0.0 < f(hi)
    assert len(calls) <= 40


def test_step_rounding_onto_an_end_takes_the_midpoint():
    # the false-position point 2 - 1/(1 + 1e300) rounds to hi
    f, calls = _recorded(lambda x: -1e300 if x < 1.75 else 1.0)
    lo, hi = shrink_bracket(f, 1.0, 2.0, -1e300, 1.0)
    assert (lo, hi) == (math.nextafter(1.75, 0.0), 1.75)
    assert calls[0] == 1.5
    assert len(set(calls)) == len(calls)
    assert all(1.0 < x < 2.0 for x in calls)


def test_returns_an_exact_zero_at_once():
    f, calls = _recorded(lambda x: x - 0.5)
    assert shrink_bracket(f, 0.0, 1.0, -0.5, 0.5) == (0.5, 0.5)
    assert calls == [0.5]
    assert shrink_bracket(f, 0.5, 1.0, 0.0, 0.5) == (0.5, 0.5)
    assert shrink_bracket(f, 0.0, 0.5, -0.5, 0.0) == (0.5, 0.5)
    assert calls == [0.5]


def test_xtol_stops_early():
    f, calls = _recorded(lambda x: x * x - 2.0)
    lo, hi = shrink_bracket(f, 1.0, 2.0, -1.0, 2.0, xtol=1e-6)
    assert 0.0 < hi - lo <= 1e-6
    assert lo < math.sqrt(2.0) < hi
    f_full, full_calls = _recorded(lambda x: x * x - 2.0)
    shrink_bracket(f_full, 1.0, 2.0, -1.0, 2.0)
    assert len(calls) < len(full_calls)


def test_step_cap_raises_with_best_iterate(monkeypatch):
    monkeypatch.setattr(roots, "_MAX_STEPS", 3)
    f, calls = _recorded(lambda x: x * x - 2.0)
    with pytest.raises(IterationLimitError, match="not shrunk in 3 steps") as info:
        shrink_bracket(f, 1.0, 2.0, -1.0, 2.0)
    assert len(calls) == 3
    assert 1.0 < info.value.best < 2.0
