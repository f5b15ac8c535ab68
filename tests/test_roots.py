"""The bracketed root solver shared by find_root and eigenvalue_by_shooting."""

from __future__ import annotations

import math

import pytest

from steklov import roots
from steklov.errors import BracketError, IterationLimitError
from steklov.roots import opposite_signs, shrink_bracket


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


def test_newton_with_its_slope_reaches_adjacent_floats_fast():
    f, calls = _recorded(lambda x: (x * x - 2.0, 2.0 * x))
    lo, hi = shrink_bracket(f, 1.0, 2.0, (-1.0, 2.0), (2.0, 4.0))
    assert math.nextafter(lo, math.inf) == hi
    assert lo * lo - 2.0 < 0.0 < hi * hi - 2.0
    assert len(calls) <= 6
    assert len(set(calls)) == len(calls)
    assert all(1.0 < x < 2.0 for x in calls)


@pytest.mark.parametrize(
    "slope", [lambda x: -2.0 * x, lambda x: 0.0], ids=["wrong-sign", "zero"]
)
def test_a_useless_slope_falls_back_to_illinois(slope):
    # the Newton point leaves the bracket, or there is none to take
    f, calls = _recorded(lambda x: (x * x - 2.0, slope(x)))
    lo, hi = shrink_bracket(f, 1.0, 2.0, (-1.0, slope(1.0)), (2.0, slope(2.0)))
    assert math.nextafter(lo, math.inf) == hi
    assert lo * lo - 2.0 < 0.0 < hi * hi - 2.0
    assert len(set(calls)) == len(calls)
    assert all(1.0 < x < 2.0 for x in calls)


def test_step_cap_raises_with_a_slope():
    # so steep a slope that every Newton step rounds away and moves one ulp
    f, calls = _recorded(lambda x: (x - 1.9, 1e308))
    with pytest.raises(IterationLimitError, match="not shrunk in 200 steps"):
        shrink_bracket(f, 1.0, 2.0, (-0.9, 1e308), (0.1, 1e308))
    assert len(calls) == 200
    below = math.nextafter(2.0, 0.0)
    assert calls[:2] == [below, math.nextafter(below, 0.0)]


def test_opposite_signs_is_strict():
    assert opposite_signs(-1e-300, 1e-300) and opposite_signs(2.0, -1.0)
    assert not opposite_signs(1e-175, 4e-174)  # the product underflows to 0
    for a, b in [(0.0, 1.0), (-1.0, -0.0), (math.nan, 1.0), (-1.0, math.nan)]:
        assert not opposite_signs(a, b) and not opposite_signs(b, a)


def test_ends_of_one_sign_raise_bracket_error():
    f, calls = _recorded(lambda x: x * x - 2.0)
    with pytest.raises(BracketError, match="no sign change"):
        shrink_bracket(f, 2.0, 3.0, 2.0, 7.0)
    with pytest.raises(BracketError):
        shrink_bracket(f, 1.0, 2.0, math.nan, 2.0)
    assert calls == []
