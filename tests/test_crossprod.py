"""Bessel cross-product Laurent forms: closed, recursive, and direct routes."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov.crossprod import (
    MAX_CROSS_ORDER,
    CrossKind,
    Family,
    LaurentForm,
    closed_form,
    direct_cross_product,
    evaluate,
    recursive_form,
)

NU_GRID = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
Z_GRID = [0.5, 1.0, 2.0, 5.0, 10.0]


@pytest.mark.parametrize("family", [Family.PLAIN, Family.PRIMED])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("nu", NU_GRID)
def test_recursive_equals_closed_exactly(family, k, nu):
    """For k <= 4 the recurrence reproduces the tabulated coefficient maps."""
    kind = CrossKind(family, k)
    rec = recursive_form(kind, nu)
    clo = closed_form(kind, nu)
    assert rec.constant_term == clo.constant_term
    assert dict(rec.inverse_power_coeffs) == dict(clo.inverse_power_coeffs)


@pytest.mark.parametrize("family", [Family.PLAIN, Family.PRIMED])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("nu", NU_GRID)
@pytest.mark.parametrize("z", Z_GRID)
def test_recursive_matches_direct_evaluation(family, k, nu, z):
    """Laurent forms agree with the raw derivative combination for k <= 8."""
    kind = CrossKind(family, k)
    got = evaluate(recursive_form(kind, nu), z)
    expected = direct_cross_product(kind, nu, z)
    scale = max(abs(expected), 2.0 / (math.pi * z))
    assert abs(got - expected) <= 1e-9 * scale


def _bracket(form: LaurentForm) -> dict[int, Fraction]:
    """{power of 1/z: coefficient} of the bracketed part, c0 at power 0."""
    out = {m: Fraction(c) for m, c in form.inverse_power_coeffs.items()}
    out[0] = Fraction(form.constant_term)
    return {m: c for m, c in out.items() if c}


def _combine(*terms: tuple[Fraction | int, int, dict[int, Fraction]]) -> dict[int, Fraction]:
    """sum of scale * z^-shift * bracket over (scale, shift, bracket) terms."""
    out: dict[int, Fraction] = {}
    for scale, shift, bracket in terms:
        for m, c in bracket.items():
            out[m + shift] = out.get(m + shift, Fraction(0)) + scale * c
    return {m: c for m, c in out.items() if c}


def _d(bracket: dict[int, Fraction]) -> dict[int, Fraction]:
    """d/dz of the bracketed part."""
    return {m + 1: -m * c for m, c in bracket.items() if m}


@settings(max_examples=50, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=40),
    den=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=MAX_CROSS_ORDER - 1),
)
def test_recursive_forms_obey_the_derivative_identities(num, den, k):
    """Exact links between consecutive orders, with W = 2/(pi z), B the brackets.

    d/dz plain_k = plain_{k+1} + primed_k and (W B)' = W (B' - B/z) give
        B_plain,k+1 = B'_plain,k - B_plain,k / z - B_primed,k;
    Bessel's equation for Y'' and J'' gives
        B_primed,k+1 = B'_primed,k + (1 - nu^2/z^2) B_plain,k.
    """
    nu = Fraction(num, den)
    plain, primed, plain_next, primed_next = (
        _bracket(recursive_form(CrossKind(family, order), nu))
        for family, order in (
            (Family.PLAIN, k),
            (Family.PRIMED, k),
            (Family.PLAIN, k + 1),
            (Family.PRIMED, k + 1),
        )
    )
    assert plain_next == _combine((1, 0, _d(plain)), (-1, 1, plain), (-1, 0, primed))
    assert primed_next == _combine((1, 0, _d(primed)), (1, 0, plain), (-nu * nu, 2, plain))


def test_order_five_primed_against_direct():
    kind = CrossKind(Family.PRIMED, 5)
    nu, z = 1.5, 3.0
    got = evaluate(recursive_form(kind, nu), z)
    expected = direct_cross_product(kind, nu, z)
    assert got == pytest.approx(expected, rel=1e-9)


def test_first_order_plain_is_negative_wronskian():
    """Y J' - J Y' = -2/(pi z): constant form with c0 = -1."""
    form = closed_form(CrossKind(Family.PLAIN, 1), 2.0)
    assert form.constant_term == -1
    assert dict(form.inverse_power_coeffs) == {}
    assert evaluate(form, 1.7) == pytest.approx(-2.0 / (math.pi * 1.7), rel=1e-15)


def test_first_order_primed_vanishes_identically():
    """Y' J' - J' Y' is the zero combination."""
    kind = CrossKind(Family.PRIMED, 1)
    form = recursive_form(kind, 2.5)
    for z in Z_GRID:
        assert evaluate(form, z) == 0.0
        assert direct_cross_product(kind, 2.5, z) == 0.0


def test_third_order_plain_closed_form_expression():
    """Y J''' - J Y''' = (2/(pi z)) (1 - (2 + nu^2)/z^2).

    The magnitude matches the classical tabulated expression; the sign is
    fixed by this library's Y-first difference ordering.
    """
    for nu in (0.0, 1.0, 2.5):
        form = closed_form(CrossKind(Family.PLAIN, 3), nu)
        for z in (0.8, 2.0, 6.0):
            explicit = (2.0 / (math.pi * z)) * (1.0 - (2.0 + nu * nu) / z**2)
            assert evaluate(form, z) == pytest.approx(explicit, rel=1e-13, abs=1e-18)
            assert abs(evaluate(form, z)) == pytest.approx(
                abs((2.0 / (math.pi * z)) * ((2.0 + nu * nu) / z**2 - 1.0)), rel=1e-13
            )


def test_fourth_order_plain_value_example():
    # nu=1, z=2: (2/(pi z)) (-2/z + (6 + 6 nu^2)/z^3) = 1/(2 pi).
    form = closed_form(CrossKind(Family.PLAIN, 4), 1.0)
    value = evaluate(form, 2.0)
    assert value == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-13)
    assert value == pytest.approx(0.159155, rel=1e-5)
    assert value == pytest.approx(direct_cross_product(CrossKind(Family.PLAIN, 4), 1.0, 2.0), rel=1e-11)


def test_evaluate_constant_only_form():
    assert evaluate(LaurentForm(-1), 1.0) == pytest.approx(-2.0 / math.pi, rel=1e-15)


def test_evaluate_single_inverse_power():
    form = LaurentForm(0, {1: 1})
    assert evaluate(form, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)


def test_evaluate_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        evaluate(LaurentForm(1), 0.0)


def test_laurent_form_validation():
    with pytest.raises(ValueError):
        LaurentForm(2)
    with pytest.raises(ValueError):
        LaurentForm(0, {0: 1})
    with pytest.raises(ValueError):
        LaurentForm(0, {-1: 1})


def test_cross_kind_requires_positive_order():
    with pytest.raises(ValueError):
        CrossKind(Family.PLAIN, 0)


def test_closed_form_capped_at_four():
    with pytest.raises(ValueError, match="recursive_form"):
        closed_form(CrossKind(Family.PLAIN, 5), 1.0)


def test_recursive_form_capped_and_validated():
    with pytest.raises(ValueError):
        recursive_form(CrossKind(Family.PLAIN, MAX_CROSS_ORDER + 1), 1.0)
    with pytest.raises(ValueError):
        recursive_form(CrossKind(Family.PLAIN, 2), -1.0)


def test_half_integer_orders_stay_rational():
    """Coefficients at half-integer nu are exact rationals, not floats."""
    form = recursive_form(CrossKind(Family.PRIMED, 4), 0.5)
    for c in form.inverse_power_coeffs.values():
        assert isinstance(c, (int, Fraction))
