"""Exact spectrum of the unit ball and the first-order branch slope."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov.branch import slope_from_truncated
from steklov.model import ProblemConfig
from steklov.spectrum import SteklovEigenvalue, multiplicity, slope_at_zero, steklov_eigenvalue


def test_disc_spectrum_is_even_integers():
    """N=2, M=pi has rho = 1/2, so lambda_l = 2l with multiplicity 2."""
    for l in range(11):
        eig = steklov_eigenvalue(ProblemConfig(N=2, M=math.pi, l=l))
        assert eig.value == pytest.approx(2.0 * l, rel=1e-14, abs=0.0)
        assert eig.multiplicity == (1 if l == 0 else 2)


def test_ball_spectrum_is_integers():
    """N=3, M=4pi has rho = 1, so lambda_l = l."""
    for l in range(11):
        eig = steklov_eigenvalue(ProblemConfig(N=3, M=4.0 * math.pi, l=l))
        assert eig.value == pytest.approx(float(l), rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "N, l, expected",
    [
        (2, 0, 1),
        (2, 1, 2),
        (2, 7, 2),
        (3, 0, 1),
        (3, 1, 3),
        (3, 2, 5),
        (4, 2, 9),
        # (2*3 + 5 - 2) * (3 + 5 - 3)! / (3! * 3!) = 9 * 120 / 36
        (5, 3, 30),
        # S^0 = {-1, 1} carries one even and one odd function
        (1, 0, 1),
        (1, 1, 1),
    ],
)
def test_multiplicities(N, l, expected):
    assert multiplicity(N, l) == expected


def test_multiplicity_big_arguments_exact():
    """Factorial-ratio form stays exact well past 64-bit factorials."""
    N, l = 10, 50
    expected = (
        (2 * l + N - 2)
        * math.factorial(l + N - 3)
        // (math.factorial(l) * math.factorial(N - 2))
    )
    assert multiplicity(N, l) == expected


@pytest.mark.parametrize(
    "N, M_factor, l, expected",
    [
        (2, 1.0, 1, 7.0 / 3.0),
        (2, 1.0, 2, 8.0),
        (3, 4.0, 1, 0.8),
        (3, 4.0, 2, 64.0 / 21.0),
        # the interval at M = 2: lambda_1 = 1, (2/3)(1 + 1)
        (1, 2.0 / math.pi, 1, 4.0 / 3.0),
    ],
)
def test_slope_closed_values(N, M_factor, l, expected):
    """2 l lam / 3 + 2 lam^2 / (N (2l + N)) at the reference masses."""
    cfg = ProblemConfig(N=N, M=M_factor * math.pi, l=l)
    assert slope_at_zero(cfg) == pytest.approx(expected, rel=1e-14)


def test_slope_zero_at_l_zero():
    assert slope_at_zero(ProblemConfig(N=2, M=math.pi, l=0)) == 0.0
    assert slope_at_zero(ProblemConfig(N=5, M=2.0, l=0)) == 0.0


def test_eigenvalue_fields_consistent():
    cfg = ProblemConfig(N=3, M=4.0 * math.pi, l=2)
    eig = steklov_eigenvalue(cfg)
    assert isinstance(eig, SteklovEigenvalue)
    assert eig.l == 2
    assert eig.multiplicity == multiplicity(3, 2)
    assert eig.slope == pytest.approx(slope_at_zero(cfg), rel=1e-15)
    rho = cfg.M / (cfg.N * cfg.omega)  # the limiting boundary density
    assert eig.value == pytest.approx(cfg.l / rho, rel=1e-14)


def test_one_dimensional_spectrum_has_two_modes():
    """lambda_0 = 0 and lambda_1 = 2/M, both simple; l >= 2 is refused."""
    for M in (0.5, 2.0, 7.0):
        even, odd = (steklov_eigenvalue(ProblemConfig(N=1, M=M, l=l)) for l in (0, 1))
        assert (even.value, even.multiplicity, even.slope) == (0.0, 1, 0.0)
        assert odd.value == pytest.approx(2.0 / M, rel=1e-15)
        assert odd.multiplicity == 1
    with pytest.raises(ValueError, match="only the even"):
        ProblemConfig(N=1, M=2.0, l=2)


@settings(max_examples=150, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=8),
    l=st.integers(min_value=1, max_value=30),
    M=st.floats(min_value=1e-2, max_value=1e3),
)
def test_positive_branch_data_for_positive_modes(N, l, M):
    cfg = ProblemConfig(N=N, M=M, l=l)
    eig = steklov_eigenvalue(cfg)
    assert eig.value > 0.0
    assert eig.slope > 0.0
    assert eig.multiplicity >= 1


@pytest.mark.parametrize(
    "N, M_factor, l",
    [
        pytest.param(N, M_factor, l, id=f"{l}-{M_factor}-{N}")
        for l in (1, 2, 3, 5)
        for M_factor in (0.5, 1.0, 4.0)
        # the interval has no l >= 2
        for N in range(1 if l == 1 else 2, 6)
    ],
)
def test_slope_agrees_with_characteristic_expansion(N, M_factor, l):
    """The closed slope equals the ratio read off the truncated equation.

    The two code paths are independent: one is the printed formula, the
    other differentiates the small-eps characteristic polynomial.
    """
    cfg = ProblemConfig(N=N, M=M_factor * math.pi, l=l)
    direct = slope_at_zero(cfg)
    from_expansion = slope_from_truncated(cfg)
    assert abs(from_expansion - direct) <= 1e-13 * abs(direct)
