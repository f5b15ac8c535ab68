"""Bessel evaluation layer: frozen values, identities, high derivatives."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from series_oracle import bessel_j_series, bessel_y0_series
from steklov.bessel import BesselKind, bessel_pair, derivatives_up_to
from steklov.crossprod import MAX_CROSS_ORDER, CrossKind, Family

# Frozen reference values, independently reproduced by the ascending-series
# oracle in series_oracle.py (and, for the half-integer order, by the
# elementary closed form J_{1/2}(z) = sqrt(2/(pi z)) sin z).
J0_AT_1 = 0.7651976865579666
J1_AT_1 = 0.4400505857449335
Y0_AT_1 = 0.08825696421567696


def bessel(kind: BesselKind, nu: float, z: float) -> float:
    """C_nu(z), the value of the package's one library call at (nu-1, nu)."""
    return bessel_pair(kind, nu, z)[0]


def test_frozen_values_match_library():
    assert bessel(BesselKind.J, 0.0, 1.0) == pytest.approx(J0_AT_1, rel=1e-15, abs=0.0)
    assert bessel(BesselKind.J, 1.0, 1.0) == pytest.approx(J1_AT_1, rel=1e-15, abs=0.0)
    assert bessel(BesselKind.Y, 0.0, 1.0) == pytest.approx(Y0_AT_1, rel=1e-14, abs=0.0)


def test_frozen_values_match_series_oracle():
    assert bessel_j_series(0.0, 1.0) == pytest.approx(J0_AT_1, rel=1e-14, abs=0.0)
    assert bessel_j_series(1.0, 1.0) == pytest.approx(J1_AT_1, rel=1e-14, abs=0.0)
    assert bessel_y0_series(1.0) == pytest.approx(Y0_AT_1, rel=1e-13, abs=0.0)


def test_half_integer_closed_form():
    # J_{1/2}(z) = sqrt(2/(pi z)) sin z, so J_{1/2}(pi/2) = 2/pi exactly.
    z = math.pi / 2.0
    assert bessel(BesselKind.J, 0.5, z) == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert bessel_j_series(0.5, z) == pytest.approx(2.0 / math.pi, rel=1e-13)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 4.0])
@pytest.mark.parametrize("z", [0.3, 1.0, 2.7, 5.0])
def test_library_agrees_with_series_oracle_on_grid(nu, z):
    # the alternating series loses ~(z/2)^(2k*)/k*!^2 * eps of headroom to
    # cancellation, so keep z moderate and allow a small absolute floor
    assert bessel(BesselKind.J, nu, z) == pytest.approx(
        bessel_j_series(nu, z), rel=1e-12, abs=2e-14
    )


@pytest.mark.parametrize(
    "kind, nu, z",
    [
        (BesselKind.J, -0.5, 1.0),
        (BesselKind.Y, -1.0, 1.0),
        (BesselKind.J, 1.0, 0.0),
        (BesselKind.Y, 1.0, -2.0),
    ],
)
def test_domain_validation(kind, nu, z):
    with pytest.raises(ValueError):
        derivatives_up_to(kind, nu, z, 0)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.5, 10.0])
@pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
def test_wronskian_identity(nu, z):
    """J_nu(z) Y_nu'(z) - J_nu'(z) Y_nu(z) = 2 / (pi z)."""
    (j, jp), (y, yp) = (bessel_pair(kind, nu, z) for kind in BesselKind)
    w = j * yp - jp * y
    expected = 2.0 / (math.pi * z)
    assert abs(w - expected) <= 1e-11 * expected


@settings(max_examples=150, deadline=None)
@given(
    nu=st.floats(min_value=0.0, max_value=5.0),
    z=st.floats(min_value=0.5, max_value=20.0),
)
def test_wronskian_identity_property(nu, z):
    # Y_nu at non-integer order goes through the reflection formula, whose
    # sin(pi nu) denominator loses precision within ~1e-3 of an integer;
    # exact integer orders take a dedicated code path and are fine.
    assume(nu == round(nu) or min(nu % 1.0, 1.0 - nu % 1.0) > 1e-3)
    (j, jp), (y, yp) = (bessel_pair(kind, nu, z) for kind in BesselKind)
    w = j * yp - jp * y
    expected = 2.0 / (math.pi * z)
    assert abs(w - expected) <= 1e-11 * expected


@pytest.mark.parametrize("kind", [BesselKind.J, BesselKind.Y])
@pytest.mark.parametrize("nu", [1.0, 1.5, 2.0, 3.5, 5.0, 10.0])
@pytest.mark.parametrize("z", [0.7, 2.0, 6.0, 15.0])
def test_three_term_recurrence(kind, nu, z):
    """C_{nu-1}(z) + C_{nu+1}(z) = (2 nu / z) C_nu(z)."""
    lhs = bessel(kind, nu - 1.0, z) + bessel(kind, nu + 1.0, z)
    rhs = (2.0 * nu / z) * bessel(kind, nu, z)
    scale = abs(lhs) + abs(rhs) + 1e-300
    assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("kind", [BesselKind.J, BesselKind.Y])
@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 6.0])
@pytest.mark.parametrize("z", [0.8, 3.1, 11.0])
def test_ode_residual_small(kind, nu, z):
    """z^2 y'' + z y' + (z^2 - nu^2) y against the sum of its term sizes."""
    y, dy, d2y = derivatives_up_to(kind, nu, z, 2)
    terms = (z * z * d2y, z * dy, (z * z - nu * nu) * y)
    assert abs(sum(terms)) <= 1e-12 * sum(map(abs, terms))


@pytest.mark.parametrize("kind", [BesselKind.J, BesselKind.Y])
@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 4.0])
@pytest.mark.parametrize("z", [0.9, 2.3, 7.0])
def test_high_derivatives_against_mpmath(kind, nu, z):
    """Derivatives 1..8 from the ODE recurrence match mpmath's.

    The upward recurrence multiplies by ~(nu^2 - m^2)/z^2 each level, so
    its conditioning worsens for nu^2 >> z^2; k <= 6 (all that the
    cross-product identities consume) gets the tight gate, 7..8 a looser
    one covering that growth.
    """
    ds = derivatives_up_to(kind, nu, z, MAX_CROSS_ORDER)
    fn = mp.besselj if kind is BesselKind.J else mp.bessely
    with mp.workdps(40):
        for k in range(1, MAX_CROSS_ORDER + 1):
            expected = float(fn(nu, z, derivative=k))
            got = ds[k]
            scale = max(abs(expected), 1e-12)
            tol = 1e-10 if k <= 6 else 1e-8
            assert abs(got - expected) <= tol * scale, f"k={k}"


def test_fourth_derivative_against_richardson():
    """Independent finite-difference cross-check of a high derivative."""
    nu, z = 1.5, 2.0

    def f(x: float) -> float:
        return bessel(BesselKind.J, nu, x)

    def central_fourth(h: float) -> float:
        return (f(z - 2 * h) - 4 * f(z - h) + 6 * f(z) - 4 * f(z + h) + f(z + 2 * h)) / h**4

    # h is a balance: the stencil divides ~machine-eps cancellation noise
    # by h^4, so overly small h drowns the comparison in roundoff
    coarse = central_fourth(4e-2)
    fine = central_fourth(2e-2)
    richardson = (4.0 * fine - coarse) / 3.0
    got = derivatives_up_to(BesselKind.J, nu, z, 4)[4]
    assert got == pytest.approx(richardson, rel=1e-6)


def test_first_derivative_recurrence_form():
    """derivatives_up_to k=1 equals (C_{nu-1} - C_{nu+1})/2 built from values."""
    for kind in (BesselKind.J, BesselKind.Y):
        for nu in (1.0, 2.5, 4.0):
            for z in (0.6, 3.0, 9.0):
                direct = derivatives_up_to(kind, nu, z, 1)[1]
                recur = 0.5 * (bessel(kind, nu - 1.0, z) - bessel(kind, nu + 1.0, z))
                assert direct == pytest.approx(recur, rel=1e-12, abs=1e-15)


def test_zeroth_derivative_is_value():
    value = bessel(BesselKind.J, 1.0, 2.0)
    assert derivatives_up_to(BesselKind.J, 1.0, 2.0, 0) == [value]


@pytest.mark.parametrize("k", [-1, 9, 12])
def test_unsupported_derivative_order(k):
    # the one cap on derivative orders is CrossKind's: verify-crossprod
    # reaches derivatives_up_to only through a CrossKind
    for family in Family:
        with pytest.raises(ValueError, match="derivative order"):
            CrossKind(family, k)


def _kernel_orders() -> list[float]:
    """The orders nu - 1 and nu of the kernel for N = 2..5, l <= 40."""
    nus = {(N + 2 * l - 2) / 2 for N in range(2, 6) for l in range(41)}
    return sorted(nus | {nu - 1.0 for nu in nus})


def test_hankel1_imag_is_yv_at_the_kernel_orders():
    """Y is taken as Im H^(1)_nu, which costs less than yv: the same bits at
    every kernel order but -1/2, wherever yv is finite. Where yv overflows
    to -inf (orders near 41 below x = 1.5e-6), Im H^(1) is NaN."""
    orders = np.array([nu for nu in _kernel_orders() if nu != -0.5])[:, None]
    x = np.geomspace(1e-6, 2e3, 1001)
    y, h = special.yv(orders, x), special.hankel1(orders, x).imag
    finite = np.isfinite(y)
    assert finite.mean() > 0.99
    assert y[finite].tobytes() == h[finite].tobytes()
    assert not np.isfinite(h[~finite]).any()


def test_hankel1_imag_at_order_minus_half_is_closer_to_closed_form():
    """Y_{-1/2}(x) = sqrt(2/(pi x)) sin x; Im H^(1) is at least as close to
    it as yv, by median relative error over x in [1e-3, 60] (measured in
    30 digits: about 1.6e-16 against 2.0e-16)."""
    x = np.linspace(1e-3, 60.0, 600)
    candidates = {
        "hankel1": special.hankel1(-0.5, x).imag.tolist(),
        "yv": special.yv(-0.5, x).tolist(),
    }
    errors = {name: [] for name in candidates}
    with mp.workdps(30):
        for i, t in enumerate(x.tolist()):
            exact = mp.sqrt(2 / (mp.pi * t)) * mp.sin(t)
            for name, got in candidates.items():
                errors[name].append(float(abs(got[i] / exact - 1)))
    median = {name: float(np.median(e)) for name, e in errors.items()}
    assert median["hankel1"] <= median["yv"], median
    # bessel_pair, and so derivatives_up_to, take Y the kernel's way
    lower, value = special.hankel1([-0.5, 0.5], 2.0).imag
    assert lower != special.yv(-0.5, 2.0)
    assert bessel_pair(BesselKind.Y, 0.5, 2.0) == (value, lower - 0.25 * value)
