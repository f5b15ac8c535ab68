"""Bessel functions J_nu, Y_nu with high-order derivatives.

Values come from scipy's AMOS-backed routines (measured relative error
below 1e-13 over nu in [0, 25], z in (0, 60]); every first derivative in
the package comes from ``derivative`` (DLMF 10.6.2). Derivatives of order
two and higher are generated here by repeatedly differentiating Bessel's
equation

    z^2 y'' + z y' + (z^2 - nu^2) y = 0,

which yields the stable upward recurrence of ``derivatives_up_to``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from scipy import special as _sp

from .errors import UnsupportedOrderError

__all__ = [
    "BesselKind",
    "BesselEval",
    "bessel",
    "bessel_deriv",
    "bessel_pair",
    "derivative",
    "derivatives_up_to",
    "MAX_DERIV_ORDER",
]

# the caller-facing cap, equal to crossprod.MAX_CROSS_ORDER: the tests
# check direct_cross_product up to k = 8, verify-crossprod up to k = 6
MAX_DERIV_ORDER = 8


class BesselKind(Enum):
    """First kind (J) or second kind (Y)."""

    J = "J"
    Y = "Y"


@dataclass(frozen=True)
class BesselEval:
    """One evaluation: value plus derivatives of orders 1..k."""

    kind: BesselKind
    order: float
    argument: float
    value: float
    derivative_values: tuple[float, ...]

    def ode_residual(self) -> tuple[float, float]:
        """(|residual|, scale) for z^2 y'' + z y' + (z^2 - nu^2) y.

        Needs at least two derivatives; the scale is the sum of the three
        term magnitudes, suitable for a relative comparison.
        """
        if len(self.derivative_values) < 2:
            raise ValueError("ODE residual needs derivatives up to order 2")
        z, nu = self.argument, self.order
        t1 = z * z * self.derivative_values[1]
        t2 = z * self.derivative_values[0]
        t3 = (z * z - nu * nu) * self.value
        return abs(t1 + t2 + t3), abs(t1) + abs(t2) + abs(t3)


def _validate(nu: float, z: float) -> None:
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    if not z > 0:
        raise ValueError(f"argument must be positive, got {z}")


def _yv(nu, z):
    """Y_nu(z) as the imaginary part of H^(1)_nu(z), as the kernel takes it.

    Cheaper than scipy's yv and bitwise equal to it at every order the
    package uses but -1/2 (the nu - 1 of N = 3, l = 0), where it lies
    closer to the closed form sqrt(2/(pi z)) sin z.
    """
    return _sp.hankel1(nu, z).imag


_UFUNCS = {BesselKind.J: _sp.jv, BesselKind.Y: _yv}


def bessel(kind: BesselKind, nu: float, z: float) -> float:
    """J_nu(z) or Y_nu(z) for nu >= 0, z > 0."""
    _validate(nu, z)
    return float(_UFUNCS[kind](nu, z))


def derivative(lower, value, nu, z):
    """C_nu'(z) from C_{nu-1}(z) and C_nu(z), for C = J or Y (DLMF 10.6.2).

    Works in the arithmetic of its arguments: floats, ndarrays or mpfs.
    """
    return lower - nu / z * value


def bessel_pair(kind: BesselKind, nu: float, z: float) -> tuple[float, float]:
    """(C_nu(z), C_nu'(z)) from one library call at orders (nu-1, nu)."""
    lower, value = _UFUNCS[kind]((nu - 1.0, nu), z).tolist()
    return value, derivative(lower, value, nu, z)


def bessel_deriv(kind: BesselKind, nu: float, z: float, k: int) -> float:
    """k-th derivative of J_nu or Y_nu at z, 0 <= k <= 8."""
    ev = derivatives_up_to(kind, nu, z, k)
    return (ev.value, *ev.derivative_values)[k]


def derivatives_up_to(kind: BesselKind, nu: float, z: float, k: int) -> BesselEval:
    """Value and all derivatives 1..k in one pass.

    Differentiating the Bessel ODE m times with Leibniz's rule gives

        y^(m+2) = -[(2m+1) z y^(m+1) + (m^2 + z^2 - nu^2) y^(m)
                    + 2 m z y^(m-1) + m (m-1) y^(m-2)] / z^2,

    an upward recurrence seeded by ``bessel_pair``.
    ``crossprod._propagator_forms`` runs the same recurrence on exact forms.
    """
    if not 0 <= k <= MAX_DERIV_ORDER:
        raise UnsupportedOrderError(
            f"derivative order must lie in [0, {MAX_DERIV_ORDER}], got {k}"
        )
    _validate(nu, z)
    zz = z * z
    nunu = nu * nu
    # ds[m] holds y^(m); extend through y^(k)
    ds = list(bessel_pair(kind, nu, z))
    for m in range(k - 1):
        acc = (2 * m + 1) * z * ds[m + 1] + (m * m + zz - nunu) * ds[m]
        if m >= 1:
            acc += 2 * m * z * ds[m - 1]
        if m >= 2:
            acc += m * (m - 1) * ds[m - 2]
        ds.append(-acc / zz)
    return BesselEval(kind, nu, z, ds[0], tuple(ds[1 : k + 1]))
