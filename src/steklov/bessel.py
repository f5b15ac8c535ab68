"""Bessel functions J_nu, Y_nu with high-order derivatives.

Values come from scipy's AMOS-backed routines (measured relative error
below 1e-13 over nu in [0, 25], z in (0, 60]); every first derivative in
the package comes from ``derivative`` (DLMF 10.6.2). ``bessel_pair``
gives (C_nu, C_nu') from one library call, and ``derivatives_up_to``
extends them to [C, C', ..., C^(k)] by repeatedly differentiating
Bessel's equation

    z^2 y'' + z y' + (z^2 - nu^2) y = 0,

a stable upward recurrence. The order k is capped where a command asks
for it, in ``crossprod.CrossKind``.
"""

from __future__ import annotations

from enum import Enum

from scipy import special as _sp

__all__ = [
    "BesselKind",
    "bessel_pair",
    "derivative",
    "derivatives_up_to",
]


class BesselKind(Enum):
    """First kind (J) or second kind (Y)."""

    J = "J"
    Y = "Y"


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


def derivative(lower, value, nu, z):
    """C_nu'(z) from C_{nu-1}(z) and C_nu(z), for C = J or Y (DLMF 10.6.2).

    Works in the arithmetic of its arguments: floats, ndarrays or mpfs.
    """
    return lower - nu / z * value


def bessel_pair(kind: BesselKind, nu: float, z: float) -> tuple[float, float]:
    """(C_nu(z), C_nu'(z)) from one library call at orders (nu-1, nu)."""
    lower, value = _UFUNCS[kind]((nu - 1.0, nu), z).tolist()
    return value, derivative(lower, value, nu, z)


def derivatives_up_to(kind: BesselKind, nu: float, z: float, k: int) -> list[float]:
    """[C_nu(z), C_nu'(z), ..., C_nu^(k)(z)] in one pass, for k >= 0.

    Differentiating the Bessel ODE m times with Leibniz's rule gives

        y^(m+2) = -[(2m+1) z y^(m+1) + (m^2 + z^2 - nu^2) y^(m)
                    + 2 m z y^(m-1) + m (m-1) y^(m-2)] / z^2,

    an upward recurrence seeded by ``bessel_pair``.
    ``crossprod._propagator_forms`` runs the same recurrence on exact forms.
    """
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
    return ds[: k + 1]
