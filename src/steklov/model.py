"""Problem geometry and the concentrated mass density.

A total mass M is distributed over the unit ball in R^N: a vanishing
density eps inside radius 1-eps and a large constant value on the
remaining annulus, chosen so the total mass is exactly M for every eps.
Everything downstream (characteristic equation, shooting, asymptotics)
consumes the scalar quantities defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ProblemConfig",
    "DensityParams",
    "unit_ball_volume",
    "density_params",
    "wave_arguments",
]


def _ipow(x: float, n: int) -> float:
    """x**n for integer n >= 0 by repeated squaring (no pow-log roundoff)."""
    acc = 1.0
    base = x
    while n:
        if n & 1:
            acc *= base
        base *= base
        n >>= 1
    return acc


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def unit_ball_volume(N: int) -> float:
    """Volume of the unit ball in R^N, pi^(N/2) / Gamma(N/2 + 1).

    Evaluated through exact integer/half-integer closed forms of the Gamma
    function (sqrt(pi) cancels for odd N), so the only rounding is the final
    float division. Its integer denominator, (N/2)! or N!!, is a finite
    double up to N = 340 (even) or N = 299 (odd); larger N are refused.
    """
    if N < 1:
        raise ValueError(f"dimension must be >= 1, got {N}")
    parity, limit = ("even", 340) if N % 2 == 0 else ("odd", 299)
    if N > limit:
        raise ValueError(
            f"dimension N={N} is too large: the unit-ball volume is computed "
            f"for {parity} N <= {limit}"
        )
    if N % 2 == 0:
        return _ipow(math.pi, N // 2) / math.factorial(N // 2)
    # odd N: Gamma(N/2 + 1) = N!! * sqrt(pi) / 2^((N+1)/2)
    return _ipow(math.pi, (N - 1) // 2) * float(2 ** ((N + 1) // 2)) / _double_factorial(N)


@dataclass(frozen=True)
class ProblemConfig:
    """Dimension N >= 1, finite total mass M > 0 and angular index l >= 0.

    The interval (N = 1) is the ball in R^1: its sphere S^0 = {-1, 1}
    carries only the even (l = 0) and the odd (l = 1) harmonic.
    """

    N: int
    M: float
    l: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"dimension must be >= 1, got {self.N}")
        if not 0 < self.M < math.inf:
            raise ValueError(f"mass must be finite and positive, got {self.M}")
        if self.l < 0:
            raise ValueError(f"angular index must be >= 0, got {self.l}")
        if self.N == 1 and self.l > 1:
            raise ValueError(
                "the interval (N = 1) has only the even (l = 0) and odd (l = 1) "
                f"modes, got l = {self.l}"
            )

    @property
    def omega(self) -> float:
        """Measure of the unit ball."""
        return unit_ball_volume(self.N)

    @property
    def nu(self) -> float:
        """Bessel order (N + 2l - 2)/2 from separation of variables.

        At N = 1 it is l - 1/2, where J_{-1/2} and J_{1/2} are the cosine
        and the sine.
        """
        return (self.N + 2 * self.l - 2) / 2


@dataclass(frozen=True)
class DensityParams:
    """The piecewise-constant density at one value of eps.

    The density is eps itself on |x| <= 1-eps and rho_annulus on the
    shell; eps * rho_annulus tends to M / (N omega) as eps -> 0.
    """

    epsilon: float
    rho_annulus: float


def density_params(cfg: ProblemConfig, epsilon: float) -> DensityParams:
    """Density values for the given concentration parameter.

    Closed form only; the defining mass identity
    eps*omega*(1-eps)^N + rho_annulus*omega*(1-(1-eps)^N) = M
    holds to machine precision by construction. The annulus density is
    positive only while M exceeds the core's mass eps*omega*(1-eps)^N;
    a mass at or below it is refused.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    w = cfg.omega
    core = _ipow(1.0 - epsilon, cfg.N)
    core_mass = epsilon * w * core
    if not cfg.M > core_mass:
        raise ValueError(
            f"mass M={cfg.M} must exceed eps*omega*(1-eps)^N = {float(core_mass)} "
            f"at eps={float(epsilon)}, N={cfg.N}: the annulus density would not "
            "be positive"
        )
    rho_ann = (cfg.M - core_mass) / (w * (1.0 - core))
    return DensityParams(epsilon=epsilon, rho_annulus=rho_ann)


def wave_arguments(density: DensityParams, lam):
    """Bessel arguments at the interface radius 1-eps, eps = density.epsilon.

    a = sqrt(lam*eps)*(1-eps) for the inner solution and
    b = sqrt(lam*rho_annulus)*(1-eps) for the annulus solution.
    The characteristic equation is formulated for nonzero eigenvalues only,
    so lam must be positive. lam may be a float, an ndarray of floats (a
    and b are then arrays of the same shape) or, for a density built at an
    mpmath mpf eps, an mpf (a and b are then computed at the working
    precision).
    """
    # math.sqrt keeps float results plain floats, and the float path imports
    # nothing; np.sqrt covers ndarrays and defers to mpf.sqrt (both round
    # the square root correctly)
    if isinstance(lam, (int, float)):
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        sqrt = math.sqrt
    else:
        import numpy as np

        positive = lam > 0
        if isinstance(positive, np.ndarray):
            if not positive.all():
                raise ValueError(
                    f"lambda must be positive, got {lam[~positive].min()} "
                    f"(smallest offender among {lam.size} values)"
                )
        elif not positive:
            raise ValueError(f"lambda must be positive, got {lam}")
        sqrt = np.sqrt
    epsilon = density.epsilon
    a = sqrt(lam * epsilon) * (1.0 - epsilon)
    b = sqrt(lam * density.rho_annulus) * (1.0 - epsilon)
    return a, b
