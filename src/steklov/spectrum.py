"""Exact Steklov spectrum of the unit ball with constant boundary density.

With the total mass M spread uniformly over the unit sphere the boundary
density is rho = M / (N omega_N) and the eigenvalues are lambda_l = l/rho,
each carried by the degree-l spherical harmonics. ``slope_at_zero`` is the
first-order coefficient of the perturbed Neumann eigenvalue branch at
eps = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ProblemConfig

__all__ = ["SteklovEigenvalue", "steklov_eigenvalue", "slope_at_zero", "multiplicity"]


@dataclass(frozen=True)
class SteklovEigenvalue:
    l: int
    value: float
    multiplicity: int
    slope: float


def multiplicity(N: int, l: int) -> int:
    """Dimension of the degree-l spherical harmonics on S^(N-1).

    (2l + N - 2) (l + N - 3)! / (l! (N - 2)!) for l >= 1; the l = 0
    eigenvalue is simple, and so are both modes of the interval, whose
    S^0 carries one even and one odd function. Exact integer arithmetic
    throughout.
    """
    if l < 0:
        raise ValueError(f"angular index must be >= 0, got {l}")
    if l == 0 or N == 1:
        return 1
    return (
        (2 * l + N - 2)
        * math.factorial(l + N - 3)
        // (math.factorial(l) * math.factorial(N - 2))
    )


def steklov_eigenvalue(cfg: ProblemConfig) -> SteklovEigenvalue:
    """lambda_l = N omega_N l / M with multiplicity and branch slope."""
    value = cfg.N * cfg.omega * cfg.l / cfg.M
    return SteklovEigenvalue(
        l=cfg.l,
        value=value,
        multiplicity=multiplicity(cfg.N, cfg.l),
        slope=slope_at_zero(cfg),
    )


def slope_at_zero(cfg: ProblemConfig) -> float:
    """First derivative of the eigenvalue branch at eps = 0.

    2 l lambda_l / 3 + 2 lambda_l^2 / (N (2l + N)); zero for l = 0 since
    the principal branch is identically zero. At N = 1, l = 1 it is
    (2/3)(lambda_1 + lambda_1^2) with lambda_1 = 2/M.
    """
    if cfg.l == 0:
        return 0.0
    lam = cfg.N * cfg.omega * cfg.l / cfg.M
    return 2.0 * cfg.l * lam / 3.0 + 2.0 * lam * lam / (cfg.N * (2 * cfg.l + cfg.N))
