"""Neumann eigenvalues by direct radial shooting.

A deliberately independent check on the Bessel characteristic equation:
integrate the radial ODE

    S'' = -(N-1)/r S' + (l(l+N-2)/r^2 - lambda rho(r)) S

outward from the regular Frobenius solution S ~ r^l and read off the
Neumann defect S'(1). Zeros in lambda are eigenvalues. No Bessel
evaluations are involved, so agreement with the characteristic roots
validates both routes at once.

The integrator is a fixed-step RK4 on a graded mesh: geometric spacing
from r0 = 1e-6 out to a transition radius keeps h/r (the quantity that
drives the local stiffness z = mu h ~ -(l + N - 2) h/r) small and
constant through the power-law regime, then near-uniform spacing covers
the oscillatory part, with a forced node at the density interface so no
step straddles the jump in rho.

The ODE is linear in y = (S, S'), y' = A(r) y with
A = [[0, 1], [l(l+N-2)/r^2 - lambda rho, -(N-1)/r]], so one RK4 step of
size h from r is the fixed 2x2 propagator

    T = I + h/6 (K1 + 2 K2 + 2 K3 + K4),
    K1 = A(r), K2 = A(r+h/2)(I + h/2 K1),
    K3 = A(r+h/2)(I + h/2 K2), K4 = A(r+h)(I + h K3).

Every step's T is built at once with numpy, and the inclusive prefix
products T_n ... T_1 come from ceil(log2(steps)) doubling passes. Applied
to y(r0) they give S at every mesh node, which normalises the mismatch
and counts the sign changes of the eigenfunction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import ProblemConfig, density_params
from .errors import BracketError, IterationLimitError
from .roots import add_failure_context, shrink_bracket

__all__ = ["ShootingResult", "shoot", "eigenvalue_by_shooting"]

_R0 = 1e-6
_MIN_GRID = 1000
# one 2x2 matrix per step: the rows (m00, m01, m10, m11) of a (4, steps) array
_EYE = np.array([1.0, 0.0, 0.0, 1.0])[:, None]


@dataclass(frozen=True)
class ShootingResult:
    """lam is the queried (or converged) eigenvalue candidate.

    boundary_mismatch is S'(1) after normalizing max |S| = 1 over the
    mesh; it vanishes exactly at eigenvalues. nodes is the number of sign
    changes of S over the mesh nodes.
    """

    lam: float
    boundary_mismatch: float
    grid_size: int
    nodes: int


def _mesh(epsilon: float, grid_size: int) -> list[tuple[float, float, int]]:
    """Segments (r_start, r_end, steps): geometric, bulk, annulus."""
    interface = 1.0 - epsilon
    r_t = min(0.05, interface / 4.0)
    n_geo = max(32, grid_size // 8)
    n_rest = grid_size - n_geo
    len_bulk = interface - r_t
    n_bulk = round(n_rest * len_bulk / (len_bulk + epsilon))
    n_bulk = min(max(n_bulk, 16), n_rest - 16)
    n_ann = n_rest - n_bulk
    return [(_R0, r_t, n_geo), (r_t, interface, n_bulk), (interface, 1.0, n_ann)]


def _steps(
    epsilon: float, grid_size: int, rho_annulus: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start r, size h and density rho (eps, then rho_annulus) of every step."""
    interface = 1.0 - epsilon
    r, h, rho = [], [], []
    for seg_start, seg_end, steps in _mesh(epsilon, grid_size):
        i = np.arange(steps + 1.0)
        if seg_start == _R0:
            # geometric nodes r0 * q^i
            nodes = seg_start * ((seg_end / seg_start) ** (1.0 / steps)) ** i
        else:
            nodes = seg_start + (seg_end - seg_start) / steps * i
        nodes[-1] = seg_end
        r.append(nodes[:-1])
        h.append(np.diff(nodes))
        rho.append(np.full(steps, epsilon if seg_end <= interface else rho_annulus))
    return np.concatenate(r), np.concatenate(h), np.concatenate(rho)


def _times_a(q: np.ndarray, p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """A m for each step, with A = [[0, 1], [q, p]]."""
    return np.concatenate((m[2:], q * m[:2] + p * m[2:]))


def _prefix_products(t: np.ndarray) -> np.ndarray:
    """Overwrite t[:, n] with t[:, n] ... t[:, 0] by recursive doubling."""
    d = 1
    while d < t.shape[1]:
        a00, a01, a10, a11 = t[:, d:]
        b00, b01, b10, b11 = t[:, :-d]
        t[0, d:], t[1, d:], t[2, d:], t[3, d:] = (
            a00 * b00 + a01 * b10,
            a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10,
            a10 * b01 + a11 * b11,
        )
        d *= 2
    return t


def shoot(
    cfg: ProblemConfig, epsilon: float, lam: float, *, grid_size: int = 2000
) -> ShootingResult:
    """One outward integration; the mismatch is the Neumann defect at r=1."""
    if grid_size < _MIN_GRID:
        raise ValueError(f"grid_size must be >= {_MIN_GRID}, got {grid_size}")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    params = density_params(cfg, epsilon)
    N, l = cfg.N, cfg.l
    ang = l * (l + N - 2)
    r, h, rho = _steps(epsilon, grid_size, params.rho_annulus)
    lam_rho = lam * rho
    # A = [[0, 1], [q, p]] at the start, middle and end of every step
    at = (r, r + 0.5 * h, r + h)
    q0, qm, q1 = (ang / (x * x) - lam_rho for x in at)
    p0, pm, p1 = (-(N - 1) / x for x in at)
    k1 = np.stack((np.zeros_like(r), np.ones_like(r), q0, p0))
    k2 = _times_a(qm, pm, _EYE + 0.5 * h * k1)
    k3 = _times_a(qm, pm, _EYE + 0.5 * h * k2)
    k4 = _times_a(q1, p1, _EYE + h * k3)
    prefix = _prefix_products(_EYE + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))

    # S ~ r^l near the origin, scaled so S(r0) = 1
    ds0 = l / _R0
    s = np.concatenate(([1.0], prefix[0] + prefix[1] * ds0))
    ds = prefix[2, -1] + prefix[3, -1] * ds0
    return ShootingResult(
        lam=lam,
        boundary_mismatch=float(ds / np.max(np.abs(s))),
        grid_size=grid_size,
        nodes=int(np.count_nonzero(np.diff(np.signbit(s)))),
    )


def eigenvalue_by_shooting(
    cfg: ProblemConfig,
    epsilon: float,
    bracket: tuple[float, float],
    *,
    grid_size: int = 2000,
    tol: float = 1e-10,
) -> ShootingResult:
    """The shot at the end of the final bracket with the smaller |mismatch|.

    shrink_bracket stops once the ends are at most tol apart. Its
    BracketError or IterationLimitError carries N, M, l, eps and the
    bracket (and lambda) in its context, as find_root's does.
    """
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got {bracket}")
    shot = functools.cache(lambda lam: shoot(cfg, epsilon, lam, grid_size=grid_size))
    m_lo, m_hi = shot(lo).boundary_mismatch, shot(hi).boundary_mismatch
    try:
        ends = shrink_bracket(
            lambda lam: shot(lam).boundary_mismatch, lo, hi, m_lo, m_hi, xtol=tol
        )
    except (BracketError, IterationLimitError) as exc:
        add_failure_context(exc, cfg, epsilon, bracket)
        raise
    return min(map(shot, ends), key=lambda r: abs(r.boundary_mismatch))
