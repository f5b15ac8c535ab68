"""Finite-difference shooting solver used as the independent oracle."""

from __future__ import annotations

import math

import pytest

from steklov.branch import characteristic_1d, continue_branch, find_root
from steklov.errors import BracketError
from steklov.model import ProblemConfig
from steklov.shooting import ShootingResult, eigenvalue_by_shooting, shoot


def test_shoot_validates_arguments():
    cfg = ProblemConfig(N=2, M=math.pi, l=1)
    with pytest.raises(ValueError):
        shoot(cfg, 0.1, 2.0, grid_size=999)
    with pytest.raises(ValueError):
        shoot(cfg, 0.1, 0.0)


def test_mismatch_changes_sign_across_eigenvalue():
    cfg = ProblemConfig(N=2, M=math.pi, l=1)
    root = find_root(cfg, 0.1, (2.0, 2.5)).lam
    below = shoot(cfg, 0.1, root - 0.05)
    above = shoot(cfg, 0.1, root + 0.05)
    assert below.boundary_mismatch * above.boundary_mismatch < 0


@pytest.mark.parametrize(
    "N, M, l, eps",
    [
        (2, math.pi, 1, 0.1),
        (3, 4.0 * math.pi, 2, 0.3),
    ],
)
def test_shooting_agrees_with_characteristic(N, M, l, eps):
    """Two unrelated discretizations of the same eigenvalue coincide."""
    cfg = ProblemConfig(N=N, M=M, l=l)
    steps = max(4, math.ceil(eps / 0.05))
    reference = continue_branch(cfg, eps, steps).points[-1].lam
    width = max(0.05 * reference, 0.02)
    result = eigenvalue_by_shooting(
        cfg, eps, (reference - width, reference + width), grid_size=4000, tol=1e-12
    )
    assert isinstance(result, ShootingResult)
    assert abs(result.lam - reference) <= 1e-8 * reference


def test_grid_convergence_is_fourth_order():
    """Errors against the transcendental root shrink ~16x per refinement.

    Uses a high eigenvalue (fast radial oscillation) so the discretization
    error stays well above the root-finder noise floor on every grid.
    """
    cfg = ProblemConfig(N=3, M=4.0 * math.pi / 3.0, l=3)
    eps = 0.3
    reference = find_root(cfg, eps, (95.0, 108.0)).lam
    errors = []
    for grid in (1000, 2000, 4000):
        got = eigenvalue_by_shooting(
            cfg, eps, (95.0, 108.0), grid_size=grid, tol=1e-14
        ).lam
        errors.append(abs(got - reference))
    assert errors[0] > errors[1] > errors[2] > 0.0
    assert errors[0] / errors[1] >= 8.0
    assert errors[1] / errors[2] >= 8.0


def test_one_dimensional_shooting_matches_characteristic():
    """N=1 reduces to trigonometric transmission; both routes agree."""
    cfg = ProblemConfig(N=1, M=2.0, l=1)
    eps = 0.25
    lo, hi = 1.0, 2.0
    # characteristic root by bisection in lambda
    flo = characteristic_1d(2.0, eps, lo)[0]
    assert flo * characteristic_1d(2.0, eps, hi)[0] < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = characteristic_1d(2.0, eps, mid)[0]
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    reference = 0.5 * (lo + hi)
    result = eigenvalue_by_shooting(cfg, eps, (1.0, 2.0), grid_size=6000, tol=1e-13)
    assert abs(result.lam - reference) <= 1e-8 * reference


def test_eigenvalue_by_shooting_requires_bracket():
    cfg = ProblemConfig(N=2, M=math.pi, l=1)
    with pytest.raises(BracketError):
        eigenvalue_by_shooting(cfg, 0.1, (5.0, 6.0))
    with pytest.raises(ValueError):
        eigenvalue_by_shooting(cfg, 0.1, (2.0, 1.0))


def test_converged_mismatch_is_small():
    cfg = ProblemConfig(N=2, M=math.pi, l=1)
    result = eigenvalue_by_shooting(cfg, 0.1, (2.0, 2.5), tol=1e-12)
    assert abs(result.boundary_mismatch) < 1e-9
    assert result.grid_size == 2000
