"""Geometry and density parameter tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov.model import (
    DensityParams,
    ProblemConfig,
    _ipow,
    density_params,
    unit_ball_volume,
    wave_arguments,
)

# Exact unit-ball volumes for N = 1..6.
_VOLUMES = {
    1: 2.0,
    2: math.pi,
    3: 4.0 * math.pi / 3.0,
    4: math.pi**2 / 2.0,
    5: 8.0 * math.pi**2 / 15.0,
    6: math.pi**3 / 6.0,
}


@pytest.mark.parametrize("N, expected", sorted(_VOLUMES.items()))
def test_unit_ball_volume_closed_forms(N, expected):
    assert unit_ball_volume(N) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_unit_ball_volume_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        unit_ball_volume(0)


def test_sphere_measure_and_boundary_density():
    cfg = ProblemConfig(N=3, M=4.0 * math.pi, l=1)
    sigma = cfg.N * cfg.omega
    assert sigma == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert cfg.M / sigma == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"N": 0, "M": 1.0, "l": 0},
        {"N": 2, "M": 0.0, "l": 0},
        {"N": 2, "M": -1.0, "l": 0},
        {"N": 2, "M": 1.0, "l": -1},
        {"N": 2, "M": math.inf, "l": 0},
        {"N": 1, "M": 1.0, "l": 2},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ProblemConfig(**kwargs)


def test_bessel_order_values_and_monotonicity():
    assert ProblemConfig(N=2, M=1.0, l=0).nu == 0.0
    assert ProblemConfig(N=2, M=1.0, l=1).nu == 1.0
    assert ProblemConfig(N=3, M=1.0, l=0).nu == 0.5
    assert ProblemConfig(N=3, M=1.0, l=2).nu == 2.5
    orders = [ProblemConfig(N=4, M=1.0, l=l).nu for l in range(6)]
    assert all(b > a for a, b in zip(orders, orders[1:]))


def test_bessel_order_of_the_interval():
    """At N = 1 the order is l - 1/2: J_{-1/2} and J_{1/2} are cos and sin."""
    assert ProblemConfig(N=1, M=1.0, l=0).nu == -0.5
    assert ProblemConfig(N=1, M=1.0, l=1).nu == 0.5


def test_density_params_example():
    # N=2, M=pi, eps=1/2: annulus density (pi - (1/2)pi(1/4)) / (pi(3/4)) = 7/6.
    cfg = ProblemConfig(N=2, M=math.pi, l=1)
    params = density_params(cfg, 0.5)
    assert isinstance(params, DensityParams)
    assert params.epsilon == 0.5
    assert params.rho_annulus == pytest.approx(7.0 / 6.0, rel=1e-15)
    assert params.epsilon * params.rho_annulus == pytest.approx(7.0 / 12.0, rel=1e-15)


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, 1.5])
def test_density_params_domain(epsilon):
    cfg = ProblemConfig(N=2, M=math.pi, l=1)
    with pytest.raises(ValueError):
        density_params(cfg, epsilon)


def test_density_params_refuses_a_non_positive_annulus_density():
    cfg = ProblemConfig(N=2, M=0.01, l=1)
    with pytest.raises(ValueError) as info:
        density_params(cfg, 0.2)
    assert str(info.value) == (
        f"mass M=0.01 must exceed eps*omega*(1-eps)^N = {0.2 * math.pi * (0.8 * 0.8)} "
        "at eps=0.2, N=2: the annulus density would not be positive"
    )
    # at the bound itself the annulus would be empty of mass
    boundary = ProblemConfig(N=2, M=0.5 * math.pi * 0.25, l=1)
    with pytest.raises(ValueError, match="would not be positive"):
        density_params(boundary, 0.5)
    assert density_params(ProblemConfig(N=2, M=0.01, l=1), 0.001).rho_annulus > 0


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=8),
    M=st.floats(min_value=1e-2, max_value=1e3),
    epsilon=st.floats(min_value=1e-8, max_value=1.0 - 1e-8),
)
def test_mass_identity(N, M, epsilon):
    """The piecewise density always integrates back to the total mass.

    The reconstruction divides by the shell volume fraction 1 - (1-eps)^N,
    which is ~ N eps for small eps, so one ulp of the core volume inflates
    by its reciprocal; the tolerance carries that conditioning factor.
    A mass at or below the core's eps * omega * (1-eps)^N would leave the
    annulus a non-positive density and is refused instead.
    """
    cfg = ProblemConfig(N=N, M=M, l=0)
    w = cfg.omega
    core_mass = epsilon * w * _ipow(1.0 - epsilon, N)
    if not M > core_mass:
        with pytest.raises(ValueError, match=r"annulus density would not be positive"):
            density_params(cfg, epsilon)
        return
    params = density_params(cfg, epsilon)
    core = (1.0 - epsilon) ** N
    mass = params.epsilon * w * core + params.rho_annulus * w * (1.0 - core)
    tol = 1e-13 + 5e-16 / (1.0 - core)
    assert mass == pytest.approx(M, rel=tol)


def test_rho_hat_limit_matches_boundary_density():
    """eps * rho_annulus -> M / (N omega) as the shell collapses."""
    cfg = ProblemConfig(N=3, M=2.0, l=1)
    params = density_params(cfg, 1e-6)
    rho_hat = params.epsilon * params.rho_annulus
    assert rho_hat == pytest.approx(cfg.M / (cfg.N * cfg.omega), rel=1e-4)


def test_mass_identity_against_quadrature():
    """Radial quadrature of the density reproduces M independently.

    Integrated piecewise (the density jumps at the interface, so a single
    grid across it would carry an O(h) error from the jump cell).
    """
    cfg = ProblemConfig(N=3, M=5.0, l=0)
    epsilon = 0.37
    params = density_params(cfg, epsilon)
    sigma = cfg.N * cfg.omega
    iface = 1.0 - epsilon
    r_core = np.linspace(0.0, iface, 20001)
    r_shell = np.linspace(iface, 1.0, 20001)
    mass = np.trapezoid(
        params.epsilon * sigma * r_core ** (cfg.N - 1), r_core
    ) + np.trapezoid(
        params.rho_annulus * sigma * r_shell ** (cfg.N - 1), r_shell
    )
    assert mass == pytest.approx(cfg.M, rel=1e-8)


def test_wave_arguments_closed_form():
    cfg = ProblemConfig(N=2, M=math.pi, l=1)
    epsilon, lam = 0.25, 3.0
    params = density_params(cfg, epsilon)
    a, b = wave_arguments(params, lam)
    assert a == pytest.approx(math.sqrt(lam * epsilon) * (1 - epsilon), rel=1e-15)
    assert b == pytest.approx(math.sqrt(lam * params.rho_annulus) * (1 - epsilon), rel=1e-15)
    assert b > a


def test_wave_arguments_require_positive_lambda():
    params = density_params(ProblemConfig(N=2, M=math.pi, l=1), 0.25)
    with pytest.raises(ValueError):
        wave_arguments(params, 0.0)
    # an array names its smallest offender and its size, not every entry
    with pytest.raises(ValueError, match=r"got -1\.0 .* 801 values\)$"):
        wave_arguments(params, np.linspace(-1.0, 1.0, 801))

