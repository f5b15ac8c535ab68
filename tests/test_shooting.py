"""The RK4 shooting solver used as the independent oracle.

``shoot`` builds one 2x2 propagator per RK4 step and takes their prefix
products; ``_reference_mismatch`` below is the plain sequential RK4 loop on
the same mesh, kept as the reference that the product must reproduce.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from interval_oracle import characteristic_1d

from steklov.branch import continue_branch, find_root, scan_roots
from steklov.errors import BracketError, IterationLimitError
from steklov.model import ProblemConfig, density_params
from steklov.shooting import _R0, ShootingResult, _mesh, eigenvalue_by_shooting, shoot


def _reference_mismatch(
    cfg: ProblemConfig, epsilon: float, lam: float, grid_size: int
) -> float:
    """S'(1) / max(1, max |S|) from one RK4 step after another."""
    params = density_params(cfg, epsilon)
    N, l = cfg.N, cfg.l
    ang = l * (l + N - 2)
    interface = 1.0 - epsilon
    s, ds, s_max = 1.0, l / _R0, 1.0

    def rhs(r, y0, y1, rho):
        return y1, -(N - 1) / r * y1 + (ang / (r * r) - lam * rho) * y0

    for seg_start, seg_end, steps in _mesh(epsilon, grid_size):
        rho = params.epsilon if seg_end <= interface else params.rho_annulus
        if seg_start == _R0:
            q = (seg_end / seg_start) ** (1.0 / steps)
            nodes = [seg_start * q**i for i in range(steps + 1)]
        else:
            h = (seg_end - seg_start) / steps
            nodes = [seg_start + h * i for i in range(steps + 1)]
        nodes[-1] = seg_end
        for i in range(steps):
            r, h = nodes[i], nodes[i + 1] - nodes[i]
            k1 = rhs(r, s, ds, rho)
            k2 = rhs(r + 0.5 * h, s + 0.5 * h * k1[0], ds + 0.5 * h * k1[1], rho)
            k3 = rhs(r + 0.5 * h, s + 0.5 * h * k2[0], ds + 0.5 * h * k2[1], rho)
            k4 = rhs(r + h, s + h * k3[0], ds + h * k3[1], rho)
            s += h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
            ds += h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
            s_max = max(s_max, abs(s))
    return ds / s_max


def test_shoot_validates_arguments():
    cfg = ProblemConfig(N=2, M=math.pi, l=1)
    with pytest.raises(ValueError):
        shoot(cfg, 0.1, 2.0, grid_size=999)
    with pytest.raises(ValueError):
        shoot(cfg, 0.1, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=5),
    l=st.integers(min_value=0, max_value=6),
    eps=st.floats(min_value=0.01, max_value=0.95),
    lam=st.floats(min_value=0.5, max_value=60.0),
    grid_size=st.sampled_from([1000, 4000]),
)
def test_propagator_product_matches_sequential_rk4(N, l, eps, lam, grid_size):
    """Same steps, other rounding order: 1e-12 relative (a few 1e-13 seen).

    The floor of 1 on the scale covers lambdas that land next to an
    eigenvalue, where the mismatch itself passes through zero.
    """
    assume(N > 1 or l <= 1)  # the interval has only l = 0 and l = 1
    cfg = ProblemConfig(N=N, M=math.pi, l=l)
    want = _reference_mismatch(cfg, eps, lam, grid_size)
    got = shoot(cfg, eps, lam, grid_size=grid_size).boundary_mismatch
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_node_count_orders_the_roots_of_each_l():
    """The k-th root has k-1 sign changes for l >= 1, k for l = 0.

    For l = 0 the constant eigenfunction at lambda = 0 lies below the scan,
    so the first root found is the second eigenvalue.
    """
    total = 0
    for N in (2, 3, 5):
        for l in (0, 1, 2, 6):
            cfg = ProblemConfig(N=N, M=math.pi, l=l)
            for eps in (0.05, 0.3, 0.9):
                roots = scan_roots(cfg, eps, 60.0)
                nodes = [shoot(cfg, eps, p.lam).nodes for p in roots]
                first = 1 if l == 0 else 0
                assert nodes == list(range(first, first + len(roots))), (N, l, eps)
                total += len(roots)
    assert total == 32


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
    grid = [eps * i / steps for i in range(1, steps + 1)]
    reference = continue_branch(cfg, grid)[0][-1].lam
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


def test_shooting_failures_carry_their_context(monkeypatch):
    cfg = ProblemConfig(N=2, M=math.pi, l=1)
    where = {"N": 2, "M": math.pi, "l": 1, "eps": 0.1}
    with pytest.raises(BracketError) as info:
        eigenvalue_by_shooting(cfg, 0.1, (5.0, 6.0))
    assert info.value.context == {**where, "bracket": [5.0, 6.0]}
    # two steps cannot shrink a root bracket to 1e-12
    monkeypatch.setattr("steklov.roots._MAX_STEPS", 2)
    with pytest.raises(IterationLimitError) as info:
        eigenvalue_by_shooting(cfg, 0.1, (2.0, 2.5), tol=1e-12)
    context = info.value.context
    assert 2.0 < context.pop("lambda") < 2.5
    assert context == {**where, "bracket": [2.0, 2.5]}


def test_converged_mismatch_is_small():
    cfg = ProblemConfig(N=2, M=math.pi, l=1)
    result = eigenvalue_by_shooting(cfg, 0.1, (2.0, 2.5), tol=1e-12)
    assert abs(result.boundary_mismatch) < 1e-9
    assert result.grid_size == 2000
    # the first l = 1 eigenvalue: its eigenfunction keeps one sign
    assert result.nodes == 0
