"""Characteristic equation, continuation, asymptotics, and eigenfunctions."""

from __future__ import annotations

import csv
import json
import math
from types import SimpleNamespace
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from interval_oracle import characteristic_1d
from scipy import optimize, special

from steklov import branch, cli
from steklov.branch import (
    DEFAULT_ROOT_TOL,
    BranchPoint,
    CharacteristicKernel,
    IntervalKernel,
    continue_branch,
    find_root,
    radial_profile,
    remainder_scaling,
    scan_roots,
    slope_estimate,
    slope_from_truncated,
    trace_family,
    truncated_characteristic,
    write_points_csv,
)
from steklov.errors import BracketError, IterationLimitError
from steklov.model import (
    ProblemConfig,
    density_params,
    unit_ball_volume,
    wave_arguments,
)
from steklov.spectrum import slope_at_zero, steklov_eigenvalue

CFG_DISC = ProblemConfig(N=2, M=math.pi, l=1)
CFG_BALL = ProblemConfig(N=3, M=4.0 * math.pi, l=1)

# Regression roots of the characteristic equation, found by bracketed
# root iteration and confirmed by the residual gate and (independently)
# by the RK4 shooting solver in test_shooting.py.
ROOT_DISC_001 = 2.0233581771556928
ROOT_DISC_010 = 2.234651915659871
ROOT_BALL_005 = 1.039772509360611


def _uniform(eps_max: float, steps: int) -> list[float]:
    """The uniform eps grid eps_max i/steps, i = 1..steps."""
    return [eps_max * i / steps for i in range(1, steps + 1)]


def test_frozen_root_disc_small_eps():
    pt = find_root(CFG_DISC, 0.01, (1.9, 2.2))
    assert pt.lam == pytest.approx(ROOT_DISC_001, rel=1e-10)
    assert pt.residual <= DEFAULT_ROOT_TOL


def test_frozen_root_disc_moderate_eps():
    pt = find_root(CFG_DISC, 0.1, (2.0, 2.5))
    assert pt.lam == pytest.approx(ROOT_DISC_010, rel=1e-10)
    assert pt.residual <= DEFAULT_ROOT_TOL


def test_frozen_root_ball_small_eps():
    pt = find_root(CFG_BALL, 0.05, (0.9, 1.2))
    assert pt.lam == pytest.approx(ROOT_BALL_005, rel=1e-10)
    assert pt.residual <= DEFAULT_ROOT_TOL


def test_characteristic_signs_around_root():
    kernel = CharacteristicKernel(CFG_DISC, 0.01)
    assert kernel(1.9)[0] * kernel(2.2)[0] < 0


def test_characteristic_validates_input():
    with pytest.raises(ValueError):
        CharacteristicKernel(CFG_DISC, 0.01)(0.0)
    with pytest.raises(ValueError):
        CharacteristicKernel(ProblemConfig(N=1, M=2.0, l=1), 0.01)
    with pytest.raises(ValueError):
        IntervalKernel(ProblemConfig(N=1, M=2.0, l=1), 1.5)
    # M at the core's mass 2 eps (1-eps) = 0.5: no positive annulus density
    with pytest.raises(ValueError, match="annulus density"):
        IntervalKernel(ProblemConfig(N=1, M=0.5, l=0), 0.5)
    with pytest.raises(ValueError):
        IntervalKernel(ProblemConfig(N=1, M=2.0, l=0), 0.5)(0.0)


# the kernel's domain in these tests: N in 2..5, l in 0..6, eps in
# [0.005, 0.995], lambda in [1e-3, 60]
KERNEL_CASES = [(N, l) for N in range(2, 6) for l in range(7)]


def _kernel_grid(N: int, l: int) -> tuple[list[float], np.ndarray]:
    rng = np.random.default_rng(10 * N + l)
    eps = [0.005, 0.995, *rng.uniform(0.005, 0.995, 4).tolist()]
    lam = np.concatenate([np.geomspace(1e-3, 60.0, 40), rng.uniform(1e-3, 60.0, 40)])
    return eps, lam


def _kernel_tol(N: int) -> float:
    """Agreement bar relative to the scale of F.

    Measured against mpmath, scipy's jv and yv at half-integer orders
    (odd N) put F off by up to about 3e-14 of its scale, the jvp/yvp
    evaluation as much as the kernel; at integer orders (even N) the gap
    stays near 5e-15.
    """
    return 1e-14 if N % 2 == 0 else 5e-14


def _characteristic_jvp(cfg: ProblemConfig, eps: float, lam: np.ndarray) -> np.ndarray:
    """F with the derivatives from scipy's jvp/yvp, independent of the kernel."""
    nu = cfg.nu
    rho = density_params(cfg, eps).rho_annulus
    a = np.sqrt(lam * eps) * (1.0 - eps)
    b = np.sqrt(lam * rho) * (1.0 - eps)
    c = b / (1.0 - eps)
    ja, jpa = special.jv(nu, a), special.jvp(nu, a)
    jb, jpb = special.jv(nu, b), special.jvp(nu, b)
    yb, ypb = special.yv(nu, b), special.yvp(nu, b)
    jc, jpc = special.jv(nu, c), special.jvp(nu, c)
    yc, ypc = special.yv(nu, c), special.yvp(nu, c)
    ratio = (a / b) * jpa
    p1 = ja * (ypb * jc - jpb * yc) + ratio * (jb * yc - yb * jc)
    p2 = ja * (ypb * jpc - jpb * ypc) + ratio * (jb * ypc - yb * jpc)
    return (1.0 - cfg.N / 2.0) * p1 + c * p2


@pytest.mark.parametrize("N, l", KERNEL_CASES)
def test_kernel_batch_matches_scalar_bitwise(N, l):
    """A sign change seen in a batch must survive re-evaluating its ends."""
    cfg = ProblemConfig(N=N, M=math.pi, l=l)
    eps_list, lam = _kernel_grid(N, l)
    for eps in eps_list:
        kernel = CharacteristicKernel(cfg, eps)
        values, _, scales = kernel(lam)
        scalar = [kernel(x) for x in lam.tolist()]
        assert all(type(v) is float and type(s) is float for v, _, s in scalar)
        assert np.array([v for v, _, _ in scalar]).tobytes() == values.tobytes()
        # the moduli come from math.hypot or np.hypot, which may round apart
        np.testing.assert_allclose([s for _, _, s in scalar], scales, rtol=1e-15, atol=0)


@pytest.mark.parametrize("N, l", KERNEL_CASES)
def test_kernel_agrees_with_jvp_evaluation(N, l):
    cfg = ProblemConfig(N=N, M=math.pi, l=l)
    eps_list, lam = _kernel_grid(N, l)
    for eps in eps_list:
        values, _, scales = CharacteristicKernel(cfg, eps)(lam)
        gap = np.abs(values - _characteristic_jvp(cfg, eps, lam)) / scales
        assert gap.max() <= _kernel_tol(N), f"eps={eps}"


def _reference_characteristic(cfg: ProblemConfig, eps, lam):
    """(F, scale) from ten mpmath Bessel calls, in the working precision.

    J at orders nu-1 and nu on (a, b, c), Y at the same orders on (b, c),
    the derivatives by DLMF 10.6.2, then the kernel's value and scale
    arithmetic. eps and lam are mpfs. Independent of scipy and of the
    propagator series in remainder_scaling.
    """
    nu = cfg.nu
    a, b = wave_arguments(density_params(cfg, eps), lam)
    c = b / (1 - eps)

    def value_and_slope(fn, z):
        value = fn(nu, z)
        return value, fn(nu - 1.0, z) - nu / z * value

    ja, jpa = value_and_slope(mp.besselj, a)
    jb, jpb = value_and_slope(mp.besselj, b)
    jc, jpc = value_and_slope(mp.besselj, c)
    yb, ypb = value_and_slope(mp.bessely, b)
    yc, ypc = value_and_slope(mp.bessely, c)
    w1 = 1.0 - cfg.N / 2.0
    ratio = (a / b) * jpa
    p1 = ja * (ypb * jc - jpb * yc) + ratio * (jb * yc - yb * jc)
    p2 = ja * (ypb * jpc - jpb * ypc) + ratio * (jb * ypc - yb * jpc)
    outer = max(abs(w1) * mp.hypot(jc, yc), c * mp.hypot(jpc, ypc))
    inner = max(abs(ja) * mp.hypot(jpb, ypb), abs(ratio) * mp.hypot(jb, yb))
    return w1 * p1 + c * p2, max(outer * inner, 1e-300)


def _reference_remainder(cfg: ProblemConfig, lam: float, eps: float) -> float:
    """remainder_scaling at one eps, with F from _reference_characteristic."""
    nu = cfg.nu
    with mp.workprec(136):
        lam_mp, eps_mp = mp.mpf(lam), mp.mpf(eps)
        c0, c1 = branch._truncated_coefficients(cfg, lam_mp, mp.mpf)
        F, _ = _reference_characteristic(cfg, eps_mp, lam_mp)
        a, b = wave_arguments(density_params(cfg, eps_mp), lam_mp)
        ja = mp.besselj(nu, a)
        jpa = mp.besselj(nu - 1.0, a) - nu / a * ja
        b1 = b * mp.sqrt(eps_mp / lam_mp)
        rescaled = F / jpa * mp.pi * nu * (1 - eps_mp) / (eps_mp * b1)
        return float(abs(rescaled - (c0 + c1 * eps_mp)))


@pytest.mark.parametrize("N, l", KERNEL_CASES)
def test_kernel_mpmath_path_agrees_with_float_path(N, l):
    """The float kernel against F evaluated by mpmath at 30 digits."""
    cfg = ProblemConfig(N=N, M=math.pi, l=l)
    eps_list, lam = _kernel_grid(N, l)
    with mp.workdps(30):
        for eps in eps_list[::2]:
            kernel = CharacteristicKernel(cfg, eps)
            for x in lam[::27].tolist():
                value, _, scale = kernel(x)
                value_mp, scale_mp = _reference_characteristic(
                    cfg, mp.mpf(eps), mp.mpf(x)
                )
                assert abs(value - value_mp) <= _kernel_tol(N) * scale_mp
                assert scale == pytest.approx(float(scale_mp), rel=1e-13)


def test_kernel_rejects_one_dimension_and_nonpositive_lambda():
    with pytest.raises(ValueError):
        CharacteristicKernel(ProblemConfig(N=1, M=2.0, l=1), 0.1)
    kernel = CharacteristicKernel(CFG_DISC, 0.1)
    with pytest.raises(ValueError):
        kernel(0.0)
    with pytest.raises(ValueError):
        kernel(np.array([1.0, -1.0]))


@pytest.mark.parametrize(
    "lam", [2.0, np.array([1.0, 2.0, 3.0])], ids=["float", "ndarray"]
)
def test_kernel_call_is_one_pass(monkeypatch, lam):
    """One call: one wave_arguments, one jv and one hankel1 evaluation."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    kernel = CharacteristicKernel(CFG_DISC, 0.1)
    expected = kernel(lam)
    monkeypatch.setattr(
        branch, "wave_arguments", counted("wave_arguments", branch.wave_arguments)
    )
    monkeypatch.setattr(
        branch,
        "_sp",
        SimpleNamespace(
            jv=counted("jv", special.jv), hankel1=counted("hankel1", special.hankel1)
        ),
    )
    got = kernel(lam)
    assert sorted(calls) == ["hankel1", "jv", "wave_arguments"]
    for have, want in zip(got, expected):
        assert np.array(have).tobytes() == np.array(want).tobytes()


def test_one_f_formula_for_the_kernel_and_the_remainder(monkeypatch):
    """A float kernel call and a one-point remainder each evaluate F once,
    by the same formula."""
    calls = []

    def counted(*args):
        calls.append(args)
        return f_and_slope(*args)

    f_and_slope = branch._f_and_slope
    monkeypatch.setattr(branch, "_f_and_slope", counted)
    CharacteristicKernel(CFG_DISC, 0.1)(2.0)
    assert len(calls) == 1
    remainder_scaling(CFG_DISC, 2.0, [1e-3])
    assert len(calls) == 2


def _reference_interval(cfg: ProblemConfig, eps, lam):
    """IntervalKernel's F in the working mpmath precision (eps, lam mpfs)."""
    rho = cfg.M / (2 * eps) - 1 + eps
    k1, k2 = mp.sqrt(lam * eps), mp.sqrt(lam * rho)
    inner, outer = k1 * (1 - eps), k2 * eps
    if cfg.l == 1:
        return k1 * mp.cos(inner) * mp.cos(outer) - k2 * mp.sin(inner) * mp.sin(outer)
    return k1 * mp.sin(inner) * mp.cos(outer) + k2 * mp.cos(inner) * mp.sin(outer)


@settings(max_examples=30, deadline=None)
@given(
    N=st.integers(1, 5),
    l=st.integers(0, 6),
    eps=st.floats(1e-3, 0.99),
    lam=st.floats(0.5, 60.0),
)
def test_slope_matches_a_30_digit_difference(N, l, eps, lam):
    """The kernel's F_lambda is within 1e-10 of scale / lambda of a central
    difference of F at 30 digits (mp.besselj and mp.bessely, or mp.cos and
    mp.sin)."""
    cfg = ProblemConfig(N=N, M=math.pi, l=l % 2 if N == 1 else l)
    kernel = branch._char_fn(cfg, eps)
    _, slope, scale = kernel(lam)
    with mp.workdps(30):
        eps_mp, lam_mp = mp.mpf(eps), mp.mpf(lam)

        def reference(x):
            if N == 1:
                return _reference_interval(cfg, eps_mp, x)
            return _reference_characteristic(cfg, eps_mp, x)[0]

        h = lam_mp * mp.mpf("1e-10")
        difference = (reference(lam_mp + h) - reference(lam_mp - h)) / (2 * h)
    assert abs(slope - float(difference)) <= 1e-10 * scale / lam


def test_find_root_requires_sign_change():
    with pytest.raises(BracketError):
        find_root(CFG_DISC, 0.01, (3.0, 3.5))


# at eps = 0.0125, J_100(a) and J_100'(a) underflow below lambda near 100
CFG_L100 = ProblemConfig(N=2, M=math.pi, l=100)


def test_find_root_compares_the_signs_of_tiny_values():
    # F is 1.7e-175 and 4.0e-174 at the ends, whose product underflows to 0
    with pytest.raises(BracketError) as info:
        find_root(CFG_L100, 0.0125, (150.0, 160.0))
    assert info.value.context == {
        "N": 2, "M": math.pi, "l": 100, "eps": 0.0125, "bracket": [150.0, 160.0]
    }


def test_an_underflowed_sample_is_neither_a_zero_nor_a_sign():
    kernel = CharacteristicKernel(CFG_L100, 0.0125)
    value, _, scale = kernel(0.376)
    assert math.isnan(value) and scale == 0.0
    values, _, scales = kernel(np.array([0.001, 0.376, 150.0]))
    assert np.isnan(values[:2]).all() and values[2] > 0.0
    assert scales.tolist()[:2] == [0.0, 0.0]
    with pytest.raises(BracketError):
        find_root(CFG_L100, 0.0125, (0.001, 150.0))
    assert branch._bracketed_root_near(CFG_L100, 0.0125, 0.376, 0.1) is None


def test_an_overflowed_scale_is_neither_a_zero_nor_a_sign():
    # with M just above the core's mass at eps = 1/2 the product of the
    # factor moduli overflows while the cross-products cancel to a finite F,
    # whose |F|/scale = 0 would pass any residual gate
    eps = 0.5
    core_mass = eps * unit_ball_volume(2) * (1.0 - eps) ** 2
    cfg = ProblemConfig(N=2, M=(1.0 + 1e-9) * core_mass, l=41)
    kernel = CharacteristicKernel(cfg, eps)
    for lam in (1.0, 30.0):
        value, _, scale = kernel(lam)
        assert math.isnan(value) and scale == math.inf
    # the kernel, not this test, silences the batch product's overflow warning
    values, _, scales = kernel(np.array([1.0, 30.0]))
    assert np.isnan(values).all() and np.isinf(scales).all()
    assert scan_roots(cfg, eps, 60.0) == []


def _reference_find_root(cfg, eps, bracket, known):
    """(root, residual) the former way: Brent, then a walk over neighbouring
    floats to the smallest |F|/scale (up to 64 each way, stopping after three
    in a row that do not improve)."""
    kernel = branch._char_fn(cfg, eps)
    lo, hi = bracket
    (f_lo, _, _), (f_hi, _, _) = known
    if f_lo == 0.0:
        root = lo
    elif f_hi == 0.0:
        root = hi
    else:
        root = optimize.brentq(
            lambda x: f_lo if x == lo else f_hi if x == hi else kernel(x)[0],
            lo, hi, xtol=1e-15, rtol=4 * math.ulp(1.0), maxiter=200,
        )
    value, _, scale = kernel(root)
    best_res, best_x = abs(value) / scale, root
    for direction in (math.inf, -math.inf):
        x, rising = root, 0
        for _ in range(64):
            x = math.nextafter(x, direction)
            value, _, scale = kernel(x)
            if abs(value) / scale < best_res:
                best_res, best_x, rising = abs(value) / scale, x, 0
            else:
                rising += 1
                if rising >= 3:
                    break
    return best_x, best_res


def _scan_cells(cfg, eps, lam_max):
    """(bracket, known end values) of every cell scan_roots hands to find_root."""
    cells = []

    def recording(cfg, epsilon, bracket, *, _known, _fn):
        cells.append((bracket, _known))
        return find_root(cfg, epsilon, bracket, _known=_known, _fn=_fn)

    with mock.patch.object(branch, "find_root", recording):
        scan_roots(cfg, eps, lam_max)
    return cells


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(2, 5),
    l=st.integers(0, 6),
    eps=st.floats(0.01, 0.95),
)
def test_find_root_matches_brent_and_polish(N, l, eps):
    """The shared solver lands on the former root to 1e-13, on a sign change."""
    cfg = ProblemConfig(N=N, M=4.0 * math.pi, l=l)
    kernel = branch._char_fn(cfg, eps)
    for bracket, known in _scan_cells(cfg, eps, 60.0):
        pt = find_root(cfg, eps, bracket, _known=known)
        ref, ref_residual = _reference_find_root(cfg, eps, bracket, known)
        where = f"N={N} l={l} eps={eps} bracket={bracket}"
        assert abs(pt.lam - ref) <= 1e-13 * ref, where
        assert pt.residual <= DEFAULT_ROOT_TOL and ref_residual <= DEFAULT_ROOT_TOL
        # an exact zero, or the end with the smaller |F|/scale of adjacent
        # floats across which F changes sign
        f_root = kernel(pt.lam)[0]
        neighbours = [kernel(math.nextafter(pt.lam, d)) for d in (-math.inf, math.inf)]
        assert f_root == 0.0 or any(
            f_root * g < 0.0 and pt.residual <= abs(g) / s for g, _, s in neighbours
        ), where


def test_truncated_characteristic_at_zero_eps():
    """At eps = 0 the truncated form is -2 lambda + 2 N omega l / M."""
    cfg = ProblemConfig(N=2, M=math.pi, l=2)
    for lam in (1.0, 3.0, 7.5):
        expected = -2.0 * lam + 2.0 * 2.0 * math.pi * 2 / math.pi
        assert truncated_characteristic(cfg, 0.0, lam) == pytest.approx(expected, rel=1e-14)


def test_truncated_characteristic_refuses_order_zero():
    with pytest.raises(ValueError):
        truncated_characteristic(ProblemConfig(N=2, M=math.pi, l=0), 0.01, 1.0)
    with pytest.raises(ValueError):
        slope_from_truncated(ProblemConfig(N=2, M=math.pi, l=0))


def test_truncated_root_moves_with_slope():
    """The truncated equation's root at small eps matches lam + slope*eps."""
    cfg = CFG_DISC
    lam0 = 2.0
    slope = slope_at_zero(cfg)
    for eps in (1e-3, 1e-4):
        lo, hi = lam0, lam0 + 2.0 * slope * eps
        flo = truncated_characteristic(cfg, eps, lo)
        fhi = truncated_characteristic(cfg, eps, hi)
        assert flo * fhi < 0
        # bisect the linear-in-eps polynomial
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = truncated_characteristic(cfg, eps, mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        root = 0.5 * (lo + hi)
        assert root - lam0 == pytest.approx(slope * eps, rel=5e-3)


def test_remainder_scaling_validates_grid():
    with pytest.raises(ValueError):
        remainder_scaling(CFG_DISC, 2.0, [0.25])
    with pytest.raises(ValueError):
        remainder_scaling(CFG_DISC, 2.0, [0.0])
    with pytest.raises(ValueError):
        remainder_scaling(ProblemConfig(N=2, M=math.pi, l=0), 1.0, [0.01])


def test_remainder_vanishes_superlinearly():
    """The dropped part of the expansion decays faster than eps^1.4."""
    grid = [10.0 ** (-4.0 + 2.0 * i / 4.0) for i in range(5)]
    pts = remainder_scaling(CFG_DISC, 2.0, grid)
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope >= 1.4


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(2, 5),
    l=st.integers(1, 6),
    mass=st.floats(0.5, 4.0),
    log_eps=st.floats(-6.0, math.log10(0.19)),
)
def test_remainder_scaling_matches_the_bessel_reference(N, l, mass, log_eps):
    """Propagators and the Wronskian give the remainder of ten Bessel calls."""
    cfg = ProblemConfig(N=N, M=mass * N * unit_ball_volume(N), l=l)
    lam = steklov_eigenvalue(cfg).value
    eps = 10.0**log_eps
    ((e, remainder),) = remainder_scaling(cfg, lam, [eps])
    assert e == eps
    reference = _reference_remainder(cfg, lam, eps)
    assert abs(remainder - reference) <= 1e-20 * reference


@settings(max_examples=30, deadline=None)
@given(
    twice_nu=st.integers(0, 60),
    log_b=st.floats(math.log10(0.3), 2.5),
    log_eps=st.floats(-7.0, math.log10(0.19)),
)
# paths one Taylor step cannot take: h = c - b near 74 loses 100 bits,
# and nu/b = 200 runs past the term cap
@example(twice_nu=0, log_b=2.5, log_eps=math.log10(0.19))
@example(twice_nu=800, log_b=math.log10(2.0), log_eps=math.log10(0.19))
def test_propagators_carry_bessel_functions_from_b_to_c(twice_nu, log_b, log_eps):
    """C(c) = P C(b) + Q C'(b) and C'(c) = P' C(b) + Q' C'(b) for C = J, Y.

    The error is measured against the summands, not against C(c): where
    nu > b, Y(c) is a small difference of large summands, so that sum
    cancels digits the propagators themselves keep.
    """
    nu = twice_nu / 2.0
    with mp.workprec(136):
        b = mp.mpf(10.0**log_b)
        c = b / (1 - mp.mpf(10.0**log_eps))
        P, Q, dP, dQ = branch._propagators(nu, b, c - b)
        for fn in (mp.besselj, mp.bessely):
            at_b, slope_b, at_c, slope_c = (
                fn(nu, z, d) for z in (b, c) for d in (0, 1)
            )
            for p, q, want in ((P, Q, at_c), (dP, dQ, slope_c)):
                summands = abs(p * at_b) + abs(q * slope_b)
                assert abs(p * at_b + q * slope_b - want) <= 1e-35 * summands


@pytest.mark.parametrize(
    "nu, z, h",
    [
        (3.0, 50.0, 2.0**-100),
        (0.5, 2.0, 2.0**-30),
        (6.0, 10.0, 0.5),
        (40.0, 50.0, 0.9),
        (2.0, 30.0, 30 * 1e-30),
    ],
)
def test_taylor_step_keeps_the_working_precision(nu, z, h):
    """P, Q, P', Q' of a step at 136 bits are each within 2^-130 (relative)
    of the same step at 300 bits, down to h = 2^-100: P' and Q' - 1 are
    sums of order h divided by h, so the fixed-point scale grows as 1/h^2."""
    steps = []
    for prec in (136, 300):
        with mp.workprec(prec):
            steps.append(branch._taylor_step(nu, mp.mpf(z), mp.mpf(h)))
    with mp.workprec(300):
        for got, want in zip(*steps):
            assert abs(got - want) <= mp.ldexp(abs(want), -130)


def test_propagator_series_has_a_term_cap(monkeypatch):
    monkeypatch.setattr(branch, "_MAX_SERIES_TERMS", 5)
    with pytest.raises(IterationLimitError, match="did not settle in 5 terms"):
        remainder_scaling(CFG_DISC, 2.0, [0.01])


def test_continue_branch_reaches_target_eps():
    points, truncated = continue_branch(CFG_DISC, _uniform(0.1, 10))
    assert len(points) == 10
    assert not truncated
    assert points[-1].epsilon == pytest.approx(0.1, rel=1e-15)
    assert points[-1].lam == pytest.approx(ROOT_DISC_010, rel=1e-10)
    eps_seq = [p.epsilon for p in points]
    assert eps_seq == sorted(eps_seq)
    for p in points:
        assert p.residual <= DEFAULT_ROOT_TOL
        assert p.lam > steklov_eigenvalue(CFG_DISC).value


def test_continue_branch_monotone_near_zero():
    """lambda(eps) increases off the anchor for every low mode."""
    for N, M in ((2, math.pi), (3, 4.0 * math.pi)):
        for l in (1, 2):
            cfg = ProblemConfig(N=N, M=M, l=l)
            points, _ = continue_branch(cfg, _uniform(0.02, 8))
            lams = [steklov_eigenvalue(cfg).value] + [p.lam for p in points]
            assert all(b > a for a, b in zip(lams, lams[1:]))


def test_continue_branch_principal_mode_is_zero():
    cfg = ProblemConfig(N=3, M=4.0 * math.pi, l=0)
    points, _ = continue_branch(cfg, _uniform(0.5, 5))
    assert [p.lam for p in points] == [0.0] * 5
    assert [p.residual for p in points] == [0.0] * 5
    assert steklov_eigenvalue(cfg).value == 0.0


def test_branch_emanates_from_anchor():
    """Richardson extrapolation of lambda(eps) back to eps = 0."""
    cfg = ProblemConfig(N=2, M=math.pi, l=2)

    def lam_at(e: float) -> float:
        return continue_branch(cfg, _uniform(e, 2))[0][-1].lam

    extrapolated = 2.0 * lam_at(1e-7) - lam_at(2e-7)
    assert extrapolated == pytest.approx(steklov_eigenvalue(cfg).value, abs=5e-8)


def test_anchor_eigenvalue_one_dimensional():
    """The interval's odd branch starts at the Steklov value 2/M."""
    anchor = steklov_eigenvalue(ProblemConfig(N=1, M=2.0, l=1))
    assert anchor.value == pytest.approx(1.0, rel=1e-15)
    assert anchor.slope == pytest.approx(4.0 / 3.0, rel=1e-15)
    with pytest.raises(ValueError, match="only the even"):
        ProblemConfig(N=1, M=2.0, l=2)


def test_one_dimensional_slope_consistency():
    """The closed slope formula 2 l lam/3 + 2 lam^2/(N(2l+N)) at N=1, l=1
    is the interval's (2/3)(lam1 + lam1^2) with lam1 = 2/M."""
    for M in (0.5, 2.0, math.pi, 10.0):
        lam1 = 2.0 / M
        interval = (2.0 / 3.0) * (lam1 + lam1 * lam1)
        assert slope_at_zero(ProblemConfig(N=1, M=M, l=1)) == pytest.approx(
            interval, rel=1e-15
        )


def test_one_dimensional_branch_values():
    cfg = ProblemConfig(N=1, M=2.0, l=1)
    points, _ = continue_branch(cfg, _uniform(0.01, 2))
    pt = points[-1]
    assert pt.lam == pytest.approx(1.013417888937936, rel=1e-10)
    assert pt.residual <= DEFAULT_ROOT_TOL
    assert abs(characteristic_1d(2.0, pt.epsilon, pt.lam)[0]) < 1e-12


def _oracle_roots(M: float, eps: float, lam_max: float) -> list[float]:
    """Roots of the double-angle oracle: a sign scan four times finer than
    scan_roots', each sign change bisected down to adjacent floats."""
    def f(x):
        return characteristic_1d(M, eps, x)[0]

    samples = 3200
    lam_min = branch.SCAN_LAM_MIN
    xs = [lam_min + (lam_max - lam_min) * i / samples for i in range(samples + 1)]
    vals = [f(x) for x in xs]
    roots = []
    for i in range(samples):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            lo, hi, f_lo = xs[i], xs[i + 1], vals[i]
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                f_mid = f(mid)
                if f_mid == 0.0:
                    lo = mid
                    break
                if f_lo * f_mid < 0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            roots.append(lo)
    return roots


@settings(max_examples=40, deadline=None)
@given(M=st.floats(0.6, 20.0), eps=st.floats(0.005, 0.95))
def test_interval_kernel_factors_the_double_angle_oracle(M, eps):
    """F_1d = (4/lambda) F_odd F_even, and the l = 0 and l = 1 roots
    together are the oracle's roots. Measured over 300 random (M, eps):
    the identity holds to 1.1e-15 of the oracle's scale and the 1,575
    roots agree to 1e-14 relative."""
    odd = IntervalKernel(ProblemConfig(N=1, M=M, l=1), eps)
    even = IntervalKernel(ProblemConfig(N=1, M=M, l=0), eps)
    for lam in np.geomspace(1e-3, 60.0, 20).tolist():
        value, scale = characteristic_1d(M, eps, lam)
        product = 4.0 / lam * odd(lam)[0] * even(lam)[0]
        assert abs(value - product) <= 1e-14 * scale
    union = sorted(
        p.lam
        for l in (0, 1)
        for p in scan_roots(ProblemConfig(N=1, M=M, l=l), eps, 60.0)
    )
    oracle = _oracle_roots(M, eps, 60.0)
    assert len(union) == len(oracle)
    for got, want in zip(union, oracle):
        assert got == pytest.approx(want, rel=1e-12)


def test_interval_quotients_match_a_50_digit_root():
    """The odd branch's slope quotients at M = 2 against the root of the
    odd factor at 50 digits (measured: within 8.7e-13 relative)."""
    cfg = ProblemConfig(N=1, M=2.0, l=1)
    rows = slope_estimate(cfg, [1e-2, 1e-3, 1e-4])
    with mp.workdps(50):
        for e, quotient in rows:
            eps = mp.mpf(e)
            rho = 1 / eps - 1 + eps

            def odd(lam):
                k1, k2 = mp.sqrt(lam * eps), mp.sqrt(lam * rho)
                p, q = k1 * mp.cos(k1 * (1 - eps)), k2 * mp.sin(k1 * (1 - eps))
                return p * mp.cos(k2 * eps) - q * mp.sin(k2 * eps)

            root = mp.findroot(odd, 1 + eps * 4 / 3)
            assert quotient == pytest.approx(float((root - 1) / eps), rel=1e-11)


def test_slope_estimate_difference_quotients():
    rows = slope_estimate(CFG_DISC, [1e-2, 1e-3])
    slope = slope_at_zero(CFG_DISC)
    assert [e for e, _ in rows] == [1e-2, 1e-3]
    for e, quotient in rows:
        assert abs(quotient - slope) <= 5.0 * slope * e
    # the quotient approaches the slope as eps shrinks
    assert abs(rows[1][1] - slope) < abs(rows[0][1] - slope)


def test_slope_estimate_rejects_large_eps():
    with pytest.raises(ValueError):
        slope_estimate(CFG_DISC, [0.2])


def test_slope_estimate_principal_mode():
    rows = slope_estimate(ProblemConfig(N=2, M=math.pi, l=0), [1e-2])
    assert rows == [(1e-2, 0.0)]


def test_trace_family_stops_at_lambda_cap():
    cfg = ProblemConfig(N=2, M=math.pi, l=3)
    anchor = steklov_eigenvalue(cfg)
    grid = [i * 0.45 / 30 for i in range(1, 31)]
    points, truncated = trace_family(
        cfg, (0.0, anchor.value), grid, slope0=anchor.slope, lam_max=6.5
    )
    assert truncated
    assert 0 < len(points) < len(grid)
    assert points[-1].lam > 6.5
    assert all(p.lam <= 6.5 for p in points[:-1])


def test_scan_roots_finds_all_crossings():
    cfg = ProblemConfig(N=3, M=4.0 * math.pi / 3.0, l=3)
    roots = scan_roots(cfg, 0.3, 120.0)
    lams = [p.lam for p in roots]
    assert len(lams) == 2
    assert lams[0] == pytest.approx(16.098535648745848, rel=1e-9)
    assert lams[1] == pytest.approx(102.02980242642715, rel=1e-9)
    for p in roots:
        assert p.residual <= DEFAULT_ROOT_TOL


def test_scan_roots_skips_underflowed_samples():
    # F = 0 where every term underflowed made roots of 0.001 and 0.376
    roots = scan_roots(CFG_L100, 0.0125, 1500.0, samples=4000)
    assert [p.lam for p in roots] == [pytest.approx(393.94196552250, rel=1e-12)]
    assert roots[0].residual <= DEFAULT_ROOT_TOL


def _prediction_cases(cfg, eps):
    """(prediction, half_width) pairs placed around the roots below 60."""
    roots = [p.lam for p in scan_roots(cfg, eps, 60.0)]
    cases = [(0.5 * roots[0], roots[0])] if roots else [(3.0, 5.0)]
    for r in roots:
        cases += [(r + 0.01, 0.05), (r - 0.3, 0.7), (r * 1.02, 0.25 * r)]
    for r1, r2 in zip(roots, roots[1:]):
        gap = r2 - r1
        mid = 0.5 * (r1 + r2)
        cases += [(mid, 0.6 * gap), (mid, 0.2 * gap), (r1 + 0.3 * gap, 0.75 * gap)]
    return cases


@pytest.mark.parametrize("N", range(1, 6))
def test_corrector_returns_the_root_nearest_the_prediction(N):
    """None or the root nearest the prediction, never another root; and
    that root whenever the prediction is within 2% of a root whose
    neighbours are at least 10 times farther away. The reference roots
    come from a 2,000-sample scan to lambda = 100, past every prediction
    plus half-width; 20,000 samples gave the same roots to 1e-12 in all
    90 (cfg, eps) pairs, at 10 times the cost."""
    seen = {"found": 0, "none": 0, "close": 0}
    for l in range(2 if N == 1 else 7):
        cfg = ProblemConfig(N=N, M=4.0 * math.pi, l=l)
        for eps in (0.05, 0.4, 0.9):
            roots = [p.lam for p in scan_roots(cfg, eps, 100.0, samples=2000)]
            for prediction, half_width in _prediction_cases(cfg, eps):
                found = branch._bracketed_root_near(cfg, eps, prediction, half_width)
                where = f"l={l} eps={eps} prediction={prediction} w={half_width}"
                if not roots:
                    assert found is None, where
                    continue
                gaps = sorted(abs(r - prediction) for r in roots)
                nearest = min(roots, key=lambda r: abs(r - prediction))
                if abs(nearest - prediction) <= 0.02 * nearest and (
                    len(gaps) == 1 or gaps[1] >= 10.0 * gaps[0]
                ):
                    assert found is not None, where
                    seen["close"] += 1
                if found is None:
                    seen["none"] += 1
                    continue
                # the nearest root, or one tied with it to rounding
                assert found.residual <= DEFAULT_ROOT_TOL, where
                assert abs(found.lam - prediction) <= gaps[0] + 1e-9 * nearest, where
                assert min(abs(found.lam - r) for r in roots) <= 1e-12 * found.lam, where
                seen["found"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "N, M, l, eps, prediction, half_width",
    [
        # past a hump: Newton walks down F's tail, away from the root at 393.94
        (2, math.pi, 100, 0.0125, 369.1419141914191, 1691.4191419141914),
        # toward the zero of F at lambda = 0
        (4, 4.0 * math.pi, 6, 0.9, 13.170759517825344, 26.341519035650688),
    ],
    ids=["tail", "zero"],
)
def test_corrector_gives_up_where_newton_crawls(
    monkeypatch, N, M, l, eps, prediction, half_width
):
    """Newton converges linearly at best there; the contraction test stops
    it within a few points, so that trace_family halves its step."""
    calls = []
    original = branch.wave_arguments

    def counting(density, lam):
        calls.append(lam)
        return original(density, lam)

    monkeypatch.setattr(branch, "wave_arguments", counting)
    cfg = ProblemConfig(N=N, M=M, l=l)
    assert branch._bracketed_root_near(cfg, eps, prediction, half_width) is None
    assert len(calls) <= 5


def test_corrector_points_per_root(monkeypatch):
    """At most 7 lambda points per root, and no scalar point evaluated twice."""
    sizes = []
    scalars = set()
    original = branch.wave_arguments

    def counting(density, lam):
        sizes.append(np.size(lam))
        if not isinstance(lam, np.ndarray):
            assert (density.epsilon, lam) not in scalars
            scalars.add((density.epsilon, lam))
        return original(density, lam)

    monkeypatch.setattr(branch, "wave_arguments", counting)
    cfg = ProblemConfig(N=2, M=math.pi, l=3)
    points, truncated = continue_branch(cfg, _uniform(0.9, 100))
    assert len(points) == 100 and not truncated
    assert sum(sizes) <= 7 * len(points)


def test_radial_profile_continuity_and_boundary():
    cfg = CFG_DISC
    points, _ = continue_branch(cfg, _uniform(0.2, 4))
    pt = points[-1]
    prof = radial_profile(cfg, pt)
    iface = 1.0 - pt.epsilon
    below = math.nextafter(iface, 0.0)
    above = math.nextafter(iface, 1.0)
    (s_below, ds_below), (s_above, ds_above) = prof.at(below), prof.at(above)
    s_scale = max(abs(prof.at(r)[0]) for r in np.linspace(0.05, 1.0, 40))
    assert abs(s_above - s_below) <= 1e-9 * s_scale
    assert abs(ds_above - ds_below) <= 1e-8 * s_scale
    # Neumann boundary: S'(1) = 0 up to the root residual
    assert abs(prof.at(1.0)[1]) <= 1e-8 * s_scale


def test_radial_profile_inner_power_law():
    """As eps -> 0 the interior factor approaches r^l (so S(2r)/S(r) -> 2^l)."""
    for l in (1, 2, 3):
        cfg = ProblemConfig(N=2, M=math.pi, l=l)
        points, _ = continue_branch(cfg, _uniform(1e-6, 1))
        prof = radial_profile(cfg, points[-1])
        ratio = prof.at(0.8)[0] / prof.at(0.4)[0]
        assert ratio == pytest.approx(2.0**l, rel=1e-3)


def test_radial_profile_is_finite_near_the_centre_at_high_order():
    """Y_99 overflows near r = 0; the inner region must never form it."""
    cfg = ProblemConfig(N=2, M=math.pi, l=100)
    prof = radial_profile(cfg, continue_branch(cfg, _uniform(0.05, 4))[0][-1])
    for i in range(1, 513):
        r = i / 512
        assert all(map(math.isfinite, prof.at(r))), r


def test_radial_profile_rejects_unconverged_point():
    bad = BranchPoint(epsilon=0.2, lam=2.5, residual=1.0)
    with pytest.raises(ValueError, match="not converged"):
        radial_profile(CFG_DISC, bad)


def test_radial_profile_rejects_one_dimension():
    bad_cfg = ProblemConfig(N=1, M=2.0, l=1)
    pt = BranchPoint(epsilon=0.2, lam=1.0, residual=0.0)
    with pytest.raises(ValueError, match="interval"):
        radial_profile(bad_cfg, pt)


def test_radial_profile_domain():
    points, _ = continue_branch(CFG_DISC, _uniform(0.2, 4))
    prof = radial_profile(CFG_DISC, points[-1])
    with pytest.raises(ValueError):
        prof.at(0.0)
    with pytest.raises(ValueError):
        prof.at(1.2)


def test_csv_round_trip_revalidates(tmp_path):
    """Every written row parses back and satisfies the residual gate."""
    points, _ = continue_branch(CFG_DISC, _uniform(0.1, 5))
    path = tmp_path / "family.csv"
    write_points_csv(points, path)
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(points)
    for row, pt in zip(rows, points):
        eps = float(row["epsilon"])
        lam = float(row["lambda"])
        res = float(row["residual"])
        assert eps == pt.epsilon and lam == pt.lam and res == pt.residual
        value, _, scale = CharacteristicKernel(CFG_DISC, eps)(lam)
        assert abs(value) / scale <= DEFAULT_ROOT_TOL


def test_write_points_csv_header(tmp_path):
    path = tmp_path / "pts.csv"
    write_points_csv([], path)
    assert path.read_text(encoding="ascii") == "epsilon,lambda,residual\n"


def test_sidecar_metadata_fields(tmp_path):
    # the branch command writes the sidecar beside its CSV
    out = tmp_path / "branch.csv"
    argv = ["branch", "--N", "2", "--M", "pi", "--l", "1", "--eps-max", "0.05",
            "--steps", "2", "--out", str(out)]
    assert cli.main(argv) == 0
    meta = json.loads(out.with_suffix(".json").read_text(encoding="ascii"))
    assert meta == {
        "N": 2,
        "M": math.pi,
        "l": 1,
        "anchor_lambda": 2.0,
        "slope_at_zero": pytest.approx(7.0 / 3.0, rel=1e-14),
        "truncated": False,
    }

