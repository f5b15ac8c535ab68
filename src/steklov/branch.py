"""Characteristic equation of the concentrated-density Neumann problem.

Separating variables for -Delta u = lambda rho_eps u with a Neumann
boundary on the unit ball, the radial factor is a Bessel function of order
nu = (N + 2l - 2)/2 in each density region; matching value and slope at the
interface r = 1-eps and imposing the boundary condition collapses to one
transcendental equation F(lambda, eps) = 0 built from cross-products of
J_nu, Y_nu at b and b/(1-eps), weighted by J_nu(a) and (a/b) J_nu'(a):

    F = (1 - N/2) P1(a, b) + (b/(1-eps)) P2(a, b)

with a = sqrt(lambda eps)(1-eps), b = sqrt(lambda rho_annulus)(1-eps).
Each nonzero eigenvalue branch lambda_l(eps) is a root curve of F anchored
at the Steklov value lambda_l as eps -> 0. This module provides the
equation, its truncated small-eps polynomial form with the remainder
rescaling, root finding, predictor-corrector continuation and radial
eigenfunction assembly. On the interval (N = 1) the Bessel functions of
order l - 1/2 are a cosine and a sine, and F has its own trigonometric
kernel.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp
import numpy as np
from scipy import special as _sp

from .errors import BracketError, IterationLimitError
from .model import ProblemConfig, density_params, wave_arguments
from .roots import _MAX_STEPS, newton_step, shrink_bracket
from .spectrum import SteklovEigenvalue, steklov_eigenvalue

__all__ = [
    "DEFAULT_ROOT_TOL",
    "SCAN_LAM_MIN",
    "BranchPoint",
    "BranchTable",
    "RadialProfile",
    "CharacteristicKernel",
    "IntervalKernel",
    "truncated_characteristic",
    "slope_from_truncated",
    "remainder_scaling",
    "find_root",
    "continue_branch",
    "trace_family",
    "scan_roots",
    "slope_estimate",
    "radial_profile",
    "write_fresh",
    "write_points_csv",
    "sidecar_metadata",
]

# acceptance bound on |F|/scale at a root (find_root, radial_profile)
DEFAULT_ROOT_TOL = 1e-11

# step halvings before trace_family gives a family up
_MAX_HALVINGS = 10
# relative size of a corrector step at float64 F's noise floor (see README)
_NOISE_FLOOR = 1e-9
# lower end of scan_roots' lambda grid; a figure window must reach above it
SCAN_LAM_MIN = 1e-3


@dataclass(frozen=True)
class BranchPoint:
    """One converged root (eps, lambda) of the characteristic equation.

    residual is |F| divided by the magnitude of F's largest constituent
    term, i.e. directly comparable against DEFAULT_ROOT_TOL. The analytic
    l = 0 principal branch carries lambda = 0 with residual 0.
    """

    epsilon: float
    lam: float
    residual: float
    l: int
    N: int
    M: float


@dataclass(frozen=True)
class BranchTable:
    cfg: ProblemConfig
    points: tuple[BranchPoint, ...]
    anchor: SteklovEigenvalue
    truncated: bool = False


# ---------------------------------------------------------------------------
# the characteristic equation


def _derivative(lower, value, nu, z):
    """C_nu'(z) from C_{nu-1}(z) and C_nu(z), for C = J or Y (DLMF 10.6.2)."""
    return lower - nu / z * value


class CharacteristicKernel:
    """F(lambda, eps) and its scale at one (cfg, eps) of the ball in R^N.

    F = (1 - N/2) P1(a, b) + (b/(1-eps)) P2(a, b), see the module docstring.
    Calling the kernel with lambda returns (F, scale), scale the largest
    attainable magnitude of F's terms; with_slope adds dF/dlambda. lambda may be

    - a float: floats come back (corrector and root iterates);
    - an ndarray: arrays come back, every F bitwise equal to the float
      call's (root scans; the scale may differ in the last bit,
      math.hypot and np.hypot round on their own).

    The density at eps is computed once, when the kernel is built (so an
    eps outside (0, 1) or a non-positive annulus density fails there).
    One call evaluates wave_arguments once, J at orders (nu-1, nu) on
    (a, b, c) and Y at the same orders on (b, c), with scipy's jv and yv
    (AMOS), one ufunc call each. The derivatives follow from the order
    nu-1 values by DLMF 10.6.2.

    The interval is refused: at nu = l - 1/2 this kernel put the
    eps = 1e-4 slope quotient of N = 1, M = 2, l = 1 2.3e-9 (relative)
    from a 50-digit root, IntervalKernel 8.7e-13.
    """

    def __init__(self, cfg: ProblemConfig, epsilon) -> None:
        if cfg.N == 1:
            raise ValueError("the Bessel kernel does not serve the interval (N = 1)")
        self.epsilon = epsilon
        self._nu = cfg.nu
        self._w1 = 1.0 - cfg.N / 2.0
        self._density = density_params(cfg, epsilon)
        # orders (nu-1, nu) as a column, broadcast against the arguments
        self._orders = np.array([[self._nu - 1.0], [self._nu]])

    def __call__(self, lam):
        value, _, scale = self.with_slope(lam)
        return value, scale

    def with_slope(self, lam):
        """(F, dF/dlambda, scale) from the one evaluation __call__ makes.

        a, b and c scale as sqrt(lambda), so lambda F_lambda = D F / 2 with
        D = a d/da + b d/db + c d/dc. By the Bessel equation D C = z C',
        D C' = -C' - (z - nu^2/z) C and D (a J'(a)) = -(a^2 - nu^2) J(a).
        """
        a, b = wave_arguments(self._density, lam)
        c = b / (1.0 - self.epsilon)
        nu, w1 = self._nu, self._w1
        if isinstance(lam, np.ndarray):
            orders = self._orders[..., None]
            J = _sp.jv(orders, (a, b, c))
            Y = _sp.yv(orders, (b, c))
            hypot, maximum = np.hypot, np.maximum
        else:
            J = _sp.jv(self._orders, (a, b, c)).tolist()
            Y = _sp.yv(self._orders, (b, c)).tolist()
            hypot, maximum = math.hypot, max
        (ja1, jb1, jc1), (ja, jb, jc) = J
        (yb1, yc1), (yb, yc) = Y
        jpb, ypb = _derivative(jb1, jb, nu, b), _derivative(yb1, yb, nu, b)
        jpc, ypc = _derivative(jc1, jc, nu, c), _derivative(yc1, yc, nu, c)
        jpa = _derivative(ja1, ja, nu, a)
        ratio = (a / b) * jpa
        # P1: value cross-products at (b, b/(1-eps)); P2: derivative versions
        x1, x2 = ypb * jc - jpb * yc, jb * yc - yb * jc
        x3, x4 = ypb * jpc - jpb * ypc, jb * ypc - yb * jpc
        p1, p2 = ja * x1 + ratio * x2, ja * x3 + ratio * x4
        value = w1 * p1 + c * p2
        gb, gc = b - nu * nu / b, c - nu * nu / c
        d_ratio = -(a * a - nu * nu) * ja / b - ratio
        dp1 = a * jpa * x1 + ja * (gb * x2 + c * x3 - x1)
        dp1 += d_ratio * x2 + ratio * (c * x4 - b * x1)
        dp2 = a * jpa * x3 + ja * (gb * x4 - gc * x1 - 2.0 * x3)
        dp2 += d_ratio * x4 - ratio * (b * x3 + x4 + gc * x2)
        slope = (w1 * dp1 + c * (p2 + dp2)) / (2.0 * lam)
        # The scale makes residuals meaningful: at a root the weighted
        # summands cancel, so |F|/scale is the natural convergence measure.
        # Each summand is a cross-product <(Y', -J')(b), (J, Y)(c)> whose
        # attainable magnitude is the product of the factor moduli. Measuring
        # residuals against the largest attainable summand keeps the measure
        # stable when a factor sits at an accidental zero (near eps -> 1 the
        # root locks b/(1-eps) onto a zero of J', where every summand value
        # collapses while dF/dlambda stays finite, so a value-based scale
        # would demand residuals below what float64 lambda can express). The
        # four weight-times-modulus products factor into two maxima.
        outer = maximum(abs(w1) * hypot(jc, yc), c * hypot(jpc, ypc))
        inner = maximum(abs(ja) * hypot(jpb, ypb), abs(ratio) * hypot(jb, yb))
        return value, slope, maximum(outer * inner, 1e-300)


class IntervalKernel:
    """F(lambda, eps) and its scale at one (cfg, eps) of the interval (-1, 1).

    The eigenfunction is cos (l = 0, even) or sin (l = 1, odd) of k1 x on
    |x| <= x0 = 1 - eps and a multiple of cos(k2 (1 - x)), which meets the
    Neumann condition at x = 1, on the shell; k1 = sqrt(lambda eps) and
    k2 = sqrt(lambda rho_annulus). Matching value and slope at x0 leaves

        odd:  F = k1 cos(k1 x0) cos(k2 eps) - k2 sin(k1 x0) sin(k2 eps),
        even: F = k1 sin(k1 x0) cos(k2 eps) + k2 cos(k1 x0) sin(k2 eps).

    A float or an ndarray of lambdas gives (F, scale) as from
    CharacteristicKernel; an ndarray goes elementwise through the float
    path, so batches match it bitwise. With F = p cos(k2 eps) +
    q sin(k2 eps), the scale is max(|p|, |q|), the shell factors having
    unit modulus (the Bessel kernel bounds its cross-products the same
    way). rho_annulus = M/(2 eps) - 1 + eps is formed directly:
    density_params, called once for its bound check, loses digits of it
    to 1 - (1-eps) at small eps.
    """

    def __init__(self, cfg: ProblemConfig, epsilon) -> None:
        density_params(cfg, epsilon)
        self.epsilon = epsilon
        self._odd = cfg.l == 1
        self._rho = cfg.M / (2.0 * epsilon) - 1.0 + epsilon

    def __call__(self, lam):
        value, _, scale = self.with_slope(lam)
        return value, scale

    def with_slope(self, lam):
        """(F, dF/dlambda, scale); k1, k2 scale as sqrt(lambda), as a, b do."""
        if isinstance(lam, np.ndarray):
            triples = [self.with_slope(x) for x in lam.tolist()]
            return tuple(np.array(col) for col in zip(*triples))
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        eps = self.epsilon
        k1, k2 = math.sqrt(lam * eps), math.sqrt(lam * self._rho)
        inner, outer = k1 * (1.0 - eps), k2 * eps
        if self._odd:
            p, q = k1 * math.cos(inner), -k2 * math.sin(inner)
        else:
            p, q = k1 * math.sin(inner), k2 * math.cos(inner)
        co, so = math.cos(outer), math.sin(outer)
        value = p * co + q * so
        # d/d(inner) takes (p, q) to (q k1/k2, -p k2/k1) in both parities
        d = inner * (q * k1 / k2 * co - p * k2 / k1 * so) + outer * (q * co - p * so)
        return value, (value + d) / (2.0 * lam), max(abs(p), abs(q))


def _truncated_coefficients(cfg: ProblemConfig, lam, num=float):
    """(c0, c1) with the truncated form equal to c0 + c1 eps.

    Evaluated in the arithmetic of num: float, or mp.mpf for the
    extended-precision remainder (lam then an mpf too). Undefined when
    nu = 0 (denominators vanish), which happens only for N = 2, l = 0.
    """
    if cfg.nu == 0:
        raise ValueError("truncated form undefined at nu = 0 (N = 2, l = 0)")
    N, M, l, nu, w = (num(x) for x in (cfg.N, cfg.M, cfg.l, cfg.nu, cfg.omega))
    steklov = 2 * N * w * l / M
    c0 = steklov - 2 * lam
    c1 = (
        lam * lam * (M / (3 * N * w) - 1 / (nu * (1 + nu)))
        + lam * (N / 2 - nu + (2 - N) * N * w / (2 * nu * (1 + nu) * M))
        - steklov * ((N - 1) / 2 - w / M - nu)
    )
    return c0, c1


def truncated_characteristic(cfg: ProblemConfig, epsilon: float, lam: float) -> float:
    """The explicit part of the small-eps expansion of the rescaled F.

    lambda^2 eps (M/(3 N omega) - 1/(nu(1+nu)))
      + lambda eps (N/2 - nu + (2-N) N omega / (2 nu (1+nu) M))
      - 2 lambda + 2 N omega l / M
      - (2 N omega l / M)((N-1)/2 - omega/M - nu) eps

    linear in eps; the dropped remainder is o(eps) uniformly on compact
    lambda intervals (see remainder_scaling). Undefined when nu = 0
    (denominators vanish), which happens only for N = 2, l = 0.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    c0, c1 = _truncated_coefficients(cfg, lam)
    return c0 + c1 * epsilon


def slope_from_truncated(cfg: ProblemConfig) -> float:
    """Branch slope at eps = 0 via the implicit function theorem.

    The truncated form is linear in eps with d/d(lambda) = -2 at eps = 0,
    so the slope is (the eps-coefficient at lambda_l) / 2. Independent
    route from the closed slope formula; the two must agree to roundoff.
    """
    lam = cfg.N * cfg.omega * cfg.l / cfg.M
    return _truncated_coefficients(cfg, lam)[1] / 2.0


# terms of one Taylor step before remainder_scaling gives up
_MAX_SERIES_TERMS = 400


def _taylor_step(nu, z, h):
    """(P, Q, P', Q') of one Taylor step of the Bessel equation, z to z + h.

    P and Q are the solutions with (C, C') = (1, 0) and (0, 1) at z,
    summed as Taylor series in h from the recurrence of the equation
    about z,

        z^2 (k+1)(k+2) t_{k+2} = -[(2k+1)(k+1) z t_{k+1}
            + (k^2 + z^2 - nu^2) t_k + 2z t_{k-1} + t_{k-2}],

    run on the terms s_k = t_k h^k, in the working mpmath precision. The
    equation's only finite singular point is 0, so the series converge
    for |h| < z. They stop once three consecutive terms of all four sums
    fall below 2^-(prec+10); IterationLimitError past _MAX_SERIES_TERMS.
    ``crossprod._propagator_forms`` runs the same recurrence on exact forms.
    """
    tiny = mp.ldexp(1, -(mp.mp.prec + 10))
    tiny_slope = tiny * abs(h)
    u = h / z
    g = h * u
    # s_{k+2} (k+1)(k+2) = -[(2k+1)(k+1) u s_{k+1} + (k^2 u^2 + h^2 - nu^2 u^2) s_k
    #                        + 2 h g s_{k-1} + g^2 s_{k-2}]
    uu = u * u
    base = h * h - nu * nu * uu
    c3, c4 = 2 * h * g, g * g
    zero, one = mp.mpf(0), mp.mpf(1)
    # (s_{k-2}, s_{k-1}, s_k, s_{k+1}) of each series, at k = 0
    p2, p1, p0, pn = zero, zero, one, zero
    q2, q1, q0, qn = zero, zero, zero, h
    P, Q = one, h
    # sums of k s_k; P' and Q' are these over h
    dP, dQ = zero, h
    quiet = 0
    for k in range(_MAX_SERIES_TERMS):
        c1 = (2 * k + 1) * (k + 1) * u
        c2 = k * k * uu + base
        den = -(k + 1) * (k + 2)
        p_next = (c1 * pn + c2 * p0 + c3 * p1 + c4 * p2) / den
        q_next = (c1 * qn + c2 * q0 + c3 * q1 + c4 * q2) / den
        P += p_next
        Q += q_next
        dP += (k + 2) * p_next
        dQ += (k + 2) * q_next
        if (
            abs(p_next) < tiny
            and abs(q_next) < tiny
            and (k + 2) * abs(p_next) < tiny_slope
            and (k + 2) * abs(q_next) < tiny_slope
        ):
            quiet += 1
            if quiet == 3:
                return P, Q, dP / h, dQ / h
        else:
            quiet = 0
        p2, p1, p0, pn = p1, p0, pn, p_next
        q2, q1, q0, qn = q1, q0, qn, q_next
    raise IterationLimitError(
        f"propagator series from z={float(z):.6g} over h={float(h):.6g} "
        f"did not settle in {_MAX_SERIES_TERMS} terms"
    )


def _propagators(nu, b, h):
    """(P, Q, P', Q') carrying any Bessel solution of order nu from b to b + h.

    C(b+h) = P C(b) + Q C'(b) and C'(b+h) = P' C(b) + Q' C'(b) for every
    solution C of z^2 C'' + z C' + (z^2 - nu^2) C = 0, 0 < h < b. The
    terms of a Taylor step grow to about e^(h max(1, nu/z)) before they
    fall: where the solutions oscillate (z > nu) the sum cancels about
    1.44 bits per unit of h, and where nu/z is large the terms outlast
    _MAX_SERIES_TERMS. So the path is cut into equal steps no longer than
    min(1, b/nu) and their propagators are multiplied. On the grid of
    verify-remainder (eps <= 1e-2, h near sqrt(l eps), b near sqrt(l/eps))
    every path below l = 100 is one step.
    """
    reach = 1 if nu <= b else b / nu
    steps = max(1, math.ceil(float(h / reach)))
    step = h / steps
    P, Q, dP, dQ = _taylor_step(nu, b, step)
    for i in range(1, steps):
        p, q, dp, dq = _taylor_step(nu, b + i * step, step)
        P, Q, dP, dQ = (
            p * P + q * dP, p * Q + q * dQ, dp * P + dq * dP, dp * Q + dq * dQ
        )
    return P, Q, dP, dQ


def remainder_scaling(
    cfg: ProblemConfig, lam: float, eps_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """|remainder| of the truncated expansion over an eps grid.

    Rescales the full characteristic exactly as the expansion derivation
    does (divide by J_nu'(a), multiply by pi nu (1-eps)/b1 with
    b1 = b sqrt(eps/lambda), divide by eps) and subtracts the truncated
    polynomial. Evaluated at 136 bits (40 significant digits): the
    rescaling amplifies by eps^(-3/2), so float64 would run out of
    headroom near the bottom of the grid. Grid entries must sit in the
    asymptotic window (0, 0.2).

    F needs Y_nu only inside its four cross-products between b and
    c = b/(1-eps). Writing C(c) = P C(b) + Q C'(b) and
    C'(c) = P' C(b) + Q' C'(b) (see _propagators), each cross-product is
    the Wronskian W = J Y' - J' Y = 2/(pi b) (DLMF 10.5.2) times one of
    P, Q, P', Q', so

        F = W [(1 - N/2)(J_nu(a) P + r Q) + c (J_nu(a) P' + r Q')],

    with r = (a/b) J_nu'(a). The only Bessel evaluations are J at orders
    nu-1 and nu at the small argument a.
    """
    for e in eps_grid:
        if not 0.0 < e < 0.2:
            raise ValueError(f"eps grid entries must lie in (0, 0.2), got {e}")
    out: list[tuple[float, float]] = []
    nu, w1 = cfg.nu, 1.0 - cfg.N / 2.0
    with mp.workprec(136):
        lam_mp = mp.mpf(lam)
        c0, c1 = _truncated_coefficients(cfg, lam_mp, mp.mpf)
        for e in eps_grid:
            eps = mp.mpf(e)
            a, b = wave_arguments(density_params(cfg, eps), lam_mp)
            c = b / (1 - eps)
            ja = mp.besselj(nu, a)
            jpa = _derivative(mp.besselj(nu - 1.0, a), ja, nu, a)
            P, Q, dP, dQ = _propagators(nu, b, c - b)
            ratio = (a / b) * jpa
            wronskian = 2 / (mp.pi * b)
            F = wronskian * (w1 * (ja * P + ratio * Q) + c * (ja * dP + ratio * dQ))
            b1 = b * mp.sqrt(eps / lam_mp)
            rescaled = F / jpa * mp.pi * nu * (1 - eps) / (eps * b1)
            out.append((float(e), float(abs(rescaled - (c0 + c1 * eps)))))
    return out


# ---------------------------------------------------------------------------
# root finding and continuation


def _char_fn(cfg: ProblemConfig, epsilon: float):
    """The kernel at one (cfg, eps), for a float or an ndarray of lambdas."""
    return (IntervalKernel if cfg.N == 1 else CharacteristicKernel)(cfg, epsilon)


def find_root(
    cfg: ProblemConfig,
    epsilon: float,
    bracket: tuple[float, float],
    *,
    _known: tuple[tuple, tuple] | None = None,
) -> BranchPoint:
    """The root in a sign-changing bracket, residual-checked.

    shrink_bracket narrows the bracket, by Newton steps on with_slope, to
    adjacent floats across which F changes sign (or to an exact zero); the
    root is the end with the smaller |F|/scale, accepted only when that is
    at most DEFAULT_ROOT_TOL. _known, from the corrector and scan_roots, is
    with_slope at (lo, hi), so no lambda is evaluated twice in one call.
    """
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got {bracket}")
    fn = _char_fn(cfg, epsilon)
    seen = dict(zip(bracket, _known or (fn.with_slope(lo), fn.with_slope(hi))))
    f_lo, f_hi = seen[lo][0], seen[hi][0]

    def f(x):
        seen[x] = fn.with_slope(x)
        return seen[x][:2]

    try:
        if f_lo * f_hi > 0:
            raise BracketError(
                f"no sign change on [{lo}, {hi}] at eps={epsilon} "
                f"(F={f_lo:.3e} and {f_hi:.3e})"
            )
        ends = shrink_bracket(f, lo, hi, seen[lo][:2], seen[hi][:2])
        residual, root = min((abs(seen[x][0]) / seen[x][2], x) for x in ends)
        if residual > DEFAULT_ROOT_TOL:
            raise IterationLimitError(
                f"residual {residual:.3e} above tolerance {DEFAULT_ROOT_TOL:.1e} "
                f"at eps={epsilon}, lambda={root}",
                best=root,
            )
    except (BracketError, IterationLimitError) as exc:
        exc.context.update(N=cfg.N, M=cfg.M, l=cfg.l, eps=epsilon, bracket=[lo, hi])
        raise
    return BranchPoint(
        epsilon=epsilon, lam=root, residual=residual, l=cfg.l, N=cfg.N, M=cfg.M
    )


def _bracketed_root_near(
    cfg: ProblemConfig,
    epsilon: float,
    prediction: float,
    half_width: float,
) -> BranchPoint | None:
    """Newton from the prediction until two iterates straddle a root.

    The first two consecutive iterates across which F changes sign (or at
    which it vanishes) go to find_root with the values already in hand.
    None, so that trace_family halves its step, when an iterate leaves
    (0, inf) or half_width of the prediction, when the slope vanishes,
    after _MAX_STEPS iterates, or when a step above _NOISE_FLOOR times
    lambda is more than half the one before it (a contraction-rate bound
    as in Allgower & Georg, SIAM 2003): Newton would then crawl toward F's
    zero at lambda = 0 or down F's tail away from a root.
    """
    fn = _char_fn(cfg, epsilon)
    x, prev, last = prediction, None, math.inf
    for _ in range(_MAX_STEPS):
        if not (x > 0.0 and abs(x - prediction) <= half_width):
            return None
        value, slope, _ = here = fn.with_slope(x)
        if prev is not None and (value == 0.0 or (value < 0.0) != (prev[1][0] < 0.0)):
            (lo, f_lo), (hi, f_hi) = sorted([prev, (x, here)])
            return find_root(cfg, epsilon, (lo, hi), _known=(f_lo, f_hi))
        if not slope:
            return None
        step = newton_step(x, value, slope)
        if abs(step - x) > max(0.5 * last, _NOISE_FLOOR * x):
            return None
        x, prev, last = step, (x, here), abs(step - x)
    return None


def trace_family(
    cfg: ProblemConfig,
    start: tuple[float, float],
    eps_values: Sequence[float],
    *,
    slope0: float | None = None,
    lam_max: float | None = None,
) -> tuple[list[BranchPoint], bool]:
    """Predictor-corrector continuation from a known point.

    Walks eps_values (monotone, either direction) from start = (eps, lam);
    each step predicts linearly with the latest secant slope (slope0 seeds
    the first step) and corrects by Newton, bracketing the root for
    find_root. Bracket failure halves the step toward the target up to 10
    times. Returns (points at the requested eps values, truncated flag);
    truncated is set when the family is lost or leaves (0, lam_max].
    """
    e_prev, lam_prev = start
    slope = 0.0 if slope0 is None else slope0
    scale = abs(lam_prev)
    points: list[BranchPoint] = []
    for e_target in eps_values:
        halvings = 0
        pt: BranchPoint | None = None
        while pt is None:
            # aim at the target; failures pull the intermediate stop
            # halfway back toward the last converged point
            e_try = e_target
            while True:
                d_eps = e_try - e_prev
                prediction = lam_prev + slope * d_eps
                half_width = max(0.25 * scale, 10.0 * abs(slope) * abs(d_eps))
                found = _bracketed_root_near(cfg, e_try, prediction, half_width)
                if found is not None:
                    break
                halvings += 1
                if halvings > _MAX_HALVINGS:
                    return points, True
                e_try = 0.5 * (e_prev + e_try)
            if d_eps != 0.0:
                slope = (found.lam - lam_prev) / d_eps
            e_prev, lam_prev = e_try, found.lam
            if e_try == e_target:
                pt = found
        points.append(pt)
        if lam_max is not None and pt.lam > lam_max:
            return points, True
    return points, False


def continue_branch(
    cfg: ProblemConfig,
    eps_max: float,
    steps: int,
    *,
    lam_max: float | None = None,
) -> BranchTable:
    """Trace the anchored branch over the uniform grid (eps0, eps_max].

    eps0 = eps_max/steps. The l = 0 principal branch is identically zero
    and is emitted analytically; everything else starts at the Steklov
    anchor with the closed slope as first predictor.
    """
    if not 0.0 < eps_max < 1.0:
        raise ValueError(f"eps_max must lie in (0, 1), got {eps_max}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    anchor = steklov_eigenvalue(cfg)
    grid = [eps_max * i / steps for i in range(1, steps + 1)]
    if cfg.l == 0:
        pts = tuple(
            BranchPoint(epsilon=e, lam=0.0, residual=0.0, l=0, N=cfg.N, M=cfg.M)
            for e in grid
        )
        return BranchTable(cfg=cfg, points=pts, anchor=anchor, truncated=False)
    points, truncated = trace_family(
        cfg,
        start=(0.0, anchor.value),
        eps_values=grid,
        slope0=anchor.slope,
        lam_max=lam_max,
    )
    return BranchTable(
        cfg=cfg, points=tuple(points), anchor=anchor, truncated=truncated
    )


def scan_roots(
    cfg: ProblemConfig,
    epsilon: float,
    lam_max: float,
    *,
    samples: int = 800,
    lam_min: float = SCAN_LAM_MIN,
) -> list[BranchPoint]:
    """All roots of the characteristic in (lam_min, lam_max) at fixed eps.

    Uniform sign scan (one batched with_slope call), then find_root on each
    sign-changing cell, which reuses the sampled values at the cell ends;
    used to seed the divergent families that have no eps -> 0 anchor.
    """
    fn = _char_fn(cfg, epsilon)
    xs = [lam_min + (lam_max - lam_min) * i / samples for i in range(samples + 1)]
    ends = list(zip(*(col.tolist() for col in fn.with_slope(np.array(xs)))))
    roots: list[BranchPoint] = []
    for i in range(samples):
        if ends[i][0] == 0.0 or ends[i][0] * ends[i + 1][0] < 0:
            roots.append(
                find_root(cfg, epsilon, (xs[i], xs[i + 1]), _known=ends[i : i + 2])
            )
    return roots


def slope_estimate(
    cfg: ProblemConfig, eps_list: Sequence[float]
) -> list[tuple[float, float]]:
    """Difference quotients (lambda(eps) - lambda_l)/eps toward the slope.

    Each eps gets its own one-step continue_branch from the anchor, so the
    quotient always refers to the anchored branch (zero on the l = 0
    principal branch).
    """
    for e in eps_list:
        if not 0.0 < e <= 0.05:
            raise ValueError(f"quotients are meaningful for eps in (0, 0.05], got {e}")
    out: list[tuple[float, float]] = []
    for e in eps_list:
        table = continue_branch(cfg, e, 1)
        if table.truncated or not table.points:
            where = dict(N=cfg.N, M=cfg.M, l=cfg.l, eps=e)
            raise BracketError(f"branch lost on the way to eps={e}", **where)
        out.append((float(e), (table.points[0].lam - table.anchor.value) / e))
    return out


# ---------------------------------------------------------------------------
# radial eigenfunction


def _bessel_pair(fn, nu, z) -> tuple[float, float]:
    """(C_nu(z), C_nu'(z)) for C = fn, scipy's jv or yv (DLMF 10.6.2)."""
    lower, value = fn((nu - 1.0, nu), z).tolist()
    return value, _derivative(lower, value, nu, z)


@dataclass(frozen=True)
class RadialProfile:
    """Radial factor S(r) of the eigenfunction at one branch point.

    Inside: r^(1-N/2) J_nu(sqrt(lambda eps) r); on the annulus the same
    power times alpha J_nu + beta Y_nu at sqrt(lambda rho_annulus) r. The
    matching coefficients fold in the Wronskian 2/(pi b), making S and S'
    continuous at r = 1-eps by construction. Y_nu is evaluated on the
    annulus only: it overflows near r = 0 at large nu.
    """

    cfg: ProblemConfig
    epsilon: float
    lam: float
    alpha: float
    beta: float

    def _at(self, r: float) -> tuple[float, float]:
        """(S(r), S'(r))."""
        if not 0.0 < r <= 1.0:
            raise ValueError(f"radius must lie in (0, 1], got {r}")
        nu, p = self.cfg.nu, 1.0 - self.cfg.N / 2.0
        if r <= 1.0 - self.epsilon:
            k = math.sqrt(self.lam * self.epsilon)
            combo, combo_p = _bessel_pair(_sp.jv, nu, k * r)
        else:
            rho_ann = density_params(self.cfg, self.epsilon).rho_annulus
            k = math.sqrt(self.lam * rho_ann)
            j, jp = _bessel_pair(_sp.jv, nu, k * r)
            y, yp = _bessel_pair(_sp.yv, nu, k * r)
            combo = self.alpha * j + self.beta * y
            combo_p = self.alpha * jp + self.beta * yp
        return r**p * combo, p * r ** (p - 1.0) * combo + r**p * k * combo_p

    def value(self, r: float) -> float:
        return self._at(r)[0]

    def derivative(self, r: float) -> float:
        return self._at(r)[1]


def radial_profile(cfg: ProblemConfig, point: BranchPoint) -> RadialProfile:
    """Assemble the radial eigenfunction at a converged branch point."""
    if point.residual > DEFAULT_ROOT_TOL:
        raise ValueError(
            f"branch point not converged: residual {point.residual:.3e} "
            f"> {DEFAULT_ROOT_TOL:.1e}"
        )
    if cfg.N == 1:
        raise ValueError("the Bessel kernel does not serve the interval (N = 1)")
    a, b = wave_arguments(density_params(cfg, point.epsilon), point.lam)
    ja, jpa = _bessel_pair(_sp.jv, cfg.nu, a)
    jb, jpb = _bessel_pair(_sp.jv, cfg.nu, b)
    yb, ypb = _bessel_pair(_sp.yv, cfg.nu, b)
    ratio = (a / b) * jpa
    pref = math.pi * b / 2.0
    return RadialProfile(
        cfg=cfg,
        epsilon=point.epsilon,
        lam=point.lam,
        alpha=pref * (ja * ypb - ratio * yb),
        beta=pref * (ratio * jb - jpb * ja),
    )


# ---------------------------------------------------------------------------
# table export


def write_fresh(path: str | os.PathLike, text: str) -> None:
    """Write ASCII text to path as a new file; the one writer of every output.

    A regular file already at path is unlinked first, not truncated: ext4's
    auto_da_alloc heuristic writes out a truncated and rewritten file when it
    is closed (and a file renamed over another when it is renamed). On the
    ext4 root of a 2-vCPU VM that cost 50-70 ms per figure CSV, against
    about 0.02 ms for a new file. A hard link to the old file keeps the old
    content. A symlink, device or FIFO is written through, so
    --out /dev/stdout works and only a regular file is ever removed.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def write_points_csv(
    points: Sequence[BranchPoint], path: str | os.PathLike
) -> None:
    """Three columns, round-trip float formatting, one row per point.

    The file is written by `write_fresh`, so it replaces any regular file
    at path.
    """
    lines = ["epsilon,lambda,residual"]
    lines += [f"{p.epsilon!r},{p.lam!r},{p.residual!r}" for p in points]
    write_fresh(path, "\n".join(lines) + "\n")


def sidecar_metadata(table: BranchTable) -> dict:
    return {
        "N": table.cfg.N,
        "M": table.cfg.M,
        "l": table.cfg.l,
        "anchor_lambda": table.anchor.value,
        "slope_at_zero": table.anchor.slope,
        "truncated": table.truncated,
    }
