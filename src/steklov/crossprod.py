"""Cross-products of Bessel functions as elementary Laurent forms.

Same-argument combinations like Y_nu(z) J_nu'''(z) - J_nu(z) Y_nu'''(z)
collapse to (2/(pi z)) * (c0 + sum_m c_m z^-m) with c0 in {-1, 0, 1} and
finitely many inverse powers. Two families are tracked, each with the
left-hand ordering fixed once and never silently flipped:

    plain:   Y * J^(k)  -  J * Y^(k)
    primed:  Y' * J^(k) -  J' * Y^(k)

``closed_form`` hardcodes the k <= 4 table; ``recursive_form`` rebuilds any
order k <= 8 from two seeds (the k=0 cross-products: 0 and the Wronskian)
by a pair of mutual recurrences, carried out on coefficients that are exact
rational polynomials in nu. Shifting the order nu -> nu +- 1 inside the
recursion is polynomial composition, so no Bessel function is ever
evaluated at a negative order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .bessel import BesselKind, derivatives_up_to

__all__ = [
    "Family",
    "CrossKind",
    "LaurentForm",
    "closed_form",
    "recursive_form",
    "evaluate",
    "derivative",
    "direct_cross_product",
    "MAX_CROSS_ORDER",
]

MAX_CROSS_ORDER = 8

Coeff = Union[int, Fraction]


class Family(Enum):
    PLAIN = "plain"    # Y J^(k) - J Y^(k)
    PRIMED = "primed"  # Y' J^(k) - J' Y^(k)


@dataclass(frozen=True)
class CrossKind:
    family: Family
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"derivative order must be >= 1, got {self.k}")


@dataclass(frozen=True)
class LaurentForm:
    """value(z) = (2/(pi z)) * (constant_term + sum_m coeffs[m] * z^-m)."""

    constant_term: int
    inverse_power_coeffs: Mapping[int, Coeff] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.constant_term not in (-1, 0, 1):
            raise ValueError(
                f"constant term must be -1, 0 or 1, got {self.constant_term}"
            )
        for m in self.inverse_power_coeffs:
            if m < 1:
                raise ValueError(f"inverse powers start at 1, got exponent {m}")


def evaluate(form: LaurentForm, z: float) -> float:
    if not z > 0:
        raise ValueError(f"argument must be positive, got {z}")
    acc = float(form.constant_term)
    for m, c in form.inverse_power_coeffs.items():
        acc += float(c) * z ** (-m)
    return 2.0 / (math.pi * z) * acc


def derivative(form: LaurentForm) -> LaurentForm:
    """d/dz of the bracketed part c0 + sum c_m z^-m (prefactor excluded).

    Always has constant term 0: differentiation kills the constant and
    pushes every inverse power one step deeper.
    """
    return LaurentForm(
        constant_term=0,
        inverse_power_coeffs={
            m + 1: -m * c for m, c in form.inverse_power_coeffs.items() if c
        },
    )


def direct_cross_product(kind: CrossKind, nu: float, z: float) -> float:
    """The defining combination evaluated straight from Bessel derivatives."""
    j = derivatives_up_to(BesselKind.J, nu, z, kind.k)
    y = derivatives_up_to(BesselKind.Y, nu, z, kind.k)
    jk = j.derivative_values[kind.k - 1]
    yk = y.derivative_values[kind.k - 1]
    if kind.family is Family.PLAIN:
        return y.value * jk - j.value * yk
    return y.derivative_values[0] * jk - j.derivative_values[0] * yk


# ---------------------------------------------------------------------------
# symbolic recursion on polynomials in nu
#
# a polynomial is a tuple of Fractions, low degree first; a tail is a dict
# mapping the inverse power m to such a polynomial

_Poly = tuple[Fraction, ...]
_Tail = dict[int, _Poly]

_ZERO: _Poly = ()


def _trim(p: list[Fraction]) -> _Poly:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(a: _Poly, b: _Poly) -> _Poly:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pscale(a: _Poly, c: Fraction) -> _Poly:
    if c == 0:
        return _ZERO
    return tuple(x * c for x in a)


def _pshift(a: _Poly, s: int) -> _Poly:
    """Compose with nu -> nu + s."""
    out = [Fraction(0)] * len(a)
    for i, ci in enumerate(a):
        if ci == 0:
            continue
        for j in range(i + 1):
            out[j] += ci * math.comb(i, j) * Fraction(s) ** (i - j)
    return _trim(out)


def _pmul_nu2(a: _Poly) -> _Poly:
    if not a:
        return _ZERO
    return (Fraction(0), Fraction(0)) + a


def _peval(a: _Poly, nu: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * nu + c
    return acc


def _tadd(a: _Tail, b: _Tail) -> _Tail:
    out = dict(a)
    for m, p in b.items():
        out[m] = _padd(out.get(m, _ZERO), p)
    return {m: p for m, p in out.items() if p}


def _tscale(a: _Tail, c: Fraction) -> _Tail:
    if c == 0:
        return {}
    return {m: _pscale(p, c) for m, p in a.items()}


def _tshift_order(a: _Tail, s: int) -> _Tail:
    return {m: _pshift(p, s) for m, p in a.items()}


def _tshift_power(a: _Tail, d: int) -> _Tail:
    return {m + d: p for m, p in a.items()}


def _tmul_nu2(a: _Tail) -> _Tail:
    return {m: _pmul_nu2(p) for m, p in a.items()}


@lru_cache(maxsize=None)
def _symbolic_table(k: int) -> tuple[tuple[int, ...], tuple[_Tail, ...], tuple[int, ...], tuple[_Tail, ...]]:
    """(r_j), (R_j), (q_j), (Q_j) for j = 0..k, coefficients polynomial in nu.

    Seeds: the plain family at k=0 is identically zero, the primed family at
    k=0 is the Wronskian J Y' - Y J' = +2/(pi z). Each next level follows
    from the derivative identity (plain)' = plain at k+1 plus primed at k,
    and from eliminating second derivatives with Bessel's equation at orders
    nu-1, nu+1 (primed at k+1).
    """
    r: list[int] = [0]
    R: list[_Tail] = [{}]
    q: list[int] = [1]
    Q: list[_Tail] = [{}]
    for j in range(k):
        # plain level j+1:  r_{j+1} = -q_j,
        # R_{j+1} = -Q_j - r_j/z - R_j/z + R_j'
        tail = _tscale(Q[j], Fraction(-1))
        if r[j]:
            tail = _tadd(tail, {1: (Fraction(-r[j]),)})
        # -R_j/z + R_j' combine to -(m+1) c_m at power m+1
        shifted: _Tail = {
            m + 1: _pscale(p, Fraction(-(m + 1))) for m, p in R[j].items()
        }
        tail = _tadd(tail, shifted)
        r.append(-q[j])
        R.append(tail)
        # primed level j+1:  q_{j+1} = r_j,
        # Q_{j+1} = (R_j(nu-1) + R_j(nu+1))/2
        #           - nu^2 * sum_{i<=j} j! (-1)^(j-i)/i! (r_i + R_i) z^-(j-i+2)
        half = Fraction(1, 2)
        tail2 = _tadd(
            _tscale(_tshift_order(R[j], -1), half),
            _tscale(_tshift_order(R[j], +1), half),
        )
        for i in range(j + 1):
            w = Fraction(math.factorial(j) * (-1) ** (j - i), math.factorial(i))
            if w == 0:
                continue
            piece: _Tail = {}
            if r[i]:
                piece[j - i + 2] = (Fraction(r[i]),)
            piece = _tadd(piece, _tshift_power(R[i], j - i + 2))
            tail2 = _tadd(tail2, _tmul_nu2(_tscale(piece, -w)))
        q.append(r[j])
        Q.append(tail2)
    return tuple(r), tuple(R), tuple(q), tuple(Q)


def _specialize(constant: int, tail: _Tail, nu: Fraction) -> LaurentForm:
    coeffs: dict[int, Coeff] = {}
    for m in sorted(tail):
        v = _peval(tail[m], nu)
        if v:
            coeffs[m] = int(v) if v.denominator == 1 else v
    return LaurentForm(constant_term=constant, inverse_power_coeffs=coeffs)


def recursive_form(kind: CrossKind, nu: float) -> LaurentForm:
    """Laurent form generated by the mutual recurrences, any k <= 8."""
    if kind.k > MAX_CROSS_ORDER:
        raise ValueError(f"cross-product order capped at {MAX_CROSS_ORDER}")
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    r, R, q, Q = _symbolic_table(kind.k)
    nu_exact = nu if isinstance(nu, Fraction) else Fraction(nu)
    if kind.family is Family.PLAIN:
        return _specialize(r[kind.k], R[kind.k], nu_exact)
    return _specialize(q[kind.k], Q[kind.k], nu_exact)


# closed-form table for k <= 4; coefficients as polynomials in nu.
# primed k=1 is identically zero and plain k=4 follows from one application
# of the derivative identity to the k=3 forms; the other six are classical.
_CLOSED: dict[tuple[Family, int], tuple[int, dict[int, _Poly]]] = {
    (Family.PLAIN, 1): (-1, {}),
    (Family.PLAIN, 2): (0, {1: (Fraction(1),)}),
    (Family.PLAIN, 3): (1, {2: (Fraction(-2), Fraction(0), Fraction(-1))}),
    (Family.PLAIN, 4): (
        0,
        {1: (Fraction(-2),), 3: (Fraction(6), Fraction(0), Fraction(6))},
    ),
    (Family.PRIMED, 1): (0, {}),
    (Family.PRIMED, 2): (-1, {2: (Fraction(0), Fraction(0), Fraction(1))}),
    (Family.PRIMED, 3): (
        0,
        {1: (Fraction(1),), 3: (Fraction(0), Fraction(0), Fraction(-3))},
    ),
    (Family.PRIMED, 4): (
        1,
        {
            2: (Fraction(-3), Fraction(0), Fraction(-2)),
            4: (Fraction(0), Fraction(0), Fraction(11), Fraction(0), Fraction(1)),
        },
    ),
}


def closed_form(kind: CrossKind, nu: float) -> LaurentForm:
    """Hardcoded Laurent forms for k <= 4; higher k needs recursive_form."""
    if kind.k not in (1, 2, 3, 4):
        raise ValueError(
            f"no closed form tabulated for k={kind.k}; use recursive_form"
        )
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    constant, tail = _CLOSED[(kind.family, kind.k)]
    nu_exact = nu if isinstance(nu, Fraction) else Fraction(nu)
    return _specialize(constant, tail, nu_exact)

