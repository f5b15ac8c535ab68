"""Cross-products of Bessel functions as elementary Laurent forms.

Same-argument combinations like Y_nu(z) J_nu'''(z) - J_nu(z) Y_nu'''(z)
collapse to (2/(pi z)) * (c0 + sum_m c_m z^-m) with c0 in {-1, 0, 1} and
finitely many inverse powers. Two families are tracked, each with the
left-hand ordering fixed once and never silently flipped:

    plain:   Y * J^(k)  -  J * Y^(k)
    primed:  Y' * J^(k) -  J' * Y^(k)

``CrossKind`` holds the package's one derivative-order cap,
1 <= k <= MAX_CROSS_ORDER = 8. ``closed_form`` hardcodes the k <= 4 table
as polynomials in nu; ``recursive_form`` builds any order from the
differentiated Bessel equation, which writes every derivative of a
solution as C^(k) = P_k C + Q_k C' with P_k, Q_k polynomials in 1/z;
pairing with the Wronskian leaves P_k or Q_k as the bracketed part. The
coefficients are exact rationals at the exact order Fraction(nu).
``direct_cross_product`` is the floating-point route, which indexes the
derivative lists [C, C', ..., C^(k)] of ``bessel.derivatives_up_to``.
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
        if not 1 <= self.k <= MAX_CROSS_ORDER:
            raise ValueError(
                f"derivative order must lie in [1, {MAX_CROSS_ORDER}], got {self.k}"
            )


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


def direct_cross_product(kind: CrossKind, nu: float, z: float) -> float:
    """The defining combination evaluated straight from Bessel derivatives."""
    j = derivatives_up_to(BesselKind.J, nu, z, kind.k)
    y = derivatives_up_to(BesselKind.Y, nu, z, kind.k)
    m = 0 if kind.family is Family.PLAIN else 1  # the left factor: C or C'
    return y[m] * j[kind.k] - j[m] * y[kind.k]


# ---------------------------------------------------------------------------
# exact forms from the differentiated Bessel equation

_Laurent = dict[int, Coeff]  # {power of 1/z: coefficient}


@lru_cache(maxsize=256)  # bounded: any float order is a new key
def _propagator_forms(nu: Fraction) -> tuple[list[_Laurent], list[_Laurent]]:
    """(P_j), (Q_j), j <= MAX_CROSS_ORDER, with C^(j) = P_j C + Q_j C' for all C.

    Seeds (1, 0) and (0, 1). Bessel's equation differentiated j times and
    divided by z^2 gives, in w = 1/z, the recurrence that P and Q obey

        C^(j+2) = -[(2j+1) w C^(j+1) + (1 + (j^2 - nu^2) w^2) C^(j)
                    + 2j w C^(j-1) + j(j-1) w^2 C^(j-2)],

    the one ``bessel.derivatives_up_to`` runs on values and
    ``branch._taylor_step`` on Taylor terms in fixed point. Its weights are
    integers up to nu^2, so it needs no division, and at integer nu it runs
    on ints.
    """
    nu2 = int(nu) ** 2 if nu.denominator == 1 else nu * nu
    P: list[_Laurent] = [{0: 1}, {}]
    Q: list[_Laurent] = [{}, {0: 1}]
    for j in range(MAX_CROSS_ORDER - 1):
        for c in (P, Q):
            nxt: _Laurent = {}
            # (weight, power of w, term); c[j - 1], c[j - 2] wrap only at weight 0
            for weight, shift, term in (
                (2 * j + 1, 1, c[j + 1]),
                (1, 0, c[j]),
                (j * j - nu2, 2, c[j]),
                (2 * j, 1, c[j - 1]),
                (j * (j - 1), 2, c[j - 2]),
            ):
                if weight:
                    for m, v in term.items():
                        nxt[m + shift] = nxt.get(m + shift, 0) - weight * v
            c.append(nxt)
    return P, Q


def _form(bracket: Mapping[int, Coeff]) -> LaurentForm:
    """The LaurentForm of c0 + sum c_m z^-m, given as {m: c_m} with c0 at m = 0."""
    coeffs: dict[int, Coeff] = {
        m: int(v) if v.denominator == 1 else v
        for m, v in sorted(bracket.items())
        if m and v
    }
    return LaurentForm(int(bracket.get(0, 0)), coeffs)


def recursive_form(kind: CrossKind, nu: float) -> LaurentForm:
    """Laurent form from the differentiated Bessel equation, any capped k.

    Pairing C^(k) = P_k C + Q_k C' with the Wronskian J Y' - Y J' = 2/(pi z)
    gives plain_k = -Q_k * 2/(pi z) and primed_k = P_k * 2/(pi z).
    """
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    P, Q = _propagator_forms(Fraction(nu))
    if kind.family is Family.PLAIN:
        return _form({m: -v for m, v in Q[kind.k].items()})
    return _form(P[kind.k])


# closed-form table for k <= 4; coefficients as polynomials in nu.
# primed k=1 is identically zero and plain k=4 follows from one application
# of the derivative identity to the k=3 forms; the other six are classical.
_Poly = tuple[Fraction, ...]  # low degree first

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
    nu_exact = Fraction(nu)
    bracket = {
        m: sum(c * nu_exact**i for i, c in enumerate(poly))
        for m, poly in tail.items()
    }
    bracket[0] = Fraction(constant)
    return _form(bracket)
