"""The interval's characteristic equation in one double-angle formula.

Mass M on (-1, 1): density eps on |x| <= 1-eps and
rho_annulus = M/(2 eps) - 1 + eps on the rest, with Neumann ends. This
F mixes both parities: it is (4/lambda) times the product of the odd and
the even factor that ``steklov.branch.IntervalKernel`` evaluates one at a
time, so its roots are the union of the l = 0 and l = 1 roots. Written
with the math module only, so it shares no code with the library.
"""

from __future__ import annotations

import math


def characteristic_1d(M: float, epsilon: float, lam: float) -> tuple[float, float]:
    """(F, scale), the scale being the attainable magnitude of the summands."""
    rho_ann = M / (2.0 * epsilon) - 1.0 + epsilon
    u = 2.0 * math.sqrt(lam * epsilon) * (1.0 - epsilon)
    v = 2.0 * epsilon * math.sqrt(lam * rho_ann)
    t1 = 2.0 * math.sqrt(epsilon * rho_ann) * math.cos(u) * math.sin(v)
    t2 = (
        -M / (2.0 * epsilon)
        + 1.0
        + (M / (2.0 * epsilon) - 1.0 + 2.0 * epsilon) * math.cos(v)
    ) * math.sin(u)
    scale = max(
        2.0 * math.sqrt(epsilon * rho_ann),
        M / (2.0 * epsilon),
        abs(M / (2.0 * epsilon) - 1.0 + 2.0 * epsilon),
    )
    return t1 + t2, scale
