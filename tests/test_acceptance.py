"""Acceptance suite: one test per numbered criterion.

Run with ``pytest -v`` to get one pass/fail line per criterion. Each test
is self-contained and states its tolerance inline; nothing here depends
on fixtures outside this file except the library itself.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from steklov.bessel import BesselKind, bessel_pair
from steklov.branch import (
    DEFAULT_ROOT_TOL,
    continue_branch,
    radial_profile,
    remainder_scaling,
    scan_roots,
    slope_estimate,
)
from steklov.crossprod import (
    CrossKind,
    Family,
    closed_form,
    direct_cross_product,
    evaluate,
    recursive_form,
)
from steklov.model import ProblemConfig
from steklov.shooting import eigenvalue_by_shooting
from steklov.spectrum import multiplicity, slope_at_zero, steklov_eigenvalue

EPS_SMALL = (1e-2, 1e-3, 1e-4)


def _uniform(eps_max: float, steps: int) -> list[float]:
    """The uniform eps grid eps_max i/steps, i = 1..steps."""
    return [eps_max * i / steps for i in range(1, steps + 1)]


def test_criterion_01_exact_spectrum():
    """lambda_l and multiplicities of the disc and the ball, to 1e-14."""
    for l in range(11):
        disc = steklov_eigenvalue(ProblemConfig(N=2, M=math.pi, l=l))
        assert disc.value == pytest.approx(2.0 * l, rel=1e-14, abs=0.0)
        assert disc.multiplicity == (1 if l == 0 else 2)
        ball = steklov_eigenvalue(ProblemConfig(N=3, M=4.0 * math.pi, l=l))
        assert ball.value == pytest.approx(float(l), rel=1e-14, abs=0.0)
        assert ball.multiplicity == (1 if l == 0 else 2 * l + 1)
        assert ball.multiplicity == multiplicity(3, l)
    print("criterion 1: exact spectra of disc and ball reproduced")


def test_criterion_02_slope_difference_quotients():
    """(lambda(eps) - lambda_l)/eps matches the first-order slope formula.

    Slope values follow from 2 l lam/3 + 2 lam^2/(N(2l+N)):
      (2, pi, 1):  lam=2 -> 4/3 + 1       = 7/3
      (2, pi, 2):  lam=4 -> 16/3 + 8/3    = 8
      (3, 4pi, 1): lam=1 -> 2/3 + 2/15    = 4/5
      (3, 4pi, 2): lam=2 -> 8/3 + 8/21    = 64/21
    """
    cases = [
        (2, math.pi, 1, 7.0 / 3.0),
        (2, math.pi, 2, 8.0),
        (3, 4.0 * math.pi, 1, 0.8),
        (3, 4.0 * math.pi, 2, 64.0 / 21.0),
    ]
    for N, M, l, formula in cases:
        cfg = ProblemConfig(N=N, M=M, l=l)
        assert slope_at_zero(cfg) == pytest.approx(formula, rel=1e-14)
        for eps, quotient in slope_estimate(cfg, EPS_SMALL):
            assert abs(quotient - formula) <= 5.0 * formula * eps, (
                f"N={N} l={l} eps={eps}: quotient {quotient} vs formula {formula}"
            )
    print("criterion 2: slope quotients within 5*formula*eps at all 12 probes")


def test_criterion_03_local_monotonicity():
    """Every low branch strictly increases on (0, 0.02] and exceeds lambda_l."""
    for N, M in ((2, math.pi), (3, 4.0 * math.pi)):
        for l in (1, 2, 3, 4):
            cfg = ProblemConfig(N=N, M=M, l=l)
            points, truncated = continue_branch(cfg, _uniform(0.02, 8))
            anchor = steklov_eigenvalue(cfg)
            assert not truncated
            lams = [anchor.value] + [p.lam for p in points]
            assert all(b > a for a, b in zip(lams, lams[1:])), f"N={N} l={l}"
            assert all(lam > anchor.value for lam in lams[1:]), f"N={N} l={l}"
    print("criterion 3: monotone increase verified for l=1..4, N=2,3")


def test_criterion_04_cross_product_identities():
    """Closed, recursive and direct cross-product routes agree on the grid."""
    nus = [0.5 * i for i in range(11)]
    zs = [0.5, 1.0, 2.0, 5.0, 10.0]
    for family in (Family.PLAIN, Family.PRIMED):
        for k in (1, 2, 3, 4):
            kind = CrossKind(family, k)
            for nu in nus:
                clo = closed_form(kind, nu)
                rec = recursive_form(kind, nu)
                assert rec.constant_term == clo.constant_term
                assert dict(rec.inverse_power_coeffs) == dict(clo.inverse_power_coeffs)
                for z in zs:
                    direct = direct_cross_product(kind, nu, z)
                    scale = max(abs(direct), 2.0 / (math.pi * z))
                    assert abs(evaluate(clo, z) - direct) <= 1e-10 * scale
        for k in (5, 6):
            kind = CrossKind(family, k)
            for nu in nus:
                rec = recursive_form(kind, nu)
                for z in zs:
                    direct = direct_cross_product(kind, nu, z)
                    scale = max(abs(direct), 2.0 / (math.pi * z))
                    assert abs(evaluate(rec, z) - direct) <= 1e-9 * scale
    print("criterion 4: cross-product identities hold, k <= 6, both families")


def test_criterion_05_wronskian_invariant():
    """J Y' - J' Y = 2/(pi z) to 1e-11 relative over the full grid."""
    for nu in [0.5 * i for i in range(21)]:
        for z in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
            (j, jp), (y, yp) = (bessel_pair(kind, nu, z) for kind in BesselKind)
            w = j * yp - jp * y
            expected = 2.0 / (math.pi * z)
            assert abs(w - expected) <= 1e-11 * expected, f"nu={nu} z={z}"
    print("criterion 5: Wronskian within 1e-11 relative on 168 grid points")


def test_criterion_06_oracle_equivalence():
    """Characteristic roots equal shooting eigenvalues to 1e-8 relative."""
    worst = 0.0
    for N, M in ((2, math.pi), (3, 4.0 * math.pi)):
        for l in (1, 2, 3):
            cfg = ProblemConfig(N=N, M=M, l=l)
            for eps in (0.01, 0.05, 0.1, 0.3):
                steps = max(4, math.ceil(eps / 0.05))
                reference = continue_branch(cfg, _uniform(eps, steps))[0][-1].lam
                width = max(0.05 * reference, 0.02)
                shot = eigenvalue_by_shooting(
                    cfg, eps, (reference - width, reference + width)
                )
                rel = abs(shot.lam - reference) / reference
                worst = max(worst, rel)
                assert rel <= 1e-8, f"N={N} l={l} eps={eps}: rel diff {rel}"
    print(f"criterion 6: 24 oracle comparisons passed, worst rel diff {worst:.2e}")


def test_criterion_07_remainder_scaling():
    """|remainder| of the truncated expansion fits slope >= 1.4 on [1e-5, 1e-2]."""
    for N, M, l in ((1, 2.0, 1), (2, math.pi, 1), (3, 4.0 * math.pi, 2)):
        cfg = ProblemConfig(N=N, M=M, l=l)
        lam = steklov_eigenvalue(cfg).value
        grid = [10.0 ** (-5.0 + 3.0 * i / 6.0) for i in range(7)]
        pts = remainder_scaling(cfg, lam, grid)
        slope = np.polyfit(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)[0]
        assert slope >= 1.4, f"N={N} l={l}: fitted slope {slope}"
    print("criterion 7: remainder scaling exponents exceed 1.4")


def test_criterion_08_one_dimensional_branch():
    """M=2 interval: the odd (l = 1) quotient -> 4/3, and the second root,
    the first nonzero even (l = 0) one, diverges as eps -> 0."""
    cfg = ProblemConfig(N=1, M=2.0, l=1)
    formula = slope_at_zero(cfg)
    assert formula == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert steklov_eigenvalue(cfg).value == pytest.approx(1.0, rel=1e-15)
    for eps, quotient in slope_estimate(cfg, EPS_SMALL):
        assert abs(quotient - formula) <= 5.0 * formula * eps, f"eps={eps}"
    even = ProblemConfig(N=1, M=2.0, l=0)
    second_roots = []
    for eps in EPS_SMALL:
        roots = scan_roots(even, eps, 4.0 / eps, samples=4000, lam_min=0.5)
        above = [p.lam for p in roots if p.lam > 2.0]
        assert above, f"no second root located at eps={eps}"
        second_roots.append(above[0])
    assert second_roots[0] < second_roots[1] < second_roots[2]
    assert second_roots[1] / second_roots[0] > 5.0
    print(
        "criterion 8: 1D quotient within bound; second roots "
        + " < ".join(f"{r:.1f}" for r in second_roots)
    )


def test_criterion_09_figure_reproduction(tmp_path):
    """The figure pipeline emits >= 5 families with the right limits."""
    out = tmp_path / "fig"
    proc = subprocess.run(
        [
            sys.executable, "-m", "steklov.cli", "figure",
            "--N", "2", "--M", "pi",
            "--l", "0..6",
            "--eps", "0.005..0.995",
            "--lambda-max", "50",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=os.environ.copy(),
        timeout=280,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text(encoding="ascii"))
    families = manifest["families"]
    assert len(families) >= 5

    def rows_of(entry: dict) -> list[dict[str, float]]:
        with open(out / entry["file"], newline="", encoding="ascii") as fh:
            return [
                {key: float(text) for key, text in row.items()}
                for row in csv.DictReader(fh)
            ]

    anchored = [f for f in families if f["kind"] == "anchored"]
    assert {f["l"] for f in anchored} == {1, 2, 3, 4, 5, 6}
    for entry in anchored:
        l = entry["l"]
        assert entry["anchor_lambda"] == pytest.approx(2.0 * l, rel=1e-12)
        first = rows_of(entry)[0]
        slope = entry["slope_at_zero"]
        # first-order proximity to the anchor at the smallest eps
        assert abs(first["lambda"] - 2.0 * l - slope * first["epsilon"]) <= (
            5.0 * slope * first["epsilon"] ** 2 + 1e-9
        ), f"l={l}"

    has_decrease = False
    for entry in families:
        rows = rows_of(entry)
        for row in rows:
            assert row["residual"] <= DEFAULT_ROOT_TOL
        lams = [r["lambda"] for r in rows]
        if any(b < a for a, b in zip(lams, lams[1:])):
            has_decrease = True
    assert has_decrease, "no family exhibits a decreasing segment"
    print(f"criterion 9: figure run emitted {len(families)} families, limits verified")


def test_criterion_10_eigenfunction_matching():
    """Radial profiles at 12 branch points: continuity and Neumann defect."""
    r_grid = np.linspace(0.01, 1.0, 200)
    checked = 0
    for N, M in ((2, math.pi), (3, 4.0 * math.pi)):
        for l in (1, 2):
            cfg = ProblemConfig(N=N, M=M, l=l)
            for eps in (0.05, 0.2, 0.4):
                steps = max(2, math.ceil(eps / 0.1))
                pt = continue_branch(cfg, _uniform(eps, steps))[0][-1]
                prof = radial_profile(cfg, pt)
                s_scale = max(abs(prof.at(r)[0]) for r in r_grid)
                iface = 1.0 - pt.epsilon
                (s_below, ds_below), (s_above, ds_above) = (
                    prof.at(math.nextafter(iface, side)) for side in (0.0, 1.0)
                )
                assert abs(s_above - s_below) <= 1e-9 * s_scale
                assert abs(ds_above - ds_below) <= 1e-9 * s_scale
                assert abs(prof.at(1.0)[1]) <= 1e-8 * s_scale
                checked += 1
    assert checked == 12
    print("criterion 10: 12 radial profiles continuous with vanishing S'(1)")
