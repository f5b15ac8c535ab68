"""The continuation predictor: its polynomial, its kernel calls, its outputs."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from steklov import branch, cli
from steklov.model import ProblemConfig

finite = st.floats(-1e3, 1e3, allow_nan=False)


@given(e0=finite, e1=finite, e=finite, lam0=finite, lam1=finite, slope0=finite)
def test_predictor_before_and_after_the_first_stop(e0, e1, e, lam0, lam1, slope0):
    """One stop predicts along slope0, two along the secant, bit for bit."""
    stops, diffs = [e0], [lam0, slope0]
    assert branch._predict(stops, diffs, e) == lam0 + slope0 * (e - e0)
    assume(abs(e1 - e0) > 1e-6)
    stops, diffs = branch._add_stop(stops, diffs, e1, lam1)
    assert (stops, diffs[0]) == ([e1, e0], lam1)
    secant = (lam1 - lam0) / (e1 - e0)
    assert branch._predict(stops, diffs, e) == lam1 + secant * (e - e1)


def test_predictor_is_exact_on_polynomials_of_its_degree():
    """Through unevenly spaced stops, as step halvings leave them, the
    predictor reproduces a polynomial of degree _PREDICTOR_STOPS - 1 and
    keeps only the latest _PREDICTOR_STOPS stops."""
    degree = branch._PREDICTOR_STOPS - 1

    def poly(e):
        return sum((k + 1.5) * (e - 0.3) ** k for k in range(degree + 1))

    stops, diffs = [0.1], [poly(0.1), 123.0]
    for e in (0.15, 0.175, 0.1875, 0.25, 0.3, 0.32):
        stops, diffs = branch._add_stop(stops, diffs, e, poly(e))
    assert stops == [0.32, 0.3, 0.25, 0.1875, 0.175][: branch._PREDICTOR_STOPS]
    for e in (0.33, 0.35, 0.4):
        assert branch._predict(stops, diffs, e) == pytest.approx(poly(e), rel=1e-12)


def test_corrector_step_builds_one_kernel(monkeypatch):
    """The corrector hands its kernel to find_root, which builds none."""
    built = []
    original = branch.CharacteristicKernel.__init__

    def counted(self, cfg, epsilon):
        built.append(epsilon)
        original(self, cfg, epsilon)

    monkeypatch.setattr(branch.CharacteristicKernel, "__init__", counted)
    cfg = ProblemConfig(N=2, M=math.pi, l=1)
    found = branch._bracketed_root_near(cfg, 0.1, 2.2, 0.5)
    assert found.lam == pytest.approx(2.234651915659871, rel=1e-12)
    assert built == [0.1]


def _figure(tmp_path, *args: str) -> list[tuple[str, int, bool]]:
    out = tmp_path / "fig"
    assert cli.main(["figure", *args, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="ascii"))
    return [(f["file"], f["points"], f["truncated"]) for f in manifest["families"]]


def test_criterion_9_figure_kernel_calls(tmp_path, monkeypatch, capsys):
    """The traced criterion-9 figure makes at most 7,000 kernel calls
    (6,835 measured; 8,432 with the secant predictor) for its 1,543 rows."""
    calls = []
    original = branch.CharacteristicKernel.__call__

    def counted(self, lam):
        calls.append(lam)
        return original(self, lam)

    monkeypatch.setattr(branch.CharacteristicKernel, "__call__", counted)
    families = _figure(
        tmp_path, "--N", "2", "--M", "pi", "--l", "0..6",
        "--eps", "0.005..0.995", "--lambda-max", "50",
    )
    assert sum(points for _, points, _ in families) == 1543
    assert len(calls) <= 7000


# family files, point counts and truncation flags, as the secant predictor
# traced them
FAMILIES = {
    ("2", "1", "0..6", "199", "25"): [
        ("family_l1_anchored.csv", 199, False),
        ("family_l2_anchored.csv", 47, True),
        ("family_l3_anchored.csv", 14, True),
        ("family_l4_anchored.csv", 1, True),
        ("family_l5_anchored.csv", 1, True),
        ("family_l6_anchored.csv", 1, True),
    ],
    ("2", "1", "0..4", "60", "30"): [
        ("family_l1_anchored.csv", 60, False),
        ("family_l2_anchored.csv", 21, True),
        ("family_l2_scan1.csv", 8, True),
        ("family_l3_anchored.csv", 8, True),
        ("family_l4_anchored.csv", 3, True),
    ],
    ("3", "4pi", "0..4", "60", "40"): [
        ("family_l0_scan1.csv", 50, True),
        ("family_l0_scan2.csv", 30, True),
        ("family_l0_scan3.csv", 5, True),
        ("family_l1_anchored.csv", 60, False),
        ("family_l1_scan1.csv", 48, True),
        ("family_l1_scan2.csv", 26, True),
        ("family_l2_anchored.csv", 60, False),
        ("family_l2_scan1.csv", 47, True),
        ("family_l2_scan2.csv", 20, True),
        ("family_l3_anchored.csv", 60, False),
        ("family_l3_scan1.csv", 46, True),
        ("family_l4_anchored.csv", 60, False),
        ("family_l4_scan1.csv", 44, True),
    ],
}


@pytest.mark.parametrize("window", FAMILIES, ids=lambda w: "-".join(w))
def test_figure_families_as_the_secant_traced_them(tmp_path, capsys, window):
    N, M, l, steps, lam_max = window
    families = _figure(
        tmp_path, "--N", N, "--M", M, "--l", l, "--eps", "0.005..0.995",
        "--steps", steps, "--lambda-max", lam_max,
    )
    assert families == FAMILIES[window]


@pytest.mark.parametrize(
    "N, M, l, text",
    [
        ("2", "pi", "1", "0.01,2.335817715569899,2.333333333333333\n"
         "0.001,2.333593180226856,2.333333333333333\n"
         "0.0001,2.3333594384755685,2.333333333333333\n"),
        ("3", "4pi", "2", "0.01,3.052623743040339,3.0476190476190474\n"
         "0.001,3.048137671959772,3.0476190476190474\n"
         "0.0001,3.047671071998437,3.0476190476190474\n"),
        ("1", "2", "1", "0.01,1.3417888937937716,1.3333333333333333\n"
         "0.001,1.3341778917539404,1.3333333333333333\n"
         "0.0001,1.3334177789214863,1.3333333333333333\n"),
    ],
)
def test_slope_output_unchanged(capsys, N, M, l, text):
    """A one-step trace predicts along the closed slope, as before the
    polynomial predictor, so the quotients keep every bit."""
    assert cli.main(["slope", "--N", N, "--M", M, "--l", l, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "epsilon,quotient,formula\n" + text
