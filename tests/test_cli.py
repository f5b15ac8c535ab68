"""End-to-end command-line tests via subprocess."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys

import pytest

from steklov import cli
from steklov.branch import DEFAULT_ROOT_TOL, IntervalKernel
from steklov.cli import parse_mass
from steklov.model import ProblemConfig

_BASE = [sys.executable, "-m", "steklov.cli"]


def run_cli(*args: str):
    return subprocess.run([*_BASE, *args], capture_output=True, text=True, timeout=300)


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(text.splitlines()))


def stderr_payload(proc) -> dict:
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert set(payload) == {"code", "message", "context"}
    return payload


def test_spectrum_disc_table():
    proc = run_cli("spectrum", "--N", "2", "--M", "pi", "--l-max", "4")
    assert proc.returncode == 0, proc.stderr
    rows = parse_csv(proc.stdout)
    assert [row["l"] for row in rows] == ["0", "1", "2", "3", "4"]
    assert [float(row["lambda"]) for row in rows] == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert [int(row["multiplicity"]) for row in rows] == [1, 2, 2, 2, 2]
    slopes = [float(row["slope"]) for row in rows]
    assert slopes[0] == 0.0
    assert slopes[1] == pytest.approx(7.0 / 3.0, rel=1e-14)
    assert slopes[2] == pytest.approx(8.0, rel=1e-14)


def test_spectrum_single_mode_json():
    proc = run_cli("spectrum", "--N", "3", "--M", "4pi", "--l", "2", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    (entry,) = json.loads(proc.stdout)
    assert entry["l"] == 2
    assert entry["lambda"] == pytest.approx(2.0, rel=1e-14)
    assert entry["multiplicity"] == 5
    assert entry["slope"] == pytest.approx(64.0 / 21.0, rel=1e-14)


@pytest.mark.parametrize(
    "m_text, N, expected_lambda1",
    [
        ("pi", 2, 2.0),                 # N omega / M = 2 pi / pi
        ("2*pi", 2, 1.0),
        ("4pi", 3, 1.0),
        ("4*pi/3", 3, 3.0),
        ("6.283185307179586", 2, 1.0),  # plain float 2 pi
    ],
)
def test_mass_literal_parsing(m_text, N, expected_lambda1):
    proc = run_cli("spectrum", "--N", str(N), "--M", m_text, "--l", "1")
    assert proc.returncode == 0, proc.stderr
    (row,) = parse_csv(proc.stdout)
    assert float(row["lambda"]) == pytest.approx(expected_lambda1, rel=1e-14)


def test_missing_flag_is_usage_error():
    proc = run_cli("spectrum", "--M", "pi", "--l", "1")
    assert proc.returncode == 2
    assert stderr_payload(proc)["code"] == 2


@pytest.mark.parametrize(
    "which",
    [["--l", "1", "--l-max", "4"], []],
    ids=["both", "neither"],
)
def test_spectrum_takes_exactly_one_of_l_and_l_max(which):
    args = ["spectrum", "--N", "2", "--M", "pi", *which]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    payload = stderr_payload(proc)
    assert payload["code"] == 2
    assert "--l-max" in payload["message"]
    assert payload["context"] == {"command": "spectrum", "argv": args}


def test_bad_mass_literal_is_usage_error():
    proc = run_cli("spectrum", "--N", "2", "--M", "quux", "--l", "1")
    assert proc.returncode == 2
    payload = stderr_payload(proc)
    assert payload["code"] == 2
    assert "quux" in payload["message"] or "quux" in str(payload["context"])


def test_mass_divided_by_zero_is_usage_error():
    proc = run_cli("spectrum", "--N", "2", "--M", "pi/0", "--l", "1")
    assert proc.returncode == 2
    payload = stderr_payload(proc)
    assert payload["code"] == 2
    assert "mass 'pi/0' divides by zero" in payload["message"]
    with pytest.raises(argparse.ArgumentTypeError, match="divides by zero"):
        parse_mass("4*pi/0")


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--N", "2", "--M", "inf", "--l-max", "2"),
        ("spectrum", "--N", "2", "--M", "1e309", "--l-max", "2"),
        ("branch", "--N", "2", "--M", "inf", "--l", "1", "--eps-max", "0.5"),
    ],
)
def test_infinite_mass_is_usage_error(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    payload = stderr_payload(proc)
    assert payload["code"] == 2
    assert "mass must be finite" in payload["message"]
    assert proc.stdout == ""


def test_domain_violation_is_usage_error():
    proc = run_cli("branch", "--N", "2", "--M", "pi", "--l", "1", "--eps-max", "1.5")
    assert proc.returncode == 2


def test_unreachable_tolerance_is_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("steklov.branch.DEFAULT_ROOT_TOL", 1e-30)
    out = tmp_path / "branch.csv"
    argv = [
        "branch",
        "--N", "2", "--M", "pi", "--l", "1",
        "--eps-max", "0.05", "--steps", "2",
        "--out", str(out),
    ]
    assert cli.main(argv) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == 3
    assert "above tolerance 1.0e-30" in payload["message"]
    context = payload["context"]
    lo, hi = context.pop("bracket")
    assert 0.0 < lo <= context.pop("lambda") <= hi
    assert context == {
        "command": "branch", "argv": argv, "N": 2, "M": math.pi, "l": 1, "eps": 0.025
    }
    assert not out.exists()
    assert not out.with_suffix(".json").exists()


def test_branch_refuses_its_grid_before_tracing(monkeypatch, capsys):
    def no_tracing(*args, **kwargs):
        raise AssertionError("traced a refused grid")

    monkeypatch.setattr("steklov.branch.continue_branch", no_tracing)
    for flags, message in (
        (["--eps-max", "1.0", "--steps", "10"], "eps_max must lie in (0, 1), got 1.0"),
        (["--eps-max", "0.5", "--steps", "0"], "steps must be >= 1, got 0"),
    ):
        assert cli.main(["branch", "--N", "2", "--M", "pi", "--l", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["code"] == 2
        assert payload["message"] == message


@pytest.mark.parametrize(
    "command, eps",
    [("slope", "0.01"), ("oracle-compare", "0.1"), ("eigenfunction", "0.2")],
)
def test_lost_anchored_branch_is_numerical_failure(
    tmp_path, monkeypatch, capsys, command, eps
):
    monkeypatch.setattr("steklov.branch.trace_family", lambda *a, **k: ([], True))
    out = tmp_path / "out.txt"
    argv = [command, "--N", "2", "--M", "pi", "--l", "1", "--eps", eps, "--out", str(out)]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    payload = json.loads(captured.err)
    assert payload["code"] == 3
    assert payload["message"] == f"branch lost before eps={eps}"
    assert payload["context"] == {
        "command": command, "argv": argv, "N": 2, "M": math.pi, "l": 1, "eps": float(eps)
    }
    assert not out.exists()


def test_unsettled_remainder_series_names_its_point(monkeypatch, capsys):
    monkeypatch.setattr("steklov.branch._MAX_SERIES_TERMS", 5)
    argv = ["verify-remainder", "--N", "2", "--M", "pi", "--l", "1"]
    assert cli.main(argv) == 3
    payload = json.loads(capsys.readouterr().err)
    assert "did not settle in 5 terms" in payload["message"]
    assert payload["context"] == {
        "command": "verify-remainder", "argv": argv,
        "N": 2, "M": math.pi, "l": 1, "eps": 1e-05, "lambda": 2.0,
    }


@pytest.mark.parametrize(
    "args",
    [
        # --format is taken only by spectrum and slope
        ["branch", "--N", "2", "--M", "pi", "--l", "1", "--eps-max", "0.05",
         "--steps", "2", "--format", "json"],
        # verify-crossprod finds no roots and has a fixed JSON report
        ["verify-crossprod", "--format", "csv", "--root-tol", "5"],
        # the root tolerance is a constant, not a flag
        ["branch", "--N", "2", "--M", "pi", "--l", "1", "--eps-max", "0.05",
         "--steps", "2", "--root-tol", "1e-11"],
    ],
    ids=["branch-format", "crossprod-format-root-tol", "branch-root-tol"],
)
def test_flags_only_where_read(args):
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    payload = stderr_payload(proc)
    assert payload["code"] == 2
    assert payload["context"]["argv"] == args


def test_branch_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "branch.csv"
    proc = run_cli(
        "branch",
        "--N", "2", "--M", "pi", "--l", "1",
        "--eps-max", "0.1", "--steps", "5",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    rows = parse_csv(out.read_text(encoding="ascii"))
    assert len(rows) == 5
    assert [float(r["epsilon"]) for r in rows] == pytest.approx(
        [0.02, 0.04, 0.06, 0.08, 0.1], rel=1e-12
    )
    for r in rows:
        assert float(r["residual"]) <= 1e-11
    sidecar = json.loads(out.with_suffix(".json").read_text(encoding="ascii"))
    assert sidecar["N"] == 2
    assert sidecar["M"] == math.pi
    assert sidecar["l"] == 1
    assert sidecar["anchor_lambda"] == pytest.approx(2.0, rel=1e-14)
    assert sidecar["slope_at_zero"] == pytest.approx(7.0 / 3.0, rel=1e-14)
    assert sidecar["truncated"] is False


def test_branch_is_deterministic(tmp_path):
    args = ["branch", "--N", "3", "--M", "4pi", "--l", "2", "--eps-max", "0.2", "--steps", "6"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(first)).returncode == 0
    assert run_cli(*args, "--out", str(second)).returncode == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.with_suffix(".json").read_bytes() == second.with_suffix(".json").read_bytes()


def test_slope_table_headers_and_values():
    proc = run_cli("slope", "--N", "3", "--M", "4pi", "--l", "1")
    assert proc.returncode == 0, proc.stderr
    rows = parse_csv(proc.stdout)
    assert list(rows[0]) == ["epsilon", "quotient", "formula"]
    assert len(rows) == 3
    for row in rows:
        eps = float(row["epsilon"])
        quotient = float(row["quotient"])
        formula = float(row["formula"])
        assert formula == pytest.approx(0.8, rel=1e-14)
        assert abs(quotient - formula) <= 5.0 * formula * eps


@pytest.mark.parametrize("l", ["0", "1"])
def test_slope_rejects_eps_outside_the_quotient_range(l):
    proc = run_cli("slope", "--N", "2", "--M", "pi", "--l", l, "--eps", "0.5")
    assert proc.returncode == 2
    payload = stderr_payload(proc)
    assert payload["code"] == 2
    assert "eps in (0, 0.05]" in payload["message"]
    assert proc.stdout == ""


def test_figure_outputs_and_determinism(tmp_path):
    common = [
        "figure",
        "--N", "2", "--M", "pi",
        "--l", "1..2",
        "--eps", "0.1..0.3",
        "--steps", "4",
        "--lambda-max", "20",
    ]
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    proc_a = run_cli(*common, "--out", str(dir_a))
    proc_b = run_cli(*common, "--out", str(dir_b))
    assert proc_a.returncode == 0, proc_a.stderr
    assert proc_b.returncode == 0, proc_b.stderr

    manifest = json.loads((dir_a / "manifest.json").read_text(encoding="ascii"))
    assert manifest["N"] == 2
    assert manifest["eps_min"] == 0.1
    assert manifest["eps_max"] == 0.3
    assert manifest["families"], "figure produced no families"
    for family in manifest["families"]:
        assert family["kind"] in ("anchored", "scan")
        data = (dir_a / family["file"]).read_text(encoding="ascii")
        assert data.startswith("epsilon,lambda,residual")
        assert len(parse_csv(data)) == family["points"]

    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    # a taller window holds a family seeded by the root scan; its kind is
    # plain "scan" and the scan index lives only in the file name
    dir_c = tmp_path / "c"
    taller = [*common[:-1], "60"]
    proc_c = run_cli(*taller, "--out", str(dir_c))
    assert proc_c.returncode == 0, proc_c.stderr
    manifest = json.loads((dir_c / "manifest.json").read_text(encoding="ascii"))
    for family in manifest["families"]:
        assert family["kind"] in ("anchored", "scan")
        assert (dir_c / family["file"]).is_file()
    scans = [f for f in manifest["families"] if f["kind"] == "scan"]
    assert scans, "the lambda <= 60 window should hold a scan family"
    assert all(re.fullmatch(r"family_l\d+_scan\d+\.csv", f["file"]) for f in scans)


def test_figure_rejects_workers_flag(tmp_path):
    proc = run_cli(
        "figure", "--N", "2", "--M", "pi", "--l", "1..2", "--eps", "0.1..0.3",
        "--workers", "2", "--out", str(tmp_path / "fig"),
    )
    assert proc.returncode == 2
    payload = stderr_payload(proc)
    assert payload["code"] == 2
    assert "--workers" in payload["message"]
    assert not (tmp_path / "fig").exists()


@pytest.mark.parametrize("steps", ["1", "0", "-3"])
def test_figure_rejects_fewer_than_two_steps(tmp_path, steps):
    proc = run_cli(
        "figure", "--N", "2", "--M", "pi", "--l", "1", "--eps", "0.1..0.5",
        "--steps", steps, "--out", str(tmp_path / "fig"),
    )
    assert proc.returncode == 2
    payload = stderr_payload(proc)
    assert payload["code"] == 2
    assert "--steps must be >= 2" in payload["message"]
    assert not (tmp_path / "fig").exists()


@pytest.mark.parametrize("lam_max", ["0.0005", "0.001"])
def test_figure_rejects_lambda_max_at_the_scan_floor(tmp_path, lam_max):
    proc = run_cli(
        "figure", "--N", "2", "--M", "pi", "--l", "1", "--eps", "0.1..0.5",
        "--steps", "3", "--lambda-max", lam_max, "--out", str(tmp_path / "fig"),
    )
    assert proc.returncode == 2
    assert len(proc.stderr) < 2048
    payload = stderr_payload(proc)
    assert payload["code"] == 2
    assert "--lambda-max must exceed the root-scan floor 0.001" in payload["message"]
    assert not (tmp_path / "fig").exists()


def test_figure_seeds_no_family_where_the_kernel_underflows(tmp_path):
    # at l = 100 every term of F underflows below lambda near 100; a scan that
    # took the F = 0 there for a root wrote family_l100_scan1.csv at lambda 0.001
    out = tmp_path / "fig"
    argv = [
        "figure", "--N", "2", "--M", "pi", "--l", "100", "--eps", "0.005..0.0125",
        "--steps", "3", "--lambda-max", "1500", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["family_l100_anchored.csv", "manifest.json"]


@pytest.mark.parametrize("lam_max", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["branch", "figure"])
def test_lambda_max_must_be_finite_and_positive(
    tmp_path, monkeypatch, capsys, command, lam_max
):
    def no_tracing(*args, **kwargs):
        raise AssertionError("traced before --lambda-max was checked")

    monkeypatch.setattr("steklov.branch.continue_branch", no_tracing)
    monkeypatch.setattr("steklov.branch.trace_family", no_tracing)
    argv = {
        "branch": ["branch", "--N", "2", "--M", "pi", "--l", "1", "--eps-max", "0.3",
                   "--steps", "5", "--out", str(tmp_path / "branch.csv")],
        "figure": ["figure", "--N", "2", "--M", "pi", "--l", "1", "--eps", "0.1..0.5",
                   "--steps", "3", "--out", str(tmp_path / "fig")],
    }[command] + ["--lambda-max", lam_max]
    assert cli.main(argv) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == 2
    assert payload["message"] == (
        f"argument --lambda-max: must be finite and positive, got {lam_max!r}"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-remainder", "--N", "2", "--M", "0.01", "--l", "1"],
        ["slope", "--N", "2", "--M", "0.01", "--l", "1"],
        ["oracle-compare", "--N", "2", "--M", "0.01", "--l", "1"],
        ["branch", "--N", "2", "--M", "0.01", "--l", "1", "--eps-max", "0.5",
         "--steps", "5"],
        ["eigenfunction", "--N", "2", "--M", "0.01", "--l", "1", "--eps", "0.2"],
        ["figure", "--N", "2", "--M", "0.05", "--l", "1", "--eps", "0.1..0.5",
         "--steps", "3", "--lambda-max", "1000"],
        ["slope", "--N", "1", "--M", "0.01", "--l", "1"],
        ["branch", "--N", "1", "--M", "0.01", "--l", "1", "--eps-max", "0.5",
         "--steps", "5"],
        ["oracle-compare", "--N", "1", "--M", "0.01", "--l", "1"],
    ],
    ids=lambda argv: argv[0] if argv[2] == "2" else f"{argv[0]}-N1",
)
def test_non_positive_annulus_density_is_usage_error(tmp_path, capsys, argv):
    # the annulus density is positive only while M > eps omega (1-eps)^N
    argv = argv + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["code"] == 2
    assert re.match(
        r"mass M=0\.0[15] must exceed eps\*omega\*\(1-eps\)\^N = \S+ at eps=\S+, N=[12]: "
        r"the annulus density would not be positive$",
        payload["message"],
    ), payload["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["figure", "--l", "1", "--eps", "0.5..0.1"],
         "argument --eps: range must increase, got '0.5..0.1'"),
        (["figure", "--l", "1", "--eps", "0.1"],
         "argument --eps: expected 'lo..hi', got '0.1'"),
        (["figure", "--l", "1", "--eps", "0.1..x"],
         "argument --eps: expected 'lo..hi', got '0.1..x'"),
        (["figure", "--l", "3..1", "--eps", "0.1..0.5"],
         "argument --l: range must not decrease, got '3..1'"),
        (["figure", "--l", "x", "--eps", "0.1..0.5"],
         "argument --l: expected 'lo..hi' or int, got 'x'"),
        (["figure", "--l", "1..2..3", "--eps", "0.1..0.5"],
         "argument --l: expected 'lo..hi', got '1..2..3'"),
        (["slope", "--l", "1", "--eps", "0.01,abc"],
         "argument --eps: expected comma-separated floats, got 'abc' in '0.01,abc'"),
        (["oracle-compare", "--l", "1", "--eps", "0.1,,1e"],
         "argument --eps: expected comma-separated floats, got '1e' in '0.1,,1e'"),
        # a list with no value is refused, not replaced by the default list
        (["slope", "--l", "1", "--eps", ","],
         "argument --eps: expected comma-separated floats, got ','"),
        (["oracle-compare", "--l", "1", "--eps", ","],
         "argument --eps: expected comma-separated floats, got ','"),
    ],
)
def test_range_and_list_parsers_keep_their_messages(tmp_path, capsys, argv, message):
    cfg = ["--N", "2", "--M", "pi", "--out", str(tmp_path / "out")]
    argv = argv[:1] + cfg + argv[1:]
    assert cli.main(argv) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == 2
    assert payload["message"] == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("eps", ["inf", "nan", "0", "1", "-1"])
@pytest.mark.parametrize("command", ["eigenfunction", "oracle-compare"])
def test_eps_outside_the_unit_interval_is_usage_error(capsys, command, eps):
    argv = [command, "--N", "2", "--M", "pi", "--l", "1", "--eps", eps]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["code"] == 2
    assert "(0, 1)" in payload["message"], payload["message"]


@pytest.mark.parametrize("N", ["299", "300", "340", "301", "341", "342"])
def test_spectrum_dimension_bound(capsys, N):
    # odd N <= 299 and even N <= 340 keep the unit-ball volume's division finite
    limit = 340 if int(N) % 2 == 0 else 299
    code = cli.main(["spectrum", "--N", N, "--M", "1", "--l", "1"])
    captured = capsys.readouterr()
    if int(N) <= limit:
        assert code == 0, captured.err
        return
    assert code == 2
    assert captured.out == ""
    message = json.loads(captured.err)["message"]
    assert message.startswith(f"dimension N={N} is too large")
    assert message.endswith(f"N <= {limit}")


def test_interval_spectrum_and_remainder(capsys):
    assert cli.main(["spectrum", "--N", "1", "--M", "2", "--l-max", "1"]) == 0
    assert capsys.readouterr().out == (
        "l,lambda,multiplicity,slope\n0,0.0,1,0.0\n1,1.0,1,1.3333333333333333\n"
    )
    assert cli.main(["spectrum", "--N", "1", "--M", "2", "--l-max", "2"]) == 2
    assert "only the even (l = 0) and odd (l = 1)" in capsys.readouterr().err
    assert cli.main(["verify-remainder", "--N", "1", "--M", "2", "--l", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert 1.9 <= payload["fitted_slope"] <= 2.1


def test_interval_figure_splits_families_by_parity(tmp_path):
    out = tmp_path / "fig"
    argv = ["figure", "--N", "1", "--M", "2", "--l", "0..1", "--eps", "0.05..0.9",
            "--steps", "40", "--lambda-max", "30", "--out", str(out)]
    assert cli.main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="ascii"))
    assert [(f["file"], f["kind"]) for f in manifest["families"]] == [
        ("family_l0_scan1.csv", "scan"),
        ("family_l1_anchored.csv", "anchored"),
        ("family_l1_scan1.csv", "scan"),
    ]
    for fam in manifest["families"]:
        rows = parse_csv((out / fam["file"]).read_text(encoding="ascii"))
        assert len(rows) == fam["points"]
        for row in rows:
            eps, lam = float(row["epsilon"]), float(row["lambda"])
            own, other = (
                IntervalKernel(ProblemConfig(N=1, M=2.0, l=l), eps)(lam)
                for l in (fam["l"], 1 - fam["l"])
            )
            # a root of its own parity's factor, far from one of the other's
            assert float(row["residual"]) == abs(own[0]) / own[2] <= DEFAULT_ROOT_TOL
            assert abs(other[0]) / other[2] > 1e-6


def test_figure_refuses_an_interval_l_before_making_out(tmp_path, monkeypatch, capsys):
    def no_tracing(*args, **kwargs):
        raise AssertionError("traced before every l was checked")

    monkeypatch.setattr("steklov.branch.trace_family", no_tracing)
    monkeypatch.setattr("steklov.branch.scan_roots", no_tracing)
    out = tmp_path / "fig"
    argv = ["figure", "--N", "1", "--M", "2", "--l", "0..3", "--eps", "0.1..0.5",
            "--out", str(out)]
    assert cli.main(argv) == 2
    assert "got l = 2" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


def test_figure_requires_output_directory():
    proc = run_cli(
        "figure", "--N", "2", "--M", "pi", "--l", "1..2", "--eps", "0.1..0.3"
    )
    assert proc.returncode == 2


def test_eigenfunction_profile_csv():
    proc = run_cli(
        "eigenfunction",
        "--N", "2", "--M", "pi", "--l", "1", "--eps", "0.2", "--samples", "50",
    )
    assert proc.returncode == 0, proc.stderr
    rows = parse_csv(proc.stdout)
    assert list(rows[0]) == ["r", "S", "dS"]
    assert len(rows) == 50
    assert float(rows[-1]["r"]) == 1.0
    s_max = max(abs(float(r["S"])) for r in rows)
    assert abs(float(rows[-1]["dS"])) <= 1e-8 * s_max


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_eigenfunction_rejects_fewer_than_one_sample(samples):
    proc = run_cli(
        "eigenfunction",
        "--N", "2", "--M", "pi", "--l", "1", "--eps", "0.2", "--samples", samples,
    )
    assert proc.returncode == 2
    payload = stderr_payload(proc)
    assert payload["code"] == 2
    assert "--samples must be >= 1" in payload["message"]
    assert proc.stdout == ""


def test_verify_crossprod_gates():
    proc = run_cli("verify-crossprod")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["recursive_matches_closed_exactly"] is True
    assert payload["closed_vs_direct_max_rel"] <= 1e-10
    assert payload["recursive_vs_direct_max_rel"] <= 1e-9
    assert payload["pass"] is True


def test_verify_remainder_gate():
    proc = run_cli("verify-remainder", "--N", "2", "--M", "pi", "--l", "1", "--points", "5")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["fitted_slope"] >= payload["gate"] == 1.4
    assert payload["pass"] is True
    assert len(payload["points"]) == 5


@pytest.mark.parametrize("points", ["0", "1"])
def test_verify_remainder_rejects_fewer_than_two_points(points):
    proc = run_cli(
        "verify-remainder", "--N", "2", "--M", "pi", "--l", "1", "--points", points
    )
    assert proc.returncode == 2
    payload = stderr_payload(proc)
    assert payload["code"] == 2
    assert "--points must be >= 2" in payload["message"]
    assert proc.stdout == ""


def test_oracle_compare_single_eps():
    proc = run_cli("oracle-compare", "--N", "2", "--M", "pi", "--l", "1", "--eps", "0.1")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["pass"] is True
    assert payload["max_rel_diff"] <= payload["tolerance"] == 1e-8
    (row,) = payload["rows"]
    assert row["epsilon"] == 0.1


@pytest.mark.parametrize(
    "N, M, l", [("2", "1000", "1"), ("3", "5000", "2")], ids=["disc", "ball"]
)
def test_oracle_compare_small_eigenvalues(capsys, N, M, l):
    # lambda below 0.04: the shooting bracket must stay above lambda/2 > 0
    assert cli.main(["oracle-compare", "--N", N, "--M", M, "--l", l]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(row["lambda_characteristic"] < 0.02 for row in payload["rows"])
    assert payload["pass"] is True
    assert payload["max_rel_diff"] <= 1e-10


@pytest.mark.parametrize("N", ["1", "2", "3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-compare", "--M", "pi", "--l", "0"],
        ["verify-remainder", "--M", "4pi", "--l", "0"],
        ["eigenfunction", "--M", "pi", "--l", "0", "--eps", "0.2"],
    ],
    ids=lambda argv: argv[0],
)
def test_principal_branch_is_refused_up_front(tmp_path, capsys, argv, N):
    out = tmp_path / "out"
    assert cli.main(argv[:1] + ["--N", N] + argv[1:] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["message"] == (
        f"{argv[0]} needs l >= 1: the l = 0 branch is the principal eigenvalue "
        "lambda = 0 at every eps"
    )
    assert not out.exists()


@pytest.mark.parametrize("N", ["1", "2", "3"])
def test_principal_branch_slope_and_branch_print_zeros(capsys, N):
    cfg = ["--N", N, "--M", "pi", "--l", "0"]
    assert cli.main(["slope", *cfg, "--eps", "0.01,0.001"]) == 0
    assert capsys.readouterr().out == (
        "epsilon,quotient,formula\n0.01,0.0,0.0\n0.001,0.0,0.0\n"
    )
    assert cli.main(["branch", *cfg, "--eps-max", "0.5", "--steps", "2"]) == 0
    assert capsys.readouterr().out == (
        "epsilon,lambda,residual\n0.25,0.0,0.0\n0.5,0.0,0.0\n"
    )


def test_spectrum_out_file_round_trip(tmp_path):
    out = tmp_path / "spectrum.csv"
    proc = run_cli("spectrum", "--N", "2", "--M", "pi", "--l-max", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = parse_csv(out.read_text(encoding="ascii"))
    assert [float(r["lambda"]) for r in rows] == [0.0, 2.0, 4.0, 6.0]


# ---------------------------------------------------------------------------
# output files

_FIGURE = ["figure", "--N", "2", "--M", "pi", "--eps", "0.1..0.3", "--steps", "4",
           "--lambda-max", "20"]
_BRANCH = ["branch", "--N", "2", "--M", "pi", "--l", "1", "--eps-max", "0.1",
           "--steps", "3"]
_SPECTRUM = ["spectrum", "--N", "2", "--M", "pi", "--l-max", "3"]


def test_figure_out_on_a_file_exits_2_before_tracing(tmp_path, monkeypatch, capsys):
    def no_tracing(*args, **kwargs):
        raise AssertionError("traced before --out was made a directory")

    monkeypatch.setattr("steklov.branch.trace_family", no_tracing)
    out = tmp_path / "fig"
    out.write_text("not a directory\n", encoding="ascii")
    assert cli.main([*_FIGURE, "--l", "1", "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == 2
    assert payload["message"].startswith("cannot write output: ")
    assert str(out) in payload["message"]
    assert out.read_text(encoding="ascii") == "not a directory\n"


@pytest.mark.parametrize("command", ["branch", "spectrum"])
def test_unwritable_out_file_exits_2(tmp_path, capsys, command):
    # a file in a missing directory, and a directory where a file should go
    argv, out = {
        "branch": (_BRANCH, tmp_path / "missing" / "b.csv"),
        "spectrum": (_SPECTRUM, tmp_path),
    }[command]
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["code"] == 2
    assert payload["message"].startswith("cannot write output: ")
    assert str(out) in payload["message"]
    assert list(tmp_path.iterdir()) == []


def test_branch_out_that_is_its_own_sidecar_exits_2_before_tracing(
    tmp_path, monkeypatch, capsys
):
    def no_tracing(*args, **kwargs):
        raise AssertionError("traced an --out that its sidecar would overwrite")

    monkeypatch.setattr("steklov.branch.continue_branch", no_tracing)
    out = tmp_path / "b.json"
    assert cli.main([*_BRANCH, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == 2
    assert "sidecar" in payload["message"]
    assert list(tmp_path.iterdir()) == []


def test_branch_unwritable_sidecar_leaves_no_csv(tmp_path, capsys):
    (tmp_path / "b.json").mkdir()
    out = tmp_path / "b.csv"
    assert cli.main([*_BRANCH, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == 2
    assert payload["message"].startswith("cannot write output: ")
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["b.json"]


def test_figure_rerun_prunes_only_its_stale_families(tmp_path):
    out = tmp_path / "fig"
    assert cli.main([*_FIGURE, "--l", "0..3", "--out", str(out)]) == 0
    first = {p.name for p in out.iterdir()}
    (out / "notes.txt").write_text("kept\n", encoding="ascii")
    # named like a family file, but not a regular file
    (out / "family_l9_scan1.csv").symlink_to(out / "notes.txt")
    assert cli.main([*_FIGURE, "--l", "1..1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="ascii"))
    listed = {f["file"] for f in manifest["families"]}
    assert first - listed - {"manifest.json"}, "the first run left nothing to prune"
    assert {p.name for p in out.iterdir()} == listed | {
        "manifest.json", "notes.txt", "family_l9_scan1.csv"
    }
    assert (out / "notes.txt").read_text(encoding="ascii") == "kept\n"


def test_outputs_are_new_files_not_truncated(tmp_path):
    # a hard link to an output keeps the first run's bytes only if the
    # second run wrote a new file instead of truncating the old one
    fig = tmp_path / "fig"
    branch_csv = tmp_path / "branch.csv"
    spectrum_csv = tmp_path / "spectrum.csv"
    runs = [
        [*_FIGURE, "--l", "1..2", "--out", str(fig)],
        [*_BRANCH, "--out", str(branch_csv)],
        [*_SPECTRUM, "--out", str(spectrum_csv)],
    ]
    for argv in runs:
        assert cli.main(argv) == 0
    outputs = [*sorted(fig.iterdir()), branch_csv, branch_csv.with_suffix(".json"),
               spectrum_csv]
    links = tmp_path / "links"
    links.mkdir()
    first = {}
    for i, path in enumerate(outputs):
        link = links / f"{i}_{path.name}"
        os.link(path, link)
        first[path] = (link, path.read_bytes())
    for argv in runs:
        assert cli.main(argv) == 0
    assert sorted(fig.iterdir()) == outputs[:-3]
    for path, (link, data) in first.items():
        assert link.read_bytes() == data, path
        assert path.stat().st_nlink == 1, path
        assert path.read_bytes() == data, path


@pytest.mark.parametrize(
    "argv, header",
    [(_SPECTRUM, "l,lambda,multiplicity,slope\n"), (_BRANCH, "epsilon,lambda,residual\n")],
    ids=["spectrum", "branch"],
)
def test_symlinked_out_is_written_through(tmp_path, argv, header):
    target = tmp_path / "target.csv"
    target.write_text("old\n", encoding="ascii")
    link = tmp_path / "out.csv"
    link.symlink_to(target)
    assert cli.main([*argv, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    assert target.read_text(encoding="ascii").startswith(header)
