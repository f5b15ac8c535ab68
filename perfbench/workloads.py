"""Workload definitions and output checks for the steklov benchmark.

A workload is a list of CLI invocations of ``steklov.cli.main``, generated
from a seed. Seed 0 is the canonical input of the acceptance criteria: the
commands are exactly the documented ones and their outputs are compared
with ``reference.json``. Other seeds scale the mass M by a factor in
[0.95, 1.05] (and the figure's lambda window by its inverse, so the number
of families stays about the same) and jitter the eps lists by up to 10%;
their outputs get the invariant checks only.

Every check reads what the command printed or wrote, never the program's
internal state. The characteristic residual of each reported root is
recomputed here with an independent, vectorised evaluation of F, so a root
that the program labels converged but is not is caught on every seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass

import numpy as np
from scipy import special

WORKLOADS = ("figure-disc", "oracle-sweep", "asymptotics")

# the program's acceptance tolerance for |F| / scale at a root
ROOT_TOL = 1e-11
# a root recomputed here may round differently from the program's own
# evaluation; a wrong root is off by many orders more than this
RECOMPUTED_TOL = 1e-10
# seed 0 comparisons: roots may move by a few ulps (ROADMAP item 2)
REL_LAMBDA = 1e-12
# shooting converges to an absolute 1e-12; its gate against F is 1e-8
REL_SHOOTING = 1e-9
# (lambda(eps) - lambda_l) / eps amplifies a root's ulp by 1/eps <= 1e4
REL_QUOTIENT = 1e-9
# extended-precision remainders and their log-log fit
REL_REMAINDER = 1e-6

ORACLE_CASES = ((2, "pi", 1), (2, "pi", 2), (2, "pi", 3),
                (3, "4pi", 1), (3, "4pi", 2), (3, "4pi", 3))
ORACLE_EPS = (0.01, 0.05, 0.1, 0.3)
SLOPE_EPS = (1e-2, 1e-3, 1e-4)
MASSES = {"pi": math.pi, "4pi": 4.0 * math.pi, "2": 2.0}


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``key`` names it in ``reference.json``."""

    key: str
    kind: str
    argv: tuple[str, ...]
    out_dir: str | None = None


@dataclass
class Checked:
    """What one command produced, as far as the checks could verify it."""

    rows: int = 0
    error: str | None = None
    summary: dict | None = None


def _mass(label: str, factor: float, seed: int) -> str:
    """Seed 0 keeps the literal the CLI documents; others pass a float."""
    return label if seed == 0 else repr(MASSES[label] * factor)


def _jitter(rng: random.Random, values: tuple[float, ...]) -> str:
    return ",".join(repr(v * rng.uniform(0.9, 1.1)) for v in values)


def commands(workload: str, seed: int, out_root: str) -> list[Command]:
    """The invocations of one pass; the same seed gives the same list."""
    rng = random.Random(seed)
    factor = 1.0 if seed == 0 else rng.uniform(0.95, 1.05)
    if workload == "figure-disc":
        lam_max = "50" if seed == 0 else repr(50.0 / factor)
        argv = ("figure", "--N", "2", "--M", _mass("pi", factor, seed),
                "--l", "0..6", "--eps", "0.005..0.995",
                "--lambda-max", lam_max, "--out", out_root)
        return [Command("figure", "figure", argv, out_root)]
    if workload == "oracle-sweep":
        out = []
        for N, M, l in ORACLE_CASES:
            argv = ["oracle-compare", "--N", str(N), "--M", _mass(M, factor, seed),
                    "--l", str(l)]
            if seed:
                argv += ["--eps", _jitter(rng, ORACLE_EPS)]
            out.append(Command(f"oracle N={N} M={M} l={l}", "oracle", tuple(argv)))
        return out
    if workload == "asymptotics":
        out = []
        for N, M, l in ORACLE_CASES:
            mass = _mass(M, factor, seed)
            out.append(Command(f"remainder N={N} M={M} l={l}", "remainder",
                               ("verify-remainder", "--N", str(N), "--M", mass,
                                "--l", str(l))))
            argv = ["slope", "--N", str(N), "--M", mass, "--l", str(l)]
            if seed:
                argv += ["--eps", _jitter(rng, SLOPE_EPS)]
            out.append(Command(f"slope N={N} M={M} l={l}", "slope", tuple(argv)))
        argv = ["slope", "--N", "1", "--M", _mass("2", factor, seed), "--l", "1"]
        if seed:
            argv += ["--eps", _jitter(rng, SLOPE_EPS)]
        out.append(Command("slope N=1 M=2 l=1", "slope", tuple(argv)))
        out.append(Command("crossprod", "crossprod", ("verify-crossprod",)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# independent evaluation of the characteristic residual


def _ball_volume(N: int) -> float:
    return math.pi ** (N / 2) / math.gamma(N / 2 + 1)


def recomputed_residuals(N: int, M: float, l: int,
                         eps: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """|F| / scale at (eps, lambda), F as documented in ``steklov.branch``."""
    nu = (N + 2 * l - 2) / 2
    w = _ball_volume(N)
    core = (1.0 - eps) ** N
    rho_ann = (M - eps * w * core) / (w * (1.0 - core))
    a = np.sqrt(lam * eps) * (1.0 - eps)
    b = np.sqrt(lam * rho_ann) * (1.0 - eps)
    c = b / (1.0 - eps)
    ja, jpa = special.jv(nu, a), special.jvp(nu, a)
    jb, jpb = special.jv(nu, b), special.jvp(nu, b)
    yb, ypb = special.yv(nu, b), special.yvp(nu, b)
    jc, jpc = special.jv(nu, c), special.jvp(nu, c)
    yc, ypc = special.yv(nu, c), special.yvp(nu, c)
    w1, w2, ratio = 1.0 - N / 2.0, c, (a / b) * jpa
    value = (w1 * (ja * (ypb * jc - jpb * yc) + ratio * (jb * yc - yb * jc))
             + w2 * (ja * (ypb * jpc - jpb * ypc) + ratio * (jb * ypc - yb * jpc)))
    mb, mpb = np.hypot(jb, yb), np.hypot(jpb, ypb)
    mc, mpc = np.hypot(jc, yc), np.hypot(jpc, ypc)
    scale = np.maximum.reduce([np.abs(w1 * ja) * mpb * mc,
                               np.abs(w1 * ratio) * mb * mc,
                               np.abs(w2 * ja) * mpb * mpc,
                               np.abs(w2 * ratio) * mb * mpc,
                               np.full_like(a, 1e-300)])
    return np.abs(value) / scale


# ---------------------------------------------------------------------------
# per-command checks


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def _eps_list(cmd: Command, default: tuple[float, ...]) -> list[float]:
    if "--eps" in cmd.argv:
        return [float(e) for e in _flag(cmd.argv, "--eps").split(",")]
    return list(default)


def _mass_value(text: str) -> float:
    m = re.fullmatch(r"([0-9.]*)pi", text)
    if m:
        return (float(m.group(1)) if m.group(1) else 1.0) * math.pi
    return float(text)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_figure(cmd: Command, stdout: str) -> Checked:
    N = int(_flag(cmd.argv, "--N"))
    M = _mass_value(_flag(cmd.argv, "--M"))
    lam_max = float(_flag(cmd.argv, "--lambda-max"))
    with open(os.path.join(cmd.out_dir, "manifest.json"), encoding="ascii") as fh:
        manifest = json.load(fh)
    lo, hi, steps = manifest["eps_min"], manifest["eps_max"], manifest["steps"]
    grid = {lo + (hi - lo) * i / (steps - 1) for i in range(steps)}
    families, rows = [], 0
    for fam in manifest["families"]:
        with open(os.path.join(cmd.out_dir, fam["file"]), encoding="ascii") as fh:
            table = list(csv.DictReader(fh))
        eps = np.array([float(r["epsilon"]) for r in table])
        lam = np.array([float(r["lambda"]) for r in table])
        res = np.array([float(r["residual"]) for r in table])
        where = f"family {fam['file']}"
        if len(table) != fam["points"] or not table:
            return Checked(error=f"{where}: {len(table)} rows, manifest says {fam['points']}")
        if not all(e in grid for e in eps) or np.any(np.diff(eps) <= 0):
            return Checked(error=f"{where}: eps values off the grid or not increasing")
        if np.any(res > ROOT_TOL) or not np.all(lam > 0):
            return Checked(error=f"{where}: residual above {ROOT_TOL} or lambda <= 0")
        if np.any(lam[1:-1] > lam_max):
            return Checked(error=f"{where}: interior point above lambda-max")
        worst = float(np.max(recomputed_residuals(N, M, fam["l"], eps, lam)))
        if not worst <= RECOMPUTED_TOL:
            return Checked(error=f"{where}: recomputed residual {worst:.2e}")
        if fam["kind"] == "anchored":
            anchor = N * _ball_volume(N) * fam["l"] / M
            slope = fam["slope_at_zero"]
            if not _close(fam["anchor_lambda"], anchor, REL_LAMBDA):
                return Checked(error=f"{where}: anchor {fam['anchor_lambda']} != {anchor}")
            if abs(lam[0] - anchor - slope * eps[0]) > 5.0 * slope * eps[0] ** 2 + 1e-9:
                return Checked(error=f"{where}: first point leaves the anchor tangent")
        rows += len(table)
        families.append({
            "l": fam["l"],
            # the scan families' numbering is a naming detail, not an identity
            "kind": fam["kind"].rstrip("0123456789"),
            "points": fam["points"],
            "truncated": fam["truncated"],
            "lambda": lam.tolist(),
        })
    if not families:
        return Checked(error="figure wrote no families")
    return Checked(rows=rows, summary={"families": families})


def _check_oracle(cmd: Command, stdout: str) -> Checked:
    payload = json.loads(stdout)
    N, l = int(_flag(cmd.argv, "--N")), int(_flag(cmd.argv, "--l"))
    M = _mass_value(_flag(cmd.argv, "--M"))
    wanted = _eps_list(cmd, ORACLE_EPS)
    rows = payload["rows"]
    if [r["epsilon"] for r in rows] != wanted:
        return Checked(error=f"rows at eps {[r['epsilon'] for r in rows]}, asked {wanted}")
    if not (payload["pass"] and payload["max_rel_diff"] <= 1e-8):
        return Checked(error=f"oracle max_rel_diff {payload['max_rel_diff']:.2e}")
    eps = np.array(wanted)
    lam = np.array([r["lambda_characteristic"] for r in rows])
    for r in rows:
        rel = abs(r["lambda_shooting"] - r["lambda_characteristic"]) / r["lambda_characteristic"]
        if not rel <= 1e-8:
            return Checked(error=f"eps={r['epsilon']}: shooting differs by {rel:.2e}")
    worst = float(np.max(recomputed_residuals(N, M, l, eps, lam)))
    if not worst <= RECOMPUTED_TOL:
        return Checked(error=f"recomputed residual {worst:.2e}")
    summary = {"rows": [[r["epsilon"], r["lambda_characteristic"], r["lambda_shooting"]]
                        for r in rows]}
    return Checked(rows=len(rows), summary=summary)


def _check_remainder(cmd: Command, stdout: str) -> Checked:
    payload = json.loads(stdout)
    rem = [p["remainder"] for p in payload["points"]]
    if len(rem) != 8 or not all(math.isfinite(r) and r > 0 for r in rem):
        return Checked(error=f"remainders {rem}")
    if not (payload["pass"] and payload["fitted_slope"] >= 1.4):
        return Checked(error=f"fitted slope {payload['fitted_slope']}")
    summary = {"lambda": payload["lambda"], "fitted_slope": payload["fitted_slope"],
               "remainder": rem}
    return Checked(rows=len(rem), summary=summary)


def _check_slope(cmd: Command, stdout: str) -> Checked:
    table = list(csv.DictReader(io.StringIO(stdout)))
    wanted = _eps_list(cmd, SLOPE_EPS)
    got = [(float(r["epsilon"]), float(r["quotient"]), float(r["formula"])) for r in table]
    if [e for e, _, _ in got] != wanted:
        return Checked(error=f"quotients at eps {[e for e, _, _ in got]}, asked {wanted}")
    for e, q, formula in got:
        # criterion 2: the quotient approaches the slope formula at rate eps
        if not abs(q - formula) <= 5.0 * formula * e:
            return Checked(error=f"eps={e}: quotient {q} vs formula {formula}")
    return Checked(rows=len(got), summary={"quotients": [[e, q] for e, q, _ in got]})


def _check_crossprod(cmd: Command, stdout: str) -> Checked:
    payload = json.loads(stdout)
    ok = (payload["pass"] and payload["recursive_matches_closed_exactly"]
          and payload["closed_vs_direct_max_rel"] <= 1e-10
          and payload["recursive_vs_direct_max_rel"] <= 1e-9)
    if not ok:
        return Checked(error=f"cross-product gates failed: {payload}")
    return Checked(rows=1, summary={"exact": True})


_CHECKS = {
    "figure": _check_figure,
    "oracle": _check_oracle,
    "remainder": _check_remainder,
    "slope": _check_slope,
    "crossprod": _check_crossprod,
}


def _compare(kind: str, got: dict, ref: dict) -> str | None:
    """Seed 0 only: the summary against the stored reference."""
    if kind == "figure":
        ident = [(f["l"], f["kind"], f["points"], f["truncated"]) for f in got["families"]]
        want = [(f["l"], f["kind"], f["points"], f["truncated"]) for f in ref["families"]]
        if ident != want:
            return f"family set {ident} differs from reference {want}"
        for f, r in zip(got["families"], ref["families"]):
            for a, b in zip(f["lambda"], r["lambda"]):
                if not _close(a, b, REL_LAMBDA):
                    return f"l={f['l']} {f['kind']}: lambda {a!r} vs reference {b!r}"
        return None
    if kind == "oracle":
        for (e, lc, ls), (re_, rc, rs) in zip(got["rows"], ref["rows"]):
            if e != re_ or not _close(lc, rc, REL_LAMBDA) or not _close(ls, rs, REL_SHOOTING):
                return f"eps={e}: ({lc!r}, {ls!r}) vs reference ({rc!r}, {rs!r})"
        return None
    if kind == "remainder":
        if not _close(got["lambda"], ref["lambda"], REL_LAMBDA):
            return f"anchor {got['lambda']!r} vs reference {ref['lambda']!r}"
        pairs = list(zip(got["remainder"], ref["remainder"]))
        pairs.append((got["fitted_slope"], ref["fitted_slope"]))
        if not all(_close(a, b, REL_REMAINDER) for a, b in pairs):
            return f"remainders {got} vs reference {ref}"
        return None
    if kind == "slope":
        for (e, q), (re_, rq) in zip(got["quotients"], ref["quotients"]):
            if e != re_ or not _close(q, rq, REL_QUOTIENT):
                return f"eps={e}: quotient {q!r} vs reference {rq!r}"
        return None
    return None


def check(cmd: Command, rc: int, stdout: str, stderr: str,
          reference: dict | None) -> Checked:
    """Verify one command's output; ``reference`` is given for seed 0 only."""
    if rc != 0:
        return Checked(error=f"exit code {rc}: {stderr.strip()[:300]}")
    try:
        result = _CHECKS[cmd.kind](cmd, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Checked(error=f"unreadable output: {exc!r}")
    if result.error is None and reference is not None:
        if cmd.key not in reference:
            result.error = "no reference entry"
        else:
            result.error = _compare(cmd.kind, result.summary, reference[cmd.key])
    return result
