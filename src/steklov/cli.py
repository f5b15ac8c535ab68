"""Command-line surface for the eigenvalue tooling.

Subcommands compute the Steklov spectrum, trace Neumann branches, report
slope difference quotients, export multi-family figure data, and run the
verification suites (cross-product identities, remainder scaling, the
Bessel-vs-shooting oracle comparison, eigenfunction matching).

Each handler reads the parsed argparse namespace. `spectrum` and `slope`
take --format csv|json. A handler imports branch, shooting or crossprod
(and with them numpy, scipy and mpmath) itself, after its own refusals,
so `spectrum`, a flag error and a refused N, M or l start without them;
only `verify-remainder` loads mpmath.

Exit codes: 0 on success, 2 for flag or domain errors, 3 for numerical
failures (lost brackets, gate violations). Failures emit one JSON object
{"code", "message", "context"} on stderr, the context holding the command
and its argv, and for a lost or unconverged root also N, M, l, eps and the
bracket (and lambda when unconverged); for a remainder propagator series
that does not settle, N, M, l, eps and lambda. All CSV output uses repr
float formatting, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import stat
import sys
from typing import TYPE_CHECKING

from .errors import BracketError, IterationLimitError
from .model import ProblemConfig
from .spectrum import steklov_eigenvalue

if TYPE_CHECKING:
    from .branch import BranchPoint

__all__ = ["main", "write_fresh"]


class UsageError(ValueError):
    """Bad flags or domain values; maps to exit code 2."""


class VerificationFailure(RuntimeError):
    """A verification gate was exceeded; maps to exit code 3."""


_PI_PATTERN = re.compile(
    r"^([0-9]*\.?[0-9]*)\s*\*?\s*pi\s*(?:/\s*([0-9]*\.?[0-9]+))?$", re.IGNORECASE
)


def parse_mass(text: str) -> float:
    """Mass values accept pi literals: 'pi', '4pi', '2*pi', '4*pi/3'."""
    s = text.strip()
    m = _PI_PATTERN.match(s)
    if m:
        coeff = float(m.group(1)) if m.group(1) else 1.0
        div = float(m.group(2)) if m.group(2) else 1.0
        if div == 0.0:
            raise argparse.ArgumentTypeError(f"mass {text!r} divides by zero")
        return coeff * math.pi / div
    try:
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse mass {text!r}") from None


def _finite_positive(text: str) -> float:
    """A float in (0, inf); nan, inf and non-positive values are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _parse_float_range(text: str) -> tuple[float, float]:
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo..hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'lo..hi', got {text!r}"
        ) from None
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"range must increase, got {text!r}")
    return lo, hi


def _parse_int_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) == 1:
        try:
            v = int(parts[0])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected 'lo..hi' or int, got {text!r}"
            ) from None
        return v, v
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo..hi', got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'lo..hi', got {text!r}"
        ) from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range must not decrease, got {text!r}")
    return lo, hi


def _parse_float_list(text: str) -> list[float]:
    values = []
    for part in text.split(","):
        if part.strip():
            try:
                values.append(float(part))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"expected comma-separated floats, got {part.strip()!r} in {text!r}"
                ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    return values


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


def _emit(text: str, out: str | None) -> None:
    """Text to stdout, or to the file out as a new file (`write_fresh`)."""
    if out is None:
        sys.stdout.write(text)
    else:
        write_fresh(out, text)


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(header: str, rows: list[tuple]) -> str:
    lines = [header]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args: argparse.Namespace) -> int:
    # argparse lets exactly one of --l and --l-max through
    if args.l_max is not None and args.l_max < 0:
        raise UsageError("--l-max must be >= 0")
    ls = [args.l] if args.l is not None else list(range(args.l_max + 1))
    rows = []
    for l in ls:
        ev = steklov_eigenvalue(ProblemConfig(N=args.N, M=args.M, l=l))
        rows.append((ev.l, ev.value, ev.multiplicity, ev.slope))
    if args.fmt == "json":
        payload = [
            {"l": r[0], "lambda": r[1], "multiplicity": r[2], "slope": r[3]}
            for r in rows
        ]
        _emit(_json(payload), args.out)
    else:
        _emit(_csv("l,lambda,multiplicity,slope", rows), args.out)
    return 0


def _cmd_branch(args: argparse.Namespace) -> int:
    cfg = ProblemConfig(N=args.N, M=args.M, l=args.l)
    if args.out is not None:
        sidecar = os.path.splitext(args.out)[0] + ".json"
        if sidecar == args.out:
            raise UsageError(
                f"--out {args.out} is also the path of its JSON sidecar; "
                "give the CSV another extension"
            )
    if not 0.0 < args.eps_max < 1.0:
        raise UsageError(f"eps_max must lie in (0, 1), got {args.eps_max}")
    n = args.steps
    if n < 1:
        raise UsageError(f"steps must be >= 1, got {n}")
    from . import branch as _branch

    grid = [args.eps_max * i / n for i in range(1, n + 1)]
    points, truncated = _branch.continue_branch(cfg, grid, lam_max=args.lam_max)
    if args.out is None:
        rows = [(p.epsilon, p.lam, p.residual) for p in points]
        _emit(_csv("epsilon,lambda,residual", rows), None)
    else:
        _branch.write_points_csv(points, args.out)
        anchor = steklov_eigenvalue(cfg)
        meta = {"N": cfg.N, "M": cfg.M, "l": cfg.l, "anchor_lambda": anchor.value,
                "slope_at_zero": anchor.slope, "truncated": truncated}
        try:
            write_fresh(sidecar, _json(meta))
        except OSError:
            # leave no CSV without its sidecar; never remove a device or link
            if stat.S_ISREG(os.lstat(args.out).st_mode):
                os.unlink(args.out)
            raise
    if truncated:
        raise VerificationFailure(f"branch truncated after {len(points)} of {n} points")
    return 0


def _cmd_slope(args: argparse.Namespace) -> int:
    cfg = ProblemConfig(N=args.N, M=args.M, l=args.l)
    eps_list = args.eps or [1e-2, 1e-3, 1e-4]
    anchor = steklov_eigenvalue(cfg)
    from . import branch as _branch

    quotients = _branch.slope_estimate(cfg, eps_list)
    rows = [(e, q, anchor.slope) for e, q in quotients]
    if args.fmt == "json":
        payload = {
            "formula": anchor.slope,
            "quotients": [{"epsilon": e, "quotient": q} for e, q, _ in rows],
        }
        _emit(_json(payload), args.out)
    else:
        _emit(_csv("epsilon,quotient,formula", rows), args.out)
    return 0


def _trace_figure_l(
    cfg: ProblemConfig, grid: list[float], lam_max: float
) -> list[dict]:
    """All families of one angular index inside the lambda window."""
    from . import branch as _branch

    families: list[dict] = []
    anchored_end: float | None = None
    if cfg.l >= 1:
        anchor = steklov_eigenvalue(cfg)
        points, truncated = _branch.continue_branch(cfg, grid, lam_max=lam_max)
        if points:
            families.append(
                {
                    "file": f"family_l{cfg.l}_anchored.csv",
                    "kind": "anchored",
                    "l": cfg.l,
                    "anchor_lambda": anchor.value,
                    "slope_at_zero": anchor.slope,
                    "truncated": truncated,
                    "points": points,
                }
            )
            if not truncated:
                anchored_end = points[-1].lam
    # families with no eps -> 0 limit: seed at the top of the eps grid
    # and continue downward until they leave the window
    eps_hi = grid[-1]
    seeds = _branch.scan_roots(cfg, eps_hi, lam_max, samples=800)
    down = list(reversed(grid[:-1]))
    idx = 0
    for seed in seeds:
        if anchored_end is not None and abs(seed.lam - anchored_end) <= 1e-6 * (
            1.0 + abs(anchored_end)
        ):
            continue
        idx += 1
        traced, _ = _branch.trace_family(
            cfg,
            start=(seed.epsilon, seed.lam),
            eps_values=down,
            lam_max=lam_max,
        )
        pts = sorted([seed] + traced, key=lambda p: p.epsilon)
        families.append(
            {
                "file": f"family_l{cfg.l}_scan{idx}.csv",
                "kind": "scan",
                "l": cfg.l,
                "anchor_lambda": None,
                "slope_at_zero": None,
                "truncated": True,
                "points": pts,
            }
        )
    return families


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.out is None:
        raise UsageError("figure needs --out DIR")
    lo, hi = args.eps
    if not (0.0 < lo < hi < 1.0):
        raise UsageError(f"eps range must sit strictly inside (0, 1), got {lo}..{hi}")
    n = args.steps
    if n < 2:
        raise UsageError(f"--steps must be >= 2 to span the eps range, got {n}")
    cfgs = [
        ProblemConfig(N=args.N, M=args.M, l=l) for l in range(args.l[0], args.l[1] + 1)
    ]
    from . import branch as _branch

    floor = _branch.SCAN_LAM_MIN
    if not args.lam_max > floor:
        raise UsageError(
            f"--lambda-max must exceed the root-scan floor {floor}, got {args.lam_max}"
        )
    # an --out that cannot be a directory fails here, before any tracing;
    # a run that fails while tracing removes the directory it made
    made = not os.path.isdir(args.out)
    os.makedirs(args.out, exist_ok=True)
    grid = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    try:
        results = [_trace_figure_l(cfg, grid, args.lam_max) for cfg in cfgs]
    except BaseException:
        if made:
            os.rmdir(args.out)
        raise
    manifest: dict = {
        "N": args.N,
        "M": args.M,
        "eps_min": lo,
        "eps_max": hi,
        "steps": n,
        "lambda_max": args.lam_max,
        "families": [],
    }
    for fams in results:  # already ordered by l; scan index orders within
        for fam in fams:
            _branch.write_points_csv(fam["points"], os.path.join(args.out, fam["file"]))
            manifest["families"].append({**fam, "points": len(fam["points"])})
    write_fresh(os.path.join(args.out, "manifest.json"), _json(manifest))
    _prune_stale_families(args.out, {fam["file"] for fam in manifest["families"]})
    return 0


_FAMILY_FILE = re.compile(r"family_l\d+_(?:anchored|scan\d+)\.csv")


def _prune_stale_families(out: str, listed: set[str]) -> None:
    """Remove family CSVs of an earlier run that the new manifest does not list.

    Only regular files named like a family file go; anything else stays.
    """
    with os.scandir(out) as entries:
        for entry in entries:
            if (
                _FAMILY_FILE.fullmatch(entry.name)
                and entry.name not in listed
                and entry.is_file(follow_symlinks=False)
            ):
                os.unlink(entry.path)


def _excited_config(args: argparse.Namespace) -> ProblemConfig:
    """The configuration of a command that needs a positive eigenvalue.

    The l = 0 branch is the principal eigenvalue lambda = 0 at every eps:
    it has no shooting bracket, remainder or eigenfunction to compute.
    """
    cfg = ProblemConfig(N=args.N, M=args.M, l=args.l)
    if cfg.l == 0:
        raise UsageError(
            f"{args.command} needs l >= 1: the l = 0 branch is the principal "
            "eigenvalue lambda = 0 at every eps"
        )
    return cfg


def _point_at(cfg: ProblemConfig, eps: float) -> BranchPoint:
    if not 0.0 < eps < 1.0:  # inf and nan too, before math.ceil sees them
        raise UsageError(f"--eps must lie in (0, 1), got {eps}")
    from . import branch as _branch

    return _branch.anchored_point(cfg, eps, max(4, int(math.ceil(eps / 0.05))))


def _cmd_oracle_compare(args: argparse.Namespace) -> int:
    cfg = _excited_config(args)
    eps_list = args.eps or [0.01, 0.05, 0.1, 0.3]
    from . import shooting as _sh

    tol = 1e-8
    rows = []
    worst = 0.0
    for eps in eps_list:
        pt = _point_at(cfg, eps)
        width = max(0.05 * pt.lam, 0.02)
        res = _sh.eigenvalue_by_shooting(
            cfg,
            eps,
            (max(pt.lam - width, 0.5 * pt.lam), pt.lam + width),
            grid_size=args.grid_size,
            tol=1e-12,
        )
        rel = abs(res.lam - pt.lam) / abs(pt.lam)
        worst = max(worst, rel)
        rows.append(
            {
                "epsilon": eps,
                "lambda_characteristic": pt.lam,
                "lambda_shooting": res.lam,
                "rel_diff": rel,
            }
        )
    payload = {"rows": rows, "max_rel_diff": worst, "tolerance": tol,
               "pass": worst <= tol}
    _emit(_json(payload), args.out)
    if worst > tol:
        raise VerificationFailure(
            f"oracle disagreement {worst:.3e} exceeds {tol:.1e}"
        )
    return 0


def _cmd_verify_crossprod(args: argparse.Namespace) -> int:
    from . import crossprod as _cp

    nus = [k / 2.0 for k in range(0, 11)]
    zs = [0.5, 1.0, 2.0, 5.0, 10.0]
    worst_closed = 0.0
    worst_recursive = 0.0
    exact = True
    for family in (_cp.Family.PLAIN, _cp.Family.PRIMED):
        for nu in nus:
            for k in range(1, 7):
                kind = _cp.CrossKind(family=family, k=k)
                rec = _cp.recursive_form(kind, nu)
                if k <= 4:
                    clo = _cp.closed_form(kind, nu)
                    if (
                        clo.constant_term != rec.constant_term
                        or clo.inverse_power_coeffs != rec.inverse_power_coeffs
                    ):
                        exact = False
                for z in zs:
                    direct = _cp.direct_cross_product(kind, nu, z)
                    scale = max(abs(direct), 2.0 / (math.pi * z))
                    err_rec = abs(_cp.evaluate(rec, z) - direct) / scale
                    worst_recursive = max(worst_recursive, err_rec)
                    if k <= 4:
                        err_clo = abs(_cp.evaluate(clo, z) - direct) / scale
                        worst_closed = max(worst_closed, err_clo)
    payload = {
        "closed_vs_direct_max_rel": worst_closed,
        "recursive_vs_direct_max_rel": worst_recursive,
        "recursive_matches_closed_exactly": exact,
        "gates": {"closed": 1e-10, "recursive": 1e-9},
        "pass": exact and worst_closed <= 1e-10 and worst_recursive <= 1e-9,
    }
    _emit(_json(payload), args.out)
    if not payload["pass"]:
        raise VerificationFailure("cross-product identity gates exceeded")
    return 0


def _cmd_verify_remainder(args: argparse.Namespace) -> int:
    cfg = _excited_config(args)
    anchor = steklov_eigenvalue(cfg)
    n = args.points
    if n < 2:
        raise UsageError(f"--points must be >= 2 for the log-log fit, got {n}")
    from . import branch as _branch

    grid = [10.0 ** (-5.0 + 3.0 * i / (n - 1)) for i in range(n)]
    data = _branch.remainder_scaling(cfg, anchor.value, grid)
    xs = [math.log(e) for e, _ in data]
    ys = [math.log(r) for _, r in data]
    m = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    slope = (m * sxy - sx * sy) / (m * sxx - sx * sx)
    payload = {
        "lambda": anchor.value,
        "points": [{"epsilon": e, "remainder": r} for e, r in data],
        "fitted_slope": slope,
        "gate": 1.4,
        "pass": slope >= 1.4,
    }
    _emit(_json(payload), args.out)
    if slope < 1.4:
        raise VerificationFailure(
            f"remainder log-log slope {slope:.3f} below 1.4"
        )
    return 0


def _cmd_eigenfunction(args: argparse.Namespace) -> int:
    cfg = _excited_config(args)
    n = args.samples
    if n < 1:
        raise UsageError(f"--samples must be >= 1, got {n}")
    from . import branch as _branch

    pt = _point_at(cfg, args.eps)
    prof = _branch.radial_profile(cfg, pt)
    rows = [(r, *prof.at(r)) for r in (i / n for i in range(1, n + 1))]
    _emit(_csv("r,S,dS", rows), args.out)
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "branch": _cmd_branch,
    "slope": _cmd_slope,
    "figure": _cmd_figure,
    "verify-crossprod": _cmd_verify_crossprod,
    "verify-remainder": _cmd_verify_remainder,
    "oracle-compare": _cmd_oracle_compare,
    "eigenfunction": _cmd_eigenfunction,
}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="steklov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, *, cfg: bool = True, fmt: bool = False) -> None:
        if cfg:
            p.add_argument("--N", type=int, required=True)
            p.add_argument("--M", type=parse_mass, required=True)
        p.add_argument("--out", default=None)
        if fmt:
            p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                           default="csv")

    p = sub.add_parser("spectrum", help="Steklov eigenvalues and multiplicities")
    common(p, fmt=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--l", type=int, default=None)
    which.add_argument("--l-max", dest="l_max", type=int, default=None)

    p = sub.add_parser("branch", help="trace one eigenvalue branch in eps")
    common(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--eps-max", dest="eps_max", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lambda-max", dest="lam_max", type=_finite_positive, default=None)

    p = sub.add_parser("slope", help="difference quotients vs the slope formula")
    common(p, fmt=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--eps", type=_parse_float_list, default=None)

    p = sub.add_parser("figure", help="multi-family branch data for plotting")
    common(p)
    p.add_argument("--l", type=_parse_int_range, required=True)
    p.add_argument("--eps", type=_parse_float_range, required=True)
    p.add_argument("--steps", type=int, default=199)
    p.add_argument("--lambda-max", dest="lam_max", type=_finite_positive, default=50.0)

    p = sub.add_parser("verify-crossprod", help="cross-product identity gates")
    common(p, cfg=False)

    p = sub.add_parser("verify-remainder", help="remainder scaling exponent gate")
    common(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--points", type=int, default=8)

    p = sub.add_parser("oracle-compare", help="characteristic roots vs shooting")
    common(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--eps", type=_parse_float_list, default=None)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=2000)

    p = sub.add_parser("eigenfunction", help="radial profile at a branch point")
    common(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=512)

    return parser


def _fail(code: int, message: str, context: dict) -> int:
    sys.stderr.write(
        json.dumps({"code": code, "message": message, "context": context})
        + "\n"
    )
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    context = {
        "command": argv[0] if argv and not argv[0].startswith("-") else None,
        "argv": argv,
    }
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (BracketError, IterationLimitError, VerificationFailure) as exc:
        return _fail(3, str(exc), {**context, **getattr(exc, "context", {})})
    except ValueError as exc:  # UsageError included
        return _fail(2, str(exc), context)
    except OSError as exc:  # an --out that cannot be written
        return _fail(2, f"cannot write output: {exc}", context)
    except (ArithmeticError, RuntimeError) as exc:
        return _fail(3, str(exc), context)


if __name__ == "__main__":
    sys.exit(main())
