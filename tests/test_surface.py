"""The public surface: exported names resolve, tooling guards hold, each
command loads only the numerical libraries it runs, and the per-layer tracer
fits.

perfbench/tracer.py patches module attributes by name (the command table,
the figure loop, the branch and shooting entry points and the wave_arguments
call of the characteristic kernel). A rename or deletion there breaks
``--trace 1`` without failing any other test, so this module installs the
tracer on the current modules.
"""

from __future__ import annotations

import ast
import importlib
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import steklov
from steklov.model import ProblemConfig

_MODULES = (
    "bessel", "branch", "cli", "crossprod", "errors", "model", "roots", "shooting",
    "spectrum",
)
_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", _MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"steklov.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


def test_package_is_imported_by_module():
    import steklov.bessel as m

    assert isinstance(m, types.ModuleType)
    assert m is sys.modules["steklov.bessel"]


def _python(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this checkout."""
    src = str(Path(steklov.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize also loads scipy.linalg and scipy.sparse, about a third of
    # the CLI start time
    code = "import sys, steklov.cli; print('scipy.optimize' in sys.modules)"
    assert _python(code).strip() == "False"


def _libraries_after(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of cli.main(argv) in a fresh interpreter, and which of numpy,
    scipy and mpmath it loaded."""
    code = (
        "import sys, steklov.cli\n"
        f"rc = steklov.cli.main({argv!r})\n"
        "print(rc, *(m for m in ('numpy', 'scipy', 'mpmath') if m in sys.modules))"
    )
    rc, *loaded = _python(code).splitlines()[-1].split()
    return int(rc), set(loaded)


def test_spectrum_loads_no_numerical_library():
    # the closed-form spectrum needs only math; the cold start of `spectrum`
    # is perfbench's setup_s
    argv = ["spectrum", "--N", "2", "--M", "pi", "--l", "1"]
    assert _libraries_after(argv) == (0, set())


def test_spectrum_to_a_file_loads_no_numerical_library(tmp_path):
    # --out goes through cli.write_fresh, which needs only os
    out = tmp_path / "spectrum.csv"
    argv = ["spectrum", "--N", "2", "--M", "pi", "--l-max", "4", "--out", str(out)]
    assert _libraries_after(argv) == (0, set())
    assert out.read_text(encoding="ascii").startswith("l,lambda,multiplicity,slope\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "--N", "2"],
        ["oracle-compare", "--N", "2", "--M", "pi", "--l", "0"],
        ["figure", "--N", "1", "--M", "2", "--l", "0..3", "--eps", "0.1..0.5"],
    ],
    ids=["flags", "l0", "figure-l"],
)
def test_refusals_load_no_numerical_library(argv, tmp_path):
    out = str(tmp_path / "fig")
    assert _libraries_after([*argv, "--out", out]) == (2, set())
    assert not os.path.exists(out)


def test_branch_leaves_mpmath_unloaded():
    argv = ["branch", "--N", "2", "--M", "pi", "--l", "1", "--eps-max", "0.1"]
    argv += ["--steps", "2"]
    assert _libraries_after(argv) == (0, {"numpy", "scipy"})


def test_verify_remainder_loads_mpmath():
    argv = ["verify-remainder", "--N", "2", "--M", "pi", "--l", "1", "--points", "2"]
    assert _libraries_after(argv) == (0, {"numpy", "scipy", "mpmath"})


def test_float_wave_arguments_leave_numpy_unloaded():
    code = (
        "import sys\n"
        "from steklov.model import ProblemConfig, density_params, wave_arguments\n"
        "wave_arguments(density_params(ProblemConfig(N=2, M=3.0, l=1), 0.1), 2.0)\n"
        "print('numpy' in sys.modules)"
    )
    assert _python(code).strip() == "False"


def _called_name(call: ast.Call) -> str | None:
    """The name a call is made by: f(...) or owner.f(...) give f."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _can_write(call: ast.Call) -> bool:
    """An open() whose mode is not a read-only literal, or a pathlib write."""
    name = _called_name(call)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wax+"))


def _call_scopes(matches) -> list[str]:
    """Qualified name of the scope of every call in src/ that matches."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call) and matches(child):
                found.append(scope)
            visit(child, inner)

    src = Path(steklov.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_one_file_writer():
    # every output goes through cli.write_fresh, which replaces a regular
    # file with a new one; a second writer would truncate in place again
    assert _call_scopes(_can_write) == ["cli.write_fresh"]


def test_one_anchored_route():
    # the anchored branch leaves the Steklov value with the closed slope in
    # one place; a second trace_family(slope0=...) call is a second route
    def seeds_a_slope(call: ast.Call) -> bool:
        return _called_name(call) == "trace_family" and any(
            k.arg == "slope0" for k in call.keywords
        )

    assert _call_scopes(seeds_a_slope) == ["branch.continue_branch"]


def _is_product(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def _is_zero(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0


def test_no_sign_test_by_product():
    # f_lo * f_hi > 0 underflows to 0 for tiny values of one sign; brackets are
    # tested by roots.opposite_signs, which compares signs
    src = Path(steklov.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_is_product, operands)) and any(map(_is_zero, operands)):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_library_derivative_wrappers():
    # every first derivative comes from bessel.derivative (DLMF 10.6.2), the
    # rule that F evaluates; scipy's jvp and yvp would be a second route
    src = Path(steklov.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in ("jvp", "yvp"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# the independent route to the slope, which the criterion tests compare
# with the slope that the commands compute
_TEST_ONLY_EXPORTS = {"branch.truncated_characteristic", "branch.slope_from_truncated"}


def test_every_export_is_used_in_src():
    # an exported name that no code in src/ refers to serves only tests; it
    # belongs in tests/ or nowhere. A reference is a loaded name or an
    # attribute, so a definition, an import or an __all__ entry is none.
    src = Path(steklov.__file__).resolve().parent
    used = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{name}.{export}"
        for name in _MODULES
        for export in importlib.import_module(f"steklov.{name}").__all__
        if export not in used and f"{name}.{export}" not in _TEST_ONLY_EXPORTS
    ]
    assert not unused, unused


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    yield importlib.import_module("tracer")
    sys.modules.pop("tracer", None)


def _traced_modules():
    return tuple(
        importlib.import_module(f"steklov.{name}")
        for name in ("cli", "branch", "shooting", "crossprod", "bessel", "model")
    )


def test_tracer_installs_and_uninstalls(tracer_module):
    cli, branch, shooting, crossprod, bessel, model = _traced_modules()
    patched = [
        (cli, "_trace_figure_l"), (cli, "_emit"), (branch, "wave_arguments"),
        (branch, "find_root"), (branch, "trace_family"), (branch, "scan_roots"),
    ]
    originals = [getattr(owner, attr) for owner, attr in patched]
    commands = dict(cli._COMMANDS)
    tracer = tracer_module.Tracer(cli, branch, shooting, crossprod, bessel, model)
    with tracer:
        assert all(getattr(o, a) is not f for (o, a), f in zip(patched, originals))
        kernel = branch.CharacteristicKernel(ProblemConfig(N=2, M=math.pi, l=1), 0.1)
        kernel(2.0)
    assert [getattr(owner, attr) for owner, attr in patched] == originals
    assert cli._COMMANDS == commands
    # one kernel call is one counted wave_arguments call, replayable as kept
    assert tracer.counts()[("model.wave_arguments", None)] == 1
    assert tracer.wave_arguments_us(repeats=1) > 0.0


def test_tracer_prices_shooting_integrations(tracer_module):
    # shooting.shoot.ms and shoots_per_eigenvalue read these two spans
    cli, branch, shooting, crossprod, bessel, model = _traced_modules()
    tracer = tracer_module.Tracer(cli, branch, shooting, crossprod, bessel, model)
    with tracer:
        cfg = ProblemConfig(N=2, M=math.pi, l=1)
        shooting.eigenvalue_by_shooting(cfg, 0.1, (2.0, 2.5))
    spans = tracer.spans()
    (outer,) = [s for s in spans if s.name == "shooting.eigenvalue_by_shooting"]
    assert outer.parent is None
    shoots = [s for s in spans if s.name == "shooting.shoot"]
    assert len(shoots) >= 3
    assert all(s.parent == "shooting.eigenvalue_by_shooting" for s in shoots)


def test_tracer_prices_remainder_points(tracer_module):
    # branch.remainder_scaling.points and .ms_per_point read this span
    cli, branch, shooting, crossprod, bessel, model = _traced_modules()
    tracer = tracer_module.Tracer(cli, branch, shooting, crossprod, bessel, model)
    with tracer:
        cfg = ProblemConfig(N=2, M=math.pi, l=1)
        branch.remainder_scaling(cfg, 2.0, [1e-4, 1e-3, 1e-2])
    (span,) = [s for s in tracer.spans() if s.name == "branch.remainder_scaling"]
    assert span.parent is None
    assert span.items == 3
    metrics = tracer_module.layer_metrics(tracer)
    assert metrics["branch.remainder_scaling.points"] == 3
    assert metrics["branch.remainder_scaling.ms_per_point"] > 0.0
