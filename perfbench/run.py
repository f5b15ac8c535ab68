"""End-to-end and per-layer benchmark of the steklov CLI.

    python3 perfbench/run.py --workload figure-disc --seed 0 --seconds 14 --trace 0

Run from the root of a checkout. Each workload is a fixed list of CLI
invocations (see ``workloads.py``), executed in this process through
``steklov.cli.main``, one after another. A pass is one run of that list;
every pass's outputs are checked, and the last line of standard output is
one JSON object with the metrics. Times are medians over samples (see
``_sampled_median``).

``--trace 0`` measures what a user sees:

* ``setup_s``: median wall time of fresh ``python -m steklov.cli spectrum``
  processes, i.e. the CLI cold start (interpreter, imports, parser);
* ``cold_pass_s``: the first pass of a fresh process after import, with
  every lazy first-use cost (mpmath, the cross-product symbolic table);
  passes of fresh processes for half of ``--seconds``;
* ``wall_s``: the warm passes that fit in ``--seconds``;
* ``points_per_s``: output rows the checks verified per second of wall_s;
* ``peak_rss_mb``: peak resident memory of this process;
* ``pass_ratio``: commands that exit 0 and pass their checks, over those
  attempted.

``--trace 1`` alternates untraced and traced warm passes and reports the
per-layer numbers of ``tracer.py`` (medians over the traced passes) and
the tracing overhead.

``--write-reference`` reruns seed 0 of every workload once and stores the
outputs that seed-0 passes are compared with in ``reference.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import workloads
from tracer import UNITS, Tracer, first_use_ms, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

SETUP_RUNS = 5
# on a shared 2-vCPU cloud VM the CPU speed was seen to flip by up to 1.5x
# in spells of seconds to a minute: a pass much shorter than this lands in
# one spell, so short passes are averaged over this long before the median
SAMPLE_SECONDS = 5.0
SETUP_ARGV = ("-m", "steklov.cli", "spectrum", "--N", "2", "--M", "pi", "--l", "1")


@dataclass
class Pass:
    wall: float
    rows: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    summaries: dict = field(default_factory=dict)
    noise: str = ""

    def report(self, label: str) -> None:
        print(f"pass {label:>8}  wall {self.wall:.4f} s  rows {self.rows}  "
              f"failed {len(self.failures)}/{self.attempted}  {self.noise}", flush=True)
        for failure in self.failures:
            print(f"  FAIL {failure}", file=sys.stderr, flush=True)


def _steal_ticks() -> int | None:
    """Ticks the hypervisor gave to other guests; None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def setup_once() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("l,lambda,multiplicity,slope\n1,2.0,2,"):
        raise RuntimeError(f"CLI cold start failed: {proc.returncode} {proc.stderr.strip()}")
    return elapsed


def run_pass(cli, commands, reference, label: str) -> Pass:
    gc.collect()
    steal0 = _steal_ticks()
    results = []
    t0 = time.perf_counter()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(cmd.argv))
        except Exception:  # an escaped exception is a failed command
            rc, err = -1, io.StringIO(traceback.format_exc())
        results.append((cmd, rc, out.getvalue(), err.getvalue()))
    p = Pass(wall=time.perf_counter() - t0)
    steal1 = _steal_ticks()
    for cmd, rc, stdout, stderr in results:
        checked = workloads.check(cmd, rc, stdout, stderr, reference)
        p.attempted += 1
        p.rows += checked.rows
        p.summaries[cmd.key] = checked.summary
        if checked.error is not None:
            p.failures.append(f"{cmd.key}: {checked.error}")
    steal = "n/a" if steal0 is None or steal1 is None else f"+{steal1 - steal0}"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    p.noise = f"steal {steal} ticks  load {load}"
    p.report(label)
    return p


def _sampled_median(walls: list[float]) -> float:
    """Median over samples of consecutive passes lasting SAMPLE_SECONDS.

    A sample's value is its mean pass time; a short trailing remainder
    joins the last sample. Passes longer than SAMPLE_SECONDS are samples
    on their own, so this is the plain median for the figure.
    """
    samples: list[list[float]] = [[]]
    for w in walls:
        if sum(samples[-1]) >= SAMPLE_SECONDS:
            samples.append([])
        samples[-1].append(w)
    if len(samples) > 1 and sum(samples[-1]) < SAMPLE_SECONDS:
        tail = samples.pop()
        samples[-1] += tail
    return median([sum(s) / len(s) for s in samples])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _wants(passes: list[Pass], seconds: float, minimum: int) -> bool:
    """True while a phase lacks ``minimum`` passes or has time for one more."""
    return len(passes) < minimum or (
        sum(p.wall for p in passes) + median([p.wall for p in passes]) <= seconds)


def cold_probe(workload: str, seed: int, n: int) -> Pass:
    """One cold pass in a fresh process (``run.py --cold-probe``)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--cold-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold probe failed: {proc.stderr.strip()}")
    p = Pass(**json.loads(proc.stdout.splitlines()[-1]))
    p.report(f"cold {n}")
    return p


def measure(cli, commands, reference, workload: str, seed: int,
            seconds: float) -> tuple[dict, list[Pass]]:
    """End-to-end metrics: ``seconds`` of warm passes, half that of cold ones.

    The first pass of this process is the first cold sample; more come
    from fresh processes. Cold and warm passes alternate, and the CLI cold
    starts for ``setup_s`` are spread between them, so that all three
    sample the whole run rather than one speed spell of a shared host (see
    SAMPLE_SECONDS).
    """
    setup: list[float] = []

    def pace() -> None:
        if len(setup) < SETUP_RUNS:
            setup.append(setup_once())

    pace()
    cold = [run_pass(cli, commands, reference, "cold 1")]
    warm: list[Pass] = []
    while True:
        want_warm = _wants(warm, seconds, 3)
        want_cold = _wants(cold, seconds / 2, 2)
        if not (want_warm or want_cold):
            break
        # the phase less far through its time goes next, so both span the run
        warm_behind = (sum(p.wall for p in warm) / seconds
                       <= sum(p.wall for p in cold) / (seconds / 2))
        pace()
        if want_warm and (warm_behind or not want_cold):
            warm.append(run_pass(cli, commands, reference, f"warm {len(warm) + 1}"))
        else:
            cold.append(cold_probe(workload, seed, len(cold) + 1))
    while len(setup) < SETUP_RUNS:
        setup.append(setup_once())
    walls = [p.wall for p in warm]
    wall = _sampled_median(walls)
    cold_wall = _sampled_median([p.wall for p in cold])
    print(f"setup_s median {median(setup):.4f} s over {len(setup)} processes; "
          f"cold_pass_s {cold_wall:.4f} s over {len(cold)} passes; "
          f"wall_s {wall:.4f} s, max {max(walls):.4f} s over {len(walls)} warm passes")
    passes = [*cold, *warm]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "wall_s": _metric(wall, "s"),
        "cold_pass_s": _metric(cold_wall, "s"),
        "setup_s": _metric(median(setup), "s"),
        "points_per_s": _metric(median([p.rows for p in warm]) / wall, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": _metric(1.0 - failed / attempted, "ratio"),
    }
    return metrics, passes


def measure_traced(cli, commands, reference, seconds: float, modules) -> tuple[dict, list[Pass]]:
    """Per-layer metrics: a traced cold pass, then untraced/traced pairs."""
    start = time.perf_counter()
    tracer = Tracer(*modules)
    with tracer:
        cold = run_pass(cli, commands, reference, "cold+tr")
    first_ms = first_use_ms(tracer, "crossprod.recursive_form")
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict] = []
    while not traced or (
        time.perf_counter() - start
        + median([p.wall for p in plain]) + median([p.wall for p in traced]) <= seconds
    ):
        plain.append(run_pass(cli, commands, reference, f"warm {len(plain) + 1}"))
        tracer = Tracer(*modules)
        with tracer:
            traced.append(run_pass(cli, commands, reference, f"traced {len(traced) + 1}"))
        layers.append(layer_metrics(tracer))
    values = {name: median([m[name] for m in layers]) for name in layers[0]}
    values["crossprod.recursive_form.first_ms"] = first_ms
    values["trace.wall_s"] = median([p.wall for p in traced])
    values["trace.overhead_s"] = values["trace.wall_s"] - median([p.wall for p in plain])
    metrics = {name: _metric(values[name], unit) for name, unit in UNITS.items()}
    return metrics, [cold, *plain, *traced]


def _import_steklov():
    if not (SRC / "steklov" / "cli.py").is_file():
        sys.exit(f"perfbench: {SRC / 'steklov'} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    # by module path: the package namespace re-exports a function as `bessel`
    cli, branch, shooting, crossprod, bessel, model = (
        importlib.import_module(f"steklov.{name}")
        for name in ("cli", "branch", "shooting", "crossprod", "bessel", "model"))
    import mpmath
    import numpy
    import scipy

    print(f"env: nproc {len(os.sched_getaffinity(0))}  python {platform.python_version()}  "
          f"numpy {numpy.__version__}  scipy {scipy.__version__}  mpmath {mpmath.__version__}  "
          f"import {time.perf_counter() - t0:.3f} s", flush=True)
    return cli, (cli, branch, shooting, crossprod, bessel, model)


def write_reference() -> None:
    cli, _ = _import_steklov()
    reference = {}
    for name in workloads.WORKLOADS:
        p = run_pass(cli, workloads.commands(name, 0, str(OUT / name)), None, name)
        if p.failures:
            sys.exit(f"perfbench: {name} failed; reference not written")
        reference.update(p.summaries)
    with open(REFERENCE, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--cold-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        cli, modules = _import_steklov()
        reference = None
        if args.seed == 0:
            with open(REFERENCE, encoding="ascii") as fh:
                reference = json.load(fh)
        commands = workloads.commands(args.workload, args.seed, str(OUT / args.workload))
        if args.cold_probe:
            p = run_pass(cli, commands, reference, "cold")
            print(json.dumps({"wall": p.wall, "rows": p.rows, "attempted": p.attempted,
                              "failures": p.failures, "noise": p.noise}))
            return 0
        print("commands: " + " | ".join(" ".join(c.argv) for c in commands), flush=True)
        if args.trace:
            metrics, passes = measure_traced(cli, commands, reference, args.seconds, modules)
        else:
            metrics, passes = measure(cli, commands, reference, args.workload, args.seed,
                                      args.seconds)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    failed = sum(len(p.failures) for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
