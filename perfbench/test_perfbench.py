"""The benchmark's own tests: the traced figure-disc run is deterministic.

    python3 -m pytest perfbench/test_perfbench.py

Each traced run takes about 20 s on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import UNITS  # noqa: E402


def _traced_figure() -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "figure-disc",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == set(UNITS)
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_traced_figure_counts_repeat_exactly():
    first, second = _traced_figure(), _traced_figure()
    for m in (first, second):
        assert m["branch.f_evals"] == 69025
        assert m["branch.f_evals.window"] == 38475
        assert m["branch.f_evals.scan"] == 5607
        assert m["branch.f_evals.root"] == 24943
        assert m["branch.find_root.calls"] == 1548
        assert m["branch.trace_family.calls"] == 10
        assert m["branch.scan_roots.calls"] == 7
        assert m["cli.rows_written"] == 1543
    counts = [name for name, unit in UNITS.items() if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_layer_busy_times_cover_the_pass():
    m = _traced_figure()
    layers = ("cli.self_s", "cli.write_s", "branch.busy_s", "shooting.busy_s",
              "crossprod.busy_s")
    assert abs(sum(m[n] for n in layers) - m["trace.busy_s"]) <= 1e-6
    # busy self times add up to the untraced wall time, up to the tracing
    # overhead and the thread CPU that a pass spends outside any span
    untraced = m["trace.wall_s"] - m["trace.overhead_s"]
    assert abs(m["trace.busy_s"] - untraced) <= abs(m["trace.overhead_s"]) + 0.05 * untraced
