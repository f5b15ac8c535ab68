"""Per-layer tracing from outside the program.

The tracer replaces public functions at each module boundary of the
``steklov`` package (``cli`` -> ``branch``/``shooting``/``crossprod`` ->
``model``/``bessel``) with wrappers, runs a pass, and puts the originals
back. Nothing under ``src/`` changes. Module attributes are patched, so a
call goes through a wrapper when it is made by attribute (``_branch.x``)
or by a global name inside the module that defines or imports ``x``.

Coarse calls get a span: wall time (``perf_counter``) and the calling
thread's CPU time (``thread_time``). The figure command runs a thread
pool, so every thread keeps its own span stack; a span's self time is its
own time minus that of the spans it opened on the same thread. Fine
calls (``wave_arguments``, ``derivatives_up_to``) are only counted, on
the innermost open span of the calling thread. Spans stay in memory and
are summarised when the pass ends.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from statistics import median

# one in this many wave_arguments calls keeps its arguments for the replay
# that prices a single call without timing every call
_KEEP_EVERY = 64


@dataclass
class _Frame:
    name: str
    child_cpu: float = 0.0
    items: int = 0
    counts: Counter = field(default_factory=Counter)


@dataclass(frozen=True)
class Span:
    name: str
    parent: str | None
    wall: float
    cpu: float
    self_cpu: float
    items: int


@dataclass
class _ThreadLog:
    stack: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    # fine-call counts keyed by (call, innermost open span or None)
    counts: Counter = field(default_factory=Counter)
    samples: list = field(default_factory=list)
    kept: int = 0


class Tracer:
    """Wrappers for the given steklov modules, installed while in ``with``.

    Read the pass with ``layer_metrics(tracer)`` after the block.
    """

    def __init__(self, cli, branch, shooting, crossprod, bessel, model):
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        # (owner, attribute, original, wrapper); owner is a module or dict
        self._patches: list[tuple[object, str, object, object]] = []
        self._wave_arguments = model.wave_arguments

        def rows(args, result):
            return len(args[0])

        def lines(args, result):
            return args[0].count("\n")

        def traced(args, result):
            return len(result[0])

        def found(args, result):
            return len(result)

        def grid(args, result):
            return len(args[2])

        for name in list(cli._COMMANDS):
            self._span(cli._COMMANDS, name, f"cli.{name}")
        self._span(cli, "_trace_figure_l", "cli.figure_l")
        self._span(cli, "_emit", "cli.write", lines)
        self._span(branch, "write_points_csv", "cli.write", rows)
        self._span(branch, "continue_branch", "branch.continue_branch")
        self._span(branch, "slope_estimate", "branch.slope_estimate")
        self._span(branch, "trace_family", "branch.trace_family", traced)
        self._span(branch, "scan_roots", "branch.scan_roots", found)
        self._span(branch, "find_root", "branch.find_root")
        self._span(branch, "remainder_scaling", "branch.remainder_scaling", grid)
        self._count(branch, "wave_arguments", "model.wave_arguments", keep=True)
        self._span(shooting, "eigenvalue_by_shooting", "shooting.eigenvalue_by_shooting")
        self._span(shooting, "shoot", "shooting.shoot")
        for fn in ("recursive_form", "closed_form", "direct_cross_product", "evaluate"):
            self._span(crossprod, fn, f"crossprod.{fn}")
        self._count(crossprod, "derivatives_up_to", "bessel.derivatives_up_to")
        self._count(bessel, "derivatives_up_to", "bessel.derivatives_up_to")

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapper in self._patches:
            _set(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            _set(owner, attr, original)

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            self._logs.append(log)  # list.append is atomic under the GIL
        return log

    # -- wrappers ------------------------------------------------------------

    def _span(self, owner, attr: str, name: str, items=None) -> None:
        fn = _get(owner, attr)
        self._patches.append((owner, attr, fn, self._make_span(fn, name, items)))

    def _make_span(self, fn, name: str, items):
        tracer = self
        perf, cpu_clock = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            log = tracer._log()
            frame = _Frame(name)
            stack = log.stack
            parent = stack[-1] if stack else None
            stack.append(frame)
            w0, c0 = perf(), cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, w1 = cpu_clock(), perf()
                stack.pop()
                if parent is not None:
                    parent.child_cpu += c1 - c0
                log.spans.append((frame, parent.name if parent else None, w1 - w0, c1 - c0))
                for key, n in frame.counts.items():
                    log.counts[(key, name)] += n
            if items is not None:
                frame.items = items(args, result)
            return result

        return wrapper

    def _count(self, module, attr: str, name: str, keep: bool = False) -> None:
        tracer, fn = self, getattr(module, attr)

        def wrapper(*args, **kwargs):
            log = tracer._log()
            if log.stack:
                log.stack[-1].counts[name] += 1
            else:
                log.counts[(name, None)] += 1
            if keep:
                if log.kept % _KEEP_EVERY == 0:
                    log.samples.append(args)
                log.kept += 1
            return fn(*args, **kwargs)

        self._patches.append((module, attr, fn, wrapper))

    # -- results -------------------------------------------------------------

    def spans(self) -> list[Span]:
        out = []
        for log in self._logs:
            for frame, parent, wall, cpu in log.spans:
                out.append(Span(frame.name, parent, wall, cpu, cpu - frame.child_cpu,
                                frame.items))
        return out

    def counts(self) -> Counter:
        """Fine-call counts keyed by (call, innermost span name or None)."""
        total: Counter = Counter()
        for log in self._logs:
            total.update(log.counts)
        return total

    def wave_arguments_us(self, repeats: int = 5) -> float:
        """Median cost of one wave_arguments call, replaying kept arguments."""
        samples = [s for log in self._logs for s in log.samples]
        if not samples:
            return 0.0
        fn, per_call = self._wave_arguments, []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for args in samples:
                fn(*args)
            per_call.append((time.perf_counter() - t0) / len(samples))
        return 1e6 * median(per_call)


# every per-layer metric with its unit, in the order they are reported
UNITS = {
    "branch.f_evals": "count",
    "branch.f_evals.window": "count",
    "branch.f_evals.scan": "count",
    "branch.f_evals.root": "count",
    "branch.f_evals_per_root": "ratio",
    "branch.root_yield": "ratio",
    "branch.f_us": "us",
    "branch.find_root.calls": "count",
    "branch.find_root.busy_s": "s",
    "branch.trace_family.calls": "count",
    "branch.trace_family.busy_s": "s",
    "branch.scan_roots.calls": "count",
    "branch.scan_roots.busy_s": "s",
    "branch.continue_branch.busy_s": "s",
    "branch.remainder_scaling.points": "count",
    "branch.remainder_scaling.ms_per_point": "ms",
    "branch.busy_s": "s",
    "model.wave_arguments.us": "us",
    "shooting.shoot.calls": "count",
    "shooting.shoot.ms": "ms",
    "shooting.shoots_per_eigenvalue": "ratio",
    "shooting.busy_s": "s",
    "crossprod.busy_s": "s",
    "crossprod.recursive_form.first_ms": "ms",
    "bessel.derivatives_up_to.calls": "count",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.rows_written": "count",
    "cli.pool_wait_s": "s",
    "trace.busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    spans = tracer.spans()
    counts = tracer.counts()
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def self_cpu(name):
        return sum(s.self_cpu for s in by_name[name])

    def layer_self(prefix):
        return sum(s.self_cpu for s in spans if s.name.startswith(prefix))

    f_split = {span: n for (call, span), n in counts.items()
               if call == "model.wave_arguments"}
    f_evals = sum(f_split.values())
    roots = calls("branch.find_root")
    root_spans = ("branch.find_root", "branch.trace_family", "branch.scan_roots")
    root_work = sum(self_cpu(n) for n in root_spans)
    emitted = sum(s.items for n in root_spans[1:] for s in by_name[n])
    shoots = calls("shooting.shoot")
    eigen = calls("shooting.eigenvalue_by_shooting")
    points = sum(s.items for s in by_name["branch.remainder_scaling"])
    cli_all = [s for s in spans if s.name.startswith("cli.")]
    writes = by_name["cli.write"]
    return {
        "branch.f_evals": f_evals,
        "branch.f_evals.window": f_split.get("branch.trace_family", 0),
        "branch.f_evals.scan": f_split.get("branch.scan_roots", 0),
        "branch.f_evals.root": f_split.get("branch.find_root", 0),
        "branch.f_evals_per_root": f_evals / roots if roots else 0.0,
        "branch.root_yield": emitted / roots if roots else 0.0,
        "branch.f_us": 1e6 * root_work / f_evals if f_evals else 0.0,
        "branch.find_root.calls": roots,
        "branch.find_root.busy_s": self_cpu("branch.find_root"),
        "branch.trace_family.calls": calls("branch.trace_family"),
        "branch.trace_family.busy_s": self_cpu("branch.trace_family"),
        "branch.scan_roots.calls": calls("branch.scan_roots"),
        "branch.scan_roots.busy_s": self_cpu("branch.scan_roots"),
        "branch.continue_branch.busy_s": sum(s.cpu for s in by_name["branch.continue_branch"]),
        "branch.remainder_scaling.points": points,
        "branch.remainder_scaling.ms_per_point":
            1e3 * self_cpu("branch.remainder_scaling") / points if points else 0.0,
        "branch.busy_s": layer_self("branch."),
        "model.wave_arguments.us": tracer.wave_arguments_us(),
        "shooting.shoot.calls": shoots,
        "shooting.shoot.ms": 1e3 * self_cpu("shooting.shoot") / shoots if shoots else 0.0,
        "shooting.shoots_per_eigenvalue": shoots / eigen if eigen else 0.0,
        "shooting.busy_s": layer_self("shooting."),
        "crossprod.busy_s": layer_self("crossprod."),
        "bessel.derivatives_up_to.calls": sum(
            n for (call, _), n in counts.items() if call == "bessel.derivatives_up_to"),
        "cli.self_s": sum(s.self_cpu for s in cli_all if s.name != "cli.write"),
        "cli.write_s": sum(s.cpu for s in writes),
        "cli.rows_written": sum(s.items for s in writes),
        "cli.pool_wait_s": sum(s.wall - s.cpu for s in by_name["cli.figure_l"]),
        "trace.busy_s": sum(s.self_cpu for s in spans),
    }


def first_use_ms(tracer: Tracer, name: str) -> float:
    """Summed wall time of one call's spans, in ms (its cost on first use)."""
    return 1e3 * sum(s.wall for s in tracer.spans() if s.name == name)
