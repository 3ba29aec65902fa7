"""In-memory span tracing around the public entry points of tailtwist's layers.

The tracer patches functions and methods from outside the package, so the
package itself carries no tracing code.  Every call into a wrapped entry
point becomes one span: name, parent span, thread id, start and end.  Spans
are appended to a list in memory and written out when the benchmark ends.

A span's parent is the innermost open span of its own thread.  Chunk tasks
run on the estimator's pool threads, whose stacks start empty, so their
spans are parented to the innermost open span of the thread that installed
the tracer: the estimate that submitted them.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "tailtwist"

# (module, attribute, span name): the entry points each traced run wraps.
# A dotted attribute names a method on a class of that module.
ENTRY_POINTS = (
    ("streams", "UnitSampleStream.uniforms", "streams.uniforms"),
    ("normal_tail", "upper_tail_quantile_from_log", "normal_tail.upper_tail_quantile_from_log"),
    ("distributions", "DistributionSpec.inverse_cumulative_hazard", "distributions.inverse_cumulative_hazard"),
    ("estimators", "estimate_conventional", "estimators.estimate_conventional"),
    ("estimators", "estimate_improved", "estimators.estimate_improved"),
    # the pool task: one 2**16-replication chunk of an estimate
    ("estimators", "_simulate_chunk", "estimators.chunk"),
    ("twist_optimizer", "solve_p", "twist_optimizer.solve_p"),
    ("twist_optimizer", "solve_p_prime", "twist_optimizer.solve_p_prime"),
    ("twist_optimizer", "theta_conventional", "twist_optimizer.theta_conventional"),
)

# Scalar hazard evaluations are counted, not spanned: the solvers make
# thousands of them and a span each would distort what is measured.
COUNTED_METHODS = (
    ("distributions", "DistributionSpec.cumulative_hazard"),
    ("distributions", "DistributionSpec.hazard_rate"),
)

SOLVER_FUNCTIONS = ("solve_p", "solve_p_prime", "theta_conventional")


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.sid, "parent": self.parent, "name": self.name,
            "thread": self.thread, "start": self.start, "end": self.end,
        }


class Patcher:
    """Replaces package attributes and puts the originals back on restore().

    A module-level function is replaced in every loaded ``tailtwist`` module
    that holds it, because callers import entry points by name.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, module: str, attr: str, make_wrapper) -> None:
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make_wrapper(original)
        if owner_name:
            self._set(owner, method, wrapper)
            return
        for name, loaded in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            if loaded is not None and loaded.__dict__.get(method) is original:
                self._set(loaded, method, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class Tracer:
    """Records spans and counts scalar hazard calls made inside solver spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.hazard_evals = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patcher: Patcher | None = None

    @property
    def missing(self) -> list[str]:
        return self._patcher.missing if self._patcher else []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end))

    def install(self) -> None:
        """Wrap every entry point; the calling thread becomes the main thread."""
        self._main_stack = self._stack()
        patcher = self._patcher = Patcher()
        for module, attr, name in ENTRY_POINTS:
            solver = module == "twist_optimizer"
            patcher.wrap(module, attr, lambda fn, name=name, solver=solver: self._spanned(name, fn, solver))
        for module, attr in COUNTED_METHODS:
            patcher.wrap(module, attr, self._counted)

    def uninstall(self) -> None:
        if self._patcher is not None:
            self._patcher.restore()

    def _spanned(self, name: str, fn, solver: bool):
        if not solver:
            return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

        def in_solver(*args, **kwargs):
            self._local.solver = getattr(self._local, "solver", 0) + 1
            try:
                return self.call(name, fn, *args, **kwargs)
            finally:
                self._local.solver -= 1

        return in_solver

    def _counted(self, fn):
        def counted(*args, **kwargs):
            if getattr(self._local, "solver", 0):
                self.hazard_evals += 1
            return fn(*args, **kwargs)

        return counted


def covered(span: Span, children) -> float:
    """Length of the part of span's interval that the children's intervals cover."""
    pieces = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    total = 0.0
    run_start = run_end = None
    for start, end in pieces:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def children_of(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            kids[span.parent].append(span)
    return kids


def self_time(spans, layer: str) -> float:
    """Summed self time of a layer's spans: each span's duration minus the
    part of it covered by its direct children."""
    kids = children_of(spans)
    return sum(s.duration - covered(s, kids[s.sid]) for s in spans if s.layer == layer)


def layer_metrics(spans, hazard_evals: int, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced sweep, keyed by BENCHMARK.json name."""
    kids = children_of(spans)

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def median_ms(name: str) -> float:
        durations = [s.duration for s in spans if s.name == name]
        return statistics.median(durations) * 1e3 if durations else 0.0

    estimates = [s for s in spans if s.name.startswith("estimators.estimate_")]
    busy = sum(c.duration for e in estimates for c in kids[e.sid])
    capacity = workers * sum(e.duration for e in estimates)
    metrics = {
        "normal_tail.quantile_s": total("normal_tail.upper_tail_quantile_from_log"),
        "distributions.inv_hazard_s": total("distributions.inverse_cumulative_hazard"),
        "streams.uniforms_s": total("streams.uniforms"),
        "estimators.self_s": self_time(spans, "estimators"),
        "estimators.chunks": sum(1 for s in spans if s.name == "estimators.chunk"),
        "estimators.pool_util": busy / capacity if capacity else 0.0,
    }
    # solve_p_prime is called by neither workload's runner; the solver probes time it
    for fn in ("solve_p", "theta_conventional"):
        metrics[f"twist_optimizer.{fn}_ms"] = median_ms(f"twist_optimizer.{fn}")
    metrics["twist_optimizer.calls"] = sum(1 for s in spans if s.layer == "twist_optimizer")
    metrics["twist_optimizer.hazard_evals"] = hazard_evals
    metrics["experiments.self_s"] = self_time(spans, "experiments")
    metrics["experiments.parse_config_ms"] = total("experiments.parse_config") * 1e3
    return metrics
