"""Outside-in span tracer for the benchmark.

The tracer replaces functions of the program by module attribute with
wrappers that record one span per call: name, start, end, parent span and
trace id.  A function imported into several modules (``from .model import
load_problem`` in ``cli``, the package re-exports in ``mnlqg``) is replaced
in every module that binds the same function object, so intra-package calls
are seen too.  ``Tracer.installed()`` restores every original binding on
exit, also when the traced code raises.

Spans stay in memory; ``Tracer.summary()`` reduces them to per-layer sums
after the run.  The benchmark traces single-threaded runs only
(``--jobs 1``), so one stack of open spans gives every span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass

PACKAGE = "mnlqg"

# (module, function) pairs wrapped in a traced run.  Each feeds a per-layer
# metric in BENCHMARK.json.
TRACED = (
    ("matrixmath", "solve_linear_extended"),
    ("moments", "build_augmented"),
    ("moments", "build_second_moment_matrix"),
    ("moments", "spectral_radius"),
    ("moments", "solve_lyapunov"),
    ("riccati", "gain_operators"),
    ("riccati", "q_operators"),
    ("riccati", "riccati_residual"),
    ("riccati", "value_iteration_solve"),
    ("riccati", "policy_iteration_solve"),
    ("riccati", "stabilizing_initial_controller"),
    ("bench", "random_problem"),
    ("bench", "run_comparison"),
    ("bench", "convergence_metric"),
    ("bench", "write_summary_csv"),
    ("bench", "write_trace_csv"),
    ("bench", "monte_carlo_cost"),
    ("model", "load_problem"),
    ("model", "validate"),
    ("model", "load_controller"),
    ("cli", "main"),
)


@dataclass
class Span:
    name: str
    trace_id: int
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    child_s: float = 0.0  # summed duration of direct children
    iterations: int = 0  # SolveReport.iterations, solver spans only
    trial_steps: int = 0  # horizon * trials, monte_carlo_cost only

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []  # indices of the open spans, innermost last

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.trace_id, stack[-1] if stack else None, time.perf_counter())
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
            span.iterations = getattr(result, "iterations", 0) if name.endswith("_solve") else 0
            if name == "bench.monte_carlo_cost":
                span.trial_steps = result.horizon * result.trials
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in TRACED; restore the originals on exit."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        replaced = []
        try:
            for short, attr in TRACED:
                home = sys.modules[f"{PACKAGE}.{short}"]
                original = getattr(home, attr)
                wrapper = self._wrap(f"{short}.{attr}", original)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s, self_s, iterations, trial_steps."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(
                span.name,
                {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "iterations": 0, "trial_steps": 0},
            )
            row["calls"] += 1
            row["busy_s"] += span.duration
            row["self_s"] += span.self_s
            row["iterations"] += span.iterations
            row["trial_steps"] += span.trial_steps
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        count = 0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None:
                if self.spans[parent].name == ancestor:
                    count += 1
                    break
                parent = self.spans[parent].parent
        return count
