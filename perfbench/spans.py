"""Span tracing of hqnnbench from outside the package.

``traced(harness)`` swaps the names that ``hqnnbench.harness``
calls through for wrappers that record one span per call, and puts the
originals back on exit. Nothing under ``src/`` changes: the wrappers sit at
the module attributes the harness looks up at call time, so a refactor that
renames or stops calling one of them is caught (a missing name raises
``MissingNameError``; a layer that records no span fails ``summarize``).

A span record is ``[name, start, end, parent, self_s]`` where ``parent`` is
the index of the enclosing span (-1 for a root) and ``self_s`` is the
span's duration minus the time its child spans cover. Records stay in
memory; the benchmark summarizes them when the traced unit ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from statistics import median

# harness attribute -> span name
SPAN_OF = {
    "qnn_forward_batch": "qnn.fwd",
    "qnn_backward_batch": "qnn.bwd",
    "bce_with_logits": "loss",
    "adam_step": "adam",
    "build_model": "harness.build_model",
    "_predict": "harness.predict",
    "run_experiment": "harness.run_experiment",
    "make_folds": "data.make_folds",
    "load_run_dataset": "data.load",
    "aggregate_tables": "stats.aggregate_tables",
}
# stack_forward/stack_backward spans are named after the role of the stack
# they run: "pre" for stacks from build_preprocessor, "head" for build_head.
STACK_DIRECTION = {"stack_forward": "fwd", "stack_backward": "bwd"}
STACK_ROLE = {"build_preprocessor": "pre", "build_head": "head"}
METRICS_SPAN = "metrics.compute"  # harness.MetricReport.compute

SPAN_NAMES = (
    *SPAN_OF.values(),
    *(f"{role}.{d}" for role in STACK_ROLE.values() for d in STACK_DIRECTION.values()),
    METRICS_SPAN,
)


class MissingNameError(RuntimeError):
    """A name the tracer wraps is no longer reachable in hqnnbench.harness."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.roles: dict[int, str] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = end = time.perf_counter()
            self._stack.pop()
            # rec[4] holds the children's total until the span closes
            rec[4] = end - rec[1] - rec[4]
            if parent >= 0:
                self.spans[parent][4] += end - rec[1]


def _missing_names(harness) -> list[str]:
    names = [*SPAN_OF, *STACK_DIRECTION, *STACK_ROLE]
    missing = [n for n in names if not callable(getattr(harness, n, None))]
    report = getattr(harness, "MetricReport", None)
    if report is None or not callable(getattr(report, "compute", None)):
        missing.append("MetricReport.compute")
    return missing


@contextmanager
def traced(harness):
    """Install span wrappers on ``harness`` for the duration of the block."""
    missing = _missing_names(harness)
    if missing:
        raise MissingNameError(
            "hqnnbench.harness no longer has " + ", ".join(missing) + "; update perfbench/spans.py"
        )
    tracer = Tracer()

    def span(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def stack_span(direction, fn):
        @functools.wraps(fn)
        def wrapper(stack, *args, **kwargs):
            role = tracer.roles.get(id(stack), "unknown")
            return tracer.call(f"{role}.{direction}", fn, (stack, *args), kwargs)

        return wrapper

    def tag(role, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = fn(*args, **kwargs)
            tracer.roles[id(stack)] = role
            return stack

        return wrapper

    originals = {n: getattr(harness, n) for n in (*SPAN_OF, *STACK_DIRECTION, *STACK_ROLE)}
    report_cls = harness.MetricReport
    original_compute = report_cls.__dict__["compute"]
    try:
        for n, span_name in SPAN_OF.items():
            setattr(harness, n, span(span_name, originals[n]))
        for n, direction in STACK_DIRECTION.items():
            setattr(harness, n, stack_span(direction, originals[n]))
        for n, role in STACK_ROLE.items():
            setattr(harness, n, tag(role, originals[n]))
        report_cls.compute = staticmethod(span(METRICS_SPAN, report_cls.compute))
        yield tracer
    finally:
        for n, fn in originals.items():
            setattr(harness, n, fn)
        report_cls.compute = original_compute


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, p50 ms per call, total and self seconds.

    Raises ``MissingNameError`` if any layer recorded no span or a stack ran
    whose role was not tagged when it was built, so a layer cannot silently read 0.
    """
    by_name: dict[str, list[list]] = {}
    for rec in spans:
        by_name.setdefault(rec[0], []).append(rec)
    absent = [n for n in SPAN_NAMES if n not in by_name]
    untagged = [n for n in by_name if n not in SPAN_NAMES]
    if absent or untagged:
        raise MissingNameError(f"no spans for {absent}; unexpected spans {untagged}")
    out = {}
    for name, recs in by_name.items():
        durations = [r[2] - r[1] for r in recs]
        out[name] = {
            "calls": len(recs),
            "p50_ms": 1e3 * median(durations),
            "total_s": sum(durations),
            "self_s": sum(r[4] for r in recs),
        }
    return out
