"""In-memory span recorder and the self-time arithmetic over its spans.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
span that was open when this one began (``None`` for a root).  The
recorder runs in one thread, so open spans form a stack and children
never overlap each other inside their parent.

A span's name is ``layer.what`` (``sat.solve``, ``ml.fit.SVM``); the part
before the first dot is the layer its self time is charged to.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

#: Layer charged with the self time of a root span: the time no layer
#: wrapper covered (rendering, dataset splits, the benchmark's own glue).
UNATTRIBUTED = "unattributed"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0] if "." in name else UNATTRIBUTED


class Tracer:
    """Records spans and counters at the boundaries the wrappers mark."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        #: Spans recorded per name.
        self.calls: Counter = Counter()
        #: Counters the wrappers bump without a span (``sat.add_clause_calls``)
        #: or from a call's result (``data.positive_rows``).
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def begin(self, name: str) -> list:
        span = [name, self.clock(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.calls[name] += 1
        return span

    def end(self, span: list) -> None:
        span[2] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, group: str | None = None, observe=None):
        """``fn`` recording one span per call.

        Calls made while another span of the same ``group`` is open (a
        random forest fitting its trees, ``solve`` delegating to
        ``solve_many``) pass straight through: they are part of the outer
        span's work, not separate calls.  ``observe(args, kwargs, result)``
        runs after each recorded call, outside the span.
        """
        group = group or name
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[group]:
                return fn(*args, **kwargs)
            depth[group] += 1
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
                depth[group] -= 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def counting(self, fn, name: str):
        """``fn`` bumping ``counts[name]`` per call, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans) -> dict[str, float]:
    """Seconds of each layer's spans not covered by their child spans.

    The root spans' self time lands in :data:`UNATTRIBUTED`, so the values
    sum to the total duration of the roots.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        layer = layer_of(name) if parent is not None else UNATTRIBUTED
        out[layer] += (end - start) - covered[index]
    return dict(out)


def total_seconds(spans, name: str) -> float:
    """Summed duration of the spans called ``name`` or ``name.*``."""
    prefix = name + "."
    return sum(
        end - start
        for span_name, start, end, _parent in spans
        if span_name == name or span_name.startswith(prefix)
    )
