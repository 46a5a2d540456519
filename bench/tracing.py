"""Spans around the library calls the benchmark makes.

The untraced run uses :class:`NullTracer`, whose ``call`` is a plain
function call, so end-to-end numbers pay nothing for tracing.  The
traced run uses :class:`Tracer`, which keeps every span in memory and
writes them out once the run has ended.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from time import perf_counter_ns


class NullTracer:
    enabled = False

    def call(self, name, size, fn, *args):
        return fn(*args)

    def open_op(self, op_id):
        pass

    def close_op(self, start_ns, end_ns):
        pass


class Tracer:
    """Span fields: id, parent, op id, name, start and end (ns), and the
    input size of the call (0 where it does not vary)."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self._op_span = None
        self._op_id = None
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def open_op(self, op_id):
        self._op_id = op_id
        self._op_span = self._new_id()

    def close_op(self, start_ns, end_ns):
        self.spans.append((self._op_span, None, self._op_id, "op",
                           start_ns, end_ns, 0))
        self._op_span = self._op_id = None

    def call(self, name, size, fn, *args):
        span_id = self._new_id()
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((span_id, self._op_span, self._op_id, name,
                               start, perf_counter_ns(), size))

    def count(self, name) -> int:
        return sum(1 for span in self.spans if span[3] == name)

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "size")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, functions, sized) -> dict[str, float]:
        """Per function: busy seconds, call count, share of op time and,
        for functions in ``sized``, the log-log slope of median call
        time against input size."""
        op_ns = sum(e - s for _, _, _, name, s, e, _ in self.spans
                    if name == "op")
        busy = defaultdict(int)
        calls = defaultdict(int)
        by_size = defaultdict(lambda: defaultdict(list))
        for _, _, _, name, s, e, size in self.spans:
            busy[name] += e - s
            calls[name] += 1
            if size > 0:
                by_size[name][size].append(e - s)
        out = {}
        for fn in functions:
            out[f"{fn}_s"] = busy[fn] * 1e-9
            out[f"{fn}_calls"] = calls[fn]
            out[f"{fn}_share"] = busy[fn] / op_ns if op_ns else 0.0
            if fn in sized:
                out[f"{fn}_size_exp"] = _size_exponent(by_size[fn])
        return out


def _size_exponent(durations_by_size) -> float:
    """Least-squares slope of log(median duration) on log(size); 0.0
    when fewer than two sizes were seen."""
    points = [(math.log(size), math.log(max(statistics.median(ds), 1)))
              for size, ds in durations_by_size.items()]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx
