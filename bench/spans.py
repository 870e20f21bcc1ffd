"""In-memory span recording for the traced run.

A span is [name, start_ns, end_ns, parent_index, op_id, calls]: ``calls``
is how many calls of the named function the span covers, so that
microsecond-scale functions can be timed in batches.  Spans stay in a
list until the run ends; nothing is written while timing.
"""

import contextlib
import json
import statistics
import time

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "calls", "index")

    def __init__(self, tracer, name, calls):
        self.tracer = tracer
        self.name = name
        self.calls = calls

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans.append([self.name, time.perf_counter_ns(), 0, parent, tr.op, self.calls])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter_ns()
        tr.stack.pop()
        return False


class Tracer:
    """Records spans when enabled; hands out a shared no-op otherwise."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.op = None

    def span(self, name, calls=1):
        if not self.enabled:
            return _NULL
        return _Span(self, name, calls)

    def by_op(self, name):
        """Per-call nanoseconds of the spans with this name, by op id."""
        out = {}
        for s in self.spans:
            if s[0] == name:
                out.setdefault(s[4], []).append((s[2] - s[1]) / s[5])
        return out

    def self_times(self):
        """Each span's duration minus what its child spans cover, by name."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        out = {}
        for s, covered in zip(self.spans, child_ns):
            out.setdefault(s[0], []).append(s[2] - s[1] - covered)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, calls in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "calls": calls}) + "\n")


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
