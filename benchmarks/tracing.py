"""In-memory spans and garbage-collector pauses for the traced pass.

A span records one call into a ccz layer: its name, start, end, parent
span and the id of the input it worked on.  Spans are kept in a list and
written out once, after measuring, so tracing costs one tuple per call.
Garbage-collector pauses are observed from outside through ``gc.callbacks``
and attributed to every span open while they happened.
"""

import gc
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class GcMeter:
    """Running totals of collector pauses, fed by a ``gc.callbacks`` hook.

    ``clock`` gives nanoseconds; the tracer that reads this meter uses it too.
    """

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.pause_ns = 0
        self.collections = 0
        self._started = 0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = self.clock()
        else:
            self.pause_ns += self.clock() - self._started
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


class Tracer:
    """Collects spans; ``spans`` rows are (id, name, start, end, parent, input, gc_ns, gc_count)."""

    def __init__(self, gc_meter: GcMeter):
        self.gc = gc_meter
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, input_id: int):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the slot so ids follow start order
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        gc_ns, gc_count = self.gc.pause_ns, self.gc.collections
        start = self.gc.clock()
        try:
            yield
        finally:
            end = self.gc.clock()
            self._stack.pop()
            self.spans[span_id] = (
                span_id, name, start, end, parent, input_id,
                self.gc.pause_ns - gc_ns, self.gc.collections - gc_count,
            )

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, _, start, end, _, _, _, _ in self.spans]
        for _, _, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write one JSON object per span, tagged with its pass and self time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("id", "name", "start_ns", "end_ns", "parent", "input", "gc_ns", "gc_count")
    with path.open("w") as out:
        for pass_no, tracer in enumerate(tracers):
            for row, self_ns in zip(tracer.spans, tracer.self_times()):
                record = dict(zip(keys, row), self_ns=self_ns, pass_no=pass_no)
                out.write(json.dumps(record) + "\n")
