"""Spans around the benchmark's calls into profin, and their self times.

A traced run records one span per call into a layer: name, start, end, the
job span that caused it, and the job id.  Counts are taken at the same
call sites.  Spans stay in memory until the run ends.  The untraced run uses
``NullTracer``, which only makes the call.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through and counts are dropped."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        pass

    def begin_job(self, job_id: str) -> None:
        pass

    def end_job(self) -> None:
        pass


class Tracer(NullTracer):
    """Tracing on.  ``spans`` holds ``(name, start, end, parent, job)``
    tuples, where ``parent`` is the index of the job span (or ``None`` for a
    job span itself)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._job: str | None = None
        self._job_start = 0.0
        self._job_index: int | None = None

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, perf_counter(), self._job_index,
                               self._job))

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def begin_job(self, job_id: str) -> None:
        # Reserve the job span's slot so its children can point at it.
        self._job = job_id
        self._job_index = len(self.spans)
        self._job_start = perf_counter()
        self.spans.append(("job", self._job_start, self._job_start, None,
                           job_id))

    def end_job(self) -> None:
        i = self._job_index
        self.spans[i] = ("job", self._job_start, perf_counter(), None,
                         self._job)
        self._job = self._job_index = None


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end_so_far = float("-inf")
    for start, end in sorted(intervals):
        if end <= end_so_far:
            continue
        total += end - max(start, end_so_far)
        end_so_far = end
    return total


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    of its interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(i, ())
                  if min(e, end) > max(s, start)]
        out[name] += (end - start) - covered(inside)
    return dict(out)
