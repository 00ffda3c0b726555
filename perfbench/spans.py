"""In-memory spans around the benchmark's calls into martkit.

A span is (id, name, start, end, parent, job, pass_idx, work): ``name`` is
``<module>.<function>``, ``parent`` the id of the enclosing job span, ``job``
the job's identifier (``setup`` while a pass builds its inputs), and ``work``
the counts computed from the call's arguments.  Spans stay in memory and
are written out once the run ends.  With tracing off, :meth:`Tracer.call` is
a plain call.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    pass_idx: int
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.pass_idx = 0
        self._job = "setup"
        self._parent: int | None = None

    def call(self, name: str, fn, *args, work: dict | None = None, **kwargs):
        """Run ``fn(*args, **kwargs)``; when tracing, record a span ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans.append(
                Span(
                    len(self.spans), name, start, end, self._parent, self._job,
                    self.pass_idx, {} if work is None else work,
                )
            )

    def open_job(self, job: str) -> float:
        """Start a job span; returns its start time."""
        self._job = job
        if self.enabled:
            self._parent = len(self.spans)
            self.spans.append(Span(self._parent, "bench.job", 0.0, 0.0, None, job, self.pass_idx))
        return time.perf_counter()

    def close_job(self, start: float) -> float:
        """End the open job span; returns the job's latency in seconds."""
        end = time.perf_counter()
        if self.enabled:
            span = self.spans[self._parent]
            span.start, span.end = start, end
        self._job, self._parent = "setup", None
        return end - start

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"run": header, "spans": [asdict(s) for s in self.spans]}, fh)
