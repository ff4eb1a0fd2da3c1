"""Driver-side spans around the benchmark's calls into each layer.

A span records (name, start, end, parent).  Spans are kept in memory
and written as JSON lines when the run ends.  A disabled tracer still
times its spans (the untraced runs need the durations for their
end-to-end metrics) but keeps no records.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Times the ``with`` body; yields a dict whose ``"s"`` holds
        the duration once the body ends."""
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None, **attrs}
        if self.enabled:
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["s"] = rec["end"] - rec["start"]
            if self.enabled:
                self._stack.pop()

    def write(self, path: str, config: dict) -> None:
        """One JSON line of run ``config``, then one per span; a span's
        ``parent`` is the ``id`` of the span that encloses it."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"config": config}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")


def span_cost_s(n: int = 2000) -> float:
    """Measured cost of one recorded span (enter + exit), in seconds."""
    t = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with t.span("probe"):
            pass
    return (time.perf_counter() - t0) / n
