"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, the index of the span that caused it
(its parent), a run id shared by every span of one child process, and a
few attributes.  The first component of a name is the layer it measures
(``kernels``, ``maps``, ``checkers``, ``constructions``, ``suites``,
``cli``).  Spans are kept in a list and written out once, when the child
ends.  With tracing off, ``span`` records nothing and yields None, so the
traced and the untraced runs execute the same benchmark code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

LAYERS = ("kernels", "maps", "checkers", "constructions", "suites", "cli")


def now() -> float:
    """System-wide monotonic clock, comparable between processes on Linux."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self.open_spans: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {
            "name": name,
            "start": now(),
            "end": None,
            "parent": self.open_spans[-1] if self.open_spans else None,
            "run": self.run_id,
            "attrs": attrs,
        }
        self.open_spans.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self.open_spans.pop()
            rec["end"] = now()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def find(spans: list[dict], name: str, **attrs) -> list[dict]:
    return [
        s for s in spans
        if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
    ]


def self_time_by_layer(spans: list[dict]) -> dict[str, float]:
    """Per layer: span durations minus the time their direct children cover.

    Spans of one process nest and never overlap, so the children of a span
    cover exactly the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    out = {layer: 0.0 for layer in LAYERS}
    for s, c in zip(spans, covered):
        out[s["name"].split(".")[0]] += duration(s) - c
    return out
