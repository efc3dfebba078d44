"""In-memory spans around calls into pggsim, and the per-layer times derived from them.

A span is (name, start, end, parent): the parent is the index of the span
that was open when this one started. One benchmark repetition is one
request, so all spans of a repetition share its process.
"""

from __future__ import annotations

import functools
import time


class Recorder:
    """Records a span for each call of the functions it wraps."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace owner.attr by a wrapper that records a span named `name` per call.

        on_return(result) runs after the span has closed, so its cost is
        charged to the caller's span rather than to this layer.
        """
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.monotonic()
            try:
                result = inner(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._open.pop()
            if on_return is not None:
                on_return(result)
            return result

        setattr(owner, attr, traced)


def layer_times(spans: list[dict]) -> dict[str, dict]:
    """Calls, busy time and self time per span name.

    Busy time sums each span's duration; self time subtracts the part of that
    interval covered by child spans. Calls are sequential, so children never
    overlap and their durations simply add.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    layers: dict[str, dict] = {}
    for span, child_s in zip(spans, covered):
        duration = span["end"] - span["start"]
        layer = layers.setdefault(span["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        layer["calls"] += 1
        layer["busy_s"] += duration
        layer["self_s"] += duration - child_s
    return layers
