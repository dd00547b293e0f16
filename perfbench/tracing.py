"""In-memory spans and counts for the traced benchmark run.

A span records a name, start, end, the index of the span that was open when
it began (its parent) and the run id shared by every span of one run.  Spans
stay in memory until the run ends and are then written out as JSON lines.
A layer's self time is the time its spans were open minus the time of their
child spans.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    run_id: str


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), None, parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the durations of direct children.

    Spans come from one stack of context managers, so the children of a span
    never overlap each other and never outlast it.
    """
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.end - span.start
        if span.parent is not None:
            out[spans[span.parent].name] -= span.end - span.start
    return dict(out)
