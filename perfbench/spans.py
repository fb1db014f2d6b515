"""In-memory spans (name, start, end, parent) and the self-times they give."""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, List


class Spans:
    """Spans kept in a list and written out once the run ends.

    `begin`/`end` are cheap enough to wrap every `StreamMonitor.ingest` call;
    `span` is the context-manager form for coarser calls.
    """

    def __init__(self) -> None:
        self.rows: List[list] = []  # [name, start, end, parent row or -1]
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        row = len(self.rows)
        self.rows.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(row)
        return row

    def end(self, row: int) -> None:
        self.rows[row][2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        row = self.begin(name)
        try:
            yield
        finally:
            self.end(row)

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.rows)
        for name, start, end, parent in self.rows:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for row, (name, start, end, _) in enumerate(self.rows):
            out[name] += end - start - child_time[row]
        return dict(out)


class NoSpans:
    """Stands in for Spans in untraced runs."""

    def span(self, name: str):
        return nullcontext()
