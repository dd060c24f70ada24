"""The benchmark's own span recorder.

Spans are recorded from the benchmark's side of each layer boundary
(around the calls into ``repro``), kept in memory, and written out once
in Chrome ``trace_event`` form when the traced run ends.  Open the file
in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    """In-memory spans: name, start, end, parent id, workload id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def mark(self) -> int:
        """Position to pass to :meth:`total` to sum only later spans."""
        return len(self.spans)

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans[since:]
            if s["name"] == name and s["end"] is not None
        )

    def self_time(self, span_id: int) -> float:
        """Duration minus the part covered by the span's children."""
        span = self.spans[span_id]
        children = sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["parent"] == span_id and s["end"] is not None
        )
        return span["end"] - span["start"] - children

    def write_chrome(self, path) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        events = [
            {
                "name": s["name"],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {
                    "id": s["id"],
                    "parent": s["parent"],
                    "workload": s["workload"],
                    "self_us": self.self_time(s["id"]) * 1e6,
                },
            }
            for s in self.spans
            if s["end"] is not None
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)
