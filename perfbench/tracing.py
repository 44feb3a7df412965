"""In-memory spans recorded around the benchmark's own calls into tlonemax.

A span has a name, a start and an end (``time.perf_counter`` seconds) and the
id of the span that was open when it started.  All spans of one run share the
run id.  Nothing is written until ``dump`` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "name": name, "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def summary(self) -> dict:
        """Per span name: count, total seconds, and self seconds (the total
        minus the time covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s, covered in zip(self.spans, child_time):
            total = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += total
            row["self_s"] += total - covered
        return out

    def dump(self, path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"run_id": self.run_id, **extra, "summary": self.summary(), "spans": self.spans}
        path.write_text(json.dumps(doc))
