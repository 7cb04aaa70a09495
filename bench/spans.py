"""Spans recorded by the benchmark around its calls into each layer.

A span has a name, start, end, parent span and operation id.  Spans stay in
memory until the run ends, when ``dump`` writes them out.  Self time is a
span's duration minus the time its child spans cover; calls are sequential,
so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = 0
        self.values: dict[str, list[float]] = defaultdict(list)

    def record(self, name: str, value: float) -> None:
        """A count or per-call cost measured once per operation."""
        self.values[name].append(value)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def per_op(self, names=None, parent: str | None = None) -> dict[int, dict[str, float]]:
        """Per operation, the summed self time of each span name.

        With ``parent`` set, only spans whose parent span has that name count.
        """
        own = self.self_times()
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            if names is not None and s["name"] not in names:
                continue
            if parent is not None and (s["parent"] is None or self.spans[s["parent"]]["name"] != parent):
                continue
            out[s["op"]][s["name"]] += own[i]
        return out

    def span_median(self, name: str) -> float:
        """Median over operations of the summed self time of ``name``; 0 if never seen."""
        values = [v[name] for v in self.per_op({name}).values()]
        return statistics.median(values) if values else 0.0

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "values": self.values}, fh)
