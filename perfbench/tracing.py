"""Spans around the benchmark's calls into wattplan, and the per-layer summary.

A span holds its name, start and end (perf_counter nanoseconds), the index of
its parent span and the id of the op it belongs to. Spans stay in memory until
the run ends; `write` then puts them in a JSON-lines file and `summarize`
derives per-layer numbers from that file alone.

Each op and set-up also has a scale, the factor that turns its wall time into
time on the reference host (hostspeed.py); `summarize` applies it to every
span of that op, so per-layer times are reference times too.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    """Counts errors per module always; records spans only while enabled."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.op_id: str | None = None
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op_id]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.scales: dict[str, float] = {}  # op id -> reference time per wall time
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0, 0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter_ns()
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`; an exception counts against its module."""
        try:
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".", 1)[0]] += 1
            raise

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"meta": meta}) + "\n")
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": i, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )
            handle.write(
                json.dumps(
                    {"counts": dict(self.counts), "errors": dict(self.errors),
                     "scales": self.scales}
                )
                + "\n"
            )


def summarize(path: Path) -> dict:
    """Per span name: call count, median and total duration, median self time (ns).

    Self time is a span's duration minus the durations of its direct children.
    Durations are scaled by their op's scale; an op without one keeps wall time.
    """
    spans = []
    tail: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            doc = json.loads(line)
            if "id" in doc:
                spans.append(doc)
            elif "counts" in doc:
                tail = doc
    scales = tail.get("scales", {})
    durations = [(s["end_ns"] - s["start_ns"]) * scales.get(s["op"], 1.0) for s in spans]
    child_ns = Counter()
    for s, duration in zip(spans, durations):
        if s["parent"] is not None:
            child_ns[s["parent"]] += duration
    by_name: dict[str, dict[str, list[float]]] = {}
    for s, duration in zip(spans, durations):
        entry = by_name.setdefault(s["name"], {"dur": [], "self": []})
        entry["dur"].append(duration)
        entry["self"].append(duration - child_ns[s["id"]])
    layers = {
        name: {
            "calls": len(v["dur"]),
            "p50_ns": statistics.median(v["dur"]),
            "total_ns": sum(v["dur"]),
            "self_p50_ns": statistics.median(v["self"]),
        }
        for name, v in by_name.items()
    }
    return {"layers": layers, "counts": tail.get("counts", {}), "errors": tail.get("errors", {})}
