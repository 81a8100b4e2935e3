"""In-memory span recorder for the traced runs, plus the per-layer table.

Spans are recorded from the benchmark's own code around calls into the
program's layers; nothing inside the program is instrumented. Each span
carries a name, start and end (monotonic ns), its parent span and the
operation id. The current span follows ``contextvars``, so spans opened
inside asyncio tasks nest under the span that was current when the task
started.
"""

from __future__ import annotations

import contextvars
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []

    @contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[None]:
        parent = _current.get()
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        rec = {"id": len(self.spans), "name": name, "op": op, "parent": parent,
               "start": time.perf_counter_ns(), "end": None}
        self.spans.append(rec)
        token = _current.set(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter_ns()
            _current.reset(token)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def self_times_ms(self) -> dict[str, list[float]]:
        """Per span name, each span's self time: its duration minus the
        part of its interval that its children cover."""
        children: dict[int, list[tuple[int, int]]] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                children.setdefault(rec["parent"], []).append((rec["start"], rec["end"]))
        out: dict[str, list[float]] = {}
        for rec in self.spans:
            covered, reach = 0, rec["start"]
            for start, end in sorted(children.get(rec["id"], [])):
                start, end = max(start, reach), min(end, rec["end"])
                if end > start:
                    covered += end - start
                    reach = end
            out.setdefault(rec["name"], []).append((rec["end"] - rec["start"] - covered) / 1e6)
        return out

    def totals_ms(self, name: str) -> list[float]:
        return [(r["end"] - r["start"]) / 1e6 for r in self.spans if r["name"] == name]

    def median_ms(self, name: str) -> float:
        values = self.totals_ms(name)
        return statistics.median(values) if values else 0.0

    def table(self) -> str:
        """Text table: per span name, count, median total and self time, and
        the share of all recorded self time."""
        selfs = self.self_times_ms()
        grand = sum(sum(v) for v in selfs.values()) or 1.0
        rows = [f"{'span':34s} {'count':>6s} {'total_p50_ms':>13s} "
                f"{'self_p50_ms':>12s} {'self_share':>10s}"]
        for name in sorted(selfs, key=lambda n: -sum(selfs[n])):
            rows.append(
                f"{name:34s} {len(selfs[name]):6d} "
                f"{statistics.median(self.totals_ms(name)):13.3f} "
                f"{statistics.median(selfs[name]):12.3f} "
                f"{100.0 * sum(selfs[name]) / grand:9.1f}%"
            )
        return "\n".join(rows)
