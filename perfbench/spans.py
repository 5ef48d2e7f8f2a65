"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer, recorded from the benchmark's own code:
name, start, end, parent span and request id. Spans stay in memory until
the run ends, then go to a JSON-lines file with each span's self time
(its duration minus the part of it that its child spans cover).

With tracing off, ``span()`` hands back one shared no-op context manager,
so the untraced run pays only a method call per layer boundary.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", name: str, rid):
        self.tracer = tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.rec = [len(tracer.spans), parent, name, rid, 0.0, 0.0]

    def __enter__(self):
        tr = self.tracer
        tr.spans.append(self.rec)
        tr._stack.append(self.rec[0])
        self.rec[4] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[5] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # [span_id, parent_id, name, request_id, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, rid=None):
        if not self.enabled:
            return _NULL
        return _Span(self, name, rid)

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        out = []
        for sid, _, _, _, t0, t1 in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out.append((t1 - t0) - covered)
        return out

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[2] == name]

    def write(self, path: str) -> None:
        selfs = self.self_times()
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as f:
            for (sid, parent, name, rid, t0, t1), st in zip(self.spans, selfs):
                f.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "rid": rid,
                    "start_s": t0 - base, "end_s": t1 - base,
                    "self_s": st,
                }) + "\n")

    def by_name(self) -> dict[str, dict]:
        """Count, total and self time per span name."""
        selfs = self.self_times()
        agg: dict[str, dict] = {}
        for (_, _, name, _, t0, t1), st in zip(self.spans, selfs):
            a = agg.setdefault(name, {"count": 0, "total_s": 0.0,
                                      "self_s": 0.0})
            a["count"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += st
        return agg
