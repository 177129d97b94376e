"""Spans recorded by the benchmark around its calls into bevkit.

A span has a name, a start, an end, the span that encloses it and the op
it belongs to.  Spans stay in memory and are written once, when the run
ends.  A span's self time is its duration minus the time its child spans
cover; children never overlap, because every workload is one closed loop
on one thread.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans while ``enabled``; otherwise ``span`` does nothing."""

    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "op": self.op_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_ms_by_op(self) -> dict:
        """``{op id: {span name: summed self time in ms}}``."""
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_s[rec["parent"]] += rec["end"] - rec["start"]
        out: dict = {}
        for rec, covered in zip(self.spans, child_s):
            per_op = out.setdefault(rec["op"], {})
            self_ms = (rec["end"] - rec["start"] - covered) * 1e3
            per_op[rec["name"]] = per_op.get(rec["name"], 0.0) + self_ms
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def median_by_name(per_op: dict) -> dict:
    """Median over ops of each span name's per-op self time, with its count."""
    samples: dict = {}
    for by_name in per_op.values():
        for name, ms in by_name.items():
            samples.setdefault(name, []).append(ms)
    return {name: (statistics.median(v), len(v)) for name, v in samples.items()}
