"""In-memory spans recorded by the benchmark around calls into ``smk``.

A span has a name, start, end, parent span and instance id. Spans stay in
memory while the run measures and are written out once it ends. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, workdir: Path):
        self.workdir = workdir  # scratch space for probes that write files
        self.instance = -1
        self.spans: list[list] = []  # [name, start, end, parent, instance]
        self.counts: dict[int, dict[str, float]] = defaultdict(dict)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.instance]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float):
        self.counts[self.instance][name] = value

    def clear(self):
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per instance, the summed self time of the spans of each name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, inst), child in zip(self.spans, covered):
            out[inst][name] += end - start - child
        return out

    def durations(self, name: str) -> dict[int, float]:
        """Per instance, the summed duration of the spans of one name."""
        out: dict[int, float] = defaultdict(float)
        for n, start, end, _, inst in self.spans:
            if n == name:
                out[inst] += end - start
        return out

    def write(self, path: Path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "instance")
        data = dict(header)
        data["spans"] = [dict(zip(keys, s)) for s in self.spans]
        data["counts"] = {str(k): v for k, v in self.counts.items()}
        path.write_text(json.dumps(data))

