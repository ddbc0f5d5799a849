"""
In-memory spans and counters for the traced run.

Spans are recorded from the benchmark's side of each call into posvec:
name, start, end, parent span and op id.  When a public function calls
another layer's public function, the benchmark times that inner call
again on the same arguments and records it as a child span, so a
layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: Counter[str] = Counter()
        self.op = 0

    def call(self, name, fn, *args, parent=None, calls=1):
        """Time fn(*args) as a span; return (result, span index)."""
        start = perf_counter()
        result = fn(*args)
        end = perf_counter()
        self.spans.append((name, start, end, parent, self.op))
        self.counts[name + ".calls"] += calls
        return result, len(self.spans) - 1

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def self_seconds(self) -> Counter[str]:
        """Per span name: total duration minus the duration of child spans."""
        out: Counter[str] = Counter()
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
