"""In-memory spans recorded by the benchmark around public calls into each layer.

The benchmark does not instrument the program. It calls each layer's public
entry point itself, in pipeline order, and records one span per call: name,
start and end (``perf_counter_ns``), parent span and request id. A parent's
children are the calls that replay the work the parent did inside the
program, so a span's self time is its duration minus the durations of its
children. Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

__all__ = ["Tracer"]


class Tracer:
    """Append-only span store for one benchmark run."""

    def __init__(self) -> None:
        self._spans: list[tuple[str, int, int, int, int]] = []

    def __len__(self) -> int:
        return len(self._spans)

    def span(self, name: str, start: int, end: int, parent: int = -1, request: int = -1) -> int:
        """Record one span; returns its id for use as a parent."""
        self._spans.append((name, start, end, parent, request))
        return len(self._spans) - 1

    def durations_us(self, name: str) -> list[float]:
        """Durations of every span called ``name``, microseconds."""
        return [(end - start) / 1e3 for n, start, end, _, _ in self._spans if n == name]

    def self_us(self, name: str) -> list[float]:
        """Self time of every span called ``name``: duration minus its children's."""
        children: dict[int, int] = defaultdict(int)
        for _, start, end, parent, _ in self._spans:
            if parent >= 0:
                children[parent] += end - start
        return [
            (end - start - children[sid]) / 1e3
            for sid, (n, start, end, _, _) in enumerate(self._spans)
            if n == name
        ]

    def reconcile(self, parent_name: str) -> tuple[float, float]:
        """``(sum of parent durations, sum of their children's)``, nanoseconds."""
        parents = {sid for sid, s in enumerate(self._spans) if s[0] == parent_name}
        total = sum(self._spans[sid][2] - self._spans[sid][1] for sid in parents)
        covered = sum(end - start for _, start, end, parent, _ in self._spans if parent in parents)
        return float(total), float(covered)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, start, end, parent, request) in enumerate(self._spans):
                handle.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )
