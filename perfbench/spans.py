"""Per-layer figures from the spans one traced nlbox process wrote.

A span's self time is its duration minus the time its child spans cover.
The traced process runs one thread, so the children of a span run one
after another inside it and never overlap: the time they cover is the sum
of their durations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

NS_PER_MS = 1e6


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Self time of every span, in the unit of ``start`` and ``end``.

    ``parent[i]`` is the index of span i's parent, or -1 for a root span.
    """
    duration = (np.asarray(end) - np.asarray(start)).astype(np.float64)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


@dataclass
class SpanSummary:
    """Totals over the spans of one or more traced processes."""

    ms: Counter = field(default_factory=Counter)  # label -> inclusive ms
    calls: Counter = field(default_factory=Counter)  # label -> spans
    self_ms: Counter = field(default_factory=Counter)  # module -> self ms
    cmd_self_ms: float = 0.0  # self time of the cli.cmd_* spans
    import_ms: list[float] = field(default_factory=list)  # one per process
    spans: int = 0

    def add(self, labels, name, parent, start, end) -> None:
        labels = [str(label) for label in labels]
        duration = (np.asarray(end) - np.asarray(start)) / NS_PER_MS
        own = self_times(start, end, parent) / NS_PER_MS
        inclusive = np.bincount(name, weights=duration, minlength=len(labels))
        own_by_label = np.bincount(name, weights=own, minlength=len(labels))
        counts = np.bincount(name, minlength=len(labels))
        for i, label in enumerate(labels):
            if counts[i] == 0:
                continue
            self.ms[label] += float(inclusive[i])
            self.calls[label] += int(counts[i])
            self.self_ms[label.split(".", 1)[0]] += float(own_by_label[i])
            if label.startswith("cli.cmd_"):
                self.cmd_self_ms += float(own_by_label[i])
        if "import.nlbox" in labels:
            is_import = np.asarray(name) == labels.index("import.nlbox")
            self.import_ms.extend(float(d) for d in duration[is_import])
        self.spans += int(np.asarray(name).size)

    def add_file(self, path) -> None:
        with np.load(path) as doc:
            self.add(doc["labels"], doc["name"], doc["parent"], doc["start"], doc["end"])
