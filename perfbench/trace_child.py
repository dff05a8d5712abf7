"""Run one nlbox command with a span around every public function of the package.

Usage:
    PYTHONPATH=src python3 perfbench/trace_child.py SPANS.npz COMMAND [ARGS...]

The arguments after SPANS.npz are passed to ``nlbox.cli.main`` unchanged.
Before the command runs, every public function of every ``nlbox`` module,
and the constructor of every public non-dataclass class, is replaced by a
wrapper that records a span.  Names that another module bound with
``from ... import`` are rebound to the same wrapper, so a call such as
``swap.beta_quantum`` is counted as ``inequalities.beta_quantum``.

Spans stay in memory as parallel arrays (name id, parent index, start and
end in nanoseconds) and are written to SPANS.npz once, when the command
returns.  The import of ``nlbox.cli`` is recorded as the span
``import.nlbox``.  The exit code is the command's.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array

PACKAGE = "nlbox"


class Tracer:
    """Spans of one process, in the order they were opened."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def add(self, label: str, start: int, end: int) -> None:
        """Record a finished span under the currently open one."""
        self.name.append(self._label_id(label))
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)

    def wrap(self, fn, label: str):
        """A function that calls ``fn`` inside a span named ``label``."""
        name_id = self._label_id(label)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            labels=np.array(self.labels, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


def instrument(tracer: Tracer, modules) -> int:
    """Wrap the public functions and constructors defined in ``modules``.

    Every module in ``modules`` also has its ``from ... import`` bindings of
    a wrapped function rebound to the wrapper.  Returns the number of
    functions and constructors wrapped.
    """
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                init = vars(obj).get("__init__")
                if init is not None and not dataclasses.is_dataclass(obj):
                    obj.__init__ = tracer.wrap(init, f"{short}.{attr}")
                    wrappers[id(init)] = (init, obj.__init__)
            elif callable(obj):
                wrapper = tracer.wrap(obj, f"{short}.{attr}")
                wrappers[id(obj)] = (obj, wrapper)
                setattr(mod, attr, wrapper)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return len(wrappers)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: trace_child.py SPANS.npz COMMAND [ARGS...]", file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    t0 = time.perf_counter_ns()
    import nlbox.cli

    tracer.add("import.nlbox", t0, time.perf_counter_ns())
    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]
    instrument(tracer, modules)
    try:
        return nlbox.cli.main(command)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
