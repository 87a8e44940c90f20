"""In-memory spans recorded from the benchmark side of each layer boundary.

A span is (name, start_ns, end_ns, parent_index).  Spans stay in memory
until the run ends; a layer's self time is its span minus the spans of its
children.  Nothing here touches the program under test: the benchmark
wraps the public functions it calls, or swaps a module attribute for the
duration of the traced pass.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        """``fn`` inside a span.

        ``name`` is a string or a function of the call's first argument;
        ``on_result(result, *args)`` sees each return value, for counts.
        The clock is read right around the call, so the span's own
        bookkeeping lands in the parent's self time, not in this layer's.
        """
        spans, stack = self.spans, self._stack
        naming = name if callable(name) else None

        def traced(*args, **kwargs):
            index = len(spans)
            span = [naming(args[0]) if naming else name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                span[1] = start
                stack.pop()
            if on_result is not None:
                on_result(result, *args)
            return result

        return traced

    @contextmanager
    def patched(self, module, attribute: str, name, on_result=None):
        """Route ``module.attribute`` through a span while the block runs."""
        original = getattr(module, attribute)
        setattr(module, attribute, self.wrap(name, original, on_result))
        try:
            yield
        finally:
            setattr(module, attribute, original)

    def self_times(self) -> list[int]:
        """Self time of every span, in ns, indexed like ``spans``."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times_by_name(self) -> dict[str, list[int]]:
        grouped: dict[str, list[int]] = {}
        for span, own in zip(self.spans, self.self_times()):
            grouped.setdefault(span[0], []).append(own)
        return grouped

    def children_ns(self, roots: list[int]) -> list[int]:
        """For each span in ``roots``, the time its direct children cover.

        That is the sum of the self times of every span beneath it.
        """
        covered = dict.fromkeys(roots, 0)
        for _, start, end, parent in self.spans:
            if parent in covered:
                covered[parent] += end - start
        return [covered[r] for r in roots]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans},
                      handle, separators=(",", ":"))


def median_of(grouped: dict[str, list[int]], prefix: str, scale: float) -> float:
    """Median self time over spans named ``prefix`` or ``prefix.<suffix>``, divided by scale."""
    values = [v for name, vs in grouped.items()
              if name == prefix or name.startswith(prefix + ".") for v in vs]
    return statistics.median(values) / scale if values else 0.0


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split ``-X importtime`` output into numpy, click and capflow's own import time, in ms.

    ``capflow`` is the cumulative time of the outermost capflow modules minus
    the numpy and click imports nested inside them.
    """
    entries = []  # (depth, name, cumulative_us) in the post-order Python prints
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, label = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = label.strip()
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        entries.append((depth, name, int(cumulative)))

    def top(pattern) -> list[tuple[int, int]]:
        """(index, cumulative) of matching entries not nested in another match."""
        found = []
        for i, (depth, name, cumulative) in enumerate(entries):
            if pattern(name):
                # children precede their parent in post-order: drop any nested ones
                found = [(j, c) for j, c in found if not _nested(entries, j, i)]
                found.append((i, cumulative))
        return found

    numpy = top(lambda n: n == "numpy")
    click = top(lambda n: n == "click")
    own = top(lambda n: n == "capflow" or n.startswith("capflow."))
    capflow_us = 0
    for index, cumulative in own:
        capflow_us += cumulative
        capflow_us -= sum(c for j, c in numpy + click if _nested(entries, j, index))
    return {
        "numpy": sum(c for _, c in numpy) / 1e3,
        "click": sum(c for _, c in click) / 1e3,
        "capflow": capflow_us / 1e3,
    }


def _nested(entries, child: int, parent: int) -> bool:
    """Whether entry ``child`` lies inside entry ``parent`` (post-order, by depth)."""
    if child >= parent:
        return False
    parent_depth = entries[parent][0]
    for depth, _, _ in entries[child + 1:parent]:
        if depth <= parent_depth:
            return False
    return entries[child][0] > parent_depth
