"""In-memory spans and counters recorded around library calls.

A span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 at
the top). Spans are only recorded while ``enabled`` is true; counters are
always kept, so the untraced run reports the same counts as the traced one.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager timing one call; a no-op while disabled."""
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return _Span(self, index)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children never overlap each other and
    their durations can simply be summed.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
