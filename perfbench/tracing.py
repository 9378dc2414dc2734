"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces module-level names that the package calls through (a
function in a module namespace, a method in a class namespace) with a
recorder, and puts the originals back on ``restore``.  No package source
changes: a call the package makes through a wrapped name is a span, any other
call is part of its caller's span.

Each call appends one span ``[name, parent, start, end]`` to a list held in
memory; ``parent`` is the index of the enclosing span or -1.  A span's self
time is its duration minus the durations of its direct children, so the self
times of all spans add up to the durations of the top-level spans.
"""

from __future__ import annotations

import csv
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._saved: list = []

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``on_return(counters, args, result)``, when given, adds counts taken
        from the call's arguments or result.
        """
        own = attr in vars(owner)
        original = getattr(owner, attr)
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            rec = [name, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(counters, args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original, own))

    def restore(self) -> None:
        """Put back every wrapped name, newest first."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def reset(self) -> None:
        """Drop recorded spans and counts; wrapped names stay wrapped."""
        self.spans.clear()
        self.counters.clear()

    def top_level_s(self) -> float:
        """Seconds covered by spans that have no enclosing span."""
        return sum(t1 - t0 for _, parent, t0, t1 in self.spans if parent < 0)

    def totals(self) -> tuple:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict = {}
        inclusive: dict = {}
        self_s: dict = {}
        for i, (name, _, t0, t1) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])
        return calls, inclusive, self_s

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "parent", "start_s", "end_s"])
            base = self.spans[0][2] if self.spans else 0.0
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                out.writerow([i, name, parent, f"{t0 - base:.9f}", f"{t1 - base:.9f}"])
