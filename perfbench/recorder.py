"""Span and counter recorder for the benchmark's traced runs (stdlib only).

A span is one call into a layer. It holds the layer name, its start and end
(``time.perf_counter`` seconds, which on Linux is the system-wide monotonic
clock and so comparable across processes), the index of the enclosing span,
the operation it belongs to (a repetition or request index, or a phase name
such as ``"setup"``) and the id of the process that ran it (``None`` for the
recording process). Spans stay in memory; ``dump`` writes them once, when the
run ends.

Counters are kept per operation, so one repetition's counts can be checked
exactly. A span opened with ``op=...`` starts an operation: every span and
count inside it belongs to that operation until the span ends.

A layer's self time is its span's duration minus the part of that interval
that its child spans cover. Children from two worker processes can overlap,
so the covered part is the length of their union, not the sum.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, PID = range(6)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.op_counts: dict[object, Counter] = {}
        self.op = None
        self.counts = self._counter(None)
        self._seen: set = set()
        self._stack: list[tuple[int, tuple | None]] = []

    def _counter(self, op) -> Counter:
        return self.op_counts.setdefault(op, Counter())

    def begin(self, name: str, op=None) -> None:
        """Open a span inside the innermost open one; ``op`` starts an operation
        unless it is the current one already."""
        parent = self._stack[-1][0] if self._stack else None
        saved = None
        if op is not None and op != self.op:
            saved = (self.op, self.counts, self._seen)
            self.op, self.counts, self._seen = op, self._counter(op), set()
        self._stack.append((len(self.spans), saved))
        self.spans.append([name, 0.0, None, parent, self.op, None])
        self.spans[-1][START] = perf_counter()

    def end(self) -> None:
        """Close the innermost open span."""
        stamp = perf_counter()
        index, saved = self._stack.pop()
        self.spans[index][END] = stamp
        if saved is not None:
            self.op, self.counts, self._seen = saved

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def count_distinct(self, name: str, key) -> None:
        """Count ``name`` once per distinct ``key`` within the current operation."""
        if key not in self._seen:
            self._seen.add(key)
            self.counts[name] += 1

    def export(self, mark: int, op) -> tuple:
        """Hand the spans recorded since ``mark`` and the counters of ``op`` to
        another process, and drop them here.

        Meant for a forked worker: spans before ``mark`` were inherited from
        the parent and have the same indices there.
        """
        pid = os.getpid()
        spans = [s[:PID] + [pid] for s in self.spans[mark:]]
        del self.spans[mark:]
        return mark, spans, op, dict(self.op_counts.pop(op, {}))

    def absorb(self, payload: tuple) -> None:
        """Append spans and counters exported by a worker process."""
        mark, spans, op, counts = payload
        offset = len(self.spans) - mark
        for span in spans:
            if span[PARENT] is not None and span[PARENT] >= mark:
                span[PARENT] += offset
            self.spans.append(span)
        self._counter(op).update(counts)

    def op_roots(self) -> list[list]:
        """Spans that start an integer-numbered operation (one per repetition or request)."""
        spans = self.spans
        return [
            s for s in spans
            if isinstance(s[OP], int) and (s[PARENT] is None or spans[s[PARENT]][OP] != s[OP])
        ]

    def dump(self, path, meta: dict) -> None:
        """Write a header line with ``meta``, then one JSON line per span."""
        with open(path, "w") as out:
            out.write(json.dumps(meta) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals``, clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered_length(children.get(i, ()), span[START], span[END])
        for i, span in enumerate(spans)
    ]
