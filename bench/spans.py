"""Stopwatch spans recorded by the benchmark around calls into each layer.

The traced pass wraps every call it makes into a ``repro`` module in a
span: ``(name, start, end, parent, operation id)``.  Names are
``<layer>.<call>`` with the layer being the ``src/repro/<module>``
called.  Spans stay in memory (one tuple append per span) and are
written out when the pass ends.

A *chain* records consecutive calls with one clock reading per boundary:
the reading that ends one span starts the next, so loop and glue time
lands in a neighbouring span instead of a gap.  A layer's **self time**
is its span minus the part of that interval its children cover —
children recorded by worker threads may overlap each other, so coverage
is the length of their union, not their sum.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: (name, start, end, parent index or -1, operation id)
SpanRow = Tuple[str, float, float, int, int]


class SpanRecorder:
    """In-memory span store for one traced pass."""

    def __init__(self) -> None:
        self.rows: List[SpanRow] = []
        self._lock = threading.Lock()  # worker threads add spans too
        #: Operation id and parent span new spans are recorded under.
        self.operation = -1
        self.parent = -1
        self._self_times = (0, {})  # (rows analysed, result)

    # -- recording -----------------------------------------------------------

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None,
            operation: Optional[int] = None) -> int:
        """Record one span; returns its index.

        ``parent`` and ``operation`` default to the recorder's current
        ones; interleaved asyncio clients pass their own.
        """
        with self._lock:
            self.rows.append((
                name, start, end,
                self.parent if parent is None else parent,
                self.operation if operation is None else operation))
            return len(self.rows) - 1

    def finish(self, index: int, start: float, end: float) -> None:
        """Set the times of a span added before its children."""
        name, _start, _end, parent, operation = self.rows[index]
        self.rows[index] = (name, start, end, parent, operation)

    def open(self, name: str, operation: Optional[int] = None) -> "_Open":
        """Context manager: a span whose body records child spans."""
        return _Open(self, name, operation)

    def chain(self) -> "Chain":
        return Chain(self)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``{operation id: {span name: summed self time}}``."""
        if self._self_times[0] == len(self.rows):
            return self._self_times[1]
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _name, start, end, parent, _op in self.rows:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: Dict[int, Dict[str, float]] = {}
        for index, (name, start, end, _parent, op) in enumerate(self.rows):
            covered = _union_length(children.get(index, ()), start, end)
            per_op = out.setdefault(op, {})
            per_op[name] = per_op.get(name, 0.0) + (end - start) - covered
        self._self_times = (len(self.rows), out)
        return out

    def to_json(self, max_rows: int) -> dict:
        """Spans of whole operations, up to about ``max_rows`` rows."""
        kept: List[SpanRow] = []
        last_op = None
        for row in self.rows:
            if len(kept) >= max_rows and row[4] != last_op:
                break
            kept.append(row)
            last_op = row[4]
        names = sorted({row[0] for row in kept})
        index = {name: position for position, name in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "operation"],
            "spans": [[index[name], start, end, parent, op]
                      for name, start, end, parent, op in kept],
            "spans_recorded": len(self.rows),
        }


def _union_length(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


class _Open:
    def __init__(self, recorder: SpanRecorder, name: str,
                 operation: Optional[int]) -> None:
        self._recorder = recorder
        self._name = name
        self._operation = operation

    def __enter__(self) -> "_Open":
        recorder = self._recorder
        if self._operation is not None:
            recorder.operation = self._operation
        self._outer = recorder.parent
        # Reserve the row now so children can name it as their parent.
        self.index = recorder.add(self._name, 0.0, 0.0)
        recorder.parent = self.index
        self.start = perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.end = perf_counter()
        self._recorder.finish(self.index, self.start, self.end)
        self._recorder.parent = self._outer

    @property
    def wall(self) -> float:
        return self.end - self.start


class Chain:
    """Consecutive spans sharing their boundary clock readings."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._rows = recorder.rows
        self.parent = recorder.parent
        self._op = recorder.operation
        self.mark = perf_counter()

    def lap(self, name: str) -> None:
        """Close the span that began at the previous boundary."""
        now = perf_counter()
        # Single-threaded by construction: chains live on the replaying
        # thread only, so the list append needs no lock.
        self._rows.append((name, self.mark, now, self.parent, self._op))
        self.mark = now
