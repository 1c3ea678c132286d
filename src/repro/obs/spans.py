"""Nested query-lifecycle spans with stitchable cross-process fragments.

A :class:`TraceContext` records a tree of named spans —
``parse``/``plan``/``execute[mode]``/``round[i]``/``shard[j].slice[k]``
— each carrying real wall-clock, the virtual-clock charge, UDF-call and
memo-hit counts, and free-form attributes (threshold, bound trajectory).
Counters roll up: closing a span folds its totals into its parent, so
every rendered row is inclusive of its subtree.

Shard workers run in other threads or processes, so they record into
their *own* context and ship completed spans as JSON-safe fragment
dicts (riding the existing ``RoundOutcome`` wire format).  The
coordinator stitches them with :meth:`TraceContext.attach`, which
rebases the fragment's clock so it ends at the coordinator's "now" —
wall-clock offsets between processes are approximate by nature; the
deterministic counters are exact.

Two export formats:

* :meth:`TraceContext.to_dict` — the native format
  (``repro-trace/1``); round-trips through :meth:`TraceContext.from_dict`.
* :meth:`TraceContext.to_chrome_trace` — the Chrome trace-event JSON
  array that ``chrome://tracing`` and Perfetto load directly.

Everything here is pure stdlib; the engines only ever touch it behind
``if trace is not None`` guards, so the disabled path stays free.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.persist import NULL, NUMBER, read

#: Version tag of the native export format.
TRACE_FORMAT = "repro-trace/1"

#: Counter keys every span carries (missing keys read as zero).
COUNTER_KEYS = ("vclock", "udf_calls", "memo_hits", "scored")


class Span:
    """One node of the span tree.

    ``start`` and ``wall`` are seconds relative to the owning context's
    origin; ``counters`` are inclusive of the subtree once the span is
    closed; ``attrs`` hold free-form JSON-safe annotations.
    """

    __slots__ = ("name", "start", "wall", "counters", "attrs", "children")

    def __init__(self, name: str, start: float = 0.0, wall: float = 0.0,
                 counters: Optional[Dict[str, float]] = None,
                 attrs: Optional[Dict[str, Any]] = None,
                 children: Optional[List["Span"]] = None) -> None:
        self.name = name
        self.start = start
        self.wall = wall
        self.counters: Dict[str, float] = counters or {}
        self.attrs: Dict[str, Any] = attrs or {}
        self.children: List[Span] = children or []

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; empty counters/attrs/children are omitted."""
        out: Dict[str, Any] = {"name": self.name, "start": self.start,
                               "wall": self.wall}
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        read(payload, TRACE_FORMAT, "span", name=str,
             start=NUMBER + (NULL,), wall=NUMBER + (NULL,),
             counters=(dict, NULL), attrs=(dict, NULL),
             children=(list, NULL))
        return cls(
            name=payload["name"],
            start=float(payload.get("start") or 0.0),
            wall=float(payload.get("wall") or 0.0),
            counters=dict(payload.get("counters") or {}),
            attrs=dict(payload.get("attrs") or {}),
            children=[cls.from_dict(child)
                      for child in payload.get("children") or ()],
        )

    def shift(self, delta: float) -> None:
        """Move this subtree ``delta`` seconds along the timeline."""
        self.start += delta
        for child in self.children:
            child.shift(delta)


def _merge_counters(into: Dict[str, float],
                    source: Dict[str, float]) -> None:
    for key, value in source.items():
        into[key] = into.get(key, 0.0) + value


class TraceContext:
    """Collector for one query's span tree.

    >>> trace = TraceContext()
    >>> with trace.span("parse"):
    ...     pass
    >>> with trace.span("execute[single]"):
    ...     with trace.span("round[0]"):
    ...         trace.add(scored=64, vclock=0.128)
    >>> [name for _, name in trace.walk_names()]
    ['parse', 'execute[single]', 'round[0]']
    >>> trace.roots[1].counters["scored"]
    64.0
    """

    def __init__(self, origin: Optional[float] = None) -> None:
        # ``origin`` (a perf_counter reading) lets a caller backdate the
        # timeline to cover work done just before the context existed —
        # the session uses it so the ``parse`` span starts at t=0.
        self._origin = time.perf_counter() if origin is None else origin
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- recording -----------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    def push(self, name: str, **attrs: Any) -> Span:
        """Open a span named ``name`` under the current span."""
        span = Span(name, start=self._now(), attrs=dict(attrs))
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(span)
        self._stack.append(span)
        return span

    def pop(self) -> Span:
        """Close the innermost span, rolling its counters into its parent."""
        span = self._stack.pop()
        span.wall = self._now() - span.start
        if self._stack:
            _merge_counters(self._stack[-1].counters, span.counters)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """``with trace.span("plan"):`` — push on entry, pop on exit."""
        span = self.push(name, **attrs)
        try:
            yield span
        finally:
            while self._stack and self._stack[-1] is not span:
                self.pop()          # close any still-open inner spans
            if self._stack:
                self.pop()

    def add(self, *, vclock: float = 0.0, udf_calls: int = 0,
            memo_hits: int = 0, scored: int = 0) -> None:
        """Charge counters to the innermost open span (no-op when none)."""
        if not self._stack:
            return
        counters = self._stack[-1].counters
        for key, value in (("vclock", vclock), ("udf_calls", udf_calls),
                           ("memo_hits", memo_hits), ("scored", scored)):
            if value:
                counters[key] = counters.get(key, 0.0) + value

    def annotate(self, **attrs: Any) -> None:
        """Merge attributes into the innermost open span."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    # -- stitching -----------------------------------------------------

    def attach(self, fragment: Dict[str, Any],
               rename: Optional[str] = None) -> Span:
        """Stitch a worker fragment dict under the current span.

        The fragment keeps its internal shape and relative timing but is
        rebased so it *ends* at this context's "now" (the coordinator
        observes fragments at arrival).  Its counters fold into the open
        span so roll-up stays consistent.
        """
        span = Span.from_dict(fragment)
        if rename is not None:
            span.name = rename
        span.shift((self._now() - span.wall) - span.start)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(span)
        if parent is not None:
            _merge_counters(parent.counters, span.counters)
        return span

    def harvest(self) -> List[Dict[str, Any]]:
        """Return completed root spans as fragment dicts and clear them.

        Workers call this once per round/slice to ship their spans
        through the picklable ``RoundOutcome`` wire format.
        """
        assert not self._stack, "cannot harvest with open spans"
        fragments = [span.to_dict() for span in self.roots]
        self.roots = []
        return fragments

    # -- export --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Native round-tripping export (``repro-trace/1``)."""
        return {"format": TRACE_FORMAT,
                "spans": [span.to_dict() for span in self.roots]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceContext":
        read(payload, TRACE_FORMAT, spans=(list, NULL))
        trace = cls()
        trace.roots = [Span.from_dict(span)
                       for span in payload.get("spans") or ()]
        return trace

    def to_chrome_trace(self) -> List[Dict[str, Any]]:
        """Chrome trace-event array (``chrome://tracing`` / Perfetto).

        Complete events (``ph: "X"``) with microsecond timestamps; the
        counters and attrs ride in ``args``.
        """
        events: List[Dict[str, Any]] = []

        def emit(span: Span, depth: int) -> None:
            args: Dict[str, Any] = dict(span.attrs)
            args.update(span.counters)
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.wall * 1e6,
                "pid": 0,
                "tid": depth,
                "cat": "repro",
                "args": args,
            })
            for child in span.children:
                emit(child, depth + 1)

        for root in self.roots:
            emit(root, 0)
        return events

    # -- inspection ----------------------------------------------------

    def walk(self) -> Iterator[Tuple[int, Span]]:
        """Depth-first ``(depth, span)`` pairs over the whole tree."""

        def visit(span: Span, depth: int) -> Iterator[Tuple[int, Span]]:
            yield depth, span
            for child in span.children:
                yield from visit(child, depth + 1)

        for root in self.roots:
            yield from visit(root, 0)

    def walk_names(self) -> List[Tuple[int, str]]:
        """Depth-first ``(depth, name)`` pairs — the tree's shape."""
        return [(depth, span.name) for depth, span in self.walk()]

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    def timeline(self) -> List[Dict[str, Any]]:
        """The deterministic skeleton: order, names, and counters.

        Excludes the real stopwatch fields (``start``/``wall``), which
        PR 4's replay contract carves out — a replayed run must
        reproduce everything listed here.
        """
        return [
            {"depth": depth, "name": span.name,
             "counters": dict(span.counters)}
            for depth, span in self.walk()
        ]

    def render(self) -> str:
        """ASCII span tree with wall / virtual-clock / UDF / memo columns."""
        header = (f"{'span':<44} {'wall':>12} {'vclock':>12} "
                  f"{'udf':>8} {'memo':>8}")
        lines = [header, "-" * len(header)]
        for depth, span in self.walk():
            name = "  " * depth + span.name
            counters = span.counters
            attrs = " ".join(
                f"{key}={_fmt_attr(value)}"
                for key, value in sorted(span.attrs.items()))
            lines.append(
                f"{name:<44} {span.wall * 1e3:>9.3f} ms "
                f"{counters.get('vclock', 0.0):>10.4f} s "
                f"{int(counters.get('udf_calls', 0)):>8} "
                f"{int(counters.get('memo_hits', 0)):>8}"
                + (f"  {attrs}" if attrs else ""))
        return "\n".join(lines)


def _fmt_attr(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
