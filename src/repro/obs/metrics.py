"""Process-wide metrics registry: counters, gauges, histograms.

One global :data:`REGISTRY` (thread-safe — the streaming coordinator
and its arrival threads both touch it) holds every metric the engines
emit.  Metrics are cheap but not free, so the engines increment them
*coarsely* — once per query, round, or slice, never per element — and
the registry keeps a plain dict per metric keyed by its sorted label
items, so ``snapshot()`` is a pure read.

The instrument set mirrors the query lifecycle:

* ``queries_total{table, mode}`` — executed queries per engine mode.
* ``udf_calls_total{backend}`` / ``memo_hits_total{backend}`` — real
  scoring-function invocations vs memo short-circuits.
* ``memo_hit_rate{table}`` — last query's hit fraction (gauge).
* ``rounds_total{backend}`` / ``slices_total{backend}`` — coordinator
  progress units for the sharded and streaming engines.
* ``threshold_staleness{backend}`` — merges a slice's threshold floor
  lagged behind at arrival (histogram).
* ``bound_width{mode}`` — final displacement-bound width per query
  (gauge; ``inf`` while the bound is vacuous).
* ``queries_inflight{tenant}`` — admitted, not-yet-retired queries per
  service tenant (gauge, kept by the
  :class:`~repro.service.budget.BudgetScheduler`).
* ``budget_grants_total{tenant, policy}`` /
  ``admissions_total{policy}`` — scorer-budget units granted and queries
  admitted by the multi-tenant service scheduler.
* ``writes_total{table, kind}`` — committed live-table write batches
  (append / update / delete).
* ``index_splits_total{table}`` — leaf splits performed by incremental
  cluster-tree maintenance.
* ``continuous_emits_total{table}`` — result snapshots re-emitted by
  standing ``CONTINUOUS`` queries.

``snapshot()`` returns a JSON-safe dict; ``describe()`` backs the CLI's
``info`` listing.  Everything is stdlib-only.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (last bucket is +inf).
DEFAULT_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def _label_key(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Metric:
    """Base: named instrument with per-label-set cells."""

    kind = "metric"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._cells: Dict[LabelItems, Any] = {}

    def _snapshot_value(self, value: Any) -> Any:
        return value

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            values = [{"labels": dict(items),
                       "value": self._snapshot_value(value)}
                      for items, value in sorted(self._cells.items())]
        return {"type": self.kind, "help": self.help, "values": values}


class Counter(Metric):
    """Monotone counter; ``inc`` adds a non-negative delta."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {value}")
        key = _label_key(labels)
        with self._lock:
            self._cells[key] = self._cells.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._cells.get(_label_key(labels), 0.0))


class Gauge(Metric):
    """Point-in-time value; ``set`` overwrites."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._cells[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> Optional[float]:
        with self._lock:
            return self._cells.get(_label_key(labels))


class Histogram(Metric):
    """Cumulative-bucket histogram with count and sum per label set."""

    kind = "histogram"

    def __init__(self, name: str, help: str, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, lock)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = {"count": 0, "sum": 0.0,
                        "buckets": [0] * (len(self.buckets) + 1)}
                self._cells[key] = cell
            cell["count"] += 1
            cell["sum"] += value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    cell["buckets"][i] += 1
                    break
            else:
                cell["buckets"][-1] += 1

    def _snapshot_value(self, value: Any) -> Any:
        # Export cumulative bucket counts (the Prometheus convention:
        # each bucket includes everything below its bound), accumulated
        # from the per-bin cells kept internally.
        running = 0
        cumulative = []
        for count in value["buckets"]:
            running += count
            cumulative.append(running)
        return {"count": value["count"], "sum": value["sum"],
                "buckets": dict(zip([*map(str, self.buckets), "+inf"],
                                    cumulative))}


class MetricsRegistry:
    """Thread-safe collection of named metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, help: str, kind: type,
                       **kwargs: Any) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, help, threading.Lock(), **kwargs)
                self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}, not {kind.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, help, Counter)  # type: ignore

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, help, Gauge)  # type: ignore

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(  # type: ignore
            name, help, Histogram, buckets=buckets)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def describe(self) -> List[Dict[str, str]]:
        """``[{name, type, help}]`` — backs the CLI ``info`` listing."""
        with self._lock:
            metrics = list(self._metrics.items())
        return [{"name": name, "type": metric.kind, "help": metric.help}
                for name, metric in sorted(metrics)]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view of every metric's current cells."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def reset(self) -> None:
        """Clear every cell (tests); registrations survive."""
        with self._lock:
            for metric in self._metrics.values():
                with metric._lock:
                    metric._cells.clear()


#: The process-wide registry every engine reports into.
REGISTRY = MetricsRegistry()

# The standing instrument set, registered at import so `repro info`
# can list them before any query runs.
QUERIES_TOTAL = REGISTRY.counter(
    "queries_total", "queries executed, by table and engine mode")
UDF_CALLS_TOTAL = REGISTRY.counter(
    "udf_calls_total", "real scoring-function invocations, by backend")
MEMO_HITS_TOTAL = REGISTRY.counter(
    "memo_hits_total", "scores served from the cross-query memo")
MEMO_HIT_RATE = REGISTRY.gauge(
    "memo_hit_rate", "last query's memo hit fraction, by table")
ROUNDS_TOTAL = REGISTRY.counter(
    "rounds_total", "sharded coordinator rounds, by backend")
SLICES_TOTAL = REGISTRY.counter(
    "slices_total", "streaming slices merged, by backend")
THRESHOLD_STALENESS = REGISTRY.histogram(
    "threshold_staleness",
    "merges the threshold floor lagged behind at slice arrival")
BOUND_WIDTH = REGISTRY.gauge(
    "bound_width", "final displacement-bound width per query, by mode")
QUERIES_INFLIGHT = REGISTRY.gauge(
    "queries_inflight", "admitted, not-yet-retired service queries, "
                        "by tenant")
BUDGET_GRANTS_TOTAL = REGISTRY.counter(
    "budget_grants_total", "scorer-budget units granted by the service "
                           "scheduler, by tenant and policy")
ADMISSIONS_TOTAL = REGISTRY.counter(
    "admissions_total", "queries admitted by the service scheduler, "
                        "by policy")
WRITES_TOTAL = REGISTRY.counter(
    "writes_total", "committed live-table write batches, by table and "
                    "kind (append/update/delete)")
INDEX_SPLITS_TOTAL = REGISTRY.counter(
    "index_splits_total", "leaf splits performed by incremental "
                          "cluster-tree maintenance, by table")
CONTINUOUS_EMITS = REGISTRY.counter(
    "continuous_emits_total", "result snapshots re-emitted by standing "
                              "CONTINUOUS queries, by table")
