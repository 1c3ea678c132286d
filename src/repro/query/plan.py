"""Logical and resolved plans for the session dialect.

Two stages, mirroring a classical query pipeline:

* :class:`QueryPlan` — the *logical* plan: the parsed clause values plus
  the ``WHERE`` predicate AST, independent of any session state.  Pure
  data; :meth:`QueryPlan.canonical_text` renders it back to dialect text
  (``parse(plan.canonical_text()) == plan`` — the round-trip property the
  fuzz suite pins).
* :class:`ExecutionPlan` — the logical plan *resolved* against one
  :class:`~repro.session.OpaqueQuerySession`: registered table and UDF,
  absolute scoring budget, the ``WHERE`` filter evaluated to a concrete
  candidate id list, and the executor
  (``single`` / ``sharded`` / ``streaming``) chosen.  ``EXPLAIN``
  queries return this object instead of executing;
  :meth:`ExecutionPlan.explain` is the stable rendering the CLI prints
  and the tests snapshot.

The ``WHERE`` predicate AST (:class:`Comparison` / :class:`And` /
:class:`Or` / :class:`Not`) evaluates vectorized over the table's cheap
feature matrix — one boolean mask per query, computed once at plan time,
then pushed down into the index (leaf-mask filtering, see
:meth:`repro.index.tree.ClusterTree.restricted`) so the bandit never
draws a filtered-out element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.core.convergence import check_confidence
from repro.errors import ConfigurationError
from repro.utils.validation import check_positive_int

#: Comparison operators of the WHERE grammar, in canonical spelling.
COMPARISON_OPS = ("<", "<=", ">", ">=", "=", "!=")

_OP_FUNCS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
    "!=": np.not_equal,
}


def _format_number(value: float) -> str:
    """Canonical numeric literal: integral floats render without ``.0``.

    Always positional (never scientific notation — the tokenizer has no
    exponent syntax), via the shortest positional form that round-trips
    the float exactly, so ``parse(plan.canonical_text())`` stays total.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(
            f"numeric literals must be finite, got {value!r}"
        )
    if value == int(value):
        return str(int(value))
    return np.format_float_positional(value, trim="-")


class Predicate:
    """Base class of the ``WHERE`` feature-predicate AST.

    Subclasses implement :meth:`mask` (vectorized evaluation over the
    ``(n, d)`` feature matrix) and :meth:`canonical` (deterministic text
    form, parseable back to an equal AST).  Precedence for rendering:
    ``NOT`` binds tighter than ``AND``, which binds tighter than ``OR``.
    """

    #: Rendering precedence (higher binds tighter).
    precedence = 3

    def mask(self, features: np.ndarray) -> np.ndarray:
        """Boolean keep-mask over the feature rows."""
        raise NotImplementedError

    def canonical(self) -> str:
        """Deterministic dialect text for this predicate."""
        raise NotImplementedError

    def _child_text(self, child: "Predicate") -> str:
        """Render a child, parenthesized when it binds looser than self."""
        text = child.canonical()
        if child.precedence < self.precedence:
            return f"({text})"
        return text

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.canonical()!r})"


@dataclass(frozen=True, repr=False)
class Comparison(Predicate):
    """``feature[<i>] <op> <number>`` — one vectorized column comparison."""

    feature: int
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in _OP_FUNCS:
            raise ConfigurationError(
                f"unknown comparison operator {self.op!r}; "
                f"supported: {', '.join(COMPARISON_OPS)}"
            )
        if self.feature < 0:
            raise ConfigurationError(
                f"feature index must be non-negative, got {self.feature}"
            )
        if not math.isfinite(self.value):
            raise ConfigurationError(
                f"comparison value must be finite, got {self.value!r}"
            )

    precedence = 3

    def mask(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if self.feature >= features.shape[1]:
            raise ConfigurationError(
                f"WHERE references feature[{self.feature}] but the table "
                f"has only {features.shape[1]} feature column(s)"
            )
        return _OP_FUNCS[self.op](features[:, self.feature], self.value)

    def canonical(self) -> str:
        return f"feature[{self.feature}] {self.op} " \
               f"{_format_number(self.value)}"


@dataclass(frozen=True, repr=False)
class Not(Predicate):
    """Logical negation."""

    operand: Predicate

    precedence = 2

    def mask(self, features: np.ndarray) -> np.ndarray:
        return ~self.operand.mask(features)

    def canonical(self) -> str:
        return f"NOT {self._child_text(self.operand)}"


def _flatten(cls, operands: Tuple[Predicate, ...]) -> Tuple[Predicate, ...]:
    """Flatten directly nested operands of the same associative connective.

    ``AND``/``OR`` are associative, so ``And((a, And((b, c))))`` and
    ``And((a, b, c))`` denote the same predicate — and the canonical text
    cannot tell them apart.  Normalizing at construction keeps
    ``parse(p.canonical()) == p`` exact for every AST shape.
    """
    flat: list = []
    for operand in operands:
        if isinstance(operand, cls):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    return tuple(flat)


@dataclass(frozen=True, repr=False)
class And(Predicate):
    """Conjunction of two or more operands."""

    operands: Tuple[Predicate, ...]

    precedence = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands",
                           _flatten(And, self.operands))

    def mask(self, features: np.ndarray) -> np.ndarray:
        result = self.operands[0].mask(features)
        for operand in self.operands[1:]:
            result = result & operand.mask(features)
        return result

    def canonical(self) -> str:
        return " AND ".join(self._child_text(op) for op in self.operands)


@dataclass(frozen=True, repr=False)
class Or(Predicate):
    """Disjunction of two or more operands."""

    operands: Tuple[Predicate, ...]

    precedence = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands",
                           _flatten(Or, self.operands))

    def mask(self, features: np.ndarray) -> np.ndarray:
        result = self.operands[0].mask(features)
        for operand in self.operands[1:]:
            result = result | operand.mask(features)
        return result

    def canonical(self) -> str:
        return " OR ".join(self._child_text(op) for op in self.operands)


@dataclass(frozen=True)
class QueryPlan:
    """The logical plan: every clause of one dialect statement.

    ``workers`` / ``backend`` / ``every`` / ``confidence`` are ``None``
    when the clause was absent (:meth:`with_defaults` fills them from
    caller-side defaults); ``where`` is the predicate AST or ``None``;
    ``explain`` marks an ``EXPLAIN``-wrapped statement and ``analyze``
    an ``EXPLAIN ANALYZE`` one (``analyze`` implies ``explain``).

    The execution-mode clause values are validated on construction:
    hand-built, defaulted and parsed plans go through the same check
    (the parser reports the same conditions earlier, with a caret span)
    and nothing downstream re-validates them.
    """

    k: int
    table: str
    udf: str
    budget: Optional[int] = None
    budget_fraction: Optional[float] = None
    batch_size: int = 1
    seed: Optional[int] = None
    descending: bool = True        # DESC is documentary; top-k maximizes
    workers: Optional[int] = None
    backend: Optional[str] = None
    stream: bool = False
    every: Optional[int] = None
    confidence: Optional[float] = None
    continuous: bool = False
    where: Optional[Predicate] = None
    explain: bool = False
    analyze: bool = False

    def __post_init__(self) -> None:
        if self.workers is not None:
            check_positive_int(self.workers, "workers")
        if self.backend is not None:
            from repro.parallel.backends import check_backend

            check_backend(self.backend)
        if self.every is not None:
            check_positive_int(self.every, "every")
        check_confidence(self.confidence)

    def with_defaults(self, *, workers: Optional[int] = None,
                      backend: Optional[str] = None,
                      stream: Optional[bool] = None,
                      every: Optional[int] = None,
                      confidence: Optional[float] = None) -> "QueryPlan":
        """Fill absent clauses from caller-side defaults; a clause wins.

        How a front-end with switches of its own (the service's wire
        keys) folds them into the statement.  The result
        is an ordinary plan, validated like one — a bad default fails
        with the clause's error.  ``every`` / ``confidence`` imply
        ``STREAM`` and a lone ``backend`` implies ``WORKERS 1``, so the
        result always renders to parseable :meth:`canonical_text`.
        """
        backend = self.backend or backend
        workers = self.workers if self.workers is not None else workers
        if workers is None and backend is not None:
            workers = 1    # the grammar's "BACKEND requires WORKERS"
        every = self.every if self.every is not None else every
        confidence = (self.confidence if self.confidence is not None
                      else confidence)
        return replace(
            self, workers=workers, backend=backend,
            stream=bool(self.stream or stream or every is not None
                        or confidence is not None),
            every=every, confidence=confidence,
        )

    def canonical_text(self) -> str:
        """Deterministic dialect text; ``parse`` of it yields an equal plan.

        Clauses render in the canonical order (the order the grammar
        documents), regardless of the order they were written in.  The
        round-trip is exact for every plan the parser can produce; a
        hand-built ``budget_fraction`` that no percent literal can
        represent (e.g. ``1/3``) renders as the closest representable
        percentage.
        """
        parts = [f"SELECT TOP {self.k} FROM {self.table} "
                 f"ORDER BY {self.udf}"]
        if self.where is not None:
            parts.append(f"WHERE {self.where.canonical()}")
        if self.budget_fraction is not None:
            # Shortest percentage whose /100 reproduces the stored
            # fraction exactly: "BUDGET 7%" stays "7%", never the
            # float-noise "7.000000000000001%" of fraction * 100.
            # Every parser-produced fraction is p/100 by construction,
            # so an exact percent always exists for it; a hand-built
            # fraction with no exact percent literal (e.g. 1/3) falls
            # through to the closest representable percent.
            percent = self.budget_fraction * 100.0
            for digits in range(0, 18):
                candidate = round(percent, digits)
                if candidate / 100.0 == self.budget_fraction:
                    percent = candidate
                    break
            parts.append(f"BUDGET {_format_number(percent)}%")
        elif self.budget is not None:
            parts.append(f"BUDGET {self.budget}")
        if self.batch_size != 1:
            parts.append(f"BATCH {self.batch_size}")
        if self.seed is not None:
            parts.append(f"SEED {self.seed}")
        if self.workers is not None:
            parts.append(f"WORKERS {self.workers}")
        if self.backend is not None:
            parts.append(f"BACKEND {self.backend}")
        if self.stream:
            parts.append("STREAM")
        if self.every is not None:
            parts.append(f"EVERY {self.every}")
        if self.confidence is not None:
            parts.append(f"CONFIDENCE {_format_number(self.confidence)}")
        if self.continuous:
            parts.append("CONTINUOUS")
        text = " ".join(parts)
        if self.analyze:
            text = f"EXPLAIN ANALYZE {text}"
        elif self.explain:
            text = f"EXPLAIN {text}"
        return text


@dataclass
class ExecutionPlan:
    """A logical plan resolved against one session, ready to dispatch.

    Produced by :meth:`repro.session.OpaqueQuerySession.plan`; consumed
    by the dispatch functions of :mod:`repro.query.executors`, which read
    everything they need from it.  ``EXPLAIN`` queries return this object
    from ``execute`` instead of running it.
    """

    query: QueryPlan
    mode: str                      # executor name: single|sharded|streaming
    n_elements: int                # registered table size
    n_candidates: int              # elements surviving the WHERE filter
    budget: Optional[int]          # absolute scoring-call budget (resolved)
    batch_size: int
    seed: Optional[int]
    workers: int                   # resolved worker count (>= 1)
    backend: str                   # resolved backend name
    every: Optional[int]
    confidence: Optional[float]
    #: Candidate ids in table order when a WHERE filter applies, else None.
    allowed_ids: Optional[List[str]] = None
    #: UDF fingerprint (:func:`repro.memo.fingerprint.udf_fingerprint`);
    #: ``None`` when the scorer is unfingerprintable.  Never rendered in
    #: :meth:`explain` — bytecode digests vary across Python versions.
    fingerprint: Optional[str] = None
    #: Whether the cross-query score memo is active for this dispatch.
    cache_enabled: bool = False
    #: Whether warm-start priors will be applied (opt-in, not bit-identical).
    warm_start: bool = False
    #: Fraction of this query's candidates already memoized; computed for
    #: EXPLAIN queries only (``None`` otherwise — the probe is O(n)).
    expected_hit_rate: Optional[float] = None
    #: Span collector (:class:`repro.obs.spans.TraceContext`) threaded to
    #: the executor when tracing is on; ``None`` otherwise.  Never
    #: rendered in :meth:`explain` — it is per-dispatch runtime state.
    trace: Optional[object] = None
    #: Service budget gate (:class:`repro.service.budget.QueryGrant`)
    #: threaded to the executor when the query runs under the multi-tenant
    #: scheduler; ``None`` otherwise.  Like :attr:`trace`, per-dispatch
    #: runtime state — never rendered in :meth:`explain`.
    gate: Optional[object] = None
    #: The rows this query reads: the registered dataset, or the immutable
    #: :class:`~repro.data.dataset.TableSnapshot` a live table pinned it to.
    #: Like the five fields below, resolved state for the dispatch —
    #: never rendered in :meth:`explain`.
    dataset: Optional[object] = None
    #: The table's :class:`~repro.catalog.TableBinding`.
    binding: Optional[object] = None
    #: The registered scorer behind :attr:`udf`.
    scorer: Optional[object] = None
    #: The session's fork-private warm-start prior store for this table.
    priors: Optional[object] = None
    #: Fingerprint of :attr:`allowed_ids` (``""`` unfiltered), hashed once:
    #: it scopes the priors and keys the shard-index cache.
    subset: str = ""
    #: Scoring calls per shard between merges (the session's setting).
    sync_interval: int = 100
    #: Live tables only: how the index serving this plan was maintained
    #: (``built`` / ``incremental`` / ``rebuilt``); ``None`` for static
    #: tables, keeping the pinned EXPLAIN rendering unchanged for them.
    index_freshness: Optional[str] = None
    #: Live tables only: the maintained tree of :attr:`table_version`,
    #: pinned with the snapshot; ``None`` for static tables, whose one
    #: index the binding builds on first use.
    index: Optional[object] = None

    @property
    def table(self) -> str:
        """Registered table name (from the logical plan)."""
        return self.query.table

    @property
    def table_version(self) -> int:
        """The version of :attr:`dataset` (0 for static tables), which
        a live plan's ``EXPLAIN`` prints."""
        return self.dataset.version

    @property
    def udf(self) -> str:
        """Registered UDF name (from the logical plan)."""
        return self.query.udf

    @property
    def k(self) -> int:
        """Answer cardinality."""
        return self.query.k

    @property
    def selectivity(self) -> float:
        """Fraction of the table surviving the WHERE filter (1.0 = all)."""
        if self.n_elements == 0:
            return 0.0
        return self.n_candidates / self.n_elements

    def explain(self) -> str:
        """Stable multi-line rendering — what ``EXPLAIN`` returns.

        Snapshot-tested; the shape is part of the public surface, so keep
        additions append-only.
        """
        lines = [
            "== execution plan ==",
            f"query:     {self.query.canonical_text()}",
            f"executor:  {self.mode}",
            f"table:     {self.table} ({self.n_elements} elements)",
            f"udf:       {self.udf}",
        ]
        if self.query.where is not None:
            lines.append(
                f"filter:    {self.query.where.canonical()} -> "
                f"{self.n_candidates} of {self.n_elements} elements "
                f"({self.selectivity:.1%} selectivity)"
            )
        budget = ("exhaustive (all candidates)" if self.budget is None
                  else f"{self.budget} scoring calls")
        lines.append(f"budget:    {budget}")
        lines.append(f"batch:     {self.batch_size}")
        lines.append(f"seed:      "
                     f"{'fresh entropy' if self.seed is None else self.seed}")
        if self.mode != "single":
            lines.append(f"workers:   {self.workers}")
            lines.append(f"backend:   {self.backend}")
        if self.mode == "streaming":
            every = "per slice" if self.every is None else str(self.every)
            lines.append(f"every:     {every}")
            confidence = ("off" if self.confidence is None
                          else _format_number(self.confidence))
            lines.append(f"confidence: {confidence}")
        if not self.cache_enabled:
            lines.append("cache:     off")
        elif self.expected_hit_rate is None:
            lines.append("cache:     on")
        else:
            memoized = int(round(self.expected_hit_rate
                                 * self.n_candidates))
            lines.append(
                f"cache:     on (expected hit rate "
                f"{self.expected_hit_rate:.1%}: {memoized} of "
                f"{self.n_candidates} candidates memoized)"
            )
        if self.index_freshness is not None:
            lines.append(f"live:      table version {self.table_version}, "
                         f"index {self.index_freshness}")
        if self.query.continuous:
            lines.append("standing:  CONTINUOUS (re-emits on committed "
                         "writes)")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line form of :meth:`explain` (CLI-friendly)."""
        where = ("" if self.query.where is None
                 else f" where[{self.n_candidates}/{self.n_elements}]")
        budget = "all" if self.budget is None else str(self.budget)
        return (f"plan: {self.mode} top-{self.k} on {self.table} "
                f"by {self.udf}{where} budget={budget} "
                f"workers={self.workers} backend={self.backend}")
