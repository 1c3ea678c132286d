"""End-to-end opaque top-k query engine — Algorithm 1 over the index.

:class:`TopKEngine` composes the hierarchical epsilon-greedy policy, the
cardinality-constrained priority queue, batched execution (Section 3.2.5),
and the fallback controller (Section 3.2.3) into the full workflow of
Example 3.1:

1. initialize an empty histogram for every tree node and a priority queue
   with capacity ``k``;
2. each iteration, pick a leaf by per-layer epsilon-greedy descent;
3. draw a (batch of) sample(s) from the leaf and apply the opaque UDF;
4. update the priority queue and the histograms of the leaf and all its
   ancestors (with the re-binning rules of Section 3.2.4);
5. after a warmup, periodically check the failure conditions and fall back
   to a flat index or a uniform scan over the remaining elements;
6. stop any time and read the priority queue.

The engine exposes two equivalent driving styles:

* ``next_batch()`` / ``observe(ids, scores)`` — the *pull* interface the
  experiment harness uses, so that the scoring/latency accounting lives in
  one place for every algorithm;
* ``run(dataset, scorer, ...)`` — the standalone anytime loop a library
  user calls, which also records quality checkpoints.

Both run the same select and fold; the loop (``advance``, also behind
every shard worker) calls them directly, without the pull interface's
checks of ids the caller hands back, and times them with two clock
reads per batch (``tests/test_engine_loop.py`` holds the two styles to
the same draws and answers).

Hot-path invariants
-------------------
Per-query set-up is O(tree nodes), not O(rows): the policy mirrors the
index into a node table, and each arm draws from its leaf's slot array,
copied on the first draw (:mod:`repro.core.arms`), so neither building
nor dropping an engine touches every id.  Per-element engine overhead
is O(depth) Python steps, and the histogram work of a select and of an
observation is plain Python floats at every batch width:

* Rows inside, ids at the boundary.  A draw is slots of the tree's one
  list of ids (``policy.names``); the pending batch, the scan queue and
  the top-k buffer hold those rows, and :class:`ScoringStep` fetches
  and memoizes them by row when the list is the dataset's own row -> id
  list (a table's index is built that way).  Ids are named for
  :meth:`~TopKEngine.next_batch` / :meth:`~TopKEngine.observe`,
  :meth:`~TopKEngine.topk_items` and the results, and snapshots.

* ``exhausted`` reads the policy's incremental ``remaining`` counters,
  and a descent's candidates are each node's kept list of live children
  (the policy alone writes both — see :mod:`repro.core.hierarchical`):
  no layer rescans leaves or filters its siblings.  A greedy descent is
  one bank call that returns to the policy only at a tie or an unvisited
  child; over a wide layer it still reads each live sibling once, in the
  unvisited test, a comprehension and a ``max``.
* ``observe`` validates the batch (finite, non-negative) and folds it with
  **one** walk of the drawn leaf's precomputed root path (one sort per
  batch, a few bisections per row); the priority-queue offers stay
  per-element (``TopKBuffer.offer_batch``) so the threshold evolves
  exactly as in Algorithm 1, and the path update uses the post-batch
  threshold.  A one-dimensional float64 array of scores becomes Python
  floats by one ``tolist()``, and the threshold is read off the top-k
  heap's list.
* Gains are cached per row of the policy's histogram bank.  A mutation
  stales its row, a moved threshold misses the cached one, and a descent
  evaluates only the stale rows it reads, each once in Python floats — a
  flat index's leaves after a threshold move included
  (:mod:`repro.core.histogram`).

Seeded draws and floats are pinned by ``tests/test_engine_equivalence.py``,
``tests/test_policy_golden.py``, ``tests/test_wide_root_golden.py`` and
``tests/test_arm_lockstep.py``; the set-up bound by
``tests/test_setup_cost.py``.  These invariants, and the
shard/coordinator protocol that runs many engines in parallel, are
documented normatively in ``docs/architecture.md``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from repro.core.bandit import BanditConfig
from repro.core.fallback import FallbackConfig, FallbackController, FallbackDecision
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.core.policies import ExplorationSchedule, PolynomialDecay
from repro.core.result import Checkpoint, QueryResult
from repro.core.stk import TopKBuffer
from repro.errors import ConfigurationError, ExhaustedError, SerializationError
from repro.index.tree import ClusterTree
from repro.obs.metrics import MEMO_HITS_TOTAL, UDF_CALLS_TOTAL
from repro.obs.spans import TraceContext
from repro.persist import NULL, NUMBER, read, read_topk
from repro.utils.rng import RngFactory, SeedLike
from repro.utils.timer import Stopwatch
from repro.utils.validation import check_positive_int, check_scores


class SupportsFetch(Protocol):
    """Structural type for datasets: the paper's user-defined sampler."""

    def fetch_batch(self, ids: Sequence[str]) -> List[object]:
        """Materialize the elements for ``ids`` (arrays accepted for batching)."""


class SupportsScore(Protocol):
    """Structural type for scorers: the opaque UDF plus its latency model."""

    def score_batch(self, objects: Sequence[object]) -> np.ndarray:
        """Score a batch of elements; must return non-negative floats."""

    def batch_cost(self, batch_size: int) -> float:
        """Latency-model cost (seconds) of scoring one batch of this size."""


def _undrawn_queue(queue: list, policy: HierarchicalBanditPolicy,
                   fmt: str) -> List[int]:
    """The rows of ``queue``, if it lists distinct string ids the policy
    has not drawn.

    The uniform-scan fallback queues the policy's undrawn members and
    stops drawing from the policy, so a scan-mode snapshot lists each
    queued id once in the queue and once in its leaf; an id outside the
    leaves was scored already, or was never in the index.
    """
    names = policy.names
    undrawn = ({names[row]: row for row in policy.remaining_rows()}
               if queue else {})
    queued: Set[str] = set()
    for element_id in queue:
        if not isinstance(element_id, str):
            problem = "a non-string id"
        elif element_id not in undrawn:
            problem = "an id no leaf has left to draw"
        elif element_id in queued:
            problem = "an id twice"
        else:
            queued.add(element_id)
            continue
        raise SerializationError(
            f"expected {fmt} scan_queue of undrawn ids, found {problem}: "
            f"{element_id!r}")
    return [undrawn[element_id] for element_id in queue]


def _member_rows(policy: HierarchicalBanditPolicy, ids: Sequence,
                 fmt: str) -> List[int]:
    """The rows of ``ids``, each a member of a leaf of the policy's index
    (a restored top-k buffer names scored members)."""
    rows = policy.member_rows() if ids else {}
    for element_id in ids:
        if element_id not in rows:
            raise SerializationError(
                f"expected {fmt} buffer of members of the index, found "
                f"{element_id!r}")
    return [rows[element_id] for element_id in ids]


def _fully_funded(gate, needed: int) -> bool:
    """Draw ``needed`` UDF calls from a service budget gate, all or nothing.

    A partial grant is refunded immediately — the engines stop at a whole
    quantum boundary rather than score a fraction of a batch, which is what
    keeps a funded run bit-identical to an ungated one.
    """
    funded = gate.acquire(needed)
    if funded < needed:
        if funded:
            gate.refund(funded)
        return False
    return True


class ScoringStep:
    """Pay for one drawn batch: fetch, memo, gate, UDF, write-back, tally.

    The transparency contract, stated once: a memo hit or a gate draw
    decides only *whether the real UDF runs* for an element.  The
    elements, their order, the scores and the **full** ``batch_cost``
    charged to :attr:`cost` are those of a cold, ungated run, so warm ==
    cold and gated == solo hold bit for bit; savings show only where they
    are real (:attr:`hits`, UDF call counts, wall clock).  Requires
    element-wise pure scorers.

    A batch is rows of the engine's ``names`` list (its tree's slots).
    When that list is the dataset's own row -> id list (``row_ids``: the
    table built the tree) the step fetches by row (``fetch_rows``), and
    when it is also the memo view's ``space`` it looks the batch up and
    records it by row; otherwise it names the rows and goes by id.

    ``memo`` is a :class:`~repro.memo.store.MemoView` (``None`` = off; an
    *empty* view is still on: every score is fresh and written back).
    ``gate`` is a :class:`~repro.service.budget.QueryGrant`-shaped budget
    gate; only the misses — real UDF calls — are drawn from it, all or
    nothing.  The tally is cumulative: ``scored`` elements, virtual
    ``cost`` seconds, memo ``hits`` (``scored - hits`` = real UDF calls)
    and, memo on only, the ``fresh`` ``(id, score)`` pairs written back.
    """

    def __init__(self, dataset: SupportsFetch, scorer: SupportsScore,
                 memo=None, gate=None) -> None:
        self.dataset = dataset
        self.scorer = scorer
        self.memo = memo
        self.gate = gate
        self.scored = 0
        self.cost = 0.0
        self.hits = 0
        self.fresh: List[Tuple[str, float]] = []
        self._names: Optional[Sequence[str]] = None
        self._by_row = self._memo_by_row = False

    def score(self, rows: Sequence[int],
              names: Sequence[str]) -> Optional[Sequence[float]]:
        """Scores for ``rows`` of ``names`` (row-aligned); ``None``,
        uncharged, if unfunded."""
        if names is not self._names:
            self._names = names
            self._by_row = getattr(self.dataset, "row_ids", None) is names
            self._memo_by_row = (self.memo is not None
                                 and self.memo.space is names)
        memo = self.memo
        if memo is None:
            scores, misses, miss_rows = (), None, rows
        else:
            if self._memo_by_row:
                scores, misses = memo.lookup_rows(rows)
            else:
                scores, misses = memo.lookup([names[row] for row in rows])
            miss_rows = [rows[position] for position in misses]
        if miss_rows:
            if self.gate is not None and not _fully_funded(self.gate,
                                                           len(miss_rows)):
                return None
            if self._by_row:
                objects = self.dataset.fetch_rows(miss_rows)
            else:
                objects = self.dataset.fetch_batch(
                    [names[row] for row in miss_rows])
            fresh = self.scorer.score_batch(objects)
            if misses is None:
                scores = fresh
            else:
                fresh = np.asarray(fresh, dtype=float).reshape(-1).tolist()
                # Before the write-back: the memo must never hold a score
                # observe() would refuse.
                check_scores(fresh)
                for position, value in zip(misses, fresh):
                    scores[position] = value
                miss_ids = [names[row] for row in miss_rows]
                if self._memo_by_row:
                    memo.record_rows(miss_rows, fresh)
                else:
                    memo.record_pairs(zip(miss_ids, fresh))
                self.fresh.extend(zip(miss_ids, fresh))
        self.scored += len(rows)
        self.hits += len(rows) - len(miss_rows)
        self.cost += self.scorer.batch_cost(len(rows))
        return scores


@dataclass
class EngineConfig:
    """All knobs of Algorithm 1 plus engine-level execution settings.

    Defaults are the paper's: ``B=8``, ``alpha=0.1``, ``beta=1.1``,
    ``F=0.01``, warmup 30%, exploration ``t^(-1/3)``, batch size 1.
    """

    k: int = 10
    n_bins: int = 8
    initial_range: float = 0.1
    beta: float = 1.1
    batch_size: int = 1
    exploration: ExplorationSchedule = field(default_factory=PolynomialDecay)
    per_layer_exploration: bool = False
    enable_rebinning: bool = True
    enable_subtraction: bool = True
    visit_unvisited_first: bool = True
    sketch_factory: Optional[Callable] = None
    fallback: FallbackConfig = field(default_factory=FallbackConfig)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive_int(self.k, "k")
        check_positive_int(self.batch_size, "batch_size")

    def bandit_config(self) -> BanditConfig:
        """Project the histogram/exploration settings for the policy."""
        return BanditConfig(
            n_bins=self.n_bins,
            initial_range=self.initial_range,
            beta=self.beta,
            enable_rebinning=self.enable_rebinning,
            exploration=self.exploration,
            visit_unvisited_first=self.visit_unvisited_first,
            sketch_factory=self.sketch_factory,
        )


class TopKEngine:
    """Anytime approximate top-k execution over a prebuilt cluster index.

    Parameters
    ----------
    index:
        The hierarchical (or flat) cluster tree.
    config:
        Engine configuration; paper defaults if omitted.
    scoring_latency_hint:
        Estimated per-element scoring latency in seconds, used by the
        clustering-fallback slope test before real measurements accumulate
        (the harness refreshes it from the scorer's latency model).
    """

    _SNAPSHOT_FORMAT = "repro-engine-snapshot/1"

    def __init__(self, index: ClusterTree, config: EngineConfig | None = None,
                 *, scoring_latency_hint: float = 2e-3) -> None:
        self.config = config or EngineConfig()
        factory = RngFactory(self.config.seed)
        self._rng = factory.named("engine")
        self.policy = HierarchicalBanditPolicy(
            index,
            self.config.bandit_config(),
            rng=factory.named("tree"),
            enable_subtraction=self.config.enable_subtraction,
        )
        #: Rows of ``names`` inside; ids only at the boundary.
        self._names = self.policy.names
        self.buffer: TopKBuffer[int] = TopKBuffer(self.config.k)
        self.n_total = index.n_elements()
        self.fallback = FallbackController(self.config.fallback, self.n_total)
        self.scoring_latency_hint = float(scoring_latency_hint)
        self.overhead = Stopwatch()
        # Execution state.
        self.mode = "bandit"  # or "scan" after clustering fallback
        self._scan_queue: List[int] = []
        self._pending: List[int] = []
        self.t_batches = 0
        self.n_scored = 0
        self.n_explore = 0
        self.n_exploit = 0
        self.fallback_events: List[Tuple[int, str]] = []
        # Optional externally-imposed kick-out floor: a distributed
        # coordinator broadcasts the *global* k-th score so workers stop
        # chasing elements that can no longer enter the merged answer.
        self.threshold_floor: Optional[float] = None

    # -- read-only state ---------------------------------------------------------

    @property
    def stk(self) -> float:
        """Sum-of-Top-k of the scores held so far (the buffer's exact sum)."""
        return self.buffer.stk

    @property
    def threshold(self) -> float | None:
        """Current kick-out threshold ``(S)_(k)``."""
        return self.buffer.threshold

    @property
    def effective_threshold(self) -> float | None:
        """Local threshold, raised to any coordinator-broadcast floor.

        Used for gain estimation and fallback checks; the local buffer still
        accepts everything (merging stays correct), but the bandit targets
        only scores that can enter the *global* answer.
        """
        local = self.buffer.threshold
        if self.threshold_floor is None:
            return local
        if local is None:
            return self.threshold_floor
        return max(local, self.threshold_floor)

    @property
    def exhausted(self) -> bool:
        """True once every element has been (or is about to be) scored."""
        if self._pending:
            return False
        if self.mode == "scan":
            return not self._scan_queue
        return self.policy.exhausted

    def topk_items(self) -> List[Tuple[str, float]]:
        """Current (id, score) answer rows in descending score order."""
        names = self._names
        return [(names[row], score) for score, row in self.buffer.items()]

    @property
    def bandit_latency_per_element(self) -> float:
        """Measured algorithm overhead per scored element (seconds)."""
        if self.n_scored == 0:
            return 0.0
        return self.overhead.elapsed / self.n_scored

    # -- pull interface -------------------------------------------------------------

    def next_batch(self) -> List[str]:
        """Choose the next batch of element IDs to fetch and score.

        In bandit mode this performs one epsilon-greedy descent and draws up
        to ``batch_size`` members from the selected leaf; in scan mode it
        pops from the pre-shuffled remainder.  Raises
        :class:`~repro.errors.ExhaustedError` when nothing is left.
        """
        if self._pending:
            raise ConfigurationError(
                "observe() must be called before the next next_batch()"
            )
        with self.overhead:
            self._pending = self._select_batch()
        return list(map(self._names.__getitem__, self._pending))

    def _select_batch(self) -> List[int]:
        size = self.config.batch_size
        if self.mode == "scan":
            if not self._scan_queue:
                raise ExhaustedError("scan queue exhausted")
            take = self._scan_queue[:size]
            del self._scan_queue[:size]
            return take
        if self.policy.exhausted:
            raise ExhaustedError("all clusters exhausted")
        self.t_batches += 1
        epsilon = self.config.exploration.effective_rate(
            max(1, self.n_scored + 1), self.config.batch_size
        )
        explore_roll = self._rng.random() < epsilon
        if explore_roll:
            self.n_explore += 1
        else:
            self.n_exploit += 1
        return self.policy.select(
            size,
            self.effective_threshold,
            epsilon=1.0 if explore_roll else 0.0,
            per_layer=self.config.per_layer_exploration,
        )

    def observe(self, ids: Sequence[str], scores: Sequence[float]) -> float:
        """Report the scores for the batch returned by :meth:`next_batch`.

        Returns the total marginal STK gain of the batch.  Performs all of
        Algorithm 1's bookkeeping: priority-queue offers, histogram updates
        with re-binning, empty-leaf drops, and periodic fallback checks.
        """
        if len(ids) != len(self._pending):
            raise ConfigurationError(
                f"observe() got {len(ids)} ids for {len(self._pending)} pending"
            )
        names = self._names
        for row, got_id in zip(self._pending, ids):
            expected_id = names[row]
            if expected_id != got_id:
                raise ConfigurationError(
                    f"observe() ids out of order: expected {expected_id!r}, "
                    f"got {got_id!r}"
                )
        with self.overhead:
            return self._fold(scores)

    def _fold(self, scores: Sequence[float]) -> float:
        """Fold the pending batch's scores: :meth:`observe` without the id
        checks, which :meth:`advance` needs not make for ids it drew."""
        pending = self._pending
        if len(scores) != len(pending):
            raise ConfigurationError(
                f"observe() got {len(scores)} scores for {len(pending)} ids"
            )
        if (type(scores) is np.ndarray and scores.ndim == 1
                and scores.dtype == np.float64):
            batch_scores = scores.tolist()
        else:
            batch_scores = np.asarray(scores, dtype=float).reshape(-1).tolist()
        check_scores(batch_scores)
        # Per-element priority-queue offers: the threshold must evolve
        # within the batch exactly as in the scalar Algorithm 1 loop.
        total_gain = self.buffer.offer_batch(batch_scores, pending)
        self.n_scored += len(pending)
        self._pending = []
        # A scan batch came from no leaf: the policy has nothing pending.
        self.policy.update(
            batch_scores, self.effective_threshold,
            enable_rebinning=self.config.enable_rebinning,
        )
        if self.mode == "bandit" and self.fallback.should_check(self.n_scored):
            self._apply_fallback()
        return total_gain

    def _apply_fallback(self) -> None:
        decision = self.fallback.evaluate(
            self.policy,
            self.effective_threshold,
            scoring_latency=self.scoring_latency_hint,
            bandit_latency=self.bandit_latency_per_element,
        )
        if decision is FallbackDecision.FLATTEN_TREE:
            self.policy.flatten()
            self.fallback_events.append((self.n_scored, decision.value))
        elif decision is FallbackDecision.UNIFORM_SCAN:
            remaining = self.policy.remaining_rows()
            self._rng.shuffle(remaining)
            self._scan_queue = remaining
            self.mode = "scan"
            self.fallback_events.append((self.n_scored, decision.value))

    # -- the one loop ----------------------------------------------------------------

    def advance(self, step: ScoringStep, limit: int) -> bool:
        """Run select → score → observe until ``n_scored`` reaches ``limit``.

        Algorithm 1's loop, once for every driver (:meth:`run` per
        checkpoint window, a shard worker per round).  ``limit`` is
        cumulative; the last batch may cross it.  Returns ``False`` when
        the gate refused a batch: it stays drawn and pending and the next
        call scores it first, so a refusal loses no element.
        """
        size = self.config.batch_size
        self.scoring_latency_hint = step.scorer.batch_cost(size) / max(1, size)
        # The pull interface's work without its checks of the engine's own
        # ids; its two stopwatch spans are two clock differences here.
        overhead = self.overhead
        while self.n_scored < limit and not self.exhausted:
            if not self._pending:
                started = perf_counter()
                self._pending = self._select_batch()
                overhead.elapsed += perf_counter() - started
            scores = step.score(self._pending, self._names)
            if scores is None:
                return False
            started = perf_counter()
            self._fold(scores)
            overhead.elapsed += perf_counter() - started
        return True

    # -- standalone anytime loop -----------------------------------------------------

    def run(self, dataset: SupportsFetch, scorer: SupportsScore,
            budget: Optional[int] = None,
            memo=None, trace: Optional[TraceContext] = None,
            gate=None) -> QueryResult:
        """Execute the query end to end and return the result with its trace.

        Parameters
        ----------
        dataset:
            Provides ``fetch_batch(ids)`` (the user-defined sampler).
        scorer:
            Provides ``score_batch(objects)`` and ``batch_cost(n)`` — the
            opaque UDF and its latency model.  Scoring latency is charged to
            a virtual clock; algorithm overhead is measured for real.
        budget:
            Maximum number of scoring calls (default: the whole dataset).
            The run records a :class:`Checkpoint` about 200 times across
            it, after every ``max(1, budget // 200)`` scored elements.
        memo:
            Optional :class:`~repro.memo.store.MemoView`, the cross-query
            score memo for this ``(table, udf)`` pair; hits skip only the
            real UDF invocation (see :class:`ScoringStep` for the
            transparency contract).
        trace:
            Optional :class:`~repro.obs.spans.TraceContext`.  When given,
            the run records a ``run[single]`` span with one ``window[i]``
            child per checkpoint interval, charging virtual-clock,
            UDF-call, and memo-hit counters window by window.  ``None``
            (the default) records nothing.
        gate:
            Optional :class:`~repro.service.budget.QueryGrant`-shaped
            budget gate.  A fully funded query is granted every batch in
            full, so the gate never perturbs the run; a refused batch stops
            the run early, exactly like exhausting its own ``budget`` —
            calling ``run`` again (once funded) picks up with that batch.
            Cancellation surfaces here as
            :class:`~repro.errors.QueryCancelledError`.
        """
        limit = self.n_total if budget is None else min(budget, self.n_total)
        cadence = max(1, limit // 200)
        step = ScoringStep(dataset, scorer, memo, gate)
        checkpoints: List[Checkpoint] = []
        next_checkpoint = cadence
        # The run's span closes on every exit, a cancelling gate included,
        # and closes the open window with it.
        with (nullcontext() if trace is None else
              trace.span("run[single]", budget=limit,
                         batch_size=self.config.batch_size)):
            if trace is not None:
                trace.push("window[0]")
            window = 0
            funded = True
            while funded and self.n_scored < limit and not self.exhausted:
                before = (step.cost, step.scored, step.hits)
                # At least one batch per window: a batch larger than the
                # checkpoint interval leaves next_checkpoint behind n_scored.
                funded = self.advance(
                    step, min(limit, max(next_checkpoint, self.n_scored + 1)))
                if trace is not None:
                    scored = step.scored - before[1]
                    hits = step.hits - before[2]
                    trace.add(vclock=step.cost - before[0], scored=scored,
                              udf_calls=scored - hits, memo_hits=hits)
                if self.n_scored >= next_checkpoint:
                    checkpoints.append(
                        Checkpoint(
                            iteration=self.n_scored,
                            virtual_time=step.cost,
                            overhead_time=self.overhead.elapsed,
                            stk=self.stk,
                            threshold=self.threshold,
                        )
                    )
                    next_checkpoint += cadence
                    if trace is not None:
                        trace.annotate(stk=self.stk, threshold=self.threshold)
                        trace.pop()
                        window += 1
                        trace.push(f"window[{window}]")
            if trace is not None:
                trace.annotate(stk=self.stk, threshold=self.threshold)
                trace.pop()          # the open window
                trace.annotate(mode=self.mode, n_batches=self.t_batches)
        if step.scored > step.hits:
            UDF_CALLS_TOTAL.inc(step.scored - step.hits, engine="single")
        if step.hits:
            MEMO_HITS_TOTAL.inc(step.hits, engine="single")
        return QueryResult(
            k=self.config.k,
            items=self.topk_items(),
            stk=self.stk,
            n_scored=self.n_scored,
            n_batches=self.t_batches,
            n_explore=self.n_explore,
            n_exploit=self.n_exploit,
            virtual_time=step.cost,
            overhead_time=self.overhead.elapsed,
            fallback_events=list(self.fallback_events),
            checkpoints=checkpoints,
            # Every candidate scored => the answer is exact and the
            # result's displacement_bound reads 0.0.
            exhausted=self.exhausted,
        )

    # -- pause / resume --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything the engine learned, JSON-safe; not the RNG state
        (see :mod:`repro.core.snapshot`)."""
        if self._pending:
            raise ConfigurationError(
                "cannot snapshot between next_batch() and observe(); finish "
                "the in-flight batch first")
        return {
            "format": self._SNAPSHOT_FORMAT,
            "k": self.config.k,
            "mode": self.mode,
            "scan_queue": list(map(self._names.__getitem__,
                                   self._scan_queue)),
            "buffer": [[score, element_id] for element_id, score in
                       self.topk_items()],
            "tree": self.policy.state(),
            "flattened": self.policy.flattened,
            "counters": {
                "t_batches": self.t_batches,
                "n_scored": self.n_scored,
                "n_explore": self.n_explore,
                "n_exploit": self.n_exploit,
                "n_drops": self.policy.n_drops,
                "overhead_elapsed": self.overhead.elapsed,
                "fallback_next_check": self.fallback.next_check_at,
                "fallback_n_checks": self.fallback.n_checks,
            },
            "fallback_events": [[t, kind] for t, kind in self.fallback_events],
            "threshold_floor": self.threshold_floor,
            "n_total": self.n_total,
        }

    @classmethod
    def restore(cls, index: ClusterTree, snapshot: dict,
                config: Optional[EngineConfig] = None,
                resume_seed: Optional[int] = None) -> "TopKEngine":
        """Rebuild a live engine from :meth:`snapshot` output.

        ``index`` must be the same immutable index the original engine ran
        over (node IDs are checked).  ``config`` defaults to paper settings
        with the snapshot's ``k``; ``resume_seed`` seeds the fresh random
        streams of the resumed run.  A snapshot whose leaves or scan
        queue would draw an id twice, or an id no leaf holds, is refused
        with :class:`~repro.errors.SerializationError`.
        """
        fmt = cls._SNAPSHOT_FORMAT
        read(snapshot, fmt, k=int, mode=str, buffer=list, tree=dict,
             counters=dict, flattened=(bool, NULL), scan_queue=(list, NULL),
             fallback_events=(list, NULL), threshold_floor=NUMBER + (NULL,))
        counters = read(snapshot["counters"], fmt, "counters", t_batches=int,
                        n_scored=int, n_explore=int, n_exploit=int,
                        n_drops=(int, NULL), fallback_n_checks=(int, NULL),
                        fallback_next_check=(int, NULL),
                        overhead_elapsed=NUMBER + (NULL,))
        buffer = read_topk(snapshot["buffer"], fmt)
        if config is None:
            config = EngineConfig(k=snapshot["k"], seed=resume_seed)
        elif config.k != snapshot["k"]:
            raise ConfigurationError("config.k must match the snapshot's k")
        engine = cls(index, config)
        try:
            engine.policy.load_state(snapshot["tree"])
        except SerializationError as exc:
            raise SerializationError(f"expected {fmt} tree: {exc}") from exc
        engine.policy.flattened = bool(snapshot.get("flattened"))
        for (score, _), row in zip(buffer, _member_rows(
                engine.policy, [element_id for _, element_id in buffer],
                fmt)):
            engine.buffer.offer(score, row)
        engine.mode = snapshot["mode"]
        engine._scan_queue = _undrawn_queue(
            snapshot.get("scan_queue") or [], engine.policy, fmt)
        engine.t_batches = counters["t_batches"]
        engine.n_scored = counters["n_scored"]
        engine.n_explore = counters["n_explore"]
        engine.n_exploit = counters["n_exploit"]
        engine.policy.n_drops = counters.get("n_drops") or 0
        engine.overhead.elapsed = float(counters.get("overhead_elapsed") or 0)
        engine.fallback._next_check = counters.get("fallback_next_check") or 0
        engine.fallback.n_checks = counters.get("fallback_n_checks") or 0
        engine.fallback_events = [(int(t), str(kind)) for t, kind
                                  in snapshot.get("fallback_events") or ()]
        floor = snapshot.get("threshold_floor")
        engine.threshold_floor = None if floor is None else float(floor)
        return engine
