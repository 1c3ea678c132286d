"""The budget gate under partial funding, for both coordinators.

The service matrix only runs fully funded gates.  These pin what each wait
policy does when the pool runs dry mid-query, on the ``serial`` backend:

* the barrier (:class:`~repro.parallel.engine.ShardedTopKEngine`) reserves
  a round's worst case, ``per_worker`` x active shards, before it submits
  anything; an underfunded round submits nothing and the run stops at the
  round boundary; the refund is netted over the round, so one shard's
  batch overshoot offsets another shard's underspend;
* the arrival policy (:class:`~repro.streaming.engine.StreamingTopKEngine`)
  funds a slice whole or not at all, so the drive winds down at slice
  boundaries.

The table: 50 candidate rows over 3 shards (17 / 17 / 16), ``BATCH 5``,
10 calls per shard per round or slice.  A batch is never split, so a
shard can score past its cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.data.dataset import InMemoryDataset
from repro.parallel.engine import ShardedTopKEngine
from repro.scoring.relu import ReluScorer
from repro.streaming.engine import StreamingTopKEngine
from tests.test_engine import _PoolGate

N_CANDIDATES = 50


class _LoggedPool(_PoolGate):
    """The pool gate, logging ``(asked, granted)`` and ``("refund", n)``."""

    def __init__(self, pool: int) -> None:
        super().__init__(pool)
        self.log = []

    def acquire(self, n: int) -> int:
        granted = super().acquire(n)
        self.log.append((n, granted))
        return granted

    def refund(self, n: int) -> None:
        super().refund(n)
        self.log.append(("refund", n))


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(0)
    values = np.maximum(rng.normal(1.0, 0.5, 200), 0.0)
    return InMemoryDataset([f"e{i}" for i in range(200)], values.tolist(),
                           np.column_stack([values, rng.random(200)]))


def engine(table, cls, gate=None):
    policy = ({"sync_interval": 10} if cls is ShardedTopKEngine
              else {"slice_budget": 10})
    built = cls(table, ReluScorer(), k=5, n_workers=3, seed=0,
                backend="serial", gate=gate,
                engine_config=EngineConfig(k=5, batch_size=5),
                ids=table.ids()[:N_CANDIDATES], **policy)
    submits = []
    submit = built.backend.submit

    def counted(worker_id, cap, floor):
        submits.append((worker_id, cap))
        submit(worker_id, cap, floor)

    built.backend.submit = counted
    return built, submits


class TestBarrier:
    def test_refund_is_netted_over_the_round(self, table):
        """42 calls fund the whole run, though it scores 50.

        Round 0 reserves 3 x 10 and its shards score 14 / 14 / 10 (the
        overshoot is not drawn).  Round 1 reserves 3 x 4; shards 0 and 1
        run dry after 3 rows while shard 2 overshoots to 5, so 11 fresh
        calls leave a refund of 1, not the 2 that per-shard refunds
        would give.  Round 2 draws that call back.
        """
        gate = _LoggedPool(42)
        gated, submits = engine(table, ShardedTopKEngine, gate)
        result = gated.run()
        oracle, _ = engine(table, ShardedTopKEngine)
        assert gate.log == [(30, 30), (12, 12), ("refund", 1), (1, 1)]
        assert gate.pool == 0
        assert submits == [(0, 10), (1, 10), (2, 10),
                           (0, 4), (1, 4), (2, 4), (2, 1)]
        assert result.total_scored == N_CANDIDATES and result.n_rounds == 3
        assert [w.n_scored for w in result.workers] == [17, 17, 16]
        assert result.items == oracle.run().items

    def test_underfunded_round_submits_nothing(self, table):
        """One call short: round 1's partial grant of 11 comes back whole,
        no shard is submitted, and the answer is the one at round 0's
        barrier — an ungated run to the 38 calls round 0 scored."""
        gate = _LoggedPool(41)
        gated, submits = engine(table, ShardedTopKEngine, gate)
        result = gated.run()
        oracle, _ = engine(table, ShardedTopKEngine)
        assert gate.log == [(30, 30), (12, 11), ("refund", 11)]
        assert gate.pool == 11
        assert submits == [(0, 10), (1, 10), (2, 10)]
        assert result.total_scored == 38 and result.n_rounds == 1
        assert [w.n_scored for w in result.workers] == [14, 14, 10]
        assert result.items == oracle.run(38).items


class TestArrival:
    def test_slices_are_funded_whole_or_not_at_all(self, table):
        """35 calls: three full slices; then each refill's partial grant
        comes back at once, until merges free enough for a 4-call slice.
        The drive drains and stops at 41 scored, answering as an ungated
        drive to 41 does."""
        gate = _LoggedPool(35)
        gated, submits = engine(table, StreamingTopKEngine, gate)
        result = gated.run()
        oracle, _ = engine(table, StreamingTopKEngine)
        assert gate.log == [
            (10, 10), (10, 10), (10, 10),
            (10, 5), ("refund", 5),          # refused whole
            (6, 5), ("refund", 5),           # refused whole
            (4, 4),                          # shard 0's last slice
            (4, 1), ("refund", 1),           # refused whole
            ("refund", 1),                   # shard 0 spent 3 of 4
            (4, 2), ("refund", 2),           # refused whole
        ]
        assert submits == [(0, 10), (1, 10), (2, 10), (0, 4)]
        assert gate.pool == 2
        assert result.total_scored == 41
        assert [w.n_scored for w in result.workers] == [17, 14, 10]
        assert not result.converged
        assert result.items == oracle.run(41).items

    def test_dry_pool_leaves_a_shard_unsubmitted(self, table):
        """20 calls fund two slices; shard 2 is never submitted."""
        gate = _LoggedPool(20)
        gated, submits = engine(table, StreamingTopKEngine, gate)
        result = gated.run()
        assert submits == [(0, 10), (1, 10)]
        assert gate.pool == 0
        assert result.total_scored == 28
        assert [w.n_scored for w in result.workers] == [14, 14, 0]
