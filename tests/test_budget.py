"""Property/fuzz suite for the service BudgetScheduler.

The scheduler's contract (see :mod:`repro.service.budget`) reduces to
four falsifiable claims, each tested here under randomized arrival
orders and grant sizes:

* **conservation** — the demand committed to in-flight grants never
  exceeds the global budget, at any observable instant, under any
  interleaving (retiring returns a query's whole demand: the budget
  meters concurrency, not lifetime totals);
* **all-or-nothing funding** — an admitted query's acquires are granted
  in full until its committed demand is exhausted;
* **fair-share liveness** — no tenant starves: with queries retiring,
  every waiting request is eventually admitted, and a quiet tenant
  overtakes a chatty one's backlog;
* **EDF admission** — under the ``deadline`` policy, contended requests
  are admitted in deadline order regardless of arrival order.

All randomness is seeded; the threaded fuzz drains every worker, so a
scheduler deadlock fails the test by timeout rather than hanging it.
"""

from __future__ import annotations

import concurrent.futures
import random
import threading
import time

import pytest

from repro.errors import ConfigurationError, QueryCancelledError
from repro.service.budget import BudgetScheduler

#: The two doors into the one admission queue: the blocking call and the
#: future the service awaits.
ADMISSIONS = ("admit", "admit_future")


def admission_order(scheduler, blocker, requests, admission):
    """Queue ``requests`` behind ``blocker``, retire it, and return their
    tags in admission order.

    ``requests`` is ``[(tag, tenant, deadline), ...]`` in arrival order.
    Every demand is the whole pool, so one request holds it at a time and
    retires as soon as it is admitted.  ``"admit"`` blocks one thread per
    request, each started once the one before it is queued;
    ``"admit_future"`` queues every future and retires each as it
    resolves.
    """
    order = []
    if admission == "admit_future":
        futures = [(tag, scheduler.admit_future(tenant, scheduler.budget,
                                                deadline=deadline))
                   for tag, tenant, deadline in requests]
        blocker.retire()
        while futures:
            ((tag, future),) = [entry for entry in futures
                                if entry[1].done()]
            futures.remove((tag, future))
            order.append(tag)
            future.result().retire()
        return order

    def wait_admit(tag, tenant, deadline):
        grant = scheduler.admit(tenant, scheduler.budget, deadline=deadline)
        order.append(tag)
        grant.retire()

    threads = []
    for queued, request in enumerate(requests, start=1):
        thread = threading.Thread(target=wait_admit, args=request)
        thread.start()
        threads.append(thread)
        while scheduler.stats()["waiting"] < queued:  # fix arrival order
            time.sleep(0.001)
    blocker.retire()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "scheduler deadlocked"
    return order


class TestValidation:
    def test_rejects_bad_budget_and_policy(self):
        with pytest.raises(ConfigurationError):
            BudgetScheduler(budget=0)
        with pytest.raises(ConfigurationError):
            BudgetScheduler(budget=-5)
        with pytest.raises(ConfigurationError):
            BudgetScheduler(policy="lifo")

    def test_rejects_bad_demand_and_refund(self):
        scheduler = BudgetScheduler(budget=10)
        with pytest.raises(ConfigurationError):
            scheduler.admit("a", -1)
        grant = scheduler.admit("a", 5)
        with pytest.raises(ConfigurationError):
            grant.acquire(-1)
        grant.acquire(3)
        with pytest.raises(ConfigurationError):
            grant.refund(4)  # only 3 were drawn

    def test_unmetered_admits_everything_immediately(self):
        scheduler = BudgetScheduler(budget=None)
        grants = [scheduler.admit("t", 10 ** 9) for _ in range(5)]
        for grant in grants:
            assert grant.acquire(1000) == 1000
            grant.retire()
        assert scheduler.stats()["available"] is None


class TestGrantLifecycle:
    def test_all_or_nothing_until_demand_exhausted(self):
        scheduler = BudgetScheduler(budget=100)
        grant = scheduler.admit("a", 60)
        assert grant.acquire(25) == 25
        assert grant.acquire(25) == 25
        # Demand boundary: only 10 of the committed 60 remain.
        assert grant.acquire(25) == 10
        assert grant.acquire(25) == 0
        grant.refund(5)
        assert grant.acquire(25) == 5
        grant.retire()
        stats = scheduler.stats()
        assert stats["spent"] == 60          # cumulative telemetry ...
        assert stats["available"] == 100     # ... the pool is whole again

    def test_retire_returns_the_whole_demand(self):
        scheduler = BudgetScheduler(budget=100)
        grant = scheduler.admit("a", 80)
        assert scheduler.stats()["available"] == 20
        grant.acquire(30)
        grant.refund(10)
        grant.retire()
        stats = scheduler.stats()
        assert stats["spent"] == 20
        assert stats["available"] == 100
        grant.retire()  # idempotent
        assert scheduler.stats()["available"] == 100

    def test_cancel_fails_future_acquires(self):
        scheduler = BudgetScheduler(budget=100)
        grant = scheduler.admit("a", 50)
        assert grant.acquire(10) == 10
        grant.cancel()
        with pytest.raises(QueryCancelledError):
            grant.acquire(1)
        grant.retire()
        # The 10 drawn before the cancel show up as spent telemetry, but
        # the whole commitment is back in the pool.
        stats = scheduler.stats()
        assert stats["spent"] == 10 and stats["available"] == 100

    def test_oversized_demand_clamped_when_pool_idle(self):
        scheduler = BudgetScheduler(budget=40)
        grant = scheduler.admit("a", 1000)
        assert grant.demand == 40
        assert grant.acquire(1000) == 40
        grant.retire()

    def test_admit_timeout_abandons_cleanly(self):
        scheduler = BudgetScheduler(budget=10)
        blocker = scheduler.admit("a", 10)
        started = time.monotonic()
        with pytest.raises(QueryCancelledError):
            scheduler.admit("b", 5, timeout=0.05)
        assert time.monotonic() - started < 5.0
        assert scheduler.stats()["waiting"] == 0
        blocker.retire()
        # The pool is whole again and admission still works.
        grant = scheduler.admit("b", 10)
        grant.retire()

    def test_admission_racing_the_timeout_is_kept(self, monkeypatch):
        """The wait expires just after ``_pump`` admitted the request:
        ``admit`` returns that grant, so its demand is committed once and
        is not leaked."""
        scheduler = BudgetScheduler(budget=10)
        blocker = scheduler.admit("a", 10)
        wait = concurrent.futures.Future.result

        def late_result(future, timeout=None):
            if timeout is None:
                return wait(future)
            blocker.retire()         # _pump admits the waiter ...
            assert future.done()
            raise concurrent.futures.TimeoutError  # ... as the wait expires

        monkeypatch.setattr(concurrent.futures.Future, "result", late_result)
        grant = scheduler.admit("b", 5, timeout=0.05)
        stats = scheduler.stats()
        assert stats["committed"] == 5 and stats["waiting"] == 0
        assert stats["tenants"] == {
            "b": {"live": 1, "committed": 5, "consumed": 0}}
        grant.retire()
        assert scheduler.stats()["available"] == 10

    def test_cancelled_waiter_is_dropped_uncharged(self):
        """A queued future cancelled before admission (the service's
        asyncio wait was cancelled) is never granted: the retire that
        frees the pool does not raise and nothing stays committed."""
        scheduler = BudgetScheduler(budget=10)
        blocker = scheduler.admit("a", 10)
        assert scheduler.admit_future("b", 5).cancel()
        blocker.retire()
        stats = scheduler.stats()
        assert stats["committed"] == 0 and stats["waiting"] == 0
        assert stats["admissions"] == {"a": 1}
        # The pool is whole again and admission still works.
        scheduler.admit("c", 10).retire()
        assert scheduler.stats()["available"] == 10

    def test_peak_committed_counts_grants_held_at_once(self):
        """``peak_committed`` is the high-water mark of demand committed
        at one instant: three grants held together count all three, and
        retiring them lowers ``committed`` but not the peak."""
        scheduler = BudgetScheduler(budget=30)
        grants = [scheduler.admit(tenant, 10) for tenant in "abc"]
        assert scheduler.stats()["peak_committed"] == 30
        for grant in grants:
            grant.retire()
        scheduler.admit("d", 5).retire()
        stats = scheduler.stats()
        assert stats["committed"] == 0 and stats["peak_committed"] == 30


class TestWithdrawal:
    """A request cancelled before admission leaves the queue at once, so
    a head-of-line request that gives up never holds up the queue."""

    @pytest.mark.parametrize("policy", ["fair-share", "deadline"])
    def test_cancelled_head_admits_the_waiter_behind_it(self, policy):
        scheduler = BudgetScheduler(budget=10, policy=policy)
        holder = scheduler.admit("a", 6)
        head = scheduler.admit_future("b", 10, deadline=1.0)
        behind = scheduler.admit_future("c", 4, deadline=2.0)
        assert not behind.done()          # head-of-line: b does not fit
        assert head.cancel()
        assert behind.done()
        stats = scheduler.stats()
        assert stats["waiting"] == 0 and stats["committed"] == 10
        assert stats["admissions"] == {"a": 1, "c": 1}
        behind.result().retire()
        holder.retire()
        assert scheduler.stats()["available"] == 10

    @pytest.mark.parametrize("policy", ["fair-share", "deadline"])
    def test_admit_timeout_admits_the_waiter_behind_it(self, policy):
        scheduler = BudgetScheduler(budget=10, policy=policy)
        holder = scheduler.admit("a", 6)
        outcome = []

        def wait_admit():
            try:
                scheduler.admit("b", 10, deadline=1.0, timeout=0.2)
            except QueryCancelledError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=wait_admit)
        thread.start()
        while scheduler.stats()["waiting"] < 1:  # b queues first
            time.sleep(0.001)
        behind = scheduler.admit_future("c", 4, deadline=2.0)
        assert not behind.done()
        thread.join(timeout=30)
        assert not thread.is_alive(), "scheduler deadlocked"
        assert len(outcome) == 1
        assert behind.done()
        assert scheduler.stats()["waiting"] == 0
        behind.result().retire()
        holder.retire()
        assert scheduler.stats()["available"] == 10

    @pytest.mark.parametrize("policy", ["fair-share", "deadline"])
    def test_cancelling_waiters_never_commits_or_wedges(self, policy):
        """Threaded fuzz: workers queue futures and cancel some of them
        at random (some already admitted, some still waiting) while
        others retire.  Every admitted grant is retired exactly once,
        no cancelled request is ever charged, and the pool drains."""
        budget = 100
        scheduler = BudgetScheduler(budget=budget, policy=policy)
        errors = []

        def worker(worker_seed):
            generator = random.Random(worker_seed)
            try:
                for _ in range(20):
                    future = scheduler.admit_future(
                        f"t{worker_seed % 3}", generator.randint(1, 80),
                        deadline=generator.random())
                    if generator.random() < 0.5 and future.cancel():
                        continue          # withdrawn before admission
                    future.result(timeout=30).retire()
            except BaseException as exc:  # noqa: BLE001 — report below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "scheduler deadlocked"
        assert errors == []
        stats = scheduler.stats()
        assert stats["committed"] == 0 and stats["waiting"] == 0
        assert stats["available"] == budget
        assert stats["tenants"] == {}


class TestFairShare:
    @pytest.mark.parametrize("admission", ADMISSIONS)
    def test_quiet_tenant_overtakes_chatty_backlog(self, admission):
        """B's first request is admitted before A's queued 2nd and 3rd."""
        scheduler = BudgetScheduler(budget=10, policy="fair-share")
        blocker = scheduler.admit("a", 10)       # A admitted once
        order = admission_order(
            scheduler, blocker,
            [("a2", "a", None), ("a3", "a", None), ("b1", "b", None)],
            admission)
        # b has 0 prior admissions vs a's 1 (then 2), so: b1, a2, a3.
        assert order == ["b1", "a2", "a3"]

    @pytest.mark.parametrize("admission", ADMISSIONS)
    def test_no_starvation_under_chatty_load(self, admission):
        """A single quiet request completes despite a flood of others.

        50 chatty requests are queued ahead of the quiet one; fair-share
        rotation must admit the quiet tenant within its first turn, long
        before the chatty backlog drains.
        """
        scheduler = BudgetScheduler(budget=10, policy="fair-share")
        blocker = scheduler.admit("chatty", 10)
        requests = [(index, "chatty", None) for index in range(50)]
        order = admission_order(scheduler, blocker,
                                requests + [("quiet", "quiet", None)],
                                admission)
        assert len(order) == 51
        # The quiet tenant waited behind at most one chatty turn (the
        # round-robin key is completed admissions: chatty had 1, quiet 0).
        assert order.index("quiet") <= 1


class TestDeadlinePolicy:
    @pytest.mark.parametrize("admission", ADMISSIONS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_contended_admissions_follow_edf(self, seed, admission):
        """Randomized arrival order; admission order must sort by deadline."""
        generator = random.Random(seed)
        scheduler = BudgetScheduler(budget=10, policy="deadline")
        blocker = scheduler.admit("t", 10)
        deadlines = generator.sample(range(100), 8)
        order = admission_order(
            scheduler, blocker,
            [(deadline, "t", deadline) for deadline in deadlines],
            admission)
        assert order == sorted(deadlines)

    @pytest.mark.parametrize("admission", ADMISSIONS)
    def test_no_deadline_sorts_last(self, admission):
        scheduler = BudgetScheduler(budget=10, policy="deadline")
        blocker = scheduler.admit("t", 10)
        order = admission_order(
            scheduler, blocker,
            [("lazy", "t", None), ("urgent", "t", 1.0)], admission)
        assert order == ["urgent", "lazy"]


class TestConservationFuzz:
    @pytest.mark.parametrize("policy", ["fair-share", "deadline"])
    @pytest.mark.parametrize("seed", [7, 23])
    def test_committed_plus_spent_never_exceeds_budget(self, policy, seed):
        """Threaded fuzz: random demands, quanta, refunds, cancellations.

        A sampler thread polls the pool throughout; every observation
        must satisfy ``committed <= budget`` (equivalently
        ``available >= 0``).  Every worker must also drain — a scheduler
        deadlock shows up as a join timeout, not a hang.
        """
        budget = 200
        scheduler = BudgetScheduler(budget=budget, policy=policy)
        violations = []
        done = threading.Event()

        def sampler():
            while not done.is_set():
                stats = scheduler.stats()
                if stats["committed"] > budget or stats["available"] < 0:
                    violations.append(stats)
                time.sleep(0.001)

        def worker(worker_seed):
            generator = random.Random(worker_seed)
            for _ in range(5):
                demand = generator.randint(1, 120)
                deadline = (generator.random()
                            if generator.random() < 0.5 else None)
                grant = scheduler.admit(f"t{worker_seed % 4}", demand,
                                        deadline=deadline)
                drawn = 0
                for _ in range(generator.randint(1, 4)):
                    drawn += grant.acquire(generator.randint(1, 60))
                    if drawn and generator.random() < 0.3:
                        back = generator.randint(1, drawn)
                        grant.refund(back)
                        drawn -= back
                if generator.random() < 0.2:
                    grant.cancel()
                    with pytest.raises(QueryCancelledError):
                        grant.acquire(1)
                grant.retire()

        sampler_thread = threading.Thread(target=sampler)
        sampler_thread.start()
        threads = [threading.Thread(target=worker, args=(seed * 100 + i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "scheduler deadlocked"
        done.set()
        sampler_thread.join(timeout=10)
        assert violations == []
        stats = scheduler.stats()
        assert stats["committed"] == 0
        assert stats["available"] == budget
        assert stats["spent"] >= 0
        assert stats["waiting"] == 0

    def test_spent_is_exactly_the_sum_of_net_draws(self):
        generator = random.Random(99)
        scheduler = BudgetScheduler(budget=10_000)
        expected = 0
        for _ in range(50):
            demand = generator.randint(1, 200)
            grant = scheduler.admit("t", demand)
            net = 0
            for _ in range(generator.randint(1, 5)):
                net += grant.acquire(generator.randint(1, 100))
                if net and generator.random() < 0.4:
                    back = generator.randint(1, net)
                    grant.refund(back)
                    net -= back
            grant.retire()
            expected += net
            assert grant.consumed == net
        assert scheduler.stats()["spent"] == expected
