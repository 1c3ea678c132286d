"""The ``replay`` backend: deterministic trace re-execution.

:class:`ReplayStreamBackend` drives the serial simulation with a recorded
:class:`~repro.replay.trace.ArrivalTrace` instead of the virtual
completion order: slices execute eagerly at submission (shard state is
deterministic given the ``(cap, floor)`` sequence, which the replaying
coordinator re-derives), and ``next_event`` releases outcomes in exactly
the recorded arrival order, re-emitting the recorded wall-clock as the
virtual clock.  A replayed run therefore reproduces the recorded run's
merge sequence, progressive trace, and final answer bit for bit — and
two replays of the same trace are identical, which makes real-backend
(thread/process) runs auditable and snapshot-testable after the fact.

Every recorded ``submit`` event is cross-checked against the replaying
coordinator's actual submission (worker, cap, floor) and every arrival's
``scored`` count against the re-executed slice; a mismatch raises
:class:`~repro.errors.ReplayDivergenceError` — the dataset, scorer, seed,
or configuration differs from the recorded run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ReplayDivergenceError
from repro.parallel.backends import SerialBackend, SliceEvent
from repro.parallel.worker import RoundOutcome, ShardSpec
from repro.replay.trace import ArrivalTrace

REPLAY_BACKEND_NAME = "replay"


class ReplayStreamBackend(SerialBackend):
    """The serial simulation, released in a recorded arrival order."""

    name = REPLAY_BACKEND_NAME

    def __init__(self, trace: ArrivalTrace) -> None:
        super().__init__()
        self.trace = trace
        self._cursor = 0
        self._parked: Dict[int, RoundOutcome] = {}

    # -- event-log helpers ---------------------------------------------------

    def _next_recorded(self, expected_type: str) -> Dict[str, object]:
        if self._cursor >= len(self.trace.events):
            raise ReplayDivergenceError(
                f"trace exhausted after {self._cursor} events but the "
                f"coordinator expected another {expected_type!r} event"
            )
        event = self.trace.events[self._cursor]
        if event["type"] != expected_type:
            raise ReplayDivergenceError(
                f"event {self._cursor}: coordinator performed a "
                f"{expected_type!r} but the trace recorded "
                f"{event['type']!r} (worker {event.get('worker')})"
            )
        self._cursor += 1
        return event

    @property
    def exhausted(self) -> bool:
        """True once every recorded event has been replayed."""
        return self._cursor >= len(self.trace.events)

    # -- ShardBackend interface ----------------------------------------------

    def start(self, specs: List[ShardSpec], dataset, scorer,
              worker_times: Optional[List[float]] = None) -> None:
        if len(specs) != self.trace.n_workers:
            raise ReplayDivergenceError(
                f"trace was recorded with {self.trace.n_workers} workers, "
                f"got {len(specs)} shard specs"
            )
        super().start(specs, dataset, scorer, worker_times)

    def submit(self, worker_id: int, cap: int,
               threshold_floor: Optional[float]) -> None:
        event = self._next_recorded("submit")
        recorded = (event["worker"], event["cap"], event["floor"])
        actual = (worker_id, cap, threshold_floor)
        if recorded != actual:
            raise ReplayDivergenceError(
                f"event {self._cursor - 1}: replayed submission "
                f"(worker, cap, floor)={actual} diverges from recorded "
                f"{recorded} — dataset/scorer/seed/config differ from the "
                f"recorded run"
            )
        outcome = self.workers[worker_id].run_round(cap, threshold_floor)
        self._parked[worker_id] = outcome

    def next_event(self) -> SliceEvent:
        event = self._next_recorded("arrival")
        worker_id = int(event["worker"])
        outcome = self._parked.pop(worker_id, None)
        if outcome is None:
            raise ReplayDivergenceError(
                f"event {self._cursor - 1}: trace releases worker "
                f"{worker_id} but that shard has no slice in flight"
            )
        if outcome.scored != event["scored"]:
            raise ReplayDivergenceError(
                f"event {self._cursor - 1}: worker {worker_id} scored "
                f"{outcome.scored} elements on replay but the trace "
                f"recorded {event['scored']} — shard execution diverged"
            )
        recorded_cost = event.get("cost")
        if recorded_cost is not None and outcome.cost != recorded_cost:
            # The virtual charge is a deterministic function of the slice,
            # so exact equality is the contract (older traces carry no
            # cost field and skip this check).
            raise ReplayDivergenceError(
                f"event {self._cursor - 1}: worker {worker_id} charged "
                f"{outcome.cost!r} virtual seconds on replay but the "
                f"trace recorded {recorded_cost!r} — the scorer's cost "
                f"model differs from the recorded run"
            )
        return SliceEvent(outcome, virtual_completion=float(event["wall"]))
