"""Recorded-arrival traces: the JSON-safe audit log of a streaming run.

The streaming coordinator (:class:`repro.streaming.engine.StreamingTopKEngine`)
is a *deterministic function of its arrival order*: given the sequence in
which shard slices are consumed, every submission it makes (which shard,
what budget cap, what threshold floor) and every merge it performs follow
mechanically.  On the ``thread`` / ``process`` backends that arrival order
is real and nondeterministic — so recording it is exactly enough to make
a real run reproducible.

An :class:`ArrivalTrace` stores:

* the engine configuration needed to rebuild identical shards (worker
  count, ``k``, slice budget, ``confidence``, and the root RNG entropy —
  the dataset and scorer are *not* serialized and must be supplied again
  at replay time);
* one entry per drive (the resolved budget and snapshot granularity);
* the ordered event log — ``submit`` events (worker, cap, floor: recorded
  for cross-validation, since a correct replay re-derives them) and
  ``arrival`` events (worker, elements scored, and the coordinator's
  measured wall-clock at the merge, which the replay re-emits as its
  virtual clock so progressive traces match the recorded run bit for
  bit).

:class:`TraceRecorder` is the coordinator-side collector; construct the
engine with ``record=True`` and read the finished trace with
``engine.trace()``.  Replay lives in :mod:`repro.replay.backend`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.persist import NULL, NUMBER, read, read_fixed

TRACE_FORMAT = "repro-arrival-trace/1"
#: Header fields of options since fixed, at the one value a trace writes
#: and a reader accepts (see :func:`repro.persist.read_fixed`).
_FIXED_FIELDS = {"share_threshold": True, "stable_slices": None}


@dataclass
class ArrivalTrace:
    """One recorded streaming run: configuration + ordered event log."""

    backend: str                    # backend the run was recorded on
    n_workers: int
    k: int
    slice_budget: int
    confidence: Optional[float]
    root_entropy: int
    drives: List[Dict[str, object]] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)

    @property
    def n_arrivals(self) -> int:
        """Number of recorded merge (arrival) events."""
        return sum(1 for event in self.events if event["type"] == "arrival")

    def summary(self) -> str:
        """One-line description of the recorded run."""
        return (
            f"trace of {self.backend}@{self.n_workers} "
            f"(k={self.k}, slice={self.slice_budget}): "
            f"{self.n_arrivals} arrivals over {len(self.drives)} drive(s)"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "format": TRACE_FORMAT,
            "backend": self.backend,
            "n_workers": self.n_workers,
            "k": self.k,
            "slice_budget": self.slice_budget,
            **_FIXED_FIELDS,
            "confidence": self.confidence,
            "root_entropy": self.root_entropy,
            "drives": [dict(drive) for drive in self.drives],
            "events": [dict(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ArrivalTrace":
        """Rebuild a trace from :meth:`to_dict` output; verify the format."""
        read(payload, TRACE_FORMAT, backend=str, n_workers=int, k=int,
             slice_budget=int, confidence=NUMBER + (NULL,),
             root_entropy=int, drives=(list, NULL), events=(list, NULL))
        read_fixed(payload, TRACE_FORMAT, **_FIXED_FIELDS)
        confidence = payload.get("confidence")
        return cls(
            backend=payload["backend"],
            n_workers=payload["n_workers"],
            k=payload["k"],
            slice_budget=payload["slice_budget"],
            confidence=None if confidence is None else float(confidence),
            root_entropy=payload["root_entropy"],
            drives=[dict(read(drive, TRACE_FORMAT, "drive"))
                    for drive in payload.get("drives") or ()],
            events=[dict(read(event, TRACE_FORMAT, "event", type=str))
                    for event in payload.get("events") or ()],
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the trace as JSON; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ArrivalTrace":
        """Read a trace written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


class TraceRecorder:
    """Coordinator-side event collector (see the module docstring)."""

    def __init__(self) -> None:
        self.drives: List[Dict[str, object]] = []
        self.events: List[Dict[str, object]] = []

    def begin_drive(self, budget: int, every: Optional[int]) -> None:
        """Record the start of one ``results_iter`` drive."""
        self.drives.append({"budget": int(budget), "every": every})

    def submit(self, worker_id: int, cap: int,
               floor: Optional[float]) -> None:
        """Record one slice submission (cap/floor kept for validation)."""
        self.events.append({
            "type": "submit",
            "worker": int(worker_id),
            "cap": int(cap),
            "floor": floor if floor is None else float(floor),
        })

    def arrival(self, worker_id: int, scored: int, wall: float,
                cost: Optional[float] = None) -> None:
        """Record one merge: which shard arrived, when, how much it did.

        ``cost`` is the slice's deterministic virtual-clock charge;
        recorded for replay cross-validation (a diverging shard shows a
        different charge even when the element *count* happens to
        match).  Optional so traces recorded by older code still load
        and replay — the check is skipped when absent.
        """
        event: Dict[str, object] = {
            "type": "arrival",
            "worker": int(worker_id),
            "scored": int(scored),
            "wall": float(wall),
        }
        if cost is not None:
            event["cost"] = float(cost)
        self.events.append(event)
