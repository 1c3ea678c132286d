"""A scorer that *really blocks* for its latency-model cost.

The experiment harness normally charges scoring latency to a virtual clock
(no real sleeping), which is right for simulation but useless when you want
to *measure* wall-clock — e.g. comparing the parallel backends, where
speedup comes from overlapping genuine UDF latency.
:class:`BlockingReluScorer` stands in for an expensive opaque UDF (a remote
model endpoint, an accelerator call): it sleeps for the latency model's
batch cost, then computes ReLU.  ``time.sleep`` releases the GIL, so the
thread backend overlaps it just like a real I/O- or accelerator-bound
scorer would.

Module-level and stateless, hence picklable for the process backend even
under the ``spawn`` start method.  Used by ``bench/harness.py``,
``examples/distributed_workers.py`` and ``examples/streaming_query.py``.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from repro.scoring.base import FixedPerCallLatency, Scorer


class BlockingReluScorer(Scorer):
    """``f(x) = max(0, x)`` after really sleeping for the batch cost."""

    def __init__(self, per_call: float = 2e-3) -> None:
        self.latency = FixedPerCallLatency(per_call)

    def score(self, obj: Any) -> float:
        time.sleep(self.latency.batch_cost(1))
        return max(0.0, float(obj))

    def score_batch(self, objects: Sequence[Any]) -> np.ndarray:
        time.sleep(self.latency.batch_cost(len(objects)))
        return np.maximum(np.asarray(objects, dtype=float), 0.0)
