"""UniformSample baseline (Section 5.1.1 (4)).

"Uniform sampling over the entire search domain, implemented via
pre-shuffling of the data, then performing a sequential scan.
UniformSample represents the average case result of Scan, as there is no
additional run-time overhead."
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.base import _OrderedScan
from repro.utils.rng import SeedLike, as_generator


class UniformSample(_OrderedScan):
    """Pre-shuffled sequential scan."""

    name = "UniformSample"

    def __init__(self, ids: Sequence[str], batch_size: int = 1,
                 rng: SeedLike = None) -> None:
        order = list(ids)
        as_generator(rng).shuffle(order)
        super().__init__(order, batch_size)
