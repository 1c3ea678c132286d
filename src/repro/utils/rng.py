"""Deterministic random-number management.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  :func:`as_generator` normalizes both forms,
and :class:`RngFactory` deterministically derives named child generators
for subcomponents so that multi-part experiments are reproducible even when
components consume randomness in different orders.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int`` seed, or an existing
        generator, which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class RngFactory:
    """Derive named random generators from one root seed.

    Child streams are derived with :class:`numpy.random.SeedSequence.spawn`,
    so two factories created with the same root seed hand out identical
    streams regardless of request order.

    **Only the first eight bytes of a name reach the spawn key.**  Names
    that differ within them get independent streams; names that agree on
    them (``arm:leaf-1`` / ``arm:leaf-22``, ``engine:1`` / ``engine:10``,
    ``resume:0:0`` / ``resume:0:1``) get separate generator objects seeded
    *identically*.  The frozen golden traces were recorded over these
    streams, so this is pinned, not fixed
    (``tests/test_utils.py::test_named_streams_differ_beyond_eight_bytes``,
    ROADMAP item 4).

    Examples
    --------
    >>> factory = RngFactory(7)
    >>> a = factory.named("kmeans")
    >>> b = factory.named("bandit")
    >>> a is not b
    True
    >>> int(RngFactory(7).named("kmeans").integers(100)) == \
            int(RngFactory(7).named("kmeans").integers(100))
    True
    """

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, np.random.Generator):
            # Derive a stable root from the generator's own stream.
            seed = int(seed.integers(0, 2**63 - 1))
        self._root = np.random.SeedSequence(seed)
        self._named: dict[str, np.random.Generator] = {}
        self._counter = 0

    @property
    def root_entropy(self) -> int:
        """The root seed; ``RngFactory(root_entropy)`` hands out the same streams."""
        return self._root.entropy

    def named(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        Repeated calls with the same name return the *same* generator object
        (which therefore continues its stream).  The seed depends on the
        root entropy and the name's first eight bytes (see the class note).
        """
        if name not in self._named:
            digest = np.frombuffer(
                name.encode("utf-8").ljust(8, b"\0")[:8], dtype=np.uint64
            )[0]
            child = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=(int(digest),)
            )
            self._named[name] = np.random.default_rng(child)
        return self._named[name]

    def spawn(self) -> np.random.Generator:
        """Return a fresh anonymous generator (sequential spawn keys)."""
        self._counter += 1
        child = np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=(2**32 + self._counter,)
        )
        return np.random.default_rng(child)
