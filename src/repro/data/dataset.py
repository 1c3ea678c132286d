"""Dataset protocol: string IDs plus the user-defined sampler function.

Section 3.2.6: "we assume that each element in the search domain has a
unique string ID ... a user-defined sampler function takes an ID and
additional parameters as input, and returns an object — the element itself —
of arbitrary type."  :class:`Dataset` is that contract; everything else in
the library addresses elements only by ID.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError


class Dataset(ABC):
    """A searchable collection of elements addressed by unique string IDs."""

    @abstractmethod
    def ids(self) -> List[str]:
        """All element IDs, in a stable order."""

    @abstractmethod
    def fetch(self, element_id: str) -> Any:
        """Materialize one element (the paper's sampler function)."""

    def fetch_batch(self, element_ids: Sequence[str]) -> List[Any]:
        """Materialize several elements; default maps :meth:`fetch`."""
        return [self.fetch(element_id) for element_id in element_ids]

    @abstractmethod
    def features(self) -> np.ndarray:
        """Cheap vector representations aligned with :meth:`ids` rows."""

    def __len__(self) -> int:
        return len(self.ids())


class InMemoryDataset(Dataset):
    """Simple concrete dataset holding objects and features in memory.

    Parameters
    ----------
    ids:
        Unique string IDs.
    objects:
        Elements aligned with ``ids``.
    features:
        ``(n, d)`` cheap vectors aligned with ``ids``.
    """

    def __init__(self, ids: Sequence[str], objects: Sequence[Any],
                 features: np.ndarray) -> None:
        if len(ids) != len(objects):
            raise ConfigurationError(
                f"{len(ids)} ids for {len(objects)} objects"
            )
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if len(features) != len(ids):
            raise ConfigurationError(
                f"{len(ids)} ids for {len(features)} feature rows"
            )
        if len(set(ids)) != len(ids):
            raise ConfigurationError("element ids must be unique")
        self._ids = [str(element_id) for element_id in ids]
        self._objects: Dict[str, Any] = dict(zip(self._ids, objects))
        self._features = features
        self._row_of = {element_id: row for row, element_id in enumerate(self._ids)}

    def ids(self) -> List[str]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def fetch(self, element_id: str) -> Any:
        try:
            return self._objects[element_id]
        except KeyError:
            raise ConfigurationError(f"unknown element id {element_id!r}") from None

    def fetch_batch(self, element_ids: Sequence[str]) -> List[Any]:
        """Materialize several elements without per-element call overhead."""
        try:
            objects = self._objects
            return [objects[element_id] for element_id in element_ids]
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown element id {exc.args[0]!r}"
            ) from None

    def features(self) -> np.ndarray:
        return self._features

    def feature_of(self, element_id: str) -> np.ndarray:
        """Feature row for one element ID."""
        try:
            return self._features[self._row_of[element_id]]
        except KeyError:
            raise ConfigurationError(f"unknown element id {element_id!r}") from None

    def features_of(self, element_ids: Sequence[str]) -> np.ndarray:
        """Feature rows for many IDs in one fancy-index slice.

        Bit-identical to stacking :meth:`feature_of` row by row (same
        underlying float64 data), but a single numpy gather — this is the
        fast path shard construction uses for large partitions.
        """
        try:
            row_of = self._row_of
            rows = [row_of[element_id] for element_id in element_ids]
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown element id {exc.args[0]!r}"
            ) from None
        return self._features[rows]
