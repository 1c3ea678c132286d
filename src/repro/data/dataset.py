"""Dataset protocol: string IDs plus the user-defined sampler function.

Section 3.2.6: "we assume that each element in the search domain has a
unique string ID ... a user-defined sampler function takes an ID and
additional parameters as input, and returns an object — the element itself —
of arbitrary type."  :class:`Dataset` is that contract; everything else in
the library addresses elements only by ID.

One layout serves every table the library owns: a feature block, an
object list parallel to it, and an ``id -> row`` locator whose key order
is the id order.  :class:`TableSnapshot` reads it; a static
:class:`InMemoryDataset` is a snapshot at version 0 over a block nobody
writes, and a :class:`~repro.live.table.LiveTable` hands out snapshots
of its own append-only block.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


def _rows_in(locator: Dict[str, int], element_ids: Sequence[str]) -> List[int]:
    """Block rows of ``element_ids``; a stranger is a configuration error."""
    try:
        return [locator[element_id] for element_id in element_ids]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown element id {exc.args[0]!r}") from None


def _aligned(ids: Sequence[str], objects: Sequence[Any],
             features: np.ndarray) -> Tuple[List[str], np.ndarray]:
    """A table's string ids and its ``(n, d)`` float feature rows.

    Refuses repeated ids, objects or rows not aligned with the ids, and
    features that are neither 1-D (promoted to a column) nor 2-D.  A
    float64 2-D ``features`` comes back as the caller's own array.
    """
    ids = [str(element_id) for element_id in ids]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("element ids must be unique")
    if len(objects) != len(ids):
        raise ConfigurationError(f"{len(ids)} ids for {len(objects)} objects")
    rows = np.asarray(features, dtype=float)
    if rows.ndim not in (1, 2):
        raise ConfigurationError(
            f"features must be 1-D or 2-D, got shape {rows.shape}")
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    if len(rows) != len(ids):
        raise ConfigurationError(f"{len(ids)} ids for {len(rows)} feature rows")
    return ids, rows


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

    def feature_rows(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(block, rows)`` with :meth:`features` equal to ``block[rows]``
        (``rows`` ``None``: ``block`` itself) — ``build_index``'s
        ``features`` and ``rows``.  The default is :meth:`features`."""
        return np.asarray(self.features()), None

    def features_of(self, element_ids: Sequence[str]) -> np.ndarray:
        """Feature rows for many IDs, in the order given.

        The default gathers rows of :meth:`features` by each id's position
        in :meth:`ids`; datasets that keep an ``id -> row`` map override it.
        """
        row_of = {element_id: row for row, element_id in enumerate(self.ids())}
        return np.asarray(self.features())[_rows_in(row_of, element_ids)]

    def __len__(self) -> int:
        return len(self.ids())


class TableSnapshot(Dataset):
    """An immutable view of one table version.

    Reads a feature ``block`` and ``object_rows`` parallel to it, none of
    whose rows in use is ever written again, through an owned
    ``id -> row`` locator whose key order is :meth:`ids`.  A live table's
    snapshot shares the table's append-only storage (its block is a
    read-only view); a static table is one at version 0.  Every engine,
    shard builder and shared-memory path reads it through the
    :class:`Dataset` protocol plus ``features_of`` / ``feature_of``;
    ``version`` is the stamp queries pin at plan time.
    """

    def __init__(self, block: np.ndarray, object_rows: List[Any],
                 locator: Dict[str, int], version: int,
                 table: str = "") -> None:
        self._block = block
        self._object_rows = object_rows
        self._locator = locator
        self._features: Optional[np.ndarray] = None
        self.version = int(version)
        self.table = table

    def ids(self) -> List[str]:
        return list(self._locator)

    def __len__(self) -> int:
        return len(self._locator)

    def fetch(self, element_id: str) -> Any:
        return self.fetch_batch((element_id,))[0]

    def fetch_batch(self, element_ids: Sequence[str]) -> List[Any]:
        object_rows = self._object_rows
        return [object_rows[row]
                for row in _rows_in(self._locator, element_ids)]

    def features(self) -> np.ndarray:
        """Rows aligned with :meth:`ids`, gathered on first use.

        Without dead rows (a static table, or a fresh or just-compacted
        live one) the block already is that matrix, row for row, and
        nothing is copied.
        """
        if self._features is None:
            if len(self._block) == len(self._locator):
                self._features = self._block
            else:
                self._features = self._block[list(self._locator.values())]
        return self._features

    def feature_rows(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The block and the row of each id, unless :meth:`features`
        costs no copy: an index build reads the live rows where they are."""
        if self._features is not None or len(self._block) == len(
                self._locator):
            return self.features(), None
        return self._block, np.fromiter(self._locator.values(),
                                        dtype=np.intp,
                                        count=len(self._locator))

    def feature_of(self, element_id: str) -> np.ndarray:
        """One element's row: a view of the block (read-only when live)."""
        return self._block[_rows_in(self._locator, (element_id,))[0]]

    def features_of(self, element_ids: Sequence[str]) -> np.ndarray:
        """Rows for many ids in one gather (a fresh array)."""
        return self._block[_rows_in(self._locator, element_ids)]


class InMemoryDataset(TableSnapshot):
    """A :class:`TableSnapshot` at version 0 over a block nobody writes.

    Parameters
    ----------
    ids:
        Unique string IDs.
    objects:
        Elements aligned with ``ids``.
    features:
        ``(n, d)`` cheap vectors aligned with ``ids`` (1-D is one column);
        a float64 array becomes the block itself, uncopied.
    """

    def __init__(self, ids: Sequence[str], objects: Sequence[Any],
                 features: np.ndarray) -> None:
        ids, block = _aligned(ids, objects, features)
        super().__init__(block, list(objects),
                         dict(zip(ids, range(len(ids)))), version=0)
