"""Dataset protocol: string IDs plus the user-defined sampler function.

Section 3.2.6: "we assume that each element in the search domain has a
unique string ID ... a user-defined sampler function takes an ID and
additional parameters as input, and returns an object — the element itself —
of arbitrary type."  :class:`Dataset` is that contract; everything else in
the library addresses elements only by ID.

One layout serves every table the library owns: a feature block, an
object list and an id list parallel to it (``row_ids``: the id each block
row was written for), and an ``id -> row`` :class:`Locator` whose order
is the id order.  :class:`TableSnapshot` reads it; a static
:class:`InMemoryDataset` is a snapshot at version 0 over a block nobody
writes, and a :class:`~repro.live.table.LiveTable` hands out snapshots
of its own append-only block.

A locator is a frozen *base* dict, which no version ever writes again,
plus an *overlay* dict of the ids written since the base was frozen: a
row for an appended or updated id, :data:`DELETED` for a base id since
deleted.  A static table's overlay is empty.  A live table's snapshot
shares the base and copies only the overlay, so a version costs the ids
written since the last :meth:`Locator.rebase`, not the table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


#: An overlay's row for a base id deleted since the base was frozen.
DELETED = -1

#: The overlay is folded into a new base once it holds more ids than this
#: fraction of the table: a version's overlay copy stays under it, and
#: the O(table) rebase runs once per that many written ids.
REBASE_FRACTION = 1 / 16


def _rows_in(locator: Dict[str, int], element_ids: Sequence[str]) -> List[int]:
    """Block rows of ``element_ids``; a stranger is a configuration error."""
    try:
        return [locator[element_id] for element_id in element_ids]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown element id {exc.args[0]!r}") from None


class Locator:
    """``id -> block row`` as a frozen base dict plus an overlay.

    Reads see the base with the overlay laid over it.  The id order is
    the one a single dict written the same way would have: base ids in
    base order (an updated one keeps its place, a deleted one drops
    out), then the ids added since, in overlay order.  The writes
    (:meth:`add`, :meth:`move`, :meth:`drop`) are the owning table's,
    under its lock; :meth:`frozen` is the copy a snapshot keeps.
    """

    __slots__ = ("_base", "_overlay", "_size", "_dead")

    def __init__(self, base: Dict[str, int],
                 overlay: Optional[Dict[str, int]] = None,
                 size: Optional[int] = None, dead: int = 0) -> None:
        self._base = base
        self._overlay: Dict[str, int] = {} if overlay is None else overlay
        self._size = len(base) if size is None else size
        #: How many overlay entries are :data:`DELETED`.
        self._dead = dead

    def __len__(self) -> int:
        return self._size

    def __contains__(self, element_id: str) -> bool:
        row = self._overlay.get(element_id)
        if row is None:
            return element_id in self._base
        return row != DELETED

    def rows(self, element_ids: Sequence[str]) -> List[int]:
        """Block rows of ``element_ids``; a stranger is a configuration
        error naming the first one."""
        base, overlay = self._base, self._overlay
        if not overlay:
            return _rows_in(base, element_ids)
        try:
            rows = [overlay[element_id] if element_id in overlay
                    else base[element_id] for element_id in element_ids]
        except KeyError:
            rows = None
        if rows is None or (self._dead and DELETED in rows):
            stranger = next(element_id for element_id in element_ids
                            if element_id not in self)
            raise ConfigurationError(f"unknown element id {stranger!r}")
        return rows

    def ids(self) -> List[str]:
        base, overlay = self._base, self._overlay
        if not overlay:
            return list(base)
        if self._dead:
            ids = [element_id for element_id in base
                   if overlay.get(element_id) != DELETED]
        else:
            ids = list(base)
        ids.extend(element_id for element_id in overlay
                   if element_id not in base)
        return ids

    def id_tuple(self) -> Tuple[str, ...]:
        """:meth:`ids` as a tuple, made straight from the base when no
        write overlays it."""
        return tuple(self._base) if not self._overlay else tuple(self.ids())

    def row_array(self) -> np.ndarray:
        """The block row of every id, in id order."""
        base, overlay = self._base, self._overlay
        if not overlay:
            return np.fromiter(base.values(), dtype=np.intp, count=len(base))
        # Each base id's overlay row, else its base row (a C-level pass).
        rows = np.fromiter(map(overlay.get, base, base.values()),
                           dtype=np.intp, count=len(base))
        if self._dead:
            rows = rows[rows != DELETED]
        added = [row for element_id, row in overlay.items()
                 if element_id not in base]
        return np.concatenate([rows, np.array(added, dtype=np.intp)])

    def frozen(self) -> "Locator":
        """A copy no later write reaches: the base shared, the overlay
        copied."""
        return Locator(self._base, self._overlay.copy(), self._size,
                       self._dead)

    # -- the owning table's writes -------------------------------------------

    def add(self, element_ids: Sequence[str], rows: Sequence[int]) -> None:
        """Place ids that are not present at the end of the id order.

        An id the base holds as deleted would read back at its base
        place, so that case folds the overlay into a new base first.
        """
        overlay = self._overlay
        if self._dead and any(overlay.get(element_id) == DELETED
                              for element_id in element_ids):
            self.rebase()
            overlay = self._overlay
        overlay.update(zip(element_ids, rows))
        self._size += len(element_ids)
        self._rebase_if_due()

    def move(self, element_ids: Sequence[str], rows: Sequence[int]) -> None:
        """Point present ids at new rows; each keeps its place."""
        self._overlay.update(zip(element_ids, rows))
        self._rebase_if_due()

    def drop(self, element_ids: Sequence[str]) -> None:
        """Remove present ids."""
        base, overlay = self._base, self._overlay
        for element_id in element_ids:
            if element_id in base:
                overlay[element_id] = DELETED
                self._dead += 1
            else:
                del overlay[element_id]
        self._size -= len(element_ids)
        self._rebase_if_due()

    def rebase(self) -> None:
        """Fold the overlay into a new base (one C-level copy and update;
        the deleted ids are then removed) and start an empty overlay."""
        base = self._base.copy()
        base.update(self._overlay)
        if self._dead:
            for element_id, row in self._overlay.items():
                if row == DELETED:
                    del base[element_id]
        self._base, self._overlay, self._dead = base, {}, 0

    def _rebase_if_due(self) -> None:
        if len(self._overlay) > REBASE_FRACTION * self._size:
            self.rebase()


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
    """A searchable collection of elements addressed by unique string IDs.

    ``version`` is the table version the rows belong to: 0 for a table
    nobody writes, the latest committed write's for a live table.
    """

    version: int = 0

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

    Reads a feature ``block``, and ``object_rows`` and ``row_ids``
    parallel to it, none of whose rows in use is ever written again,
    through a :class:`Locator`
    whose order is :meth:`ids`: a live table's snapshot shares the table's
    base dict and owns a copy of its overlay, a static table's has an
    empty overlay.  A live table's snapshot shares the table's
    append-only storage (its block is a read-only view); a static table
    is one at version 0.  Every engine, shard builder and shared-memory
    path reads it through the :class:`Dataset` protocol plus
    ``features_of`` / ``feature_of``; ``version`` is the stamp queries
    pin at plan time.
    """

    def __init__(self, block: np.ndarray, object_rows: List[Any],
                 locator: Locator, version: int,
                 row_ids: Optional[List[str]] = None) -> None:
        self._block = block
        self._object_rows = object_rows
        self._locator = locator
        self._row_ids = row_ids
        self._features: Optional[np.ndarray] = None
        self.version = int(version)

    @property
    def block(self) -> np.ndarray:
        """The feature block: row ``r`` holds the features ``row_ids[r]``
        was written with (read-only when live)."""
        return self._block

    @property
    def row_ids(self) -> Sequence[str]:
        """The id each block row was written for; a live table's is
        shared by its snapshots and only ever appended to.  A static
        table's rows are its ids in order, a tuple made on first use
        (which an index build over it shares, uncopied)."""
        if self._row_ids is None:
            self._row_ids = self._locator.id_tuple()
        return self._row_ids

    def rows_of(self, element_ids: Sequence[str]) -> List[int]:
        """The block rows of ``element_ids``, in the order given."""
        return self._locator.rows(element_ids)

    def live_rows(self) -> np.ndarray:
        """The block row of every id, in id order: the rows this version
        reads (a dead row is in none)."""
        return self._locator.row_array()

    def ids(self) -> List[str]:
        return self._locator.ids()

    def __len__(self) -> int:
        return len(self._locator)

    def fetch(self, element_id: str) -> Any:
        return self.fetch_batch((element_id,))[0]

    def fetch_batch(self, element_ids: Sequence[str]) -> List[Any]:
        return self.fetch_rows(self._locator.rows(element_ids))

    def fetch_rows(self, rows: Sequence[int]) -> List[Any]:
        """The elements of block ``rows``, in the order given: what an
        engine whose tree slots name this snapshot's rows fetches."""
        return list(map(self._object_rows.__getitem__, rows))

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
                self._features = self._block[self.live_rows()]
        return self._features

    def feature_rows(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The block and the row of each id, unless :meth:`features`
        costs no copy: an index build reads the live rows where they are."""
        if self._features is not None or len(self._block) == len(
                self._locator):
            return self.features(), None
        return self._block, self.live_rows()

    def feature_of(self, element_id: str) -> np.ndarray:
        """One element's row: a view of the block (read-only when live)."""
        return self._block[self._locator.rows((element_id,))[0]]

    def features_of(self, element_ids: Sequence[str]) -> np.ndarray:
        """Rows for many ids in one gather (a fresh array)."""
        return self._block[self._locator.rows(element_ids)]


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
                         Locator(dict(zip(ids, range(len(ids))))), version=0)
