"""The one rule every persisted document's reader follows.

Each of the nine JSON-safe documents the library writes carries
``"format": "repro-<kind>/<version>"``, and its reader passes the payload
through :func:`read` before using it.  See ``docs/architecture.md``,
"Persisted state", for the nine formats and their frozen fixtures.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.errors import SerializationError

#: A JSON number: ``json`` reads ``2`` back as an int and ``2.0`` as a float.
NUMBER = (int, float)
#: Listed among a field's types, marks it optional: missing or ``null``.
NULL = type(None)


def read(payload, expected: str, section: str = "", **fields) -> dict:
    """Return ``payload`` if it is an ``expected`` document with ``fields``.

    ``fields`` maps each key the reader uses to its JSON type or tuple of
    types; ``section`` names a nested part of an ``expected`` document
    (``"counters"``, ``"span"``), which carries no format of its own.  A
    non-dict, another kind or version, or a missing or mistyped field
    raises :class:`~repro.errors.SerializationError` naming the format
    expected and the one found.
    """
    where = f"{expected} {section}".rstrip()
    if not isinstance(payload, dict):
        raise SerializationError(
            f"expected {where}, found a {type(payload).__name__}")
    found = expected if section else payload.get("format")
    if found != expected:
        raise SerializationError(f"expected {expected}, found {found!r}")
    for name, kinds in fields.items():
        if not isinstance(payload.get(name), kinds):
            got = (f"a {type(payload[name]).__name__}" if name in payload
                   else "nothing")
            raise SerializationError(
                f"expected {where} with a {name!r} field, found {found} "
                f"with {got} there")
    return payload


def read_fixed(payload: dict, expected: str, **values) -> None:
    """Refuse an ``expected`` document whose field holds another value.

    ``values`` maps each field an option since made a constant to the one
    value the writers still emit (``True`` or ``None``, compared by
    identity, so ``1`` is not ``True`` and a missing field reads as
    ``None``).  A run recorded with any other value cannot be resumed or
    replayed faithfully, so it raises
    :class:`~repro.errors.SerializationError` naming the format.
    """
    for name, value in values.items():
        found = payload.get(name)
        if found is not value:
            raise SerializationError(
                f"expected {expected} with {name!r} {value!r}, found "
                f"{found!r}: a run with another value "
                f"cannot be resumed or replayed")


def read_score(value) -> float:
    """``value`` as a float if it is a JSON number (not a bool) that a
    float holds, else NaN — which a caller's finite non-negative check
    refuses along with NaN, inf and negatives."""
    if isinstance(value, NUMBER) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            pass
    return math.nan


def read_topk(rows: list, expected: str,
              section: str = "buffer") -> List[Tuple[float, str]]:
    """The ``(score, id)`` pairs of a persisted top-k buffer.

    Each row must be a two-item ``[score, id]`` list: a finite non-negative
    JSON number (not a bool) and a string.  Anything else — a NaN or inf
    score would read as the threshold and STK forever — raises
    :class:`~repro.errors.SerializationError` naming ``expected``.
    """
    pairs = []
    for row in rows:
        score = math.nan
        if (isinstance(row, (list, tuple)) and len(row) == 2
                and isinstance(row[1], str)):
            score = read_score(row[0])
        if not 0.0 <= score < math.inf:
            raise SerializationError(
                f"expected {expected} {section} rows of [finite "
                f"non-negative score, id], found {row!r}")
        pairs.append((score, row[1]))
    return pairs
