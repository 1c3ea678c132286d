"""The one rule every persisted document's reader follows.

Each of the nine JSON-safe documents the library writes carries
``"format": "repro-<kind>/<version>"``, and its reader passes the payload
through :func:`read` before using it.  See ``docs/architecture.md``,
"Persisted state", for the nine formats and their frozen fixtures.
"""

from __future__ import annotations

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
