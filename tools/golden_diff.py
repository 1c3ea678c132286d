#!/usr/bin/env python
"""Field-by-field difference of two golden payloads.

Walks two JSON documents side by side and reports every difference by its
field path (``runs[3].checkpoints[7].stk``), in one of two classes:

* **structural** — a key on one side only, a list of another length, a
  value of another JSON type (``2`` against ``2.0`` included), or an int,
  string, bool or ``null`` that differs.  Ids, draws, counts and hashes
  are strings and ints, so any change to them is structural; so is a NaN
  against a number.
* **float** — two floats that differ.  These are grouped by field, the
  path with its list positions dropped (``runs[].checkpoints[].stk``),
  and each field reports how many values moved and the largest distance
  in units in the last place, with the path where it was found.

Exit status is 0 only when the payloads are identical, 1 when they
differ, 2 when a file cannot be read.

Usage::

    python tools/golden_diff.py OLD.json NEW.json
"""

from __future__ import annotations

import argparse
import json
import math
import re
import struct
import sys
from typing import Dict, List, Tuple

#: Per float field: ``(values moved, largest ulp distance, path of it)``.
FloatMoves = Dict[str, Tuple[int, int, str]]


def ulp_distance(old: float, new: float) -> int:
    """Representable doubles from ``old`` to ``new`` (``0.0`` and ``-0.0``
    are one apart)."""
    def ordered(value: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", value))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF) - 1

    return abs(ordered(old) - ordered(new))


def _kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "string"
    if value is None:
        return "null"
    return "list" if isinstance(value, list) else "object"


def diff(old, new) -> Tuple[List[str], FloatMoves]:
    """Every structural difference, and the float moves per field."""
    structural: List[str] = []
    floats: FloatMoves = {}

    def walk(a, b, path: str) -> None:
        kind = _kind(a)
        where = path or "<root>"
        if kind != _kind(b):
            structural.append(f"{where}: {kind} -> {_kind(b)}")
        elif kind == "object":
            for key in a:
                if key not in b:
                    structural.append(f"{path}.{key}: only in OLD".lstrip("."))
                else:
                    walk(a[key], b[key], f"{path}.{key}".lstrip("."))
            for key in b:
                if key not in a:
                    structural.append(f"{path}.{key}: only in NEW".lstrip("."))
        elif kind == "list":
            if len(a) != len(b):
                structural.append(f"{where}: length {len(a)} -> {len(b)}")
            for position, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{position}]")
        elif kind == "float":
            if struct.pack("<d", a) == struct.pack("<d", b):
                return
            if math.isnan(a) or math.isnan(b):
                structural.append(f"{where}: {a!r} -> {b!r}")
                return
            field = re.sub(r"\[\d+\]", "[]", where)
            ulps = ulp_distance(a, b)
            moved, largest, at = floats.get(field, (0, -1, where))
            floats[field] = ((moved + 1, ulps, where) if ulps > largest
                             else (moved + 1, largest, at))
        elif a != b:
            structural.append(f"{where}: {a!r} -> {b!r}")

    walk(old, new, "")
    return structural, floats


def report(structural: List[str], floats: FloatMoves) -> List[str]:
    """The lines :func:`main` prints: the differences, then a summary."""
    lines = [f"structural {line}" for line in structural]
    lines += [f"float {field}: {moved} moved, at most {largest} ulp "
              f"(at {at})"
              for field, (moved, largest, at) in sorted(floats.items())]
    if not lines:
        return ["identical"]
    lines.append(f"{len(structural)} structural differences, "
                 f"{len(floats)} float fields moved")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the golden payload as it stands")
    parser.add_argument("new", help="the payload to compare against it")
    args = parser.parse_args(argv)
    try:
        with open(args.old) as handle:
            old = json.load(handle)
        with open(args.new) as handle:
            new = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"golden_diff: {exc}", file=sys.stderr)
        return 2
    structural, floats = diff(old, new)
    print("\n".join(report(structural, floats)))
    return 0 if not structural and not floats else 1


if __name__ == "__main__":
    sys.exit(main())
