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
  in units in the last place, with the path where it was found.  A
  float's position in a row — a list held in a list, such as the
  ``[wall, stk]`` pairs of ``checkpoints`` — is kept, because a row's
  positions are different quantities: ``checkpoints[3][1]`` groups as
  ``checkpoints[][1]``, apart from the wall times in ``checkpoints[][0]``.

Exit status is 0 only when the payloads are identical, 1 when they
differ, 2 when a file cannot be read.

With ``--against REF`` it compares every ``tests/data/golden_*.json`` of
the working tree with the same file at git revision ``REF`` and prints
one report per file.  ``--allow FIELD:ULPS`` (repeatable) declares a
float field that may move by at most ``ULPS`` units in the last place:
``FIELD`` names a field as the report groups it (``runs[].stk``), by
its last part (``checkpoints[][1]``, one position of every checkpoint
row) or by its last key (``stk`` covers ``runs[].checkpoints[].stk``
too; ``checkpoints`` covers every position of its rows).  A
structural difference, a golden on one side only, or a float field not
allowed within its bound fails the file.  Exit status is 0 only when
every file is identical or moves only allowed fields within bound, 1
otherwise, 2 when ``REF`` or a file cannot be read.

Usage::

    python tools/golden_diff.py OLD.json NEW.json
    python tools/golden_diff.py --against REF [--allow FIELD:ULPS ...]
"""

from __future__ import annotations

import argparse
import json
import math
import re
import struct
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: Per float field: ``(values moved, largest ulp distance, path of it)``.
FloatMoves = Dict[str, Tuple[int, int, str]]

#: The repository root, whose ``tests/data`` holds the goldens.
REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = "tests/data"


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
            row = re.search(r"\]\[(\d+)\]$", where)
            if row:  # a list in a list: keep the float's row position
                field = f"{field[:-2]}[{row.group(1)}]"
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


def refusals(structural: List[str], floats: FloatMoves,
             allow: Dict[str, int]) -> List[str]:
    """Why a difference is not allowed; empty when it is.

    Structural differences are never allowed.  A float field is allowed
    when ``allow`` names it, by its grouped path, its last part or its
    last key (the most specific name wins), and its largest move is
    within that bound.
    """
    reasons = ([f"{len(structural)} structural differences"]
               if structural else [])
    for field, (_moved, largest, at) in sorted(floats.items()):
        last_part = field.rsplit(".", 1)[-1]
        last_key = re.sub(r"\[\d*\]", "", last_part)
        bound = next((allow[name] for name in (field, last_part, last_key)
                      if name in allow), None)
        if bound is None:
            reasons.append(f"{field} moved {largest} ulp (at {at}), "
                           "not allowed")
        elif largest > bound:
            reasons.append(f"{field} moved {largest} ulp (at {at}), "
                           f"bound {bound}")
    return reasons


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True, text=True).stdout


def against(ref: str, allow: Dict[str, int], root: Path = REPO) -> int:
    """``--against`` mode: every golden of ``root`` against ``ref``."""
    try:
        at_ref = set(_git(root, "ls-tree", "--name-only", ref,
                          f"{GOLDEN_DIR}/").split())
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"golden_diff: cannot read revision {ref!r}: {exc}",
              file=sys.stderr)
        return 2
    at_ref = {name for name in at_ref
              if re.fullmatch(rf"{GOLDEN_DIR}/golden_[^/]*\.json", name)}
    here = {path.relative_to(root).as_posix()
            for path in (root / GOLDEN_DIR).glob("golden_*.json")}
    failed = False
    for name in sorted(here | at_ref):
        print(f"== {name} ==")
        if name not in at_ref or name not in here:
            side = "the working tree" if name in here else ref
            print(f"only in {side}")
            failed = True
            continue
        try:
            old = json.loads(_git(root, "show", f"{ref}:{name}"))
            new = json.loads((root / name).read_text())
        except (OSError, ValueError, subprocess.CalledProcessError) as exc:
            print(f"golden_diff: {name}: {exc}", file=sys.stderr)
            return 2
        structural, floats = diff(old, new)
        print("\n".join(report(structural, floats)))
        reasons = refusals(structural, floats, allow)
        if floats and not reasons:
            print("allowed: every moved field is within its bound")
        for reason in reasons:
            print(f"not allowed: {reason}")
        failed = failed or bool(reasons)
    return 1 if failed else 0


def _allowance(text: str) -> Tuple[str, int]:
    field, sep, ulps = text.rpartition(":")
    if not sep or not field or not ulps.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected FIELD:ULPS, got {text!r}")
    return field, int(ulps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", nargs="?",
                        help="the golden payload as it stands")
    parser.add_argument("new", nargs="?",
                        help="the payload to compare against it")
    parser.add_argument("--against", metavar="REF",
                        help="compare every golden with git revision REF")
    parser.add_argument("--allow", metavar="FIELD:ULPS", action="append",
                        type=_allowance, default=[],
                        help="a float field that may move (with --against)")
    args = parser.parse_args(argv)
    if args.against is not None:
        if args.old is not None:
            parser.error("--against takes no payload paths")
        return against(args.against, dict(args.allow))
    if args.new is None or args.allow:
        parser.error("give OLD and NEW payloads, or --against REF")
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
