"""``tools/golden_diff.py``: every difference of two payloads, by path."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from tools.golden_diff import diff, main, report, ulp_distance

DATA = Path(__file__).parent / "data"
GOLDENS = sorted(DATA.glob("golden_*.json"))


def test_ulp_distance():
    assert ulp_distance(1.0, 1.0) == 0
    assert ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulp_distance(28.5, 28.500000000000004) == 1
    assert ulp_distance(0.0, -0.0) == 1
    assert ulp_distance(-1.0, math.nextafter(-1.0, -2.0)) == 1
    assert ulp_distance(math.nextafter(0.0, -1.0),
                        math.nextafter(0.0, 1.0)) == 3


def test_identical_payloads_have_no_difference():
    payload = {"runs": [{"stk": 1.5, "ids": ["a", "b"], "n": 3,
                         "flag": True, "floor": None}]}
    assert diff(payload, json.loads(json.dumps(payload))) == ([], {})
    assert report([], {}) == ["identical"]


def test_structural_differences_are_named_by_path():
    old = {"k": 10, "ids": ["a", "b"], "hash": "ab12", "runs": [{"x": 1}],
           "gone": 0, "flag": False, "count": 2}
    new = {"k": 11, "ids": ["a", "c", "d"], "hash": "ab13",
           "runs": [{"x": 1.0}], "added": 0, "flag": True, "count": None}
    structural, floats = diff(old, new)
    assert floats == {}
    assert sorted(structural) == sorted([
        "k: 10 -> 11",
        "ids: length 2 -> 3",
        "ids[1]: 'b' -> 'c'",
        "hash: 'ab12' -> 'ab13'",
        "runs[0].x: int -> float",
        "gone: only in OLD",
        "added: only in NEW",
        "flag: False -> True",
        "count: int -> null",
    ])


def test_floats_report_the_largest_ulp_distance_per_field():
    nudge = math.nextafter
    old = {"runs": [{"stk": 28.5, "curve": [1.0, 2.0, 3.0]},
                    {"stk": 10.0, "curve": [4.0]}]}
    new = {"runs": [{"stk": 28.500000000000004,
                     "curve": [1.0, nudge(nudge(2.0, 3.0), 3.0), 3.0]},
                    {"stk": nudge(nudge(nudge(10.0, 0.0), 0.0), 0.0),
                     "curve": [nudge(4.0, 5.0)]}]}
    structural, floats = diff(old, new)
    assert structural == []
    assert floats == {"runs[].stk": (2, 3, "runs[1].stk"),
                      "runs[].curve[]": (2, 2, "runs[0].curve[1]")}
    lines = report(structural, floats)
    assert "float runs[].stk: 2 moved, at most 3 ulp (at runs[1].stk)" \
        in lines
    assert lines[-1] == "0 structural differences, 2 float fields moved"


def test_a_nan_against_a_number_is_structural():
    structural, floats = diff({"x": math.nan}, {"x": 1.0})
    assert structural == ["x: nan -> 1.0"] and floats == {}
    assert diff({"x": math.nan}, {"x": math.nan}) == ([], {})


def test_exit_status(tmp_path, capsys):
    old, new, same = (tmp_path / name for name in ("old", "new", "same"))
    old.write_text(json.dumps({"stk": 1.0, "ids": ["a"]}))
    same.write_text(json.dumps({"stk": 1.0, "ids": ["a"]}))
    new.write_text(json.dumps({"stk": math.nextafter(1.0, 2.0),
                               "ids": ["a"]}))
    assert main([str(old), str(same)]) == 0
    assert capsys.readouterr().out == "identical\n"
    assert main([str(old), str(new)]) == 1
    assert "float stk: 1 moved, at most 1 ulp" in capsys.readouterr().out
    assert main([str(old), str(tmp_path / "missing")]) == 2


@pytest.mark.parametrize("golden", GOLDENS, ids=[p.stem for p in GOLDENS])
def test_every_golden_equals_itself(golden):
    assert len(GOLDENS) == 6
    assert main([str(golden), str(golden)]) == 0
