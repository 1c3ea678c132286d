"""``tools/golden_diff.py``: every difference of two payloads, by path."""

from __future__ import annotations

import copy
import json
import math
import subprocess
from pathlib import Path

import pytest

from tools.golden_diff import (
    against,
    diff,
    main,
    refusals,
    report,
    ulp_distance,
)

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


def test_refusals_allow_only_declared_floats_within_their_bound():
    nudge = math.nextafter
    old = {"stk": 1.0, "runs": [{"stk": 2.0, "curve": [3.0]}], "t": 0.5}
    two_ulps = {"stk": nudge(nudge(1.0, 2.0), 2.0),
                "runs": [{"stk": nudge(2.0, 3.0), "curve": [nudge(3.0, 4.0)]}],
                "t": 0.5}
    structural, floats = diff(old, two_ulps)
    assert structural == [] and set(floats) == {"stk", "runs[].stk",
                                                 "runs[].curve[]"}
    # A last key covers the field wherever it sits; a grouped path one.
    assert refusals(structural, floats, {"stk": 2, "curve": 1}) == []
    assert refusals(structural, floats,
                    {"stk": 2, "runs[].curve[]": 1}) == []
    assert refusals(structural, floats, {"stk": 1, "curve": 1}) == [
        "stk moved 2 ulp (at stk), bound 1"]
    assert refusals(structural, floats, {"stk": 2}) == [
        "runs[].curve[] moved 1 ulp (at runs[0].curve[0]), not allowed"]
    # The grouped path wins over the last key.
    assert refusals(structural, floats, {"stk": 2, "runs[].stk": 0,
                                         "curve": 1}) == [
        "runs[].stk moved 1 ulp (at runs[0].stk), bound 0"]
    # A structural difference is never allowed, whatever the allowance.
    moved = dict(two_ulps, t=1)
    structural, floats = diff(old, moved)
    assert structural == ["t: float -> int"]
    assert refusals(structural, floats, {"stk": 9, "curve": 9, "t": 9}) == [
        "1 structural differences"]
    assert refusals([], {}, {}) == []


def test_a_row_position_is_its_own_field():
    """``[wall, stk]`` rows: allowing the STK position lets no wall move."""
    nudge = math.nextafter
    old = {"round": {"checkpoints": [[0.5, 10.0], [1.0, 20.0]],
                     "curve": [1.0, 2.0]}}
    stk_moved = {"round": {"checkpoints": [[0.5, nudge(10.0, 11.0)],
                                           [1.0, 20.0]],
                           "curve": [1.0, nudge(2.0, 3.0)]}}
    structural, floats = diff(old, stk_moved)
    assert structural == [] and floats == {
        "round.checkpoints[][1]": (1, 1, "round.checkpoints[0][1]"),
        "round.curve[]": (1, 1, "round.curve[1]")}
    allow = {"checkpoints[][1]": 1, "curve": 1}
    assert refusals(structural, floats, allow) == []
    assert refusals(structural, floats, {"round.checkpoints[][1]": 1,
                                         "curve[]": 1}) == []

    wall_moved = copy.deepcopy(stk_moved)
    wall_moved["round"]["checkpoints"][1][0] = nudge(1.0, 2.0)
    structural, floats = diff(old, wall_moved)
    assert refusals(structural, floats, allow) == [
        "round.checkpoints[][0] moved 1 ulp (at round.checkpoints[1][0]), "
        "not allowed"]
    # The bare key still covers every position of its rows.
    assert refusals(structural, floats, {"checkpoints": 1, "curve": 1}) == []


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], cwd=root, check=True, capture_output=True)


def test_against_a_revision_reports_each_golden(tmp_path, capsys):
    data = tmp_path / "tests" / "data"
    data.mkdir(parents=True)
    (data / "golden_a.json").write_text(json.dumps({"stk": 1.0, "n": 3}))
    (data / "golden_b.json").write_text(json.dumps({"ids": ["x"]}))
    (data / "other.json").write_text(json.dumps({"stk": 1.0}))
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "goldens")

    assert against("HEAD", {}, root=tmp_path) == 0
    out = capsys.readouterr().out
    assert out == ("== tests/data/golden_a.json ==\nidentical\n"
                   "== tests/data/golden_b.json ==\nidentical\n")

    (data / "golden_a.json").write_text(
        json.dumps({"stk": math.nextafter(1.0, 2.0), "n": 3}))
    (data / "other.json").write_text(json.dumps({"stk": 2.0}))
    assert against("HEAD", {}, root=tmp_path) == 1
    assert "not allowed: stk moved 1 ulp (at stk), not allowed" in \
        capsys.readouterr().out
    assert against("HEAD", {"stk": 0}, root=tmp_path) == 1
    capsys.readouterr()
    assert against("HEAD", {"stk": 1}, root=tmp_path) == 0
    assert "allowed: every moved field is within its bound" in \
        capsys.readouterr().out

    (data / "golden_b.json").write_text(json.dumps({"ids": ["y"]}))
    (data / "golden_c.json").write_text(json.dumps({}))
    assert against("HEAD", {"stk": 1}, root=tmp_path) == 1
    out = capsys.readouterr().out
    assert "structural ids[0]: 'x' -> 'y'" in out
    assert "== tests/data/golden_c.json ==\nonly in the working tree" in out

    (data / "golden_b.json").unlink()
    (data / "golden_c.json").unlink()
    assert against("HEAD", {"stk": 1}, root=tmp_path) == 1
    assert "== tests/data/golden_b.json ==\nonly in HEAD" in \
        capsys.readouterr().out
    assert against("no-such-ref", {}, root=tmp_path) == 2


def test_against_mode_arguments(capsys):
    with pytest.raises(SystemExit):
        main(["--against", "HEAD", "old.json"])
    with pytest.raises(SystemExit):
        main(["--allow", "stk:1", "old.json", "new.json"])
    with pytest.raises(SystemExit):
        main(["--against", "HEAD", "--allow", "stk"])
    capsys.readouterr()
