"""Deterministic perf pin: which rows a select evaluates, no clock involved.

A bank row's gain is evaluated lazily: each layer of a descent asks for its
live children's gains, and only the children whose cached gain is stale —
touched by an observation since, or cached at another threshold — are
evaluated, one Python ``_row_gain`` each (a few us), however many there
are.  Pinned over two seeded runs to exhaustion at ``batch_size=1`` on the
64 leaves of ``test_policy_golden.py``:

* the lopsided binary tree (608 selects): a select evaluates at most the
  rows it reads (two per layer), an exploring select evaluates none, and
  the run evaluates **3 827** rows in all (6.3 per select).  On this run
  the refresh-ahead policy this replaced made 645 stacked numpy kernel
  calls, and the per-object layout before it 3 503;
* the flat tree over the same leaves: an exploiting select that sees a new
  threshold finds every live leaf stale and evaluates each once; every
  other select evaluates at most the leaves it reads.

A greedy layer is one bank call, ``HistogramBank.best_rows`` (refresh,
best and ties): on the binary tree an exploiting select makes exactly as
many bank calls as it has layers, an exploring one none, and no select
calls ``HistogramBank.gains``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import repro.core.histogram as histogram
from repro.core.engine import EngineConfig, TopKEngine
from repro.core.histogram import HistogramBank
from tests.test_policy_golden import (K, NO_FALLBACK, build_tree,
                                      element_scores)

#: Rows the binary-tree run evaluates (the figure in the docstring).
ROWS_BINARY = 3827


def leaf_layers(tree) -> Dict[str, int]:
    """Element id -> number of layers a descent to its leaf chooses in."""
    layers: Dict[str, int] = {}

    def walk(node, depth: int) -> None:
        for element_id in node.member_ids:
            layers[element_id] = depth
        for child in node.children:
            walk(child, depth + 1)

    walk(tree.root, 0)
    return layers


def count_run(shape: str) -> List[Tuple[int, int, object, bool, int]]:
    """Per select: ``(rows evaluated, layers, threshold, exploited, live
    leaves)``."""
    tree = build_tree(shape)
    layers = leaf_layers(tree)
    scores = element_scores()
    calls = [0]
    original = histogram._row_gain

    def counted(*args):
        calls[0] += 1
        return original(*args)

    histogram._row_gain = counted
    try:
        # Every exploit layer reads gains (no unvisited-first shortcut).
        engine = TopKEngine(tree, EngineConfig(
            k=K, seed=5, fallback=NO_FALLBACK, visit_unvisited_first=False))
        selects = []
        while not engine.exhausted:
            rows = calls[0]
            exploits = engine.n_exploit
            live = len(engine.policy.live_leaves())
            threshold = engine.effective_threshold
            ids = engine.next_batch()
            selects.append((calls[0] - rows, layers[ids[0]], threshold,
                            engine.n_exploit > exploits, live))
            engine.observe(ids, [scores[i] for i in ids])
    finally:
        histogram._row_gain = original
    return selects


def test_binary_tree_selects_evaluate_only_what_they_read():
    selects = count_run("binary")
    assert len(selects) == 608
    for rows, layers, threshold, exploited, live in selects:
        assert rows <= 2 * layers
        if not exploited:
            assert rows == 0
    assert sum(rows for rows, *_ in selects) == ROWS_BINARY, \
        "update the figure in the docstring"


def test_flat_tree_threshold_move_evaluates_every_live_leaf_once():
    selects = count_run("flat")
    moves, seen = 0, object()
    for rows, layers, threshold, exploited, live in selects:
        assert layers == 1
        if not exploited:
            assert rows == 0
            continue
        if threshold != seen:
            assert rows == live
            moves += 1
        else:
            assert rows <= live
        seen = threshold
    assert moves > 10


def test_an_exploiting_select_is_one_bank_call_per_layer(monkeypatch):
    tree = build_tree("binary")
    layers = leaf_layers(tree)
    scores = element_scores()
    calls = {"best_rows": 0, "gains": 0}

    def counting(name):
        original = getattr(HistogramBank, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)
        return counted

    for name in calls:
        monkeypatch.setattr(HistogramBank, name, counting(name))
    # Every exploit layer reads gains (no unvisited-first shortcut).
    engine = TopKEngine(tree, EngineConfig(
        k=K, seed=5, fallback=NO_FALLBACK, visit_unvisited_first=False))
    exploited = 0
    while not engine.exhausted:
        before, exploits = dict(calls), engine.n_exploit
        ids = engine.next_batch()
        exploiting = engine.n_exploit > exploits
        assert calls["gains"] == before["gains"]
        assert (calls["best_rows"] - before["best_rows"]
                == (layers[ids[0]] if exploiting else 0))
        exploited += exploiting
        engine.observe(ids, [scores[i] for i in ids])
    assert exploited > 300


if __name__ == "__main__":
    for shape in ("binary", "flat"):
        run = count_run(shape)
        print(f"{shape}: {sum(rows for rows, *_ in run)} rows evaluated "
              f"over {len(run)} selects")
