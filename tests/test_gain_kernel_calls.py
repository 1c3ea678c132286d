"""Deterministic perf pin: which rows a select evaluates, no clock involved.

A bank row's gain is evaluated lazily: each layer of a descent asks for its
live children's gains, and only the children whose cached gain is stale —
touched by an observation since, or cached at another threshold — are
evaluated, one Python ``_row_gain`` each (a few us).  A stale set wider
than ``KERNEL_ROWS`` goes to one call of the numpy kernel ``_gain_matrix``
instead, whose dispatch (20-38 us a call, whatever the row count) it then
outweighs.  Pinned over two seeded runs to exhaustion at ``batch_size=1``
on the 64 leaves of ``test_policy_golden.py``:

* the lopsided binary tree (608 selects) makes **no** kernel call: two
  siblings are never wide.  A select evaluates at most the rows it reads
  (two per layer), an exploring select evaluates none, and the run
  evaluates **3 827** rows in all (6.3 per select).  On this run the
  refresh-ahead policy this replaced made 645 kernel calls, and the
  per-object layout before it 3 503;
* the flat tree over the same leaves: an exploiting select that sees a new
  threshold finds every live leaf stale, so it makes exactly one kernel
  call while more than ``KERNEL_ROWS`` leaves live; every other select
  evaluates one by one, at most the leaves it reads.

A greedy layer is one bank call, ``HistogramBank.best_rows`` (refresh,
best and ties): on the binary tree an exploiting select makes exactly as
many bank calls as it has layers, an exploring one none, and no select
calls ``HistogramBank.gains``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import repro.core.histogram as histogram
from repro.core.engine import EngineConfig, TopKEngine
from repro.core.histogram import KERNEL_ROWS, HistogramBank
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


def count_run(shape: str) -> List[Tuple[int, int, int, object, bool, int]]:
    """Per select: ``(kernel calls, rows evaluated one by one, layers,
    threshold, exploited, live leaves)``."""
    tree = build_tree(shape)
    layers = leaf_layers(tree)
    scores = element_scores()
    calls = {"_gain_matrix": 0, "_row_gain": 0}
    originals = {name: getattr(histogram, name) for name in calls}

    def counting(name):
        def counted(*args):
            calls[name] += 1
            return originals[name](*args)
        return counted

    for name in calls:
        setattr(histogram, name, counting(name))
    try:
        # Every exploit layer reads gains (no unvisited-first shortcut).
        engine = TopKEngine(tree, EngineConfig(
            k=K, seed=5, fallback=NO_FALLBACK, visit_unvisited_first=False))
        selects = []
        while not engine.exhausted:
            kernel, rows = calls["_gain_matrix"], calls["_row_gain"]
            exploits = engine.n_exploit
            live = len(engine.policy.live_leaves())
            threshold = engine.effective_threshold
            ids = engine.next_batch()
            selects.append((calls["_gain_matrix"] - kernel,
                            calls["_row_gain"] - rows, layers[ids[0]],
                            threshold, engine.n_exploit > exploits, live))
            engine.observe(ids, [scores[i] for i in ids])
    finally:
        for name, original in originals.items():
            setattr(histogram, name, original)
    return selects


def test_binary_tree_selects_evaluate_only_what_they_read():
    selects = count_run("binary")
    assert len(selects) == 608
    assert sum(kernel for kernel, *_ in selects) == 0
    for kernel, rows, layers, threshold, exploited, live in selects:
        assert rows <= 2 * layers
        if not exploited:
            assert rows == 0
    assert sum(rows for _, rows, *_ in selects) == ROWS_BINARY, \
        "update the figure in the docstring"


def test_flat_tree_threshold_move_is_one_kernel_call():
    selects = count_run("flat")
    moves, seen = 0, object()
    for kernel, rows, layers, threshold, exploited, live in selects:
        assert layers == 1
        if not exploited:
            assert kernel == rows == 0
            continue
        if threshold != seen and live > KERNEL_ROWS:
            assert (kernel, rows) == (1, 0)
            moves += 1
        else:
            assert kernel == 0 and rows <= live
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
        print(f"{shape}: {sum(kernel for kernel, *_ in run)} kernel calls, "
              f"{sum(rows for _, rows, *_ in run)} rows one by one, "
              f"over {len(run)} selects")
