"""Deterministic perf pin: how often the gain kernel runs, no clock involved.

``_gain_matrix`` costs ~20 us of numpy dispatch per call whatever the row
count, so the scalar path's cost is the *number* of calls.  The per-object
layout made one call per tree layer of every descent; the histogram bank
makes one per select in steady state (``HistogramBank.gains`` refreshes
every row mutated since the last refresh in the first call a descent
needs).  Over the seeded run below — the lopsided 64-leaf binary tree of
``test_policy_golden.py``, ``batch_size=1``, 608 selects to exhaustion —

* the parent commit (2efd5c4) made **3 503** kernel calls (5.76 per select;
  counted by running :func:`count_run` against that checkout);
* the bank makes **645** (1.06 per select).

Why the per-select bound is stated for a *repeated leaf*: refreshes are
lazy, so a descent that turns onto sibling sets last evaluated at an older
threshold must evaluate them, one call per layer; "at most one call
whenever the threshold did not move" is therefore not an invariant of any
lazy scheme (here 48 of the 572 same-threshold selects need a second call:
the run drains and drops every leaf, so descents keep turning).  What is
invariant, and pinned here: a select that repeats the previous select's
threshold *and* leaf makes at most one call, an exploring select makes
none, and no select makes more calls than its descent has layers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import repro.core.histogram as histogram
from repro.core.engine import EngineConfig, TopKEngine
from tests.test_policy_golden import (K, NO_FALLBACK, build_tree,
                                      element_scores)

PARENT_TOTAL = 3503


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


def count_run() -> List[Tuple[int, int, object, str, bool]]:
    """``(calls, layers, threshold, leaf, exploited)`` for every select."""
    tree = build_tree("binary")
    layers = leaf_layers(tree)
    leaf_of = {element_id: leaf.node_id for leaf in tree.leaves()
               for element_id in leaf.member_ids}
    scores = element_scores()
    calls = [0]
    kernel = histogram._gain_matrix

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    histogram._gain_matrix = counted
    try:
        # Every exploit layer reads gains (no unvisited-first shortcut), so
        # "the previous select evaluated this path" holds for exploit rolls.
        engine = TopKEngine(tree, EngineConfig(
            k=K, seed=5, fallback=NO_FALLBACK, visit_unvisited_first=False))
        selects = []
        while not engine.exhausted:
            before, exploits = calls[0], engine.n_exploit
            threshold = engine.effective_threshold
            ids = engine.next_batch()
            selects.append((calls[0] - before, layers[ids[0]], threshold,
                            leaf_of[ids[0]], engine.n_exploit > exploits))
            engine.observe(ids, [scores[i] for i in ids])
    finally:
        histogram._gain_matrix = kernel
    return selects


def test_kernel_calls_per_select():
    selects = count_run()
    assert len(selects) == 608
    total = sum(calls for calls, *_ in selects)
    assert total < PARENT_TOTAL / 2
    assert total == 645, "update the figures in the docstring"
    repeats = 0
    for previous, current in zip(selects, selects[1:]):
        calls, layers, threshold, leaf, exploited = current
        assert calls <= layers
        if not exploited:
            assert calls == 0
        elif previous[4] and previous[2:4] == (threshold, leaf):
            repeats += 1
            assert calls <= 1, current
    assert repeats > 100, "the run must repeat itself to pin anything"


if __name__ == "__main__":
    run = count_run()
    print(f"{sum(calls for calls, *_ in run)} kernel calls "
          f"over {len(run)} selects")
