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

A greedy descent is one bank call, ``HistogramBank.greedy_walk``, which
steps through every layer with a unique best child and hands a layer
back to the policy only where the policy's generator draws: an unvisited
sweep or a tie within ``1e-15``.  Over the 505 exploiting selects of each
run (binary or flat tree, ``visit_unvisited_first`` off or on) an
exploiting select makes one walk call plus exactly one per layer handed
back, an exploring one makes no bank call, and no select calls
``HistogramBank.gains``.  Ties are common — two children whose gains
both read ``0.0`` above their top borders tie — so the walk hands back
1 090 / 1 046 layers on the binary tree and 448 / 466 on the flat one.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

import repro.core.histogram as histogram
from repro.core.engine import EngineConfig, TopKEngine
from repro.core.histogram import HistogramBank
from tests.test_policy_golden import (K, NO_FALLBACK, build_tree,
                                      element_scores)

#: Rows the binary-tree run evaluates (the figure in the docstring).
ROWS_BINARY = 3827

#: Layers the walk hands back over a run, by tree shape and
#: ``visit_unvisited_first`` (the figures in the docstring).
HANDED_BACK = {("binary", False): 1090, ("binary", True): 1046,
               ("flat", False): 448, ("flat", True): 466}


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


def walk_run(shape: str, unvisited_first: bool, monkeypatch):
    """Per select: ``(exploited, bank calls by name, the walk's calls,
    leaf row)``; a walk call is ``(start row, returned row, tied, the
    gains of ``tied`` and the masses of the returned row's live children
    as it returned)``."""
    tree = build_tree(shape)
    scores = element_scores()
    calls: Dict[str, list] = {"greedy_walk": [], "best_rows": [],
                              "gains": []}

    def counting(name):
        original = getattr(HistogramBank, name)

        def counted(self, *args):
            result = original(self, *args)
            if name == "greedy_walk":
                (start, live), (row, tied) = args[:2], result
                calls[name].append((
                    start, row, tied,
                    [self.row_gain[child] for child in tied or ()],
                    [self.row_mass[child] for child in live[row]]))
            else:
                calls[name].append(result)
            return result
        return counted

    for name in calls:
        monkeypatch.setattr(HistogramBank, name, counting(name))
    engine = TopKEngine(tree, EngineConfig(
        k=K, seed=5, fallback=NO_FALLBACK,
        visit_unvisited_first=unvisited_first))
    selects = []
    while not engine.exhausted:
        before = {name: len(made) for name, made in calls.items()}
        exploits = engine.n_exploit
        ids = engine.next_batch()
        made = {name: calls[name][before[name]:] for name in calls}
        selects.append((engine.n_exploit > exploits, made,
                        engine.policy._pending))
        engine.observe(ids, [scores[i] for i in ids])
    return selects


@pytest.mark.parametrize("unvisited_first", [False, True])
@pytest.mark.parametrize("shape", ["binary", "flat"])
def test_an_exploiting_select_is_one_walk_plus_one_per_handed_back_layer(
        monkeypatch, shape, unvisited_first):
    handed_back = exploiting = 0
    for exploited, made, leaf in walk_run(shape, unvisited_first,
                                          monkeypatch):
        assert not made["gains"]
        exploiting += exploited
        if not exploited:
            assert not any(made.values())
            continue
        # One walk from the root, then one from the child the policy drew
        # at each layer the walk handed back; the last walk ends at the
        # leaf drawn from.
        walks = made["greedy_walk"]
        assert walks[0][0] == 0
        assert walks[-1][1:] == (leaf, None, [], [])
        for (_, _, tied, gains, masses), (start, *_) in zip(walks,
                                                            walks[1:]):
            handed_back += 1
            if tied is None:  # an unvisited sweep
                assert unvisited_first and min(masses) <= 0.0
            else:
                assert len(tied) > 1 and start in tied
                assert max(gains) - min(gains) <= 1e-15
                assert not unvisited_first or min(masses) > 0.0
    assert exploiting == 505
    assert handed_back == HANDED_BACK[shape, unvisited_first], \
        "update the figures in the docstring"


if __name__ == "__main__":
    for shape in ("binary", "flat"):
        run = count_run(shape)
        print(f"{shape}: {sum(rows for rows, *_ in run)} rows evaluated "
              f"over {len(run)} selects")
