"""Module boundaries that the code must keep, checked on the source text.

Three boundaries so far:

* the layout of the bandit's state — the node table, arms, parent rows, the
  leaf registry, who writes ``remaining`` — is known to
  ``repro/core/hierarchical.py`` alone, and the histogram bank's matrices,
  staleness bookkeeping and gain kernel to it and ``repro/core/histogram.py``.
  Everything else goes through the policy's door (``select`` / ``update`` /
  ``state`` / ``load_state`` / ``live_leaves`` / ``leaf_gains``), which is
  what let the layout become struct-of-arrays in a two-module edit; the
  per-object caches the bank replaced are gone, not mirrored;
* what the session keeps per table lives on its ``TableBinding``
  (``repro/catalog.py``: ``pin`` / ``index_for`` / ``memo_view`` / ``info``
  / ``touched_since``), and nothing outside ``session.py`` reads a session's
  private attributes — dispatch gets what it needs on the ``ExecutionPlan``;
* how a ``LiveTable`` stores its rows — the append-only feature block, the
  object rows parallel to it and the ``id -> row`` locator that snapshots
  share or copy — is known to ``repro/live/table.py`` alone; the id list and
  object dict the locator made redundant are gone, not mirrored.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro
import repro.core
import repro.query

SRC = Path(repro.__file__).parent

#: The two modules that may know how sketches are stored and refreshed.
BANK = {"core/histogram.py", "core/hierarchical.py"}

#: layout name -> the only modules (relative to ``src/repro``) allowed to
#: spell it, comments and docstrings included.
LAYOUT_NAMES = {
    r"\bBanditNode\b": {"core/hierarchical.py"},
    r"\bleaves_by_id\b": {"core/hierarchical.py"},
    r"\brecompute_remaining\b": {"core/hierarchical.py"},
    r"\bpath_to_root\b": {"core/hierarchical.py"},
    r"\bnote_drawn\b": {"core/hierarchical.py"},
    r"\._members\b": {"core/hierarchical.py", "core/arms.py"},
    # Reaching a node through the policy instead of importing its class.
    r"policy\.root\b": {"core/hierarchical.py"},
    # The histogram bank: one refresh path, one gain kernel.
    r"\bHistogramBank\b": BANK,
    r"\bedge_matrix\b": BANK,
    r"\bcount_matrix\b": BANK,
    r"\brow_gain(_at)?\b": BANK,
    r"\bSTALE\b": BANK,
    r"\btouched_rows\b": BANK,
    r"\bread_rows\b": BANK,
    r"\b_gain_matrix\b": BANK,
    r"\bgain_batch\b": BANK,
    # The per-sketch caches the bank replaced.
    r"\b_gain_cache\b": set(),
    r"\._mass\b": set(),
}

#: Same shape, for what the session keeps per table.
SESSION_NAMES = {
    # The session's private attributes (``self._session._x`` included).
    r"session\._[a-z]": {"session.py"},
    # Per-table helpers the binding replaced: gone, not aliased.
    r"\b_live_table\b": set(),
    r"\b_reconcile_writes\b": set(),
    r"\b_maintainer_for\b": set(),
    r"\b_index_for\b": set(),
    r"\b_memo_view_for\b": set(),
    # The maintainer's log is read through ``touched_since``.
    r"\btouched_log\b": {"live/maintenance.py"},
    r"\blog_floor\b": {"live/maintenance.py"},
}

#: Same shape, for a live table's storage.
LIVE_STORAGE_NAMES = {
    r"\b_block\b": {"live/table.py"},
    r"\b_object_rows\b": {"live/table.py"},
    r"\b_locator\b": {"live/table.py"},
}


def offenders(names):
    """``module: pattern`` for every spelling outside the owning modules."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        text = path.read_text()
        for pattern, owners in names.items():
            if module not in owners and re.search(pattern, text):
                found.append(f"{module}: {pattern}")
    return found


def test_bandit_layout_is_private_to_the_policy_module():
    assert not offenders(LAYOUT_NAMES)


def test_per_table_state_is_private_to_session_and_binding():
    assert not offenders(SESSION_NAMES)


def test_live_storage_is_private_to_the_table_module():
    assert not offenders(LIVE_STORAGE_NAMES)
    live = {path.name: path.read_text()
            for path in (SRC / "live").glob("*.py")}
    # The live-id list and object dict the locator's key order replaced.
    assert not any(re.search(r"\b_order\b", text) for text in live.values())
    assert not re.search(r"\b_objects\b", live["table.py"])


def test_layout_classes_are_not_exported():
    for package in (repro, repro.core):
        assert "BanditNode" not in package.__all__
        assert "HistogramBank" not in package.__all__
        assert "EpsilonGreedyBandit" not in package.__all__
        assert not hasattr(package, "EpsilonGreedyBandit")


def test_executor_registry_is_not_exported():
    for package in (repro, repro.query):
        for name in ("QueryExecutor", "EXECUTORS", "register_executor",
                     "available_executors", "get_executor"):
            assert name not in package.__all__
            assert not hasattr(package, name)
