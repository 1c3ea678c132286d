"""Module boundaries that the code must keep, checked on the source text.

Six boundaries so far:

* the layout of the bandit's state — the node table, arms, parent rows, the
  leaf registry, who writes ``remaining`` — is known to
  ``repro/core/hierarchical.py`` alone, the histogram bank's staleness
  bookkeeping and gain kernel to it and ``repro/core/histogram.py``, and
  the bank's row lists and one-row gain to ``repro/core/histogram.py``.
  Everything else goes through the policy's door (``select`` / ``update`` /
  ``state`` / ``load_state`` / ``live_leaves`` / ``leaf_gains``), which is
  what let the layout become struct-of-arrays in a two-module edit; the
  per-object caches the bank replaced are gone, not mirrored;
* what the session keeps per table lives on its ``TableBinding``
  (``repro/catalog.py``: ``pin`` / ``index_for`` / ``memo_view`` / ``info``
  / ``touched_since``), and nothing outside ``session.py`` reads a session's
  private attributes — dispatch gets what it needs on the ``ExecutionPlan``;
* how a table stores its rows — the feature block, the object and id
  rows parallel to it and the ``id -> row`` locator that snapshots share or
  copy — is known to ``repro/data/dataset.py`` (``TableSnapshot``, which a
  static ``InMemoryDataset`` is) and ``repro/live/table.py`` alone; the id
  lists, object dicts and row maps the locator made redundant are gone,
  not mirrored;
* a persisted document's ``format`` is compared in ``repro/persist.py``
  alone: every reader goes through its ``read``;
* a run's table version is its dataset's ``version``: only the shard
  stamp, the shard-cache key, the memo's own version and the persisted
  memo snapshot spell a ``table_version=`` assignment or keyword; the
  binding's pin, the plan, the executors and the coordinators' signatures
  do not thread it beside the dataset;
* the public surface is what something uses: every name a package lists in
  ``__all__`` is spelled somewhere besides its own definition and the
  ``__init__.py`` files — in the library, a script or the docs (an entry in
  ``docs/api.md`` counts) — and the names deleted for having no caller stay
  deleted.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import numpy as np

import repro
import repro.core
import repro.query
from repro.data.dataset import InMemoryDataset

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent

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
    # An arm's swap map over its leaf's slots; the list copy is gone.
    r"\._(source|moved)\b": {"core/arms.py"},
    r"\._members\b": set(),
    # Reaching a node through the policy instead of importing its class.
    r"policy\.root\b": {"core/hierarchical.py"},
    # The histogram bank: one refresh path, Equation 2 in one function.
    r"\bHistogramBank\b": BANK,
    r"\brow_edges\b": {"core/histogram.py"},
    r"\brow_counts\b": {"core/histogram.py"},
    r"\brow_gain(_at)?\b": BANK,
    r"\bSTALE\b": BANK,
    r"\b_row_gain\b": {"core/histogram.py"},
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

#: Same shape, for a table's storage.
TABLE_MODULES = {"data/dataset.py", "live/table.py"}
LIVE_STORAGE_NAMES = {
    r"\b_block\b": TABLE_MODULES,
    r"\b_object_rows\b": TABLE_MODULES,
    r"\b_row_ids\b": TABLE_MODULES,
    r"\b_locator\b": TABLE_MODULES,
}

#: Same shape, for reading a persisted document's ``format``: writers
#: spell it in a dict literal, only ``repro.persist.read`` compares it.
FORMAT_READS = {
    r"""(\.get\(|\[)\s*["']format["']""": {"persist.py"},
    r"[!=]=\s*[\w.]*FORMAT\b|FORMAT\s*[!=]=": {"persist.py"},
}

#: Same shape, for the table version: the stamp a shard spec and its
#: outcome carry (``parallel/worker.py``), the coordinator that writes
#: and checks it, the shard-cache key, the memo's own version and the
#: persisted memo snapshot.
VERSION_SPELLINGS = {
    r"\btable_version\s*=": {
        "parallel/worker.py", "parallel/coordinator.py", "parallel/cache.py",
        "memo/store.py", "core/snapshot.py"},
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
    # The static table's id list, object dict and row map, likewise.
    dataset = (SRC / "data" / "dataset.py").read_text()
    for pattern in (r"\b_row_of\b", r"\._objects\b", r"\._ids\b"):
        assert not re.search(pattern, dataset), pattern


def test_only_the_persist_module_compares_a_format():
    assert not offenders(FORMAT_READS)


def test_the_table_version_rides_the_dataset():
    assert not offenders(VERSION_SPELLINGS)


def test_static_table_block_is_the_callers_array():
    features = np.arange(6, dtype=float).reshape(3, 2)
    for writeable in (True, False):
        features.flags.writeable = writeable
        ds = InMemoryDataset(["a", "b", "c"], [1, 2, 3], features)
        assert ds.features() is features
        assert features.flags.writeable is writeable


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


#: Where a use of a public name counts: the library, its scripts, its docs.
CORPUS = ("src", "examples", "docs", "benchmarks", "bench", "tools")

#: Deleted for having no caller outside their own tests, the persistence
#: spellings that ``snapshot`` / ``restore`` and ``to_dict`` /
#: ``from_dict`` replaced, the histogram bank's old layout, the min-max
#: heap whose maximum side the top-k buffer never read, and the numpy gain
#: kernel that ``_row_gain`` reproduces bit for bit.
DELETED_NAMES = (
    "KNNRegressor", "KNNScorer", "LinearRegressionScorer",
    "SquaredLoss", "AbsoluteLoss", "ascii_chart", "curves_to_rows",
    "curves_to_json", "write_curves_csv", "write_curves_json",
    "result_to_dict", "write_result_json", "ndcg_at_k",
    "rank_biased_overlap", "auc_of_curve", "RunningMeanVar", "summarize",
    "VirtualClock", "IdentityVectorizer", "build_flat_index", "ShardDataset",
    "snapshot_engine", "restore_engine", "from_json", "to_payload",
    "from_payload",
    # The bank's matrices and refresh-ahead lists the row lists replaced.
    "edge_matrix", "count_matrix", "touched_rows", "read_rows",
    # The min-max heap, the error only it raised, and the names only its
    # own tests called.
    "MinMaxHeap", "minmax_heap", "_is_min_level", "peek_max", "pop_max",
    "EmptyStructureError", "labelsets", "is_full",
    # The cached-tree payload of the shm segment: process shards build
    # their own index.
    "SharedTreeRef", "_pack_tree", "_decode_tree",
    # Equation 2's numpy kernel, the row count that chose it, and the
    # list helper that only routed to it: one Python evaluator is left.
    "_gain_matrix", "KERNEL_ROWS", "gain_batch",
    # Names only their own tests called, and the waiter fields of the
    # condition-variable admission that admit_future's future replaced.
    "mean_estimate", "new_histogram", "flat_index", "memo_entries",
    "abandoned",
    # A /proc reader only the retired per-PR perf scripts called.
    "process_private_rss_kb",
    # The spec builder the coordinator folded in, and the process-spec
    # check and segment handle the process backend made unnecessary.
    "build_shard_specs", "validate_process_specs", "_release_shm",
    "_shm_table",
    # The chunked leaf members and the flat-tuple switch that int slot
    # arrays replaced: one member representation, one draw loop.
    "ChunkedMembers", "FLATTEN_AFTER", "CHUNK_SIZE", "_Chunk",
    "_rows_as_indexed",
    # A write delta's copy of the rows its block already holds.
    "old_rows",
    # STK's running sums and the surface only they served: STK is the
    # exact sum of the held scores.
    "_stk", "stk_curve", "stk_after_insert", "best_case_curve",
    "worst_case_curve",
    # Options only tests set, now constants, and the code only their
    # other values reached: the stable-slices stop, the checkpoint
    # cadence, the shard-index cache size, the session's index seed and
    # default index configuration.
    "_topk_signature", "_is_stable", "_stable_count", "checkpoint_every",
    "maxsize", "index_seed", "_index_seed", "default_index_config",
    "_default_index_config",
    # The memo's per-id write stamps and version checks: a score is kept
    # per block row, which no write rewrites.
    "apply_writes", "_last_write", "_valid_for", "reader_version",
    # The engine reads undrawn rows; a caller names them through ``names``.
    "remaining_ids",
)


def identifiers(path):
    return set(re.findall(r"\w+", path.read_text()))


def corpus_files():
    files = [REPO / "README.md"]
    for directory in CORPUS:
        files += sorted((REPO / directory).rglob("*.py"))
        files += sorted((REPO / directory).rglob("*.md"))
    return files


def defining_files(name, sources):
    """Source files that define ``name`` at module level."""
    pattern = re.compile(
        rf"^((async\s+)?def|class)\s+{name}\b|^{name}\s*(:[^=\n]*)?=",
        re.MULTILINE)
    return {path for path, text in sources.items() if pattern.search(text)}


def test_every_exported_name_has_a_use():
    words = {path: identifiers(path) for path in corpus_files()}
    sources = {path: path.read_text() for path in SRC.rglob("*.py")}
    unused = []
    for init in sorted(SRC.rglob("__init__.py")):
        parts = init.parent.relative_to(SRC.parent).parts
        package = importlib.import_module(".".join(parts))
        for name in package.__all__:
            owners = defining_files(name, sources)
            assert owners, f"{package.__name__}.{name}: no definition found"
            if not any(name in found for path, found in words.items()
                       if path not in owners and path.name != "__init__.py"):
                unused.append(f"{package.__name__}.{name}")
    assert not unused


def test_deleted_names_stay_deleted():
    found = [f"{path.relative_to(SRC)}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for name in sorted(set(DELETED_NAMES) & identifiers(path))]
    assert not found
