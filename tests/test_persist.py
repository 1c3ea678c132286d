"""The persisted-state contract: nine formats, one reader rule, a fixture each.

Every document the library writes carries ``"format":
"repro-<kind>/<version>"`` and is read back through
:func:`repro.persist.read`.  Each file under ``tests/data/persist/`` was
written by the code of the commit that froze it and is never regenerated:
a document a user saved yesterday must still load.  A format change is a
new ``/2`` with a new fixture beside the old one (``docs/architecture.md``,
"Persisted state").

The fixtures were written over ``world()`` below: the engine snapshot by a
``k=5, seed=0`` engine after 20 draws, the sharded and streaming snapshots
by two serial shards after 30 (the sharded one with a ``udf-A`` memo
slice), the priors from the engine, the memo and memo snapshot from two
UDF shards and one write, the tree by ``build_index`` over 20 rows.
"""

from __future__ import annotations

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.engine import EngineConfig, TopKEngine
from repro.core.histogram import AdaptiveHistogram
from repro.core.snapshot import restore_memo, snapshot_memo
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import SerializationError
from repro.index.tree import ClusterNode, ClusterTree
from repro.memo.priors import PriorStore
from repro.memo.store import MemoStore
from repro.obs.spans import COUNTER_KEYS, Span, TraceContext
from repro.parallel.engine import ShardedTopKEngine
from repro.replay.trace import ArrivalTrace
from repro.scoring.relu import ReluScorer
from repro.streaming.engine import StreamingTopKEngine

PERSIST = Path(__file__).parent / "data" / "persist"
SRC = Path(repro.__file__).parent


def world():
    dataset = SyntheticClustersDataset.generate(n_clusters=4, per_cluster=15,
                                                rng=0)
    return dataset, ReluScorer()


DATASET, SCORER = world()


def fixture(kind: str) -> dict:
    return json.loads((PERSIST / f"{kind}.json").read_text())


def json_safe(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


#: kind -> (reader, writer of what the reader returns, given the payload).
FORMATS = {
    "engine-snapshot": (
        lambda doc: TopKEngine.restore(DATASET.true_index(), doc),
        lambda engine, doc: engine.snapshot()),
    "sharded-snapshot": (
        lambda doc: ShardedTopKEngine.restore(DATASET, SCORER, doc),
        lambda engine, doc: engine.snapshot()),
    "streaming-snapshot": (
        lambda doc: StreamingTopKEngine.restore(DATASET, SCORER, doc),
        lambda engine, doc: engine.snapshot()),
    # The stamp is the caller's context: it re-stamps what it restored.
    "memo-snapshot": (
        restore_memo,
        lambda stores, doc: snapshot_memo(*stores, doc.get("table_version"))),
    "memo": (MemoStore.from_dict, lambda store, doc: store.to_dict()),
    "priors": (PriorStore.from_dict, lambda store, doc: store.to_dict()),
    "cluster-tree": (ClusterTree.from_dict,
                     lambda tree, doc: tree.to_dict()),
    "trace": (TraceContext.from_dict, lambda trace, doc: trace.to_dict()),
    "arrival-trace": (ArrivalTrace.from_dict,
                      lambda trace, doc: trace.to_dict()),
}
KINDS = list(FORMATS)

#: The top-level keys each reader cannot do without.  Every other key of
#: a fixture may be missing (it reads as its default).
REQUIRED = {
    "engine-snapshot": ["k", "mode", "buffer", "tree", "counters"],
    "sharded-snapshot": ["k", "n_workers", "sync_interval",
                         "share_threshold", "backend", "root_entropy",
                         "coordinator", "workers"],
    "streaming-snapshot": ["k", "n_workers", "slice_budget",
                           "share_threshold", "backend", "root_entropy",
                           "coordinator", "workers"],
    "memo-snapshot": ["memo"],
    "memo": [],
    "priors": [],
    "cluster-tree": ["root"],
    "trace": [],
    "arrival-trace": ["backend", "n_workers", "k", "slice_budget",
                      "share_threshold", "root_entropy"],
}

#: Defaulted keys whose value, when present, must still have its type.
DEFAULTED = {
    "memo": ["scores"],
    "priors": ["priors"],
    "trace": ["spans"],
    "arrival-trace": ["drives", "events"],
}

#: Nested keys the readers need: (kind, path to the key).  A memo
#: snapshot nests a whole memo document, whose own format is named.
NESTED = [
    ("engine-snapshot", ("counters", "n_scored")),
    ("sharded-snapshot", ("coordinator", "buffer")),
    ("sharded-snapshot", ("coordinator", "n_rounds")),
    ("sharded-snapshot", ("memo", "fingerprint")),
    ("streaming-snapshot", ("coordinator", "n_merges")),
    ("memo-snapshot", ("memo", "format")),
    ("priors", ("priors", 0, "scope")),
    ("cluster-tree", ("root", "node_id")),
    ("cluster-tree", ("root", "children", 0, "node_id")),
    ("trace", ("spans", 0, "name")),
    ("arrival-trace", ("events", 0, "type")),
]
NESTED_FORMAT = {("memo", "format"): "repro-memo/1"}

#: Fields the ``/1`` formats keep for options since fixed, each with a
#: value an older writer could emit and this code cannot re-execute: the
#: threshold broadcast switched off, or the ``stable_slices`` early stop.
FIXED = [
    ("sharded-snapshot", "share_threshold", False),
    ("streaming-snapshot", "share_threshold", False),
    ("streaming-snapshot", "stable_slices", 2),
    ("arrival-trace", "share_threshold", False),
    ("arrival-trace", "stable_slices", 2),
]

#: Where a document nests a histogram payload: (kind, path to it).
HISTOGRAMS = [
    ("engine-snapshot", ("tree", "histogram")),
    ("priors", ("priors", 0, "nodes", "root")),
]

#: Where a document nests a top-k buffer: (kind, path to its rows).
BUFFERS = [
    ("engine-snapshot", ("buffer",)),
    ("sharded-snapshot", ("coordinator", "buffer")),
    ("streaming-snapshot", ("coordinator", "buffer")),
]

#: Where a document nests a memo payload: (kind, path to it).
MEMOS = [("memo", ()), ("memo-snapshot", ("memo",))]

#: A coordinator snapshot carries one engine snapshot per shard.
COORDINATORS = ["sharded-snapshot", "streaming-snapshot"]
SHARD_FORMAT = "repro-engine-snapshot/1"


def load(kind: str, payload):
    return FORMATS[kind][0](payload)


def redump(kind: str, payload: dict) -> dict:
    """``payload`` read and written back, through JSON both ways."""
    reader, writer = FORMATS[kind]
    return json_safe(writer(reader(json_safe(payload)), payload))


def resumed(payload: dict) -> dict:
    """What a re-dump should equal: a restored coordinator counts itself."""
    if "resume_count" in payload:
        payload = dict(payload, resume_count=payload["resume_count"] + 1)
    return payload


# -- the frozen fixtures ------------------------------------------------------


def test_every_document_format_has_a_fixture():
    literal = re.compile(r"""["'](repro-[a-z-]+/\d+)["']""")
    written = {found for path in SRC.rglob("*.py")
               for found in literal.findall(path.read_text())}
    written.discard("repro-fp/1")  # a fingerprint prefix, not a document
    frozen = {fixture(path.stem)["format"] for path in PERSIST.glob("*.json")}
    assert written == frozen
    assert sorted(path.stem for path in PERSIST.glob("*.json")) == \
        sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_fixture_reads_and_redumps_equal(kind):
    payload = fixture(kind)
    assert payload["format"].startswith(f"repro-{kind}/")
    assert redump(kind, payload) == resumed(payload)


def restored_buffer(kind: str, payload: dict):
    restored = load(kind, json_safe(payload))
    return (restored.buffer if isinstance(restored, TopKEngine)
            else restored._buffer)


@pytest.mark.parametrize("kind, path", BUFFERS,
                         ids=[kind for kind, _path in BUFFERS])
def test_restored_buffer_stk_is_the_exact_sum_of_its_rows(kind, path):
    """A snapshot stores rows, not STK: the restored value is Equation 1's
    exact sum of them, whatever order they are listed in."""
    payload = fixture(kind)
    rows = payload
    for key in path:
        rows = rows[key]
    exact = math.fsum(score for score, _id in rows).hex()
    assert restored_buffer(kind, payload).stk.hex() == exact
    reversed_rows = replaced(payload, path, rows[::-1])
    assert restored_buffer(kind, reversed_rows).stk.hex() == exact


# -- the malformed-payload matrix ----------------------------------------------


def without(payload: dict, path) -> dict:
    payload = copy.deepcopy(payload)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return payload


def replaced(payload: dict, path, value) -> dict:
    payload = copy.deepcopy(payload)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return payload


def bad_histograms(good: dict):
    """``(case, a histogram no sketch could hold, what the refusal names)``."""
    edges, counts = good["edges"], good["counts"]
    yield "nan-edge", dict(good, edges=[edges[0], math.nan] + edges[2:]), \
        "edges"
    yield "descending-edges", dict(good, edges=edges[::-1]), "edges"
    yield "inf-top-edge", dict(good, edges=edges[:-1] + [math.inf]), "edges"
    yield "negative-count", dict(good, counts=[-5.0] + counts[1:]), "counts"
    yield "nan-count", dict(good, counts=[math.nan] + counts[1:]), "counts"
    yield "one-bin", dict(good, n_bins=1, edges=[edges[0], edges[-1]],
                          counts=[1.0]), "n_bins"
    yield "beta-outside-1-2", dict(good, beta=3.0), "beta"


def bad_buffer_rows():
    """``(case, a row no top-k buffer could hold, what the refusal names)``.

    A NaN score used to read as the threshold and STK forever, an inf one
    as an infinite STK, a negative one as a negative threshold."""
    yield "nan-score", [math.nan, "x"], "nan"
    yield "inf-score", [math.inf, "x"], "inf"
    yield "negative-score", [-5.0, "x"], "-5.0"
    yield "huge-int-score", [10 ** 400, "x"], "1000"
    yield "bool-score", [True, "x"], "True"
    yield "string-score", ["x", "y"], "['x', 'y']"
    yield "int-id", [1.0, 7], "[1.0, 7]"
    yield "one-item", [1.0], "[1.0]"
    yield "three-items", [1.0, "x", "y"], "[1.0, 'x', 'y']"
    yield "not-a-row", 1.0, "1.0"


def bad_memo_entries():
    """``(case, path in a memo, a value no memo could hold, what the
    refusal names)``.  Stamps used to load ``1.5`` and ``True`` as 1, and
    scores ``"nan"`` and ``-1.0`` as scores ``observe()`` refuses."""
    stamp, score = ("last_write", "c000-00005"), ("scores", "udf-B",
                                                  "c000-00001")
    yield "string-stamp", stamp, "x", "'x'"
    yield "null-stamp", stamp, None, "None"
    yield "fractional-stamp", stamp, 1.5, "1.5"
    yield "bool-stamp", stamp, True, "True"
    yield "string-score", score, "x", "'x'"
    yield "nan-string-score", score, "nan", "'nan'"
    yield "nan-score", score, math.nan, "nan"
    yield "inf-score", score, math.inf, "inf"
    yield "negative-score", score, -1.0, "-1.0"
    yield "bool-score", score, True, "True"
    yield "list-shard", ("scores", "udf-B"), [0.5], "list"


def mistyped(payload: dict, key: str) -> dict:
    return dict(payload, **{key: 0 if isinstance(payload[key], str)
                            else "x"})


def malformed_cases():
    """``(kind, case, payload, expected format, what was found)``."""
    for position, kind in enumerate(KINDS):
        payload = fixture(kind)
        expected = payload["format"]
        foreign = fixture(KINDS[position - 1])["format"]
        newer = expected.replace("/1", "/2")
        yield kind, "foreign", dict(payload, format=foreign), expected, foreign
        yield kind, "newer", dict(payload, format=newer), expected, newer
        yield kind, "non-dict", [payload], expected, "list"
        yield kind, "no-format", without(payload, ["format"]), expected, "None"
        for key in REQUIRED[kind]:
            yield (kind, f"no-{key}", without(payload, [key]), expected,
                   expected)
        for key in REQUIRED[kind] + DEFAULTED.get(kind, []):
            yield (kind, f"mistyped-{key}", mistyped(payload, key), expected,
                   expected)
    for kind, path in NESTED:
        expected = NESTED_FORMAT.get(path, fixture(kind)["format"])
        yield (kind, "no-" + ".".join(map(str, path)),
               without(fixture(kind), path), expected, expected)
    for kind, key, value in FIXED:
        payload = fixture(kind)
        yield (kind, f"fixed-{key}", dict(payload, **{key: value}),
               payload["format"],
               f"{key!r} {payload[key]!r}, found {value!r}")
    for kind in COORDINATORS:
        payload = fixture(kind)
        shards = payload["workers"]
        yield (kind, "truncated-workers", dict(payload, workers=shards[:-1]),
               payload["format"], payload["format"])
        yield (kind, "null-worker", dict(payload, workers=[None] + shards[1:]),
               SHARD_FORMAT, "NoneType")
    for kind, path in BUFFERS:
        payload = fixture(kind)
        rows = payload
        for key in path:
            rows = rows[key]
        for case, bad, found in bad_buffer_rows():
            yield (kind, f"buffer-{case}",
                   replaced(payload, path, rows[:1] + [bad] + rows[1:]),
                   payload["format"], found)
    for kind, path in MEMOS:
        payload = fixture(kind)
        for case, at, bad, found in bad_memo_entries():
            yield (kind, f"memo-{case}", replaced(payload, path + at, bad),
                   "repro-memo/1", found)
    for kind, path in HISTOGRAMS:
        payload = fixture(kind)
        good = payload
        for key in path:
            good = good[key]
        for case, bad, found in bad_histograms(good):
            yield (kind, f"histogram-{case}", replaced(payload, path, bad),
                   payload["format"], found)


CASES = list(malformed_cases())


@pytest.mark.parametrize("kind, case, payload, expected, found", CASES,
                         ids=[f"{kind}-{case}" for kind, case, *_ in CASES])
def test_malformed_payload_names_expected_and_found(kind, case, payload,
                                                     expected, found):
    with pytest.raises(SerializationError) as error:
        load(kind, payload)
    assert expected in str(error.value)
    assert found in str(error.value)


#: Optional keys that may only go with others: a memo's ``last_write``
#: stamps must not exceed its ``table_version`` (0 when missing).
GO_WITH = {"memo": {"table_version": ["last_write"]}}


@pytest.mark.parametrize("kind", KINDS)
def test_optional_keys_may_be_missing(kind):
    payload = fixture(kind)
    for key in set(payload) - set(REQUIRED[kind]) - {"format"}:
        stripped = without(payload, [key])
        for also in GO_WITH.get(kind, {}).get(key, ()):
            stripped = without(stripped, [also])
        load(kind, stripped)


@pytest.mark.parametrize("case", ["no-table-version", "stamp-past-version"])
def test_memo_stamps_past_the_table_version_are_refused(case):
    payload = fixture("memo")
    assert payload["table_version"] == 2
    if case == "no-table-version":
        payload = without(payload, ["table_version"])
    else:
        payload["last_write"]["c000-00001"] = 3
    with pytest.raises(SerializationError) as error:
        load("memo", payload)
    assert "repro-memo/1" in str(error.value)
    assert "last_write" in str(error.value)


@pytest.mark.parametrize("workers", [lambda shards: shards[:-1],
                                     lambda shards: [None] + shards[1:]],
                         ids=["truncated", "null"])
def test_refused_shard_payloads_record_no_memo_score(workers):
    payload = fixture("sharded-snapshot")
    payload["workers"] = workers(payload["workers"])
    store = MemoStore()
    with pytest.raises(SerializationError):
        ShardedTopKEngine.restore(DATASET, SCORER, payload,
                                  memo=store.view(payload["memo"]["fingerprint"]))
    assert store.to_dict()["scores"] == {}


# -- member lists that would score an element twice ---------------------------


def engine_snapshots(kind: str):
    """``(path, engine snapshot)`` of each engine a document restores."""
    payload = fixture(kind)
    if kind in COORDINATORS:
        for worker, shard in enumerate(payload["workers"]):
            yield ("workers", worker), shard
    else:
        yield (), payload


def leaf_paths(node: dict, path=("tree",)):
    """Path to the ``remaining`` list of every leaf, in pre-order."""
    if "remaining" in node:
        yield path + ("remaining",)
    for position, child in enumerate(node.get("children", ())):
        yield from leaf_paths(child, path + ("children", position))


def at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def bad_member_lists(shard: dict):
    """``(case, path, a list no engine may draw from, what the refusal
    names)`` for one engine snapshot's leaves and scan queue.

    Each used to restore: the engine then drew a leaf's id twice, or an id
    no leaf of the index holds, or scanned an id it had scored already."""
    own, other = [path for path in leaf_paths(shard["tree"])
                  if at(shard, path)][:2]
    members, foreign = at(shard, own), at(shard, other)[0]
    yield "leaf-non-string-id", own, members + [7], "non-string id: 7"
    yield "leaf-id-twice", own, members + [members[0]], \
        f"an id twice: {members[0]!r}"
    yield "leaf-id-in-no-leaf", own, members + ["zzz"], "'zzz'"
    yield "leaf-id-of-another-leaf", own, members + [foreign], \
        f"not one of its members: {foreign!r}"
    yield "leaf-many", own, members + [members[0], members[0], "zzz",
                                       foreign], "an id twice"
    yield "leaf-remaining-not-a-list", own, "".join(members[:2]), "a str"
    queue = shard["scan_queue"]
    undrawn = queue[0] if queue else members[0]
    scored = shard["buffer"][0][1]
    path = ("scan_queue",)
    yield "scan-non-string-id", path, queue + [7], "non-string id: 7"
    yield "scan-id-twice", path, queue + [undrawn, undrawn], \
        f"an id twice: {undrawn!r}"
    yield "scan-id-in-no-leaf", path, queue + ["zzz"], "'zzz'"
    yield "scan-scored-id", path, queue + [scored], \
        f"no leaf has left to draw: {scored!r}"


def member_list_cases():
    """``(kind, case, payload, what the refusal names)``."""
    for kind in ["engine-snapshot"] + COORDINATORS:
        for where, shard in engine_snapshots(kind):
            for case, path, bad, found in bad_member_lists(shard):
                name = "-".join(map(str, where + (case,)))
                yield (kind, name, replaced(fixture(kind), where + path, bad),
                       found)


MEMBER_CASES = list(member_list_cases())


def start(kind: str, payload: dict) -> None:
    """Restore ``payload`` as far as its engines: a coordinator restores
    its shards' engines when it starts them."""
    engine = load(kind, payload)
    if kind in COORDINATORS:
        try:
            engine.start()
        finally:
            engine.close()


@pytest.mark.parametrize("kind, case, payload, found", MEMBER_CASES,
                         ids=[f"{kind}-{case}"
                              for kind, case, *_ in MEMBER_CASES])
def test_member_list_that_would_score_twice_is_refused(kind, case, payload,
                                                       found):
    with pytest.raises(SerializationError) as error:
        start(kind, payload)
    assert SHARD_FORMAT in str(error.value)
    assert found in str(error.value)


@pytest.mark.parametrize("kind", ["engine-snapshot"] + COORDINATORS)
def test_fixture_engines_restore_and_start(kind):
    start(kind, fixture(kind))


# -- round trips ------------------------------------------------------------------

SMALL = settings(max_examples=30, deadline=None)
FEW = settings(max_examples=10, deadline=None)
IDS = st.sampled_from([f"e{i}" for i in range(6)])
UDFS = st.sampled_from(["udf-A", "udf-B"])
SCORES = st.floats(0.0, 1e6, allow_nan=False)


def assert_round_trip(kind: str, payload: dict) -> None:
    payload = json_safe(payload)
    assert redump(kind, payload) == resumed(payload)


@FEW
@given(budget=st.integers(0, 60), seed=st.integers(0, 3),
       batch=st.integers(1, 4))
def test_engine_snapshot_round_trip(budget, seed, batch):
    engine = TopKEngine(DATASET.true_index(),
                        EngineConfig(k=5, seed=seed, batch_size=batch))
    engine.run(DATASET, SCORER, budget=budget)
    assert_round_trip("engine-snapshot", engine.snapshot())


@FEW
@given(budget=st.integers(0, 60), seed=st.integers(0, 3),
       n_workers=st.integers(1, 3), streaming=st.booleans())
def test_coordinator_snapshot_round_trip(budget, seed, n_workers,
                                         streaming):
    cls, kind, policy = (
        (StreamingTopKEngine, "streaming-snapshot", {"slice_budget": 7})
        if streaming else
        (ShardedTopKEngine, "sharded-snapshot", {"sync_interval": 7}))
    with cls(DATASET, SCORER, k=5, n_workers=n_workers, seed=seed,
             memo=MemoStore().view("udf-A"), **policy) as engine:
        engine.run(budget)
        assert_round_trip(kind, engine.snapshot())


@st.composite
def memo_stores(draw):
    """Stores as the library leaves them: scores recorded by id, on top
    of a loaded document that may carry a table version and its
    ``last_write`` stamps."""
    version = draw(st.integers(0, 5))
    stamps = draw(st.dictionaries(IDS, st.integers(0, version), max_size=3))
    store = MemoStore.from_dict({"format": "repro-memo/1", "scores": {},
                                 "table_version": version or None,
                                 "last_write": stamps or None})
    for udf, scores in draw(st.dictionaries(
            UDFS, st.dictionaries(IDS, SCORES))).items():
        store.view(udf).record_pairs(scores.items())
    return store


def histogram_payload(n_bins: int, values) -> dict:
    sketch = AdaptiveHistogram(n_bins=n_bins)
    sketch.add_many(values)
    return sketch.to_dict()


@st.composite
def prior_stores(draw):
    store = PriorStore()
    nodes = st.dictionaries(st.sampled_from(["root", "n0", "n1"]),
                            st.builds(histogram_payload, st.integers(2, 8),
                                      st.lists(SCORES, max_size=5)),
                            min_size=1)
    for udf, scope, payload in draw(st.lists(
            st.tuples(UDFS, st.sampled_from(["single:", "shard:0:2:7:"]),
                      nodes), max_size=3)):
        store.put(udf, scope, payload)
    return store


@SMALL
@given(store=memo_stores())
def test_memo_round_trip(store):
    assert_round_trip("memo", store.to_dict())


@SMALL
@given(store=prior_stores())
def test_priors_round_trip(store):
    assert_round_trip("priors", store.to_dict())


@SMALL
@given(memo=memo_stores(), priors=prior_stores(),
       version=st.none() | st.integers(0, 5))
def test_memo_snapshot_round_trip(memo, priors, version):
    assert_round_trip("memo-snapshot", snapshot_memo(memo, priors, version))


@st.composite
def cluster_trees(draw):
    shape = draw(st.recursive(st.integers(1, 3),
                              lambda inner: st.lists(inner, min_size=1,
                                                     max_size=3),
                              max_leaves=6))
    counter = iter(range(10**6))

    def build(node):
        node_id = f"n{next(counter)}"
        if isinstance(node, list):
            return ClusterNode(node_id, children=[build(c) for c in node])
        centroid = draw(st.none() | st.lists(SCORES, min_size=2, max_size=2))
        return ClusterNode(
            node_id, member_ids=tuple(f"e{next(counter)}" for _ in
                                      range(node)),
            centroid=None if centroid is None else np.asarray(centroid))

    root = build(shape)
    return ClusterTree(root if root.children else
                       ClusterNode("root", children=[root]))


@SMALL
@given(tree=cluster_trees())
def test_cluster_tree_round_trip(tree):
    assert_round_trip("cluster-tree", tree.to_dict())


def spans():
    names = st.sampled_from(["parse", "plan", "round[0]", "shard[1]"])
    counters = st.dictionaries(st.sampled_from(COUNTER_KEYS), SCORES)
    attrs = st.dictionaries(st.sampled_from(["k", "mode"]),
                            st.integers(0, 9) | st.sampled_from(["a", "b"]))
    return st.recursive(
        st.builds(Span, names, SCORES, SCORES, counters, attrs),
        lambda inner: st.builds(Span, names, SCORES, SCORES, counters,
                                attrs, st.lists(inner, max_size=3)),
        max_leaves=6)


@SMALL
@given(roots=st.lists(spans(), max_size=3))
def test_trace_round_trip(roots):
    trace = TraceContext()
    trace.roots = roots
    assert_round_trip("trace", trace.to_dict())


@SMALL
@given(trace=st.builds(
    ArrivalTrace,
    backend=st.sampled_from(["serial", "thread", "process"]),
    n_workers=st.integers(1, 4), k=st.integers(1, 9),
    slice_budget=st.integers(1, 99),
    confidence=st.none() | st.floats(0.5, 0.99),
    root_entropy=st.integers(0, 2**64),
    drives=st.lists(st.fixed_dictionaries(
        {"budget": st.integers(0, 99),
         "every": st.none() | st.integers(1, 9)}), max_size=2),
    events=st.lists(st.fixed_dictionaries(
        {"type": st.sampled_from(["submit", "arrival"]),
         "worker": st.integers(0, 3)}), max_size=4)))
def test_arrival_trace_round_trip(trace):
    assert_round_trip("arrival-trace", trace.to_dict())
