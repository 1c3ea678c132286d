"""Tests for recorded-arrival replay (repro.replay).

Acceptance pins: a trace recorded on the *thread* backend (real,
nondeterministic arrival order) replays bit-identically on the ``replay``
backend — twice, with identical snapshots — and reproduces the recorded
run's merge history exactly.  Also covers trace JSON round-trips, the
serial backend as a recording source, multi-drive traces, divergence
detection, and the CLI record/replay flags.
"""

from __future__ import annotations

import json

import pytest

from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import (
    ConfigurationError,
    ReplayDivergenceError,
    SerializationError,
)
from repro.replay import (
    ArrivalTrace,
    ReplayStreamBackend,
    replay_engine,
    replay_run,
)
from repro.scoring.relu import ReluScorer
from repro.streaming import StreamingTopKEngine


@pytest.fixture(scope="module")
def world():
    dataset = SyntheticClustersDataset.generate(n_clusters=8,
                                                per_cluster=150, rng=0)
    return dataset, ReluScorer()


def record_run(dataset, scorer, backend="thread", budget=600, **kw):
    defaults = dict(k=10, n_workers=3, seed=0, slice_budget=50)
    defaults.update(kw)
    engine = StreamingTopKEngine(dataset, scorer, backend=backend,
                                 record=True, **defaults)
    try:
        result = engine.run(budget=budget)
        return result, engine.trace()
    finally:
        engine.close()


class TestRecording:
    def test_trace_requires_record_flag(self, world):
        dataset, scorer = world
        engine = StreamingTopKEngine(dataset, scorer, k=5, n_workers=2,
                                     seed=0)
        with pytest.raises(ConfigurationError, match="record=True"):
            engine.trace()
        engine.close()

    def test_trace_structure(self, world):
        dataset, scorer = world
        result, trace = record_run(dataset, scorer, backend="serial")
        assert trace.backend == "serial"
        assert trace.n_workers == 3 and trace.k == 10
        assert trace.n_arrivals == result.n_merges
        assert len(trace.drives) == 1
        assert trace.drives[0]["budget"] == 600
        submits = [e for e in trace.events if e["type"] == "submit"]
        arrivals = [e for e in trace.events if e["type"] == "arrival"]
        assert len(submits) == len(arrivals) == result.n_merges
        assert "slice" in trace.summary()

    def test_trace_json_roundtrip(self, world, tmp_path):
        dataset, scorer = world
        _result, trace = record_run(dataset, scorer, backend="serial",
                                    budget=300)
        path = trace.save(tmp_path / "trace.json")
        loaded = ArrivalTrace.load(path)
        assert loaded == trace

    def test_bad_format_rejected(self):
        with pytest.raises(SerializationError, match="arrival-trace/1"):
            ArrivalTrace.from_dict({"format": "nope"})


class TestReplayDeterminism:
    def test_thread_trace_replays_bit_identically_twice(self, world):
        """Acceptance: record on the thread backend, replay twice — the
        two replays produce bit-identical snapshots, and both reproduce
        the recorded run's merge history and answer exactly."""
        dataset, scorer = world
        recorded, trace = record_run(dataset, scorer, backend="thread")
        trace = ArrivalTrace.from_dict(          # through JSON, like a file
            json.loads(json.dumps(trace.to_dict()))
        )
        first = replay_run(dataset, scorer, trace)
        second = replay_run(dataset, scorer, trace)
        # Replay reproduces the recorded run...
        assert first.items == recorded.items
        assert first.progressive == recorded.progressive
        assert first.total_scored == recorded.total_scored
        assert first.n_merges == recorded.n_merges
        assert first.wall_time == recorded.wall_time
        assert (first.time_to_first_result
                == recorded.time_to_first_result)
        # ...and is bit-reproducible run to run.
        assert first.items == second.items
        assert first.progressive == second.progressive
        assert first.wall_time == second.wall_time
        assert first.backend == second.backend == "replay"

    def test_replay_engine_snapshots_are_identical(self, world):
        """Full engine snapshots (coordinator + every shard) match across
        two replays of one thread-recorded trace.  The only field masked
        out is the shards' ``overhead_elapsed`` profiling stopwatch,
        which measures *real* CPU time spent and is not part of the
        replayed execution's semantic state."""
        dataset, scorer = world
        _recorded, trace = record_run(dataset, scorer, backend="thread",
                                      budget=400, n_workers=2)
        snapshots = []
        for _attempt in range(2):
            engine = replay_engine(dataset, scorer, trace)
            for drive in trace.drives:
                engine.run(budget=drive["budget"], every=drive["every"])
            payload = engine.snapshot()
            engine.close()
            for worker_payload in payload["workers"]:
                worker_payload["counters"]["overhead_elapsed"] = 0.0
            snapshots.append(json.dumps(payload, sort_keys=True))
        assert snapshots[0] == snapshots[1]

    def test_serial_trace_replays_identically(self, world):
        dataset, scorer = world
        recorded, trace = record_run(dataset, scorer, backend="serial",
                                     budget=450)
        replayed = replay_run(dataset, scorer, trace)
        assert replayed.items == recorded.items
        assert replayed.progressive == recorded.progressive

    def test_multi_drive_trace_replays(self, world):
        dataset, scorer = world
        engine = StreamingTopKEngine(dataset, scorer, k=10, n_workers=2,
                                     seed=0, slice_budget=50,
                                     backend="thread", record=True)
        engine.run(budget=200)
        recorded = engine.run(budget=500)    # cumulative second drive
        trace = engine.trace()
        engine.close()
        assert len(trace.drives) == 2
        replayed = replay_run(dataset, scorer, trace)
        assert replayed.items == recorded.items
        assert replayed.progressive == recorded.progressive

    def test_recorded_early_stop_replays(self, world):
        """The ``confidence`` stop re-fires deterministically on replay
        (the level travels in the trace header)."""
        dataset, scorer = world
        recorded, trace = record_run(dataset, scorer, backend="thread",
                                     budget=None, confidence=0.95)
        assert trace.confidence == 0.95
        assert recorded.converged
        assert recorded.total_scored < len(dataset)
        replayed = replay_run(dataset, scorer, trace)
        assert replayed.converged
        assert replayed.total_scored == recorded.total_scored
        assert replayed.items == recorded.items


class TestDivergenceDetection:
    def test_wrong_dataset_diverges_loudly(self, world):
        dataset, scorer = world
        _recorded, trace = record_run(dataset, scorer, backend="serial",
                                      budget=300)
        other = SyntheticClustersDataset.generate(n_clusters=8,
                                                  per_cluster=150, rng=3)
        with pytest.raises(ReplayDivergenceError):
            replay_run(other, scorer, trace)

    def test_wrong_worker_count_rejected(self, world):
        dataset, scorer = world
        _recorded, trace = record_run(dataset, scorer, backend="serial",
                                      budget=300)
        backend = ReplayStreamBackend(trace)
        with pytest.raises(ReplayDivergenceError, match="workers"):
            backend.start([], dataset, scorer)

    def test_truncated_trace_diverges(self, world):
        dataset, scorer = world
        _recorded, trace = record_run(dataset, scorer, backend="serial",
                                      budget=300)
        trace.events = trace.events[:3]
        with pytest.raises(ReplayDivergenceError, match="exhausted"):
            replay_run(dataset, scorer, trace)


class TestReplayCli:
    def test_demo_record_then_replay(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "demo-trace.json"
        flags = ["demo", "--clusters", "4", "--per-cluster", "50",
                 "--k", "5", "--workers", "2"]
        assert main(flags + ["--backend", "thread",
                             "--record-trace", str(path)]) == 0
        recorded_out = capsys.readouterr().out
        assert "recorded arrival trace" in recorded_out
        assert path.exists()
        assert main(flags + ["--replay-trace", str(path)]) == 0
        replay_out = capsys.readouterr().out
        assert "replaying trace of thread@2" in replay_out
        assert "backend: replay (recorded on thread)" in replay_out
        # Same merged answer, reported identically.
        recorded_line = [l for l in recorded_out.splitlines()
                         if l.startswith("top-5")][0]
        replay_line = [l for l in replay_out.splitlines()
                       if l.startswith("top-5")][0]
        assert recorded_line == replay_line
