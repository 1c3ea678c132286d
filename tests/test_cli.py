"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestInfo:
    def test_prints_inventory(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "repro.core" in out
        assert "benchmarks" in out


class TestDemo:
    def test_runs_small_demo(self, capsys):
        code = main(["demo", "--clusters", "4", "--per-cluster", "50",
                     "--k", "5", "--budget-fraction", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "STK fraction of optimal" in out
        assert "Precision@5" in out

    def test_seed_changes_nothing_structural(self, capsys):
        assert main(["demo", "--clusters", "3", "--per-cluster", "30",
                     "--k", "3", "--seed", "9"]) == 0


class TestQuery:
    def test_executes_query(self, capsys):
        code = main([
            "query",
            "SELECT TOP 5 FROM demo ORDER BY relu BUDGET 30% SEED 1",
            "--rows", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "top-5" in out

    def test_bad_query_is_clean_error(self, capsys):
        code = main(["query", "SELECT * FROM demo", "--rows", "500"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_unknown_udf_is_clean_error(self, capsys):
        code = main(["query",
                     "SELECT TOP 3 FROM demo ORDER BY nope",
                     "--rows", "500"])
        assert code == 1


class TestParallelFlags:
    def test_info_lists_backends(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "\nbackends:" in out
        assert "serial" in out and "thread" in out and "process" in out
        assert "repro.parallel" in out

    def test_demo_with_workers(self, capsys):
        code = main(["demo", "--clusters", "4", "--per-cluster", "50",
                     "--k", "5", "--workers", "2", "--backend", "serial"])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend: serial, 2 workers" in out
        assert "STK fraction of optimal" in out

    def test_query_with_workers_clause(self, capsys):
        code = main([
            "query",
            "SELECT TOP 5 FROM demo ORDER BY relu BUDGET 30% SEED 1 "
            "WORKERS 2",
            "--rows", "1000",
        ])
        assert code == 0
        assert "2 workers" in capsys.readouterr().out

    def test_query_workers_flag_default(self, capsys):
        code = main([
            "query",
            "SELECT TOP 5 FROM demo ORDER BY relu BUDGET 30% SEED 1",
            "--rows", "1000", "--workers", "2",
        ])
        assert code == 0
        assert "2 workers" in capsys.readouterr().out

    def test_query_bad_backend_is_clean_error(self, capsys):
        code = main([
            "query",
            "SELECT TOP 5 FROM demo ORDER BY relu WORKERS 2 BACKEND gpu",
            "--rows", "500",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestStreamingFlags:
    def test_info_lists_one_registry_for_both_engines(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert out.count("backends:") == 1   # no streaming twin
        assert "streaming (STREAM)" in out and "'replay'" in out
        assert "repro.streaming" in out

    def test_backend_choices_are_introspected(self, capsys):
        """--backend rejects names missing from the shared registry at the
        argparse layer (no hard-coded list to drift)."""
        with pytest.raises(SystemExit):
            main(["demo", "--workers", "2", "--backend", "gpu"])
        err = capsys.readouterr().err
        assert "serial" in err and "thread" in err and "process" in err

    def test_demo_stream_prints_progressive(self, capsys):
        code = main(["demo", "--clusters", "4", "--per-cluster", "50",
                     "--k", "5", "--workers", "2", "--stream"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scored" in out and "[converged]" in out
        assert "first result after" in out
        assert "STK fraction of optimal" in out

    def test_query_stream_clause_streams(self, capsys):
        code = main([
            "query",
            "SELECT TOP 5 FROM demo ORDER BY relu BUDGET 200 SEED 1 "
            "WORKERS 2 STREAM EVERY 100",
            "--rows", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[converged]" in out
        assert out.count("scored") >= 2  # live progressive lines

    def test_query_every_flag_implies_stream(self, capsys):
        code = main([
            "query",
            "SELECT TOP 5 FROM demo ORDER BY relu BUDGET 200 SEED 1",
            "--rows", "1000", "--workers", "2", "--every", "100",
        ])
        assert code == 0
        assert "[converged]" in capsys.readouterr().out

    def test_query_confidence_clause_streams(self, capsys):
        code = main([
            "query",
            "SELECT TOP 5 FROM demo ORDER BY relu SEED 1 WORKERS 2 "
            "STREAM CONFIDENCE 0.95",
            "--rows", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[converged]" in out
        assert "bound<=" in out

    def test_query_confidence_flag_implies_stream(self, capsys):
        code = main([
            "query",
            "SELECT TOP 5 FROM demo ORDER BY relu SEED 1",
            "--rows", "1000", "--workers", "2", "--confidence", "0.95",
        ])
        assert code == 0
        assert "[converged]" in capsys.readouterr().out

    def test_demo_confidence_stops_early(self, capsys):
        code = main(["demo", "--clusters", "4", "--per-cluster", "100",
                     "--k", "5", "--workers", "2", "--budget-fraction",
                     "1.0", "--confidence", "0.95"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[converged]" in out
        # The confidence stop quits before scoring the whole table.
        assert "(100%)" not in out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
