"""Tests for repro.utils: rng, timers, validation, statistics."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.rng import RngFactory, as_generator
from repro.utils.stats import RunningMeanVar, summarize
from repro.utils.timer import Stopwatch, VirtualClock
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
)


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        assert as_generator(3).integers(1000) == as_generator(3).integers(1000)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestRngFactory:
    def test_same_name_same_stream_across_factories(self):
        a = RngFactory(11).named("kmeans").integers(10**9)
        b = RngFactory(11).named("kmeans").integers(10**9)
        assert a == b

    def test_different_names_differ(self):
        factory = RngFactory(11)
        seq_a = factory.named("alpha").integers(10**9, size=8)
        seq_b = factory.named("beta").integers(10**9, size=8)
        assert not np.array_equal(seq_a, seq_b)

    def test_repeated_name_returns_same_object(self):
        factory = RngFactory(1)
        assert factory.named("x") is factory.named("x")

    def test_spawn_streams_differ(self):
        factory = RngFactory(5)
        a = factory.spawn().integers(10**9, size=4)
        b = factory.spawn().integers(10**9, size=4)
        assert not np.array_equal(a, b)

    def test_order_independence_of_names(self):
        f1 = RngFactory(9)
        f1.named("first")
        x1 = f1.named("second").integers(10**9)
        f2 = RngFactory(9)
        x2 = f2.named("second").integers(10**9)
        assert x1 == x2

    def test_generator_seed_accepted(self):
        factory = RngFactory(np.random.default_rng(0))
        assert isinstance(factory.named("a"), np.random.Generator)


@pytest.mark.xfail(strict=True, reason=(
    "RngFactory.named keys a stream by the first eight bytes of its name "
    "only.  Both frozen goldens were recorded over exactly these streams, "
    "so the fix changes every seeded run: it needs regenerated goldens and "
    "an stk_ratio / udf_calls_per_op A/B of its own (ROADMAP item 4)."))
@pytest.mark.parametrize("one, other", [
    ("arm:leaf-1", "arm:leaf-22"),      # every leaf arm shuffles alike
    ("engine:1", "engine:10"),          # shards >= 10 reuse shard 1's seed
    ("index:10", "index:100"),
    ("resume:0:0", "resume:0:1"),       # the resume count never counts
])
def test_named_streams_differ_beyond_eight_bytes(one, other):
    draws = [RngFactory(7).named(name).integers(10**9, size=8)
             for name in (one, other)]
    assert not np.array_equal(*draws)


class TestStopwatch:
    def test_accumulates_elapsed(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.002)
        first = sw.elapsed
        assert first > 0.0
        with sw:
            time.sleep(0.002)
        assert sw.elapsed > first

    def test_reset(self):
        sw = Stopwatch()
        with sw:
            pass
        sw.reset()
        assert sw.elapsed == 0.0


class TestVirtualClock:
    def test_charge_advances(self):
        clock = VirtualClock()
        clock.charge(1.5)
        clock.charge(0.25)
        assert clock.now == pytest.approx(1.75)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().charge(-0.1)

    def test_reset(self):
        clock = VirtualClock()
        clock.charge(2.0)
        clock.reset()
        assert clock.now == 0.0


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive(0.5, "x") == 0.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            check_positive(0.0, "x")

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_check_non_negative_rejects(self):
        with pytest.raises(ConfigurationError):
            check_non_negative(-1e-9, "x")

    def test_check_positive_int_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "x")

    def test_check_positive_int_rejects_float(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(2.0, "x")

    def test_check_positive_int_accepts(self):
        assert check_positive_int(7, "x") == 7

    def test_check_fraction_bounds(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0
        with pytest.raises(ConfigurationError):
            check_fraction(1.1, "x")
        with pytest.raises(ConfigurationError):
            check_fraction(0.0, "x", inclusive_low=False)


class TestRunningMeanVar:
    def test_matches_numpy(self, rng):
        values = rng.normal(3.0, 2.0, size=200)
        acc = RunningMeanVar()
        acc.add_many(values)
        assert acc.mean == pytest.approx(values.mean())
        assert acc.variance == pytest.approx(values.var(ddof=1))
        assert acc.std == pytest.approx(values.std(ddof=1))

    def test_empty_defaults(self):
        acc = RunningMeanVar()
        assert acc.mean == 0.0
        assert acc.variance == 0.0

    def test_single_sample_variance_zero(self):
        acc = RunningMeanVar()
        acc.add(5.0)
        assert acc.variance == 0.0
        assert acc.mean == 5.0


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.median == pytest.approx(2.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_single_value_std_zero(self):
        assert summarize([3.0]).std == 0.0
