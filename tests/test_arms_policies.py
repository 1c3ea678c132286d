"""Tests for arm sampling and exploration schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arms import ArmState
from repro.core.policies import (
    ConstantEpsilon,
    FrontLoadedExploration,
    PolynomialDecay,
)
from repro.errors import ConfigurationError, ExhaustedError


class TestArmState:
    def test_draw_without_replacement_is_a_permutation(self):
        members = [f"e{i}" for i in range(50)]
        arm = ArmState("arm", members, rng=0)
        drawn = [arm.names[arm.draw()] for _ in range(50)]
        assert sorted(drawn) == sorted(members)
        assert arm.is_empty

    def test_draw_from_empty_raises(self):
        arm = ArmState("arm", [], rng=0)
        with pytest.raises(ExhaustedError):
            arm.draw()

    def test_draw_batch_short_when_exhausting(self):
        arm = ArmState("arm", ["a", "b", "c"], rng=0)
        batch = [arm.names[slot] for slot in arm.draw_batch(10)]
        assert sorted(batch) == ["a", "b", "c"]
        assert arm.draw_batch(5) == []

    def test_remaining_counts_down(self):
        arm = ArmState("arm", ["a", "b", "c"], rng=0)
        assert arm.remaining == 3
        arm.draw()
        assert arm.remaining == 2
        assert arm.n_drawn == 1

    def test_seeded_order_is_deterministic(self):
        order1 = [ArmState("a", list("abcdef"), rng=5).draw() for _ in range(1)]
        order2 = [ArmState("a", list("abcdef"), rng=5).draw() for _ in range(1)]
        assert order1 == order2

    def test_draw_is_roughly_uniform(self):
        # First draw over 4 members should hit each about n/4 times.
        counts = {m: 0 for m in "abcd"}
        for seed in range(400):
            arm = ArmState("a", list("abcd"), rng=seed)
            counts[arm.names[arm.draw()]] += 1
        for member, count in counts.items():
            assert 50 < count < 150, (member, count)

    def test_peek_members_readonly_view(self):
        arm = ArmState("a", ["x", "y"], rng=0)
        view = arm.peek_members()
        assert sorted(view) == ["x", "y"]
        assert isinstance(view, tuple)


class TestPolynomialDecay:
    def test_paper_schedule_values(self):
        sched = PolynomialDecay()
        assert sched.rate(1) == 1.0
        assert sched.rate(8) == pytest.approx(0.5)
        assert sched.rate(1000) == pytest.approx(0.1)

    def test_capped_at_one(self):
        assert PolynomialDecay().rate(0) == 1.0

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            PolynomialDecay(exponent=0.5)

    def test_effective_rate_divides_by_batch(self):
        sched = PolynomialDecay()
        # t=800, batch=100 -> effective t=8 -> rate 0.5.
        assert sched.effective_rate(800, 100) == pytest.approx(0.5)

    def test_effective_rate_floors_at_one(self):
        sched = PolynomialDecay()
        assert sched.effective_rate(3, 100) == 1.0


class TestConstantEpsilon:
    def test_constant(self):
        sched = ConstantEpsilon(0.2)
        assert sched.rate(1) == 0.2
        assert sched.rate(10**6) == 0.2

    def test_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            ConstantEpsilon(1.5)


class TestFrontLoaded:
    def test_cutoff_scaling(self):
        sched = FrontLoadedExploration(budget=1000)
        assert sched.cutoff == round(1000 ** (2 / 3))
        assert sched.rate(1) == 1.0
        assert sched.rate(sched.cutoff) == 1.0
        assert sched.rate(sched.cutoff + 1) == 0.0

    def test_c_multiplier(self):
        base = FrontLoadedExploration(budget=1000, c=1.0).cutoff
        double = FrontLoadedExploration(budget=1000, c=2.0).cutoff
        assert double == 2 * base

    def test_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            FrontLoadedExploration(budget=0)
