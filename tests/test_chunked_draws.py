"""An arm over chunked members draws exactly what it draws over the tuple.

A maintained live leaf is published as a
:class:`~repro.index.tree.ChunkedMembers` (chunk tuples, some of them
shared with the previous tree), and :class:`~repro.core.arms.ArmState`
reads it in place: a batch resolves its picks with one vectorised
``gather`` and its tails chunk by chunk.  Here two arms with one seed,
one over the flat tuple and one over a random chunking of it, are driven
side by side through ``draw`` and ``draw_batch`` at ``BATCH`` 1, 8 and
64: every draw must return the same ids, leave the same undrawn members
in the same order (``peek_members``) and the generator in the same
state.  The chunkings mix one-element chunks, full ones and empty chunks
(what deletes leave of a chunk before it is dropped).  Each case runs
twice: with the arm switching to the leaf's flat tuple once it has drawn
``FLATTEN_AFTER`` of it, and reading chunks to the last draw.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.arms as arms
from repro.core.arms import ArmState
from repro.errors import ExhaustedError
from repro.index.tree import ChunkedMembers


def chunking(members: tuple, rng: np.random.Generator) -> ChunkedMembers:
    """A random cut of ``members``, with single and empty chunks."""
    chunks, at = [], 0
    while at < len(members):
        roll = rng.random()
        if roll < 0.15:
            size = 0
        elif roll < 0.4:
            size = 1
        else:
            size = int(rng.integers(2, 40))
        chunks.append(members[at:at + size])
        at += size
    if rng.random() < 0.5:
        chunks.insert(int(rng.integers(0, len(chunks) + 1)), ())
    return ChunkedMembers(tuple(chunks))


def assert_same(flat: ArmState, chunked: ArmState) -> None:
    assert chunked.peek_members() == flat.peek_members()
    assert len(chunked) == len(flat) and chunked.n_drawn == flat.n_drawn
    assert (chunked._rng.bit_generator.state
            == flat._rng.bit_generator.state)


@pytest.fixture(params=["switching", "chunks-only"])
def flatten_after(request, monkeypatch):
    if request.param == "chunks-only":
        monkeypatch.setattr(arms, "FLATTEN_AFTER", 2.0)
    return arms.FLATTEN_AFTER


@pytest.mark.parametrize("batch", [1, 8, 64])
@pytest.mark.parametrize("seed", range(12))
def test_chunked_arm_draws_in_lockstep_with_the_tuple(batch, seed,
                                                      flatten_after):
    rng = np.random.default_rng([77, seed, batch])
    members = tuple(f"m{i:04d}" for i in range(int(rng.integers(1, 400))))
    source = chunking(members, rng)
    assert tuple(source) == members
    flat = ArmState("leaf", members, rng=seed)
    chunked = ArmState("leaf", source, rng=seed)
    assert chunked.member_ids is source            # read in place
    assert_same(flat, chunked)
    while flat.remaining:
        if batch == 1 or rng.random() < 0.1:
            assert chunked.draw() == flat.draw()
        else:
            size = int(rng.integers(1, batch + 1))
            assert chunked.draw_batch(size) == flat.draw_batch(size)
        assert_same(flat, chunked)
        if chunked.n_drawn < flatten_after * len(members):
            assert chunked._source is source
    # Switched (or never): to the leaf's one flat tuple, kept for others.
    if chunked._source is not source:
        assert chunked._source is source.flat()
        assert ArmState("again", source)._source is source.flat()
    assert chunked.is_empty
    with pytest.raises(ExhaustedError):
        chunked.draw()
    assert chunked.draw_batch(batch) == []


def test_a_reset_arm_draws_from_its_new_members():
    """Restoring a snapshot resets an arm onto a plain list of ids."""
    members = tuple(f"m{i}" for i in range(50))
    source = ChunkedMembers((members[:7], (), members[7:8], members[8:]))
    flat = ArmState("leaf", members, rng=3)
    chunked = ArmState("leaf", source, rng=3)
    for arm in (flat, chunked):
        arm.draw_batch(9)
        arm.reset(list(arm.peek_members())[::2])
    assert_same(flat, chunked)
    assert chunked.draw_batch(8) == flat.draw_batch(8)
    assert_same(flat, chunked)
