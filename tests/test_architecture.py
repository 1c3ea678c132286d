"""Module boundaries that the code must keep, checked on the source text.

One boundary so far: the layout of the bandit's state — nodes, arms, parent
links, the leaf registry, who writes ``remaining`` — is known to
``repro/core/hierarchical.py`` alone.  Everything else goes through the
policy's door (``select`` / ``update`` / ``state`` / ``load_state`` /
``live_leaves``), which is what lets the layout change (struct-of-arrays,
per-leaf state as data) without a seven-module edit.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro
import repro.core

SRC = Path(repro.__file__).parent

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
}


def test_bandit_layout_is_private_to_the_policy_module():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        text = path.read_text()
        for pattern, owners in LAYOUT_NAMES.items():
            if module not in owners and re.search(pattern, text):
                offenders.append(f"{module}: {pattern}")
    assert not offenders, offenders


def test_layout_classes_are_not_exported():
    for package in (repro, repro.core):
        assert "BanditNode" not in package.__all__
        assert "EpsilonGreedyBandit" not in package.__all__
        assert not hasattr(package, "EpsilonGreedyBandit")
