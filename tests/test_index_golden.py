"""Cross-commit pin of the index build, frozen before the cache-blocked
Lloyd sweeps.

``tests/data/golden_index_builds.json`` was generated by running
``PYTHONPATH=src python -m tests.test_index_golden --regenerate`` (from
the repository root) at commit 2b75723 — the
last commit where every Lloyd sweep (and every ``predict``) evaluated one
whole ``(n, L)`` distance matrix, took each centroid over a boolean mask
of the labels and ``build_index`` grouped ids in a per-row Python loop —
so it freezes what the row-blocked assignment, the stable-sort centroid
update and the sorted id grouping must keep reproducing byte for byte.
Do NOT regenerate it from current code when a row fails: that erases
exactly the signal the fixture exists to provide.  A failure on a machine
where the parent commit passes means that machine's BLAS does not compute
each row of a GEMM independently of how many rows are in the call, and no
golden file of this repository will reproduce there.

Each case is one seeded table chosen to cross an edge of the block loop
(``BLOCK_ROWS`` = 2048 rows, decided before the freeze): row counts below,
equal to, one past, two blocks and one row, and far past a non-multiple
of the block; ``d`` in {1, 3, 8, 64}; ``L`` in {1, 7, 32, 64}; ``n = L``;
a table of four distinct rows repeated fifty times each (the empty-cluster
repair runs every sweep); one structureless blob (dozens of sweeps, labels moving in each);
a ``subsample`` build (the ``predict`` path over all rows); ``flat=True``.  Per case the row records, for a bare
``KMeans.fit``, the SHA-256 of ``centroids_.tobytes()`` and of
``labels_.tobytes()``, ``float.hex(inertia_)`` and ``n_iter_``; and for
``build_index`` the SHA-256 of ``json.dumps(to_dict())``, the leaf count and the next
draw of the generator it was given (the RNG stream it consumed).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.index.builder import IndexConfig, build_index
from repro.index.kmeans import KMeans

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_index_builds.json"

BLOCK_ROWS = 2048

#: name -> (n, d, L, IndexConfig overrides)
CASES: Dict[str, Tuple[int, int, int, dict]] = {
    "below-a-block": (BLOCK_ROWS - 1, 8, 7, {}),
    "exactly-a-block": (BLOCK_ROWS, 8, 32, {}),
    "one-past-a-block": (BLOCK_ROWS + 1, 1, 7, {}),
    "two-blocks-and-a-row": (2 * BLOCK_ROWS + 1, 3, 7, {}),
    "far-past": (12_345, 8, 32, {"max_kmeans_iter": 12}),
    "one-blob": (6_000, 8, 32, {}),
    "wide": (5_000, 64, 64, {"max_kmeans_iter": 8}),
    "single-cluster": (3_000, 8, 1, {}),
    "n-equals-L": (64, 8, 64, {}),
    "repeated-rows": (200, 3, 7, {}),
    "subsample": (12_345, 8, 32, {"subsample": 3_000}),
    "flat": (2 * BLOCK_ROWS + 1, 8, 7, {"flat": True}),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table(name: str) -> np.ndarray:
    """The case's seeded feature rows: a Gaussian mixture, or repeats."""
    n, dim, n_clusters, _ = CASES[name]
    rng = np.random.default_rng([2020, sorted(CASES).index(name)])
    if name == "repeated-rows":
        return np.repeat(rng.normal(size=(4, dim)), n // 4, axis=0)
    if name == "one-blob":  # no structure to find: many slow sweeps
        return rng.normal(size=(n, dim))
    centres = rng.normal(scale=6.0, size=(max(n_clusters, 3), dim))
    return centres[rng.integers(len(centres), size=n)] + rng.normal(
        size=(n, dim))


def run_case(name: str) -> dict:
    n, _, n_clusters, overrides = CASES[name]
    features = table(name)
    config = IndexConfig(n_clusters=n_clusters, **overrides)
    model = KMeans(n_clusters, max_iter=config.max_kmeans_iter, rng=7)
    model.fit(features)
    generator = np.random.default_rng(11)
    tree = build_index(features, [f"e{row}" for row in range(n)], config,
                       rng=generator)
    return {
        "centroids": sha(model.centroids_.tobytes()),
        "labels": sha(model.labels_.tobytes()),
        "labels_dtype": str(model.labels_.dtype),
        "inertia": float(model.inertia_).hex(),
        "n_iter": model.n_iter_,
        "tree": sha(json.dumps(tree.to_dict()).encode()),
        "n_leaves": tree.n_leaves(),
        "next_draw": int(generator.integers(1 << 62)),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def test_cases_are_the_frozen_ones(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_reproduces_the_parent_bytes(name, golden):
    got = run_case(name)
    assert got == golden[name], (
        f"{name}: the index build no longer reproduces commit 2b75723's "
        "bytes.  If the parent commit passes on this machine the change "
        "moved a float or a member; if it fails there too, this BLAS's "
        "GEMM is not row-block invariant and no golden file reproduces.")


def test_cases_cover_the_interesting_paths(golden):
    """The fixture is only meaningful if it exercises what it names."""
    rows_of = {name: case[0] for name, case in CASES.items()}
    assert {rows_of[name] - BLOCK_ROWS for name in
            ("below-a-block", "exactly-a-block", "one-past-a-block")
            } == {-1, 0, 1}
    assert rows_of["far-past"] % BLOCK_ROWS not in (0, 1)
    # One run stops on the tolerance, another on the sweep cap.
    assert golden["below-a-block"]["n_iter"] < 50
    assert golden["far-past"]["n_iter"] == 12
    assert golden["one-blob"]["n_iter"] >= 30
    # Duplicate seeds leave clusters empty: the repair re-seeds them every
    # sweep and the final assignment still drops them from the tree.
    assert golden["repeated-rows"]["n_leaves"] == 4
    assert golden["single-cluster"]["n_leaves"] == 1
    assert golden["n-equals-L"]["n_leaves"] == 64
    # The subsample build drew its rows from the generator first.
    assert golden["subsample"]["next_draw"] != golden["far-past"]["next_draw"]
    assert all(row["labels_dtype"] == "int64" for row in golden.values())


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    cases = {name: run_case(name) for name in CASES}
    GOLDEN_PATH.write_text(
        json.dumps({"format": "golden-index-builds/1", "cases": cases},
                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(cases)} cases)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
