#!/bin/sh
# CI-style check: byte-compile everything, run every doctest under
# src/repro (the targets are discovered, so a new `>>>` cannot be missed),
# run the documentation gates (executable docs examples, API-symbol
# imports, relative links), then tier-1 — with its 15 slowest tests listed,
# because dozens of tests build an index and ROADMAP wants the suite under
# 60 s.  Perf gates stay opt-in (`pytest -m perf`), matching the
# benchmarks/ pattern.
set -eu
cd "$(dirname "$0")"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src bench benchmarks examples tests tools

echo "== doctests (every module under src/repro with a >>> example) =="
python -m doctest $(grep -rl '>>> ' src/repro --include='*.py')

# SKIP_DOCS=1 skips the docs gates (used by the CI matrix job, where the
# dedicated `docs` job is the single owner of these checks).
if [ "${SKIP_DOCS:-0}" != "1" ]; then
    echo "== docs gates (README + docs/: examples run, API imports, links) =="
    python tools/check_docs.py
fi

echo "== tier-1 tests =="
python -m pytest -x -q --durations=15

echo "== shm leak check (no surviving repro-shm-* segments) =="
python tools/check_shm_leaks.py

echo "check.sh: all green"
