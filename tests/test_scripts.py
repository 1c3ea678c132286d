"""Every script under ``examples/``, ``benchmarks/`` and ``tools/`` imports.

No tier-1 job runs the paper-figure scripts and ``compileall`` does not
resolve imports, so without this a library name a script imports could be
deleted unnoticed.  Importing runs no script: each keeps its work under a
``__main__`` guard or in pytest functions.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    path for directory in ("examples", "benchmarks", "tools")
    for path in (REPO / directory).glob("*.py")
)


def load(path, monkeypatch):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # ``@dataclass`` looks its module up in sys.modules while decorating.
    monkeypatch.setitem(sys.modules, path.stem, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_script_imports(path, monkeypatch):
    # Benchmarks import ``conftest`` as a top-level module, the way pytest
    # and ``python benchmarks/x.py`` see it.
    monkeypatch.syspath_prepend(str(path.parent))
    if path.parent.name == "benchmarks" and path.stem != "conftest":
        load(path.parent / "conftest.py", monkeypatch)
    load(path, monkeypatch)
