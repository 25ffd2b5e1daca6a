"""The source-tree fingerprint that keys every stored result.

A result is only reusable by the code that produced it, so editing any
source file the simulator runs, the C event kernel included, must change
the digest.
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.perf.fingerprint import code_fingerprint


@pytest.fixture
def tree_copy(tmp_path, monkeypatch):
    """A private copy of the ``repro`` tree that the fingerprint reads."""
    root = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).resolve().parent, root,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    monkeypatch.setattr(repro, "__file__", str(root / "__init__.py"))
    code_fingerprint.cache_clear()
    yield root
    code_fingerprint.cache_clear()


@pytest.mark.parametrize("source", ["sim/_ckernel.c", "sim/engine.py"])
def test_editing_a_source_file_changes_the_digest(tree_copy, source):
    before = code_fingerprint()
    with open(tree_copy / source, "a") as fh:
        fh.write("\n/* edited */\n" if source.endswith(".c") else "\n# edited\n")
    code_fingerprint.cache_clear()
    assert code_fingerprint() != before
