"""The paper's tables, gated: each regenerated table equals its committed
``benchmarks/results/<name>.txt`` byte for byte.

Every table function in :mod:`benchmarks.paper` also asserts the
paper's shapes on its numbers, so a change that breaks a shape fails
here, and a change that only moves a number fails with the diff a
reviewer reads.  A deliberate performance-model change rewrites the
committed tables with::

    PYTHONPATH=src python -m pytest tests/test_paper_shapes.py \\
        --update-golden
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from benchmarks import paper

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def test_every_committed_table_has_a_function():
    assert sorted(p.stem for p in RESULTS.glob("*.txt")) == sorted(paper.TABLES)


@pytest.mark.parametrize("name", list(paper.TABLES))
def test_table_matches_committed(name, request):
    text = paper.TABLES[name]() + "\n"
    path = RESULTS / f"{name}.txt"
    if request.config.getoption("--update-golden"):
        path.write_text(text, encoding="utf-8")
    committed = path.read_text(encoding="utf-8")
    diff = "".join(difflib.unified_diff(
        committed.splitlines(keepends=True), text.splitlines(keepends=True),
        f"committed {path.relative_to(RESULTS.parent.parent)}", "regenerated",
    ))
    assert text == committed, f"{path.name} drifted:\n{diff}"
