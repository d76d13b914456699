"""Every (fs, figure workload) run document and both cluster documents,
byte for byte, and a same-seed double run in one process.

The documents are the ``run/*`` and ``cluster/*`` rows of
tests/test_pins.py (one table, one ``pins.json``, rewritten only by
``--update-golden`` for a deliberate model change).  Only a double run
in one process catches state that leaks from one run into the next (a
module-level cache, a class attribute, an unseeded generator).
"""

from __future__ import annotations

import pytest

from tests.conftest import ALL_FS
from tests.test_pins import FIGURE_WORKLOADS, check, figure_doc, rows

PAIRS = [(fs, wl) for fs in ALL_FS for wl in sorted(FIGURE_WORKLOADS)]


@pytest.mark.parametrize(
    "fs,wl", PAIRS, ids=[f"{fs}-{wl}" for fs, wl in PAIRS]
)
def test_run_result_byte_identical(pytestconfig, fs, wl):
    check(pytestconfig, f"run/{fs}/{wl}")


@pytest.mark.parametrize("name", rows("cluster/"))
def test_cluster_run_byte_identical(pytestconfig, name):
    check(pytestconfig, f"cluster/{name}")


@pytest.mark.parametrize("fs", ALL_FS)
def test_same_seed_double_run_identical(fs):
    assert figure_doc(fs, "varmail") == figure_doc(fs, "varmail")
