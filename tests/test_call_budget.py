"""A budget for the Python calls the simulator makes on the bulk
write-back path.

Wall time is measured by ``perfbench/`` and by nothing in tier-1: it is
too noisy for a gate.  The number of Python calls a deterministic run
makes is not noisy at all, and on ``fileserver_bulk`` it is most of the
simulator's host time.  This test counts the ``"call"`` events (a
generator resumed counts too) of code under ``src/repro`` during the
measured region of ``Fileserver(ops_per_thread=8, seed=42)`` on
perfbench's 512 MB geometry, with tracing and the sanitizer off, and
fails when the count rises above :data:`CALL_BUDGET`.
"""

from __future__ import annotations

import os
import sys

import repro
from repro.analysis import fssan
from repro.bench.harness import run_workload
from repro.nand.geometry import FlashGeometry
from repro.trace import tracer as trace
from repro.workloads import Fileserver

#: calls in the measured region, as counted under CPython 3.11
CALL_BUDGET = 92_991

#: perfbench's ``fileserver_bulk`` device
GEOMETRY = FlashGeometry(
    n_channels=8, ways_per_channel=1, blocks_per_way=256,
    pages_per_block=64, page_size=4096,
)

SRC = os.path.dirname(repro.__file__) + os.sep


def count_calls() -> int:
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    def probe(phase, *_stack):
        sys.setprofile(profile if phase == "measure-start" else None)

    try:
        result = run_workload(
            "bytefs", Fileserver(ops_per_thread=8, seed=42),
            geometry=GEOMETRY, stack_probe=probe,
        )
    finally:
        sys.setprofile(None)
    assert result.counters["block_writebacks"] > 2000
    return calls


def test_bulk_writeback_stays_within_its_call_budget(monkeypatch):
    monkeypatch.setattr(trace, "AUTO", False)
    monkeypatch.setattr(fssan, "ENABLED", False)
    calls = count_calls()
    assert calls <= CALL_BUDGET, (
        f"the measured region of Fileserver(ops_per_thread=8, seed=42) "
        f"made {calls} Python calls under src/repro, over the budget of "
        f"{CALL_BUDGET}.  If a change adds calls on purpose, raise "
        f"CALL_BUDGET in {__name__} to the new count and say why in "
        f"CHANGES.md"
    )
