"""Budgets for the Python calls the simulator makes on two hot paths.

Wall time is measured by ``perfbench/`` and by nothing in tier-1: it is
too noisy for a gate.  The number of Python calls a deterministic run
makes is not noisy at all, and it is most of the simulator's host time.
Each test counts the ``"call"`` events (a generator resumed counts too)
of code under ``src/repro`` during the measured region of one bytefs
run, with tracing and the sanitizer off, and fails when the count rises
above its budget:

* :data:`CALL_BUDGET`, the bulk block write-back:
  ``Fileserver(ops_per_thread=8, seed=42)`` on perfbench's 512 MB
  geometry;
* :data:`METADATA_CALL_BUDGET`, metadata stores, commits and log
  cleaning: ``Varmail(ops_per_thread=10, seed=42)`` with a 64 KB write
  log, which it cleans four times.
"""

from __future__ import annotations

import os
import sys

import repro
from repro.analysis import fssan
from repro.bench.harness import run_workload
from repro.nand.geometry import FlashGeometry
from repro.trace import tracer as trace
from repro.workloads import Fileserver, Varmail

#: calls in the measured region, as counted under CPython 3.11
CALL_BUDGET = 82_804
#: likewise, for the Varmail run
METADATA_CALL_BUDGET = 66_153

#: perfbench's ``fileserver_bulk`` device
GEOMETRY = FlashGeometry(
    n_channels=8, ways_per_channel=1, blocks_per_way=256,
    pages_per_block=64, page_size=4096,
)

SRC = os.path.dirname(repro.__file__) + os.sep


def count_calls(workload, **kw):
    """The calls under ``src/repro`` in the measured region of a bytefs
    run of ``workload``, and the run's result."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    def probe(phase, *_stack):
        sys.setprofile(profile if phase == "measure-start" else None)

    try:
        result = run_workload("bytefs", workload, stack_probe=probe, **kw)
    finally:
        sys.setprofile(None)
    return calls, result


def check_budget(monkeypatch, budget, workload, **kw):
    monkeypatch.setattr(trace, "AUTO", False)
    monkeypatch.setattr(fssan, "ENABLED", False)
    calls, result = count_calls(workload, **kw)
    assert calls <= budget, (
        f"the measured region of {workload.name} made {calls} Python "
        f"calls under src/repro, over its budget of {budget}.  If a "
        f"change adds calls on purpose, raise the budget in {__name__} "
        f"to the new count and say why in CHANGES.md"
    )
    return result.counters


def test_bulk_writeback_stays_within_its_call_budget(monkeypatch):
    counters = check_budget(
        monkeypatch, CALL_BUDGET, Fileserver(ops_per_thread=8, seed=42),
        geometry=GEOMETRY,
    )
    assert counters["block_writebacks"] > 2000


def test_metadata_updates_stay_within_their_call_budget(monkeypatch):
    counters = check_budget(
        monkeypatch, METADATA_CALL_BUDGET,
        Varmail(ops_per_thread=10, seed=42), log_bytes=64 << 10,
    )
    assert counters["fw_log_appends"] > 1000
    assert counters["fw_commits"] > 300
    assert counters["fw_log_cleanings"] >= 2
