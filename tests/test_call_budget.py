"""Budgets for the Python calls the simulator makes on four hot paths.

Wall time is measured by ``perfbench/`` and by nothing in tier-1: it is
too noisy for a gate.  The number of Python calls a deterministic run
makes is not noisy at all, and it is most of the simulator's host time.
Each test counts the ``"call"`` events (a generator resumed counts too)
of code under ``src/repro`` during the measured region of one run,
with tracing and the sanitizer off, and fails when the count rises
above its budget:

* :data:`CALL_BUDGET`, the bulk block write-back:
  ``Fileserver(ops_per_thread=8, seed=42)`` on perfbench's 512 MB
  geometry;
* :data:`METADATA_CALL_BUDGET`, metadata stores, commits and log
  cleaning: ``Varmail(ops_per_thread=10, seed=42)`` with a 64 KB write
  log, which it cleans four times;
* :data:`EXT4_CALL_BUDGET`, the Ext4 ``pwrite`` + ``fsync`` path (JBD2
  commits on the baseline firmware, FTL GC with migrations):
  ``OLTP(ops_per_thread=120, seed=42)`` on perfbench's 32 MB geometry;
* :data:`SERVE_CALL_BUDGET`, the multi-tenant request (the serve
  kernel's decision, admission, dispatch and billing, and the tenants'
  whole-page overwrites of cached pages): the drain of
  ``serve_cluster(default_tenants(32, 100), n_devices=4, sched="drr",
  fs_name="bytefs", seed=42)``, in this process.

The first two and the fourth run bytefs, the third ext4.
"""

from __future__ import annotations

import os
import sys

import repro
from repro.analysis import fssan
from repro.bench.harness import run_workload
from repro.cluster import default_tenants, serve_cluster, worker
from repro.nand.geometry import FlashGeometry
from repro.trace import tracer as trace
from repro.workloads import OLTP, Fileserver, Varmail

#: calls in the measured region, as counted under CPython 3.11
CALL_BUDGET = 80_896
#: likewise, for the Varmail run
METADATA_CALL_BUDGET = 58_994
#: likewise, for the ext4 OLTP run
EXT4_CALL_BUDGET = 559_148
#: likewise, for the drains of the serve run
SERVE_CALL_BUDGET = 327_105

#: perfbench's ``fileserver_bulk`` device
GEOMETRY = FlashGeometry(
    n_channels=8, ways_per_channel=1, blocks_per_way=256,
    pages_per_block=64, page_size=4096,
)
#: perfbench's ``oltp_gc`` device (32 MB: OLTP wraps it, GC runs)
SMALL_GEOMETRY = FlashGeometry(
    n_channels=4, ways_per_channel=1, blocks_per_way=32,
    pages_per_block=64, page_size=4096,
)

SRC = os.path.dirname(repro.__file__) + os.sep


def call_counter():
    """A profile function counting calls under ``src/repro``, and a
    reader of its count."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    return profile, lambda: calls


def count_calls(fs_name, workload, **kw):
    """The calls under ``src/repro`` in the measured region of an
    ``fs_name`` run of ``workload``, and the run's result."""
    profile, calls = call_counter()

    def probe(phase, *_stack):
        sys.setprofile(profile if phase == "measure-start" else None)

    try:
        result = run_workload(fs_name, workload, stack_probe=probe, **kw)
    finally:
        sys.setprofile(None)
    return calls(), result


def check_budget(monkeypatch, budget, workload, fs_name="bytefs", **kw):
    monkeypatch.setattr(trace, "AUTO", False)
    monkeypatch.setattr(fssan, "ENABLED", False)
    calls, result = count_calls(fs_name, workload, **kw)
    assert calls <= budget, (
        f"the measured region of {fs_name} {workload.name} made {calls} "
        f"Python calls under src/repro, over its budget of {budget}.  If a "
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


def test_ext4_fsync_stays_within_its_call_budget(monkeypatch):
    counters = check_budget(
        monkeypatch, EXT4_CALL_BUDGET, OLTP(ops_per_thread=120, seed=42),
        fs_name="ext4", geometry=SMALL_GEOMETRY,
    )
    assert counters["gc_runs"] == 214
    assert counters["gc_page_migrations"] == 424


def test_serve_drain_stays_within_its_call_budget(monkeypatch):
    monkeypatch.setattr(trace, "AUTO", False)
    monkeypatch.setattr(fssan, "ENABLED", False)
    profile, calls = call_counter()
    drain = worker.run_device_drain

    def counted_drain(*args, **kw):
        sys.setprofile(profile)
        try:
            return drain(*args, **kw)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(worker, "run_device_drain", counted_drain)
    result = serve_cluster(
        default_tenants(32, 100), n_devices=4, sched="drr",
        fs_name="bytefs", seed=42,
    )
    assert calls() <= SERVE_CALL_BUDGET, (
        f"the drains of a 32-tenant, 4-device serve run made {calls()} "
        f"Python calls under src/repro, over their budget of "
        f"{SERVE_CALL_BUDGET}.  If a change adds calls on purpose, raise "
        f"the budget in {__name__} to the new count and say why in "
        f"CHANGES.md"
    )
    assert result.ops > 2000
    assert sum(t.rejected for t in result.tenants) > 0
