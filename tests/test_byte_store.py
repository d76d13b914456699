"""The ByteFS firmware's byte store: one frame, one append routine.

``ByteFSFirmware.byte_write`` tests the space rule and charges the
firmware core inline, and appends through ``_append`` directly when no
injector is armed or as the apply-callback of the ``fw.log_append``
crash site when one is; ``MSSD.store`` and ``MSSD.commit`` likewise
skip their crash sites with no injector.  These tests hold the two ways
into each to the same crash-site, torn-append and run behaviour; a run
that cleans the log many times (a 32 KB log) is the
``byte-store/log-cleaning`` row of tests/test_pins.py.
"""

from __future__ import annotations

import re

import pytest

from repro.bench import harness
from repro.core.bytefs import build_stack
from repro.faults.injector import CrashPoint, FaultInjector, FaultPlan
from repro.sim.clock import VirtualClock
from repro.ssd.device import MSSD, MSSDConfig
from repro.stats.traffic import StructKind, TrafficStats
from repro.workloads import Varmail
from tests.conftest import SMALL_GEOMETRY
from tests.test_pins import check, counting_run


def test_log_cleaning_at_volume_matches_parent_golden(pytestconfig):
    check(pytestconfig, "byte-store/log-cleaning")


def test_counted_log_append_sites_equal_logged_appends():
    sites, added = counting_run(
        "bytefs", Varmail(n_files=8, n_threads=2, ops_per_thread=6, seed=7),
        log_bytes=16 << 10,
    )
    appends = sum(1 for s in sites if s.label == "fw.log_append")
    assert appends == added["fw_log_appends"] > 0
    assert added["fw_log_cleanings"] > 0


def test_torn_append_is_discarded_and_indexes_nothing():
    faults = FaultInjector()
    device = MSSD(
        MSSDConfig(geometry=SMALL_GEOMETRY, firmware="bytefs"),
        VirtualClock(1), TrafficStats(), faults,
    )
    # site 0 is the MMIO store, site 1 the firmware log append under it
    faults.arm(FaultPlan(crash_site=1, torn=True))
    with pytest.raises(CrashPoint) as crash:
        device.store(10 * 4096, b"\xee" * 128, StructKind.DATA, txid=1)
    assert crash.value.label == "fw.log_append"
    assert 0 < crash.value.torn_bytes < 128
    counters = device.stats.counters
    assert counters["fw_torn_appends_discarded"] == 1
    assert counters.get("fw_log_appends", 0) == 0
    for region in device.firmware.regions:
        assert region.used == 0
        assert region.index.n_chunks == 0
        assert region.index.lookup(10) is None


def run_with(injector):
    """One Varmail run with 16 KB of log (it cleans), built with
    ``injector`` (None = the shared null one); a given injector starts
    counting at the measurement epoch.  Returns the run and its stack."""
    stack = {}

    def build(*args, **kw):
        stack["clock"], stack["stats"], stack["device"], stack["fs"] = \
            built = build_stack(*args, faults=injector, **kw)
        return built

    def probe(phase, *_stack):
        if phase == "measure-start" and injector is not None:
            injector.start_count()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "build_stack", build)
        result = harness.run_workload(
            "bytefs",
            Varmail(n_files=8, n_threads=2, ops_per_thread=6, seed=7),
            geometry=SMALL_GEOMETRY, log_bytes=16 << 10, stack_probe=probe,
        )
    return result, stack


def log_contents(firmware):
    """Every region's space and every logged chunk, page by page."""
    return [
        (region.used, region.tail, [
            (node.lpa, [(c.offset, c.length, c.txid, c.seq, c.data)
                        for c in node.chunks])
            for node in region.index.pages()
        ])
        for region in firmware.regions
    ]


def test_a_silent_injector_and_none_run_the_same():
    # The injector files its sites in stats of its own, so the run's
    # fault counters stay out of the comparison.
    faults = FaultInjector(TrafficStats())
    plain, plain_stack = run_with(None)
    counted, counted_stack = run_with(faults)
    assert faults.fired is None and faults.n_sites > 0
    assert counted.to_json() == plain.to_json()
    assert (counted_stack["stats"].to_json()
            == plain_stack["stats"].to_json())
    clocks = [
        (s["clock"].now, s["clock"].elapsed_ns,
         [s["clock"].time_of(t) for t in range(s["clock"].n_threads)])
        for s in (plain_stack, counted_stack)
    ]
    assert clocks[0] == clocks[1]
    logs = [log_contents(s["device"].firmware)
            for s in (plain_stack, counted_stack)]
    assert logs[0] == logs[1]
    assert any(pages for _used, _tail, pages in logs[0])
    counters = plain.counters
    assert counters["fw_log_cleanings"] > 0 and counters["fw_commits"] > 0
    labels = faults.label_histogram()
    assert labels["mssd.commit"] == counters["fw_commits"]
    assert labels["mssd.store"] > 0


@pytest.mark.parametrize("addr, length", [(-64, 64), (None, 64)])
def test_an_out_of_range_store_raises_and_files_nothing(addr, length):
    device = MSSD(
        MSSDConfig(geometry=SMALL_GEOMETRY, firmware="bytefs"),
        VirtualClock(1), TrafficStats(),
    )
    if addr is None:  # runs 32 B past the end
        addr = device.capacity_bytes - 32
    message = f"device access [{addr}, {addr + length}) out of range"
    with pytest.raises(ValueError, match=re.escape(message)):
        device.store(addr, b"\xab" * length, StructKind.INODE, txid=3)
    assert not device.stats.host_ssd
    assert device.clock.now == 0.0
