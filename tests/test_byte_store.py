"""The ByteFS firmware's byte store: one frame, one append routine.

``ByteFSFirmware.byte_write`` tests the space rule and charges the
firmware core inline, and appends through ``_append`` directly when no
injector is armed or as the apply-callback of the ``fw.log_append``
crash site when one is.  These tests hold the two ways into
``_append`` to the same crash-site and torn-append behaviour; a run
that cleans the log many times (a 32 KB log) is the
``byte-store/log-cleaning`` row of tests/test_pins.py.
"""

from __future__ import annotations

import pytest

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
