"""The ByteFS firmware's byte store: one frame, one append routine.

``ByteFSFirmware.byte_write`` tests the space rule and charges the
firmware core inline, and appends through ``_append`` directly when no
injector is armed or as the apply-callback of the ``fw.log_append``
crash site when one is.  These tests pin a run that cleans the log
many times (a 32 KB log) by sha256 goldens taken on the tree before
the change, and hold the two ways into ``_append`` to the same
crash-site and torn-append behaviour.
"""

from __future__ import annotations

import hashlib
import json
from unittest import mock

import pytest

from repro.bench.harness import run_workload
from repro.core.bytefs import build_stack
from repro.faults.injector import CrashPoint, FaultInjector, FaultPlan
from repro.sim.clock import VirtualClock
from repro.ssd.device import MSSD, MSSDConfig
from repro.ssd.firmware.bytefs_fw import ByteFSFirmware
from repro.stats.traffic import StructKind, TrafficStats
from repro.trace.export import to_jsonl
from repro.workloads import Varmail
from tests.conftest import SMALL_GEOMETRY

#: 32 KB of log: 16 KB per half, so this run cleans 14 times.  The same
#: case at 16 KB raises ``LogFullError``: uncommitted entries migrated
#: by one cleaning refill the other half (ROADMAP "The firmware under
#: pressure"), a known limit this file does not fix.
LOG_BYTES = 32 << 10


def varmail() -> Varmail:
    return Varmail(n_files=64, n_threads=4, ops_per_thread=60, seed=7)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def counting_run(workload, log_bytes):
    """Run ``workload`` with a counting injector from after mkfs through
    unmount; return the sites and the counters the run added."""
    faults = FaultInjector()
    clock, stats, _device, fs = build_stack(
        "bytefs", geometry=SMALL_GEOMETRY, n_threads=workload.n_threads,
        faults=faults, log_bytes=log_bytes, device_cache_bytes=1 << 20,
        page_cache_pages=512,
    )
    before = dict(stats.counters)
    faults.start_count()
    workload.setup(fs)
    threads = list(enumerate(workload.make_threads(fs)))
    while threads:
        for tid, gen in list(threads):
            clock.switch(tid)
            if next(gen, None) is None:
                threads.remove((tid, gen))
    fs.unmount()
    added = {
        key: value - before.get(key, 0)
        for key, value in stats.counters.items()
    }
    return faults.trace, added


#: taken on 6629f8b, the commit before the byte store became one frame
LOG_CLEANING_SHA256 = {
    "run_result":
        "a65abd2d45a19b0b84fa697a942c8630744910b65721014e81cd1b5933187ddc",
    "trace":
        "25f246e973c684dedba3d0d51e21f49aeae123a7ad6b8d3cf2106263bb77fcb0",
    "crash_sites":
        "22b0aa57c37e978a8b45421c062e1f22d44c9dbfd5a590e0e41f9e4a48085af8",
}


def test_log_cleaning_at_volume_matches_parent_golden():
    migrated = []
    flush = ByteFSFirmware._flush_page_node

    def counting_flush(self, node):
        migrated.append(
            sum(1 for c in node.chunks if not self.is_committed(c))
        )
        flush(self, node)

    with mock.patch.object(
        ByteFSFirmware, "_flush_page_node", counting_flush
    ):
        result = run_workload(
            "bytefs", varmail(), geometry=SMALL_GEOMETRY, log_bytes=LOG_BYTES
        )
    workload = varmail()
    traced = run_workload(
        "bytefs", workload, geometry=SMALL_GEOMETRY, log_bytes=LOG_BYTES,
        traced=True,
    )
    sites, _added = counting_run(varmail(), LOG_BYTES)
    assert {
        "run_result": sha256(json.dumps(result.to_json(), sort_keys=True)),
        "trace": sha256(to_jsonl(
            traced.trace, {"fs": "bytefs", "workload": workload.name}
        )),
        "crash_sites": sha256(repr(
            [(s.index, s.label, s.nbytes, s.atom) for s in sites]
        )),
    } == LOG_CLEANING_SHA256
    # not vacuous: the log cleans many times, cleaning reads partially
    # logged pages back from flash, and uncommitted entries migrate
    assert result.counters["fw_log_cleanings"] >= 10
    assert result.counters["fw_clean_partial_reads"] > 0
    assert sum(migrated) > 0


def test_counted_log_append_sites_equal_logged_appends():
    sites, added = counting_run(
        Varmail(n_files=8, n_threads=2, ops_per_thread=6, seed=7), 16 << 10
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
