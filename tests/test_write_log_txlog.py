"""Log-region space accounting, the TxLog, and the TxLog's space
contract: it holds only what the write log still holds, a full TxLog
starts a cleaning, and ``flush_all`` keeps open transactions' entries."""

import pytest

from repro.bench.harness import run_workload
from repro.cluster.serve import serve_cluster
from repro.cluster.tenant import default_tenants
from repro.faults.injector import CrashPoint, FaultInjector, FaultPlan
from repro.sim.clock import VirtualClock
from repro.ssd.device import MSSD, MSSDConfig
from repro.ssd.firmware.bytefs_fw import ByteFSFirmwareConfig
from repro.ssd.firmware.txlog import TxLog
from repro.ssd.firmware.write_log import (
    LogFullError,
    LogRegion,
    aligned_entry_size,
)
from repro.stats.traffic import StructKind, TrafficStats
from repro.workloads import OLTP
from tests.conftest import SMALL_GEOMETRY

INODE = StructKind.INODE


def test_aligned_entry_size():
    assert aligned_entry_size(1) == 64
    assert aligned_entry_size(64) == 64
    assert aligned_entry_size(65) == 128
    with pytest.raises(ValueError):
        aligned_entry_size(0)


def make_region(capacity=1024):
    return LogRegion(capacity, 4096, 64 << 10, 1 << 20)


def test_region_consume_and_utilization():
    r = make_region(1024)
    off0 = r.consume(64)
    off1 = r.consume(100)  # aligned to 128
    assert off0 == 0
    assert off1 == 64
    assert r.used == 64 + 128
    assert r.utilization() == (64 + 128) / 1024


def test_region_full_raises():
    r = make_region(128)
    r.consume(64)
    r.consume(64)
    with pytest.raises(LogFullError):
        r.consume(1)


def test_region_reset():
    r = make_region(256)
    r.consume(64)
    r.reset()
    assert r.used == 0
    assert r.free == 256


def test_txlog_commit_and_membership():
    tx = TxLog(64)
    tx.commit(5)
    tx.commit(9)
    tx.commit(5)  # idempotent
    assert tx.is_committed(5)
    assert not tx.is_committed(6)
    assert list(tx.positions) == [5, 9]
    assert tx.positions[9] == 1
    assert len(tx) == 2


def test_txlog_clear():
    tx = TxLog(64)
    tx.commit(1)
    tx.clear()
    assert not tx.is_committed(1)
    assert len(tx) == 0


# ---------------------------------------------------------------------- #
# the TxLog's space contract, through the firmware
# ---------------------------------------------------------------------- #

def _device(log_bytes=ByteFSFirmwareConfig.log_bytes, faults=None):
    cfg = MSSDConfig(
        geometry=SMALL_GEOMETRY,
        bytefs_fw=ByteFSFirmwareConfig(log_bytes=log_bytes),
    )
    return MSSD(cfg, VirtualClock(1), TrafficStats(), faults)


def _payload(txid):
    return txid.to_bytes(4, "little") * 16  # 64 B, one log entry


def _commit_each(device, txids):
    """One 64 B store per transaction, at ``64 * txid``, then its commit."""
    for txid in txids:
        device.store(64 * txid, _payload(txid), INODE, txid=txid)
        device.commit(txid)


def _logged_txids(fw):
    return {
        c.txid for index in fw._indexes
        for node in index.pages() for c in node.chunks
    }


def test_txlog_holds_only_txids_the_log_still_holds(monkeypatch):
    """20 000 committed single-entry transactions on a 256 KB log: every
    cleaning prunes the TxLog to the committed TxIDs left in the log."""
    device = _device(log_bytes=256 << 10)
    fw = device.firmware
    clean_region = fw._clean_region
    after_cleaning = []

    def checked_clean(idx):
        clean_region(idx)
        after_cleaning.append(len(fw.txlog))
        assert set(fw.txlog.positions) <= _logged_txids(fw)

    monkeypatch.setattr(fw, "_clean_region", checked_clean)
    _commit_each(device, range(1, 20_001))
    assert len(after_cleaning) >= 9
    assert max(after_cleaning) == 0  # nothing committed is left to keep
    for txid in (1, 9_999, 20_000):
        assert device.load(64 * txid, 64, INODE) == _payload(txid)


def test_full_txlog_starts_a_cleaning():
    """16 385 commits on the default 4 MB log fill the TxLog before any
    log half reaches its threshold: the commit that finds it full
    cleans, and every committed store reads back."""
    device = _device()
    fw = device.firmware
    n = fw.txlog.capacity_entries + 1
    _commit_each(device, range(1, n + 1))
    assert device.stats.counters["fw_log_cleanings"] == 1
    assert list(fw.txlog.positions) == [n]
    for txid in range(1, n + 1):
        assert device.load(64 * txid, 64, INODE) == _payload(txid)


def test_flush_all_keeps_an_open_transaction():
    device = _device()
    device.store(0, b"x" * 64, INODE, txid=5)
    device.flush_all()
    assert device.stats.counters["fw_log_cleanings"] == 1
    assert device.load(0, 64, INODE) == b"x" * 64
    device.recover()  # txid 5 never committed
    assert device.load(0, 64, INODE) == bytes(64)


def test_oltp_runs_past_a_full_txlog():
    counters = run_workload(
        "bytefs", OLTP(ops_per_thread=500), geometry=SMALL_GEOMETRY
    ).counters
    assert counters["fw_commits"] > 16_384
    assert counters["fw_log_cleanings"] >= 2


def _fill_to_the_trigger(faults):
    """A device whose next commit (of TxID ``n + 1``, whose store is
    already logged) finds a full TxLog of ``n`` committed transactions."""
    device = _device(faults=faults)
    fw = device.firmware
    fw.txlog.capacity_entries = n = 16
    _commit_each(device, range(1, n + 1))
    device.store(64 * (n + 1), _payload(n + 1), INODE, txid=n + 1)
    return device, n


def test_crash_inside_a_txlog_triggered_cleaning():
    """Power off at each ``fw.clean_*`` site of the cleaning a full TxLog
    starts: recovery keeps every store committed before the trigger and
    discards the triggering transaction's."""
    faults = FaultInjector()
    device, n = _fill_to_the_trigger(faults)
    faults.start_count()
    device.commit(n + 1)
    assert device.stats.counters["fw_log_cleanings"] == 1
    plans = [
        FaultPlan(rec.index, torn=torn)
        for rec in faults.trace if rec.label.startswith("fw.clean_")
        for torn in ((False, True) if rec.tearable else (False,))
    ]
    assert {faults.trace[p.crash_site].label for p in plans} == {
        "fw.clean_begin", "fw.clean_flush", "fw.clean_reset",
    }
    for plan in plans:
        faults = FaultInjector()
        device, n = _fill_to_the_trigger(faults)
        faults.arm(plan)
        with pytest.raises(CrashPoint):
            device.commit(n + 1)
        faults.disarm()
        device.power_fail()
        device.recover()
        for txid in range(1, n + 1):
            assert device.load(64 * txid, 64, INODE) == _payload(txid), plan
        assert device.load(64 * (n + 1), 64, INODE) == bytes(64), plan


def test_a_log_full_of_uncommitted_entries_says_so():
    # Still open (ROADMAP "The write log's space contract" (b)): a
    # cleaning migrates every uncommitted entry into the other half, and
    # at 4 KB of log those fill it.  The error names what fills it.
    with pytest.raises(LogFullError) as err:
        serve_cluster(
            default_tenants(4, 50), n_devices=1, sched="drr",
            fs_name="bytefs", seed=42, log_bytes=4096,
        )
    assert str(err.value) == (
        "entry of 64 B cannot fit in a 2048 B log region "
        "(0 B free; uncommitted entries: 32, 2048 B)"
    )
