"""Unit tests for log-region space accounting and the TxLog."""

import pytest

from repro.ssd.firmware.txlog import TxLog, TxLogFullError
from repro.ssd.firmware.write_log import (
    LogFullError,
    LogRegion,
    aligned_entry_size,
)


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
    assert tx.committed_in_order() == [5, 9]
    assert tx.positions[9] == 1
    assert len(tx) == 2


def test_txlog_capacity():
    tx = TxLog(8)  # 2 entries
    tx.commit(1)
    tx.commit(2)
    with pytest.raises(TxLogFullError):
        tx.commit(3)


def test_txlog_clear():
    tx = TxLog(64)
    tx.commit(1)
    tx.clear()
    assert not tx.is_committed(1)
    assert len(tx) == 0
