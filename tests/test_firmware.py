"""Unit tests for both firmware variants through the device interface."""

import pytest

from repro.ssd.firmware.write_log import LogFullError
from repro.stats.traffic import Direction, Interface, StructKind
from tests.conftest import make_device


# --------------------------------------------------------------------- #
# ByteFS firmware: write log, merge, transactions, cleaning, recovery
# --------------------------------------------------------------------- #


def test_byte_write_then_byte_read_from_log(bytefs_device):
    d = bytefs_device
    d.store(1000, b"hello", StructKind.INODE)
    assert d.load(1000, 5, StructKind.INODE) == b"hello"
    assert d.stats.counters["fw_byte_read_log_hits"] == 1


def test_byte_read_miss_goes_to_flash(bytefs_device):
    d = bytefs_device
    d.write_blocks(3, b"Z" * 4096, StructKind.DATA)
    d.firmware.force_clean()
    data = d.load(3 * 4096 + 10, 4, StructKind.DATA)
    assert data == b"ZZZZ"
    assert d.stats.counters["fw_byte_read_flash_misses"] >= 1


def test_block_read_merges_logged_chunks(bytefs_device):
    d = bytefs_device
    d.write_blocks(2, b"A" * 4096, StructKind.DATA)
    d.store(2 * 4096 + 100, b"BBB", StructKind.DATA)
    page = d.read_blocks(2, 1, StructKind.DATA)
    assert page[99:104] == b"ABBBA"
    assert d.stats.counters["fw_block_read_merges"] >= 1


def test_block_write_invalidates_log_entries(bytefs_device):
    d = bytefs_device
    d.store(5 * 4096, b"old!", StructKind.DATA)
    d.write_blocks(5, b"N" * 4096, StructKind.DATA)
    assert d.read_blocks(5, 1, StructKind.DATA)[:4] == b"NNNN"
    assert d.stats.counters["fw_log_invalidations"] >= 1


def test_uncommitted_tx_discarded_on_recover(bytefs_device):
    d = bytefs_device
    d.store(0, b"committed", StructKind.INODE, txid=1)
    d.store(64, b"uncommitted", StructKind.INODE, txid=2)
    d.commit(1)
    d.power_fail()
    result = d.recover()
    assert result["discarded_entries"] >= 1
    assert d.read_blocks(0, 1, StructKind.INODE)[:9] == b"committed"
    assert d.read_blocks(0, 1, StructKind.INODE)[64:75] == bytes(11)


def test_non_transactional_writes_survive_recovery(bytefs_device):
    d = bytefs_device
    d.store(128, b"durable", StructKind.BITMAP)
    d.power_fail()
    d.recover()
    assert d.read_blocks(0, 1, StructKind.BITMAP)[128:135] == b"durable"


def test_commit_ordering_newest_wins(bytefs_device):
    d = bytefs_device
    d.store(0, b"v1", StructKind.DATA, txid=1)
    d.store(0, b"v2", StructKind.DATA, txid=2)
    d.commit(1)
    d.commit(2)
    d.recover()
    assert d.read_blocks(0, 1, StructKind.DATA)[:2] == b"v2"


def test_log_cleaning_triggers_and_preserves_data():
    d = make_device("bytefs")
    # Write far more than the log can hold to force cleanings.
    log_cap = d.firmware.config.log_bytes
    n = (log_cap // 64) * 2
    for i in range(n):
        addr = (i % 500) * 64
        d.store(addr, bytes([i % 256]) * 64, StructKind.DATA)
    assert d.firmware.cleanings > 0
    # Latest values are readable after everything settles.
    d.firmware.force_clean()
    last_writer = {}
    for i in range(n):
        last_writer[(i % 500) * 64] = i % 256
    for addr, val in list(last_writer.items())[:20]:
        assert d.load(addr, 64, StructKind.DATA) == bytes([val]) * 64


def test_oversized_byte_write_rejected():
    d = make_device("bytefs")
    with pytest.raises(ValueError):
        d.firmware.byte_write(0, 4000, bytes(200))  # crosses page boundary


def test_index_memory_reported():
    d = make_device("bytefs")
    d.store(0, b"x" * 64, StructKind.DATA)
    assert d.firmware.index_memory_bytes() > 0


# --------------------------------------------------------------------- #
# Baseline firmware: page cache semantics
# --------------------------------------------------------------------- #


def test_baseline_byte_rmw(baseline_device):
    d = baseline_device
    d.write_blocks(1, b"A" * 4096, StructKind.DATA)
    d.store(1 * 4096 + 5, b"bb", StructKind.DATA)
    assert d.load(1 * 4096 + 4, 4, StructKind.DATA) == b"Abba".replace(
        b"a", b"A"
    ) or d.load(1 * 4096 + 4, 4, StructKind.DATA) == b"AbbA"


def test_baseline_cache_hit_counting(baseline_device):
    d = baseline_device
    d.store(0, b"x", StructKind.DATA)
    d.load(0, 1, StructKind.DATA)
    assert d.stats.counters["devcache_hits"] >= 1


@pytest.mark.parametrize("n", [1, 4])
def test_baseline_block_read_counts_each_page_once(baseline_device, n):
    """A multi-page read of uncached pages is n misses, not n misses and
    n hits; read again, the same pages are n hits."""
    d = baseline_device
    counters = d.stats.counters
    d.read_blocks(1000, n, StructKind.DATA)
    assert (counters["devcache_misses"], counters["devcache_hits"]) == (n, 0)
    d.stats.reset()
    d.read_blocks(1000, n, StructKind.DATA)
    assert (counters["devcache_misses"], counters["devcache_hits"]) == (0, n)


def test_baseline_dirty_pages_survive_power_loss(baseline_device):
    d = baseline_device
    d.store(100, b"battery", StructKind.DATA)
    d.power_fail()
    d.recover()
    assert d.read_blocks(0, 1, StructKind.DATA)[100:107] == b"battery"


def test_baseline_block_write_goes_to_flash(baseline_device):
    d = baseline_device
    before = d.stats.flash_bytes(direction=Direction.WRITE)
    d.write_blocks(0, b"Q" * 4096, StructKind.DATA)
    assert d.stats.flash_bytes(direction=Direction.WRITE) == before + 4096


def test_baseline_no_transactions(baseline_device):
    with pytest.raises(NotImplementedError):
        baseline_device.commit(1)


# --------------------------------------------------------------------- #
# device-level accounting and addressing
# --------------------------------------------------------------------- #


def test_traffic_tagged_by_interface(bytefs_device):
    d = bytefs_device
    d.store(0, b"x" * 64, StructKind.INODE)
    d.write_blocks(1, b"y" * 4096, StructKind.DATA)
    st = d.stats
    assert st.host_ssd_bytes(interface=Interface.BYTE, direction=Direction.WRITE) == 64
    assert st.host_ssd_bytes(interface=Interface.BLOCK, direction=Direction.WRITE) == 4096


def test_byte_write_crossing_page_boundary_split(bytefs_device):
    d = bytefs_device
    addr = 4096 - 32
    d.store(addr, b"Q" * 64, StructKind.DATA)
    assert d.load(addr, 64, StructKind.DATA) == b"Q" * 64


def test_out_of_range_access_rejected(bytefs_device):
    d = bytefs_device
    with pytest.raises(ValueError):
        d.load(d.capacity_bytes, 1, StructKind.DATA)
    with pytest.raises(ValueError):
        d.write_blocks(d.capacity_blocks, b"x" * 4096, StructKind.DATA)


@pytest.mark.parametrize("firmware", ["bytefs", "baseline"])
def test_out_of_range_trim_rejected(firmware):
    d = make_device(firmware)
    d.write_blocks(d.capacity_blocks - 1, b"x" * 4096, StructKind.DATA)
    now = d.clock.now
    for lba, n_blocks in ((-5, 3), (10**9, 2), (3, -4), (0, 10**12)):
        with pytest.raises(ValueError):
            d.trim(lba, n_blocks)
    # refused before the crash site and the firmware: nothing happened
    assert d.clock.now == now
    assert d.ftl.is_mapped(d.capacity_blocks - 1)
    d.trim(d.capacity_blocks - 1, 1)
    assert not d.ftl.is_mapped(d.capacity_blocks - 1)


def test_unaligned_block_write_rejected(bytefs_device):
    with pytest.raises(ValueError):
        bytefs_device.write_blocks(0, b"xyz", StructKind.DATA)


def test_overprovisioning_hides_capacity(bytefs_device):
    geo = bytefs_device.geometry
    assert bytefs_device.capacity_blocks < geo.total_pages
