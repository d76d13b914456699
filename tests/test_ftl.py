"""Unit tests for the FTL: mapping, write buffer, garbage collection."""

import pytest

from repro.ftl.ftl import FTL, FTLConfig
from repro.ftl.mapping import PageMap
from repro.nand.chip import FlashArray
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.sim.resources import ChannelArray
from repro.stats.traffic import Direction, StructKind, TrafficStats


def make_ftl(blocks_per_way=8, pages_per_block=8, channels=2):
    geo = FlashGeometry(
        n_channels=channels,
        ways_per_channel=1,
        blocks_per_way=blocks_per_way,
        pages_per_block=pages_per_block,
        page_size=512,
    )
    clock = VirtualClock(1)
    stats = TrafficStats()
    ftl = FTL(
        geo,
        FlashArray(geo),
        ChannelArray(channels),
        TimingModel(),
        clock,
        stats,
        FTLConfig(write_buffer_pages=4),
    )
    return ftl, clock, stats


def test_pagemap_bind_and_reverse():
    pm = PageMap(256)
    assert pm.bind(10, 100) is None
    assert pm.lookup(10) == 100
    assert pm.reverse(100) == 10
    assert pm.bind(10, 200) == 100
    assert pm.reverse(100) is None
    assert pm.unbind(10) == 200
    assert 10 not in pm


def test_write_then_read_roundtrip():
    ftl, _clock, _stats = make_ftl()
    ftl.write_page(3, b"abc", StructKind.DATA)
    assert ftl.read_page(3)[:3] == b"abc"


def test_unwritten_page_reads_zero_without_flash_op():
    ftl, clock, _stats = make_ftl()
    t0 = clock.now
    data = ftl.read_page(42)
    assert data == bytes(512)
    assert clock.now == t0  # no flash access for unmapped pages


def test_overwrite_is_out_of_place():
    ftl, _clock, _stats = make_ftl()
    ftl.write_page(1, b"v1", StructKind.DATA)
    ppa1 = ftl.page_map.lookup(1)
    ftl.write_page(1, b"v2", StructKind.DATA)
    ppa2 = ftl.page_map.lookup(1)
    assert ppa1 != ppa2
    assert ftl.read_page(1)[:2] == b"v2"


def test_writes_round_robin_channels():
    ftl, _clock, _stats = make_ftl()
    ftl.write_page(0, b"a", StructKind.DATA)
    ftl.write_page(1, b"b", StructKind.DATA)
    ch0 = ftl.geometry.channel_of(ftl.page_map.lookup(0))
    ch1 = ftl.geometry.channel_of(ftl.page_map.lookup(1))
    assert ch0 != ch1


def test_trim_unmaps():
    ftl, _clock, _stats = make_ftl()
    ftl.write_page(7, b"x", StructKind.DATA)
    ftl.trim(7)
    assert not ftl.is_mapped(7)
    assert ftl.read_page(7) == bytes(512)


def test_gc_reclaims_space_under_churn():
    ftl, _clock, stats = make_ftl(blocks_per_way=4, pages_per_block=4)
    # Total 2*4*4=32 physical pages; overwrite a small working set far
    # more times than there are pages.
    for i in range(200):
        ftl.write_page(i % 5, bytes([i % 256]) * 16, StructKind.DATA)
    assert ftl.gc_runs > 0
    for lpa in range(5):
        assert ftl.read_page(lpa)[0] == max(
            i for i in range(200) if i % 5 == lpa
        ) % 256


def test_gc_preserves_valid_data():
    ftl, _clock, _stats = make_ftl(blocks_per_way=4, pages_per_block=4)
    ftl.write_page(100, b"keepme", StructKind.DATA)
    for i in range(150):
        ftl.write_page(i % 4, b"churn", StructKind.DATA)
    assert ftl.read_page(100)[:6] == b"keepme"


def test_write_buffer_stalls_when_full():
    ftl, clock, stats = make_ftl()
    for i in range(20):
        ftl.write_page(i, b"x", StructKind.DATA)
    # 4-slot buffer with 20 writes must have stalled at least once.
    assert stats.counters.get("write_buffer_stalls", 0) > 0
    assert clock.now > 0


def test_drain_write_buffer_advances_clock():
    ftl, clock, _stats = make_ftl()
    ftl.write_page(0, b"x", StructKind.DATA)
    t = clock.now
    ftl.drain_write_buffer()
    assert clock.now >= t + 1  # waited for the program to finish


def test_flash_traffic_recorded():
    ftl, _clock, stats = make_ftl()
    ftl.write_page(0, b"x", StructKind.DATA)
    ftl.read_page(0)
    assert stats.flash_bytes(direction=Direction.WRITE) == 512
    assert stats.flash_bytes(direction=Direction.READ) == 512


def test_free_page_estimate_decreases():
    ftl, _clock, _stats = make_ftl()
    before = ftl.free_page_estimate()
    ftl.write_page(0, b"x", StructKind.DATA)
    assert ftl.free_page_estimate() < before
