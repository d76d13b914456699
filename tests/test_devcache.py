"""Tests for the device-DRAM page-frame cache (repro.devcache).

Covers the three eviction policies (hit/miss/eviction/dirty write-back
invariants), the stride prefetcher's accuracy accounting, the measured
hit-rate win on the mmap-heavy workload versus cache-off, and the
byte-determinism contract: repeats are byte-identical, parallel serving
matches serial, and a cache-off run never emits devcache keys.
"""

import json

import pytest

from repro.bench.harness import run_workload
from repro.cluster import TenantSpec, serve_cluster, validate_cluster_run
from repro.core.bytefs import build_stack
from repro.devcache import (
    ClockPolicy,
    DevCacheConfig,
    DeviceCache,
    EVICTION_POLICY_NAMES,
    HotColdPolicy,
    LRUPolicy,
    StridePrefetcher,
    make_policy,
)
from repro.ftl.ftl import FTL, FTLConfig
from repro.nand.chip import FlashArray
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.sim.resources import ChannelArray
from repro.stats.traffic import StructKind, TrafficStats
from repro.workloads import MmapStress
from tests.conftest import SMALL_GEOMETRY

PAGE = 512


def make_cache(cache_pages=4, policy="lru", prefetch=False, **cfg_kw):
    """A DeviceCache over a real FTL on a tiny geometry."""
    geo = FlashGeometry(
        n_channels=2,
        ways_per_channel=1,
        blocks_per_way=16,
        pages_per_block=16,
        page_size=PAGE,
    )
    clock = VirtualClock(1)
    stats = TrafficStats()
    timing = TimingModel()
    ftl = FTL(
        geo,
        FlashArray(geo),
        ChannelArray(geo.n_channels),
        timing,
        clock,
        stats,
        FTLConfig(write_buffer_pages=4),
    )
    config = DevCacheConfig(
        cache_bytes=cache_pages * PAGE,
        policy=policy,
        prefetch=prefetch,
        **cfg_kw,
    )
    return DeviceCache(ftl, config, timing, clock, stats), ftl


def page(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE


# ---------------------------------------------------------------------- #
# eviction policies
# ---------------------------------------------------------------------- #

def test_lru_evicts_least_recently_used():
    p = LRUPolicy()
    for lpa in (1, 2, 3):
        p.admit(lpa)
    p.touch(1)  # recency order now 2, 3, 1
    assert p.victim() == 2
    assert p.victim() == 3
    assert p.victim() == 1
    assert len(p) == 0


def test_clock_gives_second_chance():
    p = ClockPolicy()
    for lpa in (1, 2, 3):
        p.admit(lpa)
    # All referenced: the first rotation clears every bit, then the hand
    # lands back on the oldest frame.
    assert p.victim() == 1
    p.touch(2)  # re-reference 2 while the hand is elsewhere
    assert p.victim() == 3  # 2's set bit saves it, 3's clear bit doesn't
    assert p.victim() == 2
    assert len(p) == 0


def test_hotcold_promotes_by_reuse_distance_and_resists_scans():
    p = HotColdPolicy(capacity=4, hot_fraction=0.5, hot_distance=4)
    p.admit(10)
    p.touch(10)  # distance 1 <= 4: promoted
    assert p.is_hot(10)
    # A scan admits cold frames; victims must come from the cold queue
    # while the hot frame stays resident.
    for lpa in (20, 21, 22):
        p.admit(lpa)
    assert p.victim() == 20
    assert p.victim() == 21
    assert p.is_hot(10)
    # Only when the cold queue is empty does the hot queue give up frames.
    assert p.victim() == 22
    assert p.victim() == 10


def test_hotcold_long_distance_touch_stays_cold():
    p = HotColdPolicy(capacity=8, hot_fraction=0.5, hot_distance=2)
    p.admit(1)
    for lpa in range(2, 7):
        p.admit(lpa)  # 5 ticks pass
    p.touch(1)  # reuse distance 5 > 2: refreshed but still cold
    assert not p.is_hot(1)
    assert p.victim() == 2  # 1 moved to the cold tail


def test_make_policy_rejects_unknown_name():
    assert make_policy("lru", 4).name == "lru"
    assert make_policy("clock", 4).name == "clock"
    assert make_policy("hotcold", 4).name == "hotcold"
    with pytest.raises(ValueError, match="unknown eviction policy"):
        make_policy("mru", 4)


# ---------------------------------------------------------------------- #
# stride prefetcher
# ---------------------------------------------------------------------- #

def predict(prefetcher, lpa):
    """Demand-read ``lpa`` through a fresh cache running ``prefetcher``,
    over mapped LPAs 0..127; return the LPAs the read prefetched."""
    cache, ftl = make_cache(cache_pages=8, prefetch=True)
    cache._prefetcher = prefetcher
    for p in range(128):
        ftl.write_page(p, page(p), StructKind.OTHER)
    cache.read_page(lpa)
    return sorted(set(cache._frames) - {lpa})


def test_prefetcher_detects_sequential_stream():
    pf = StridePrefetcher(degree=2, min_confidence=2)
    assert predict(pf, 100) == []
    assert predict(pf, 101) == []  # stride seen once
    assert predict(pf, 102) == [103, 104]


def test_prefetcher_detects_strided_stream():
    pf = StridePrefetcher(degree=3, min_confidence=2, stream_shift=12)
    assert predict(pf, 100) == []
    assert predict(pf, 104) == []
    assert predict(pf, 108) == [112, 116, 120]


def test_prefetcher_same_page_reread_keeps_stride():
    pf = StridePrefetcher(degree=1, min_confidence=2)
    predict(pf, 100)
    predict(pf, 101)
    assert predict(pf, 101) == []  # no direction signal
    assert predict(pf, 102) == [103]  # stride-1 stream still live


def test_prefetcher_stream_table_is_lru_bounded():
    pf = StridePrefetcher(degree=1, min_confidence=1, max_streams=2,
                          stream_shift=8)
    predict(pf, 0)      # region 0
    predict(pf, 256)    # region 1
    predict(pf, 512)    # region 2 evicts region 0
    assert predict(pf, 1) == []  # region 0 restarts from scratch
    assert predict(pf, 2) == [3]


# ---------------------------------------------------------------------- #
# the cache itself, per policy
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("policy", EVICTION_POLICY_NAMES)
def test_read_miss_then_hit(policy):
    cache, ftl = make_cache(cache_pages=4, policy=policy)
    ftl.write_page(7, page(7), StructKind.OTHER)
    data = cache.read_page(7)
    assert data == page(7)
    assert (cache.hits, cache.misses) == (0, 1)
    assert cache.read_page(7) == page(7)
    assert (cache.hits, cache.misses) == (1, 1)
    cache.check_invariants()


@pytest.mark.parametrize("policy", EVICTION_POLICY_NAMES)
def test_dirty_eviction_writes_back_to_flash(policy):
    # Watermarks off (high = capacity) so eviction, not the background
    # write-back, is what cleans the victim.
    cache, ftl = make_cache(cache_pages=2, policy=policy,
                            dirty_high_watermark=1.0,
                            dirty_low_watermark=1.0)
    for lpa in range(3):  # third install forces one eviction
        cache.write_page(lpa, page(lpa))
    assert len(cache._frames) <= 2
    assert cache.evictions_dirty == 1
    cache.check_invariants()
    # The evicted page's data reached the FTL, not the void.
    cache.drain_write_buffer()
    for lpa in range(3):
        assert ftl.read_page(lpa) == page(lpa)


@pytest.mark.parametrize("policy", EVICTION_POLICY_NAMES)
def test_clean_eviction_skips_write_back(policy):
    cache, ftl = make_cache(cache_pages=2, policy=policy)
    for lpa in range(4):
        ftl.write_page(lpa, page(lpa), StructKind.OTHER)
    for lpa in range(4):  # read-only traffic: all evictions are clean
        cache.read_page(lpa)
    assert cache.evictions_clean == 2
    assert cache.evictions_dirty == 0
    assert cache.writebacks == 0
    cache.check_invariants()


def test_write_hit_overwrites_and_redirties():
    cache, ftl = make_cache(cache_pages=4)
    cache.write_page(3, page(1))
    cache.drain_write_buffer()  # frame now resident and clean
    assert cache.gauges()["devcache_dirty_frames"] == 0
    cache.write_page(3, page(2))
    assert cache.gauges()["devcache_dirty_frames"] == 1
    assert cache.read_page(3) == page(2)
    cache.check_invariants()


def test_watermark_write_back_cleans_oldest_first():
    cache, ftl = make_cache(
        cache_pages=8, dirty_high_watermark=0.5, dirty_low_watermark=0.25
    )
    for lpa in range(5):  # 5 dirty > 4 high: drain down to 2
        cache.write_page(lpa, page(lpa))
    assert cache.writebacks == 3
    assert len(cache._dirty) == 2
    # Oldest-dirtied pages were cleaned; the frames stay resident.
    assert len(cache._frames) == 5
    assert list(cache._dirty) == [3, 4]
    cache.check_invariants()


def test_trim_discards_without_write_back():
    cache, ftl = make_cache(cache_pages=4)
    cache.write_page(5, page(5))
    cache.trim(5)
    assert cache.writebacks == 0
    assert cache.evictions_dirty == 0
    assert not ftl.is_mapped(5)
    cache.check_invariants()
    cache.drain_write_buffer()
    assert cache.flushes == 0  # nothing dirty left to flush


def test_drain_flushes_every_dirty_frame_and_is_idempotent():
    cache, ftl = make_cache(cache_pages=8)
    for lpa in range(4):
        cache.write_page(lpa, page(lpa))
    cache.drain_write_buffer()
    assert cache.flushes == 4
    for lpa in range(4):
        assert ftl.read_page(lpa) == page(lpa)
    cache.drain_write_buffer()  # nothing dirty: no extra flushes
    assert cache.flushes == 4
    cache.check_invariants()


def test_hit_costs_one_dram_access():
    cache, ftl = make_cache(cache_pages=4)
    cache.write_page(1, page(1), background=True)
    t0 = cache.clock.now
    cache.read_page(1)
    assert cache.clock.now - t0 == pytest.approx(
        cache.timing.dram_access_ns
    )


def test_read_pages_mixes_hits_and_misses():
    cache, ftl = make_cache(cache_pages=8)
    for lpa in range(4):
        ftl.write_page(lpa, page(lpa), StructKind.OTHER)
    cache.read_page(0)
    cache.read_page(2)
    out = cache.read_pages([0, 1, 2, 3])
    assert out == [page(0), page(1), page(2), page(3)]
    assert cache.hits == 2 and cache.misses == 4
    cache.check_invariants()


# ---------------------------------------------------------------------- #
# prefetch accuracy accounting
# ---------------------------------------------------------------------- #

def test_prefetch_hits_are_counted():
    cache, ftl = make_cache(cache_pages=16, prefetch=True,
                            prefetch_degree=2)
    for lpa in range(12):
        ftl.write_page(lpa, page(lpa), StructKind.OTHER)
    for lpa in range(8):  # sequential scan
        cache.read_page(lpa)
    assert cache.prefetch_issued > 0
    assert cache.prefetch_hits > 0
    # Every accounted prefetch outcome is one of hit / wasted / still
    # resident-unreferenced.
    assert cache.prefetch_hits + cache.prefetch_wasted <= \
        cache.prefetch_issued
    cache.check_invariants()


def test_prefetch_only_fetches_mapped_pages():
    cache, ftl = make_cache(cache_pages=16, prefetch=True)
    for lpa in range(3):  # only 0..2 exist on flash
        ftl.write_page(lpa, page(lpa), StructKind.OTHER)
    for lpa in range(3):
        cache.read_page(lpa)
    # Predictions past the mapped range are filtered, not fetched.
    assert cache.prefetch_issued == 0


def test_wasted_prefetch_is_counted_on_discard():
    cache, ftl = make_cache(cache_pages=16, prefetch=True,
                            prefetch_degree=2)
    for lpa in range(8):
        ftl.write_page(lpa, page(lpa), StructKind.OTHER)
    for lpa in range(3):  # confidence reached at lpa=2: prefetch 3, 4
        cache.read_page(lpa)
    assert cache.prefetch_issued == 2
    cache.trim_many(3, 2)  # both prefetched frames die unreferenced
    assert cache.prefetch_wasted == 2
    cache.check_invariants()


# ---------------------------------------------------------------------- #
# full-stack behaviour
# ---------------------------------------------------------------------- #

def _mmap_run(devcache):
    return run_workload(
        "bytefs",
        MmapStress(n_ops=600, n_threads=2, file_pages=96),
        page_cache_pages=128,
        devcache=devcache,
    )


def test_mmap_heavy_hit_rate_win():
    """The acceptance measurement: on the mmap-heavy workload the cache
    absorbs host-page-cache misses in device DRAM — fewer flash reads,
    fewer flash writes (write absorption), lower elapsed time."""
    off = _mmap_run(None)
    cfg = DevCacheConfig(cache_bytes=1 << 20, policy="lru", prefetch=True)

    probe_gauges = {}

    def probe(phase, clock, stats, device, fs):
        if phase == "measure-end":
            probe_gauges.update(device.gauges())

    on = run_workload(
        "bytefs",
        MmapStress(n_ops=600, n_threads=2, file_pages=96),
        page_cache_pages=128,
        devcache=cfg,
        stack_probe=probe,
    )
    assert on.elapsed_s < off.elapsed_s
    assert on.flash_read < off.flash_read
    assert on.flash_write < off.flash_write
    hits = probe_gauges["devcache_hits"]
    misses = probe_gauges["devcache_misses"]
    assert hits / (hits + misses) > 0.3


@pytest.mark.parametrize("policy", EVICTION_POLICY_NAMES)
def test_stack_run_is_repeatable_per_policy(policy):
    cfg = DevCacheConfig(cache_bytes=64 * 4096, policy=policy,
                         prefetch=True)
    docs = [
        json.dumps(_mmap_run(cfg).to_json(), sort_keys=True)
        for _ in range(2)
    ]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("policy", EVICTION_POLICY_NAMES)
def test_invariants_hold_after_an_mmap_heavy_run(policy):
    """A 1 MB cache under 4 000 mmap ops: clean frames evict, prefetched
    frames are hit, and the frame table is consistent at the end."""
    def check(phase, _clock, _stats, device, _fs):
        if phase == "measure-end":
            device.devcache.check_invariants()
            gauges = device.gauges()
            assert gauges["devcache_evictions_clean"] > 0, gauges
            assert gauges["devcache_prefetch_hits"] > 0, gauges
            checked.append(phase)

    checked = []
    run_workload(
        "bytefs", MmapStress(n_ops=4000), page_cache_pages=128,
        devcache=DevCacheConfig(cache_bytes=1 << 20, policy=policy,
                                prefetch=True),
        stack_probe=check,
    )
    assert checked


def test_cache_off_emits_no_devcache_state():
    clock, stats, device, fs = build_stack(
        "bytefs", geometry=SMALL_GEOMETRY
    )
    assert device.devcache is None
    assert not any(k.startswith("devcache_") for k in device.gauges())


def test_cache_on_gauges_surface_through_device():
    cfg = DevCacheConfig(cache_bytes=32 * 4096)
    clock, stats, device, fs = build_stack(
        "bytefs", geometry=SMALL_GEOMETRY, devcache=cfg
    )
    fd = fs.open("/f", 0o100 | 0o2)  # O_CREAT | O_RDWR
    fs.write(fd, b"x" * 4096)
    fs.fsync(fd)
    fs.close(fd)
    gauges = device.gauges()
    for key in ("devcache_frames", "devcache_hits", "devcache_misses"):
        assert key in gauges
    device.devcache.check_invariants()


def test_serve_with_devcache_parallel_matches_serial():
    tenants = [
        TenantSpec(name=f"t{i}", workload="synthetic", n_ops=30,
                   rate_ops_s=200_000.0, device=i % 2)
        for i in range(4)
    ]

    def run(workers):
        res = serve_cluster(
            tenants,
            fs_name="bytefs",
            n_devices=2,
            sched="drr",
            seed=42,
            queue_depth=2,
            max_queue=256,
            geometry=SMALL_GEOMETRY,
            devcache=DevCacheConfig(cache_bytes=64 * 4096,
                                    policy="clock", prefetch=True),
            workers=workers,
        )
        doc = res.to_json()
        assert validate_cluster_run(doc) == []
        assert doc["devcache"]["policy"] == "clock"
        return json.dumps(doc, sort_keys=True)

    serial = run(0)
    assert run(2) == serial
