"""A page fill must be indistinguishable from what it was, and copy-free.

The single-page fill — host page-cache miss, NVMe read, firmware,
device-DRAM cache, FTL, NAND — is one straight-line call per layer, and
a device-cache frame is the immutable page it was handed.  These tests
hold that to the behaviour of the code it replaced, which lives on here
as the reference (``block_read`` through ``block_read_many([lpa])[0]``,
frames as ``_Frame`` objects owning a ``bytearray`` and two cacheline
bitmaps): same device image, same traffic counters, same simulated clock
bit for bit, same gauges; trace spans and numbered crash sites are held
to sha256 goldens taken on the commit before the change.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack
from typing import Dict, List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import run_workload
from repro.core.bytefs import build_stack
from repro.devcache import DevCacheConfig, DeviceCache
from repro.faults.injector import FaultInjector
from repro.fs.extfs import ExtFSConfig
from repro.fs.vfs import O_CREAT, O_DIRECT, O_RDWR
from repro.ftl.ftl import FTL, FTLConfig
from repro.host.mmap import MappedRegion
from repro.host.page_cache import PageCache
from repro.nand.chip import FlashArray
from repro.nand.geometry import FlashGeometry
from repro.nand.image import filled, same_filled
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.sim.resources import ChannelArray
from repro.ssd import device as device_module
from repro.ssd.device import MSSD, MSSDConfig
from repro.ssd.firmware.bytefs_fw import ByteFSFirmware
from repro.stats.traffic import StructKind, TrafficStats
from repro.trace import tracer as trace
from repro.trace.export import to_jsonl
from repro.workloads import OLTP, MmapStress, Webserver
from tests.conftest import SMALL_GEOMETRY

P = 4096
OTHER = StructKind.OTHER


# ---------------------------------------------------------------------- #
# the reference: frames and single-page block reads as they were before
# ---------------------------------------------------------------------- #

class _Frame:
    """One resident page frame with per-cacheline valid/dirty bitmaps."""

    __slots__ = ("data", "valid", "dirty", "prefetched")

    def __init__(self, data, valid, dirty, prefetched):
        self.data = bytearray(data)
        self.valid = valid
        self.dirty = dirty
        self.prefetched = prefetched


class ReferenceCache(DeviceCache):
    """``DeviceCache`` with every frame-touching method as it was."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._full_mask = (1 << max(1, self.page_size // 64)) - 1

    def _dram(self, n_accesses):
        self.clock.advance_to(
            self.clock.now + n_accesses * self.timing.dram_access_ns
        )

    def _hit(self, lpa, frame):
        self.hits += 1
        if frame.prefetched:
            frame.prefetched = False
            self.prefetch_hits += 1
        self._policy.touch(lpa)

    def _install(self, lpa, data, dirty, prefetched):
        while len(self._frames) >= self.capacity_frames:
            self._evict_one()
        self._frames[lpa] = _Frame(
            data, self._full_mask, self._full_mask if dirty else 0, prefetched
        )
        self._policy.admit(lpa)
        if dirty:
            self._dirty[lpa] = None

    def _evict_one(self):
        lpa = self._policy.victim()
        frame = self._frames.pop(lpa)
        if frame.prefetched:
            self.prefetch_wasted += 1
        if frame.dirty:
            del self._dirty[lpa]
            self.faults.point("devcache.evict")
            self.evictions_dirty += 1
            self.ftl.write_page(lpa, bytes(frame.data), OTHER, background=True)
        else:
            self.evictions_clean += 1

    def _writeback_if_needed(self):
        if len(self._dirty) <= self._high_frames:
            return
        while len(self._dirty) > self._low_frames:
            lpa = next(iter(self._dirty))
            del self._dirty[lpa]
            frame = self._frames[lpa]
            self.faults.point("devcache.writeback")
            self.writebacks += 1
            self.ftl.write_page(lpa, bytes(frame.data), OTHER, background=True)
            frame.dirty = 0

    def _maybe_prefetch(self, lpa, kind):
        if self._prefetcher is None:
            return
        predicted = self._prefetcher.observe(lpa)
        if not predicted:
            return
        wanted = [
            p for p in predicted
            if p >= 0 and p not in self._frames and self.ftl.is_mapped(p)
        ]
        if not wanted:
            return
        datas = self.ftl.read_pages(wanted, kind, background=True)
        self.prefetch_issued += len(wanted)
        for p, data in zip(wanted, datas):
            self._install(p, data, dirty=False, prefetched=True)

    def read_page(self, lpa, kind=OTHER, background=False, as_run=False):
        frame = self._frames.get(lpa)
        if frame is not None:
            self._hit(lpa, frame)
            if not background:
                self._dram(1)
            data = bytes(frame.data)
        else:
            self.misses += 1
            data = self.ftl.read_page(lpa, kind, background)
            self._install(lpa, data, dirty=False, prefetched=False)
        self._maybe_prefetch(lpa, kind)
        return data

    def read_pages(self, lpas, kind=OTHER, background=False):
        out: List[Optional[bytes]] = [None] * len(lpas)
        miss_at, miss_lpas, n_hits = [], [], 0
        for i, lpa in enumerate(lpas):
            frame = self._frames.get(lpa)
            if frame is not None:
                self._hit(lpa, frame)
                out[i] = bytes(frame.data)
                n_hits += 1
            else:
                self.misses += 1
                miss_at.append(i)
                miss_lpas.append(lpa)
        if miss_lpas:
            datas = self.ftl.read_pages(miss_lpas, kind, background)
            for i, lpa, data in zip(miss_at, miss_lpas, datas):
                out[i] = data
                self._install(lpa, data, dirty=False, prefetched=False)
        elif n_hits and not background:
            self._dram(1)
        for lpa in lpas:
            self._maybe_prefetch(lpa, kind)
        return out

    def write_pages(self, pages, kind=OTHER, background=True):
        for lpa, data in pages:
            frame = self._frames.get(lpa)
            if frame is not None:
                self._hit(lpa, frame)
                frame.data[:] = data
                if not frame.dirty:
                    self._dirty[lpa] = None
                frame.valid = self._full_mask
                frame.dirty = self._full_mask
            else:
                self.misses += 1
                self._install(lpa, data, dirty=True, prefetched=False)
            if not background:
                self._dram(1)
            self._writeback_if_needed()

    def _discard(self, lpa):
        frame = self._frames.pop(lpa, None)
        if frame is None:
            return
        self._policy.forget(lpa)
        if frame.prefetched:
            self.prefetch_wasted += 1
        if frame.dirty:
            del self._dirty[lpa]

    def drain_write_buffer(self):
        while self._dirty:
            lpa = next(iter(self._dirty))
            frame = self._frames[lpa]
            self.faults.point("devcache.flush")
            self.flushes += 1
            self.ftl.write_page(lpa, bytes(frame.data), OTHER, background=True)
            frame.dirty = 0
            del self._dirty[lpa]
        self.ftl.drain_write_buffer()

    def check_invariants(self):
        for lpa, frame in self._frames.items():
            assert not frame.dirty & ~frame.valid
            assert bool(frame.dirty) == (lpa in self._dirty)
        assert len(self._policy) == len(self._frames)


def reference_block_read(self, lpa):
    """``ByteFSFirmware.block_read`` as the wrapper it was."""
    return self.block_read_many([lpa])[0]


def reference_load_page(self, lpa, foreground=True):
    """``BaselineFirmware._load_page`` copying every fill at once."""
    page = self._touch(lpa)
    if page is not None:
        self.stats.bump("devcache_hits")
        return page
    self.stats.bump("devcache_misses")
    if trace.ENABLED:
        trace.event("firmware", "devcache_miss", lpa=lpa)
    data = bytearray(self.ftl.read_page(lpa, OTHER, background=not foreground))
    return self._install(lpa, data, dirty=False)


def build(fs_name, devcache, reference, **stack_kw):
    """A stack on the code under test, or on the reference.

    ``MSSD`` binds ``firmware.block_read`` and builds its cache while it
    is constructed, so patching the classes for the length of the build
    is enough: the stack keeps the reference for good.
    """
    with ExitStack() as patches:
        if reference:
            patches.enter_context(mock.patch.object(
                device_module, "DeviceCache", ReferenceCache
            ))
            patches.enter_context(mock.patch.object(
                ByteFSFirmware, "block_read", reference_block_read
            ))
        stack = build_stack(
            fs_name, geometry=SMALL_GEOMETRY, devcache=devcache, **stack_kw
        )
    if reference and fs_name == "ext4":
        firmware = stack[2].firmware
        firmware._load_page = reference_load_page.__get__(firmware)
    return stack


# ---------------------------------------------------------------------- #
# (a) zero-copy pins
# ---------------------------------------------------------------------- #

def flash_object(device: MSSD, lba: int) -> bytes:
    """The very ``bytes`` the flash array holds for ``lba``."""
    return device.flash.read_page(device.ftl.page_map.lookup(lba))


@pytest.mark.parametrize("firmware, devcache", [
    ("bytefs", None),
    ("bytefs", DevCacheConfig(cache_bytes=2 * P)),
    ("baseline", None),
])
def test_single_page_read_returns_the_flash_arrays_object(firmware, devcache):
    device = MSSD(
        MSSDConfig(
            geometry=SMALL_GEOMETRY, firmware=firmware, devcache=devcache
        ),
        VirtualClock(1), TrafficStats(),
    )
    for lba in range(10, 14):
        device.write_blocks(lba, bytes([lba]) * P, StructKind.DATA)
    device.flush_all()
    if devcache is not None:
        for lba in (12, 13):  # two frames: 10 is no longer resident
            device.read_blocks(lba, 1, StructKind.DATA)
        misses = device.devcache.misses
    on_flash = flash_object(device, 10)
    assert device.read_blocks(10, 1, StructKind.DATA) is on_flash  # a miss
    assert device.read_blocks(10, 1, StructKind.DATA) is on_flash  # a hit
    if devcache is not None:
        assert device.devcache.misses == misses + 1


def test_logged_page_is_merged_not_aliased():
    device = MSSD(
        MSSDConfig(geometry=SMALL_GEOMETRY, firmware="bytefs"),
        VirtualClock(1), TrafficStats(),
    )
    device.write_blocks(10, b"\x10" * P, StructKind.DATA)
    device.flush_all()
    device.store(10 * P + 64, b"\xee" * 64, StructKind.DATA)
    merged = device.read_blocks(10, 1, StructKind.DATA)
    assert merged == b"\x10" * 64 + b"\xee" * 64 + b"\x10" * (P - 128)
    assert flash_object(device, 10) == b"\x10" * P


# --- the host page cache: one image per page until its first store ---- #

HELD_ONCE_FS = ["bytefs", "ext4", "f2fs"]


def held_once_file(fs_name):
    """A stack with an 8-page cache and ``/f`` of four synced pages, page
    ``i`` filled with byte ``i + 1``; returns ``(device, fs, fd, ino,
    lba_of)``."""
    _clock, _stats, device, fs = build_stack(
        fs_name, geometry=SMALL_GEOMETRY, page_cache_pages=8
    )
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.write(fd, b"".join(bytes([i + 1]) * P for i in range(4)))
    fs.fsync(fd)
    ino = fs.stat("/f").ino

    def lba_of(pidx):
        if fs_name == "f2fs":
            return fs._get_node(ino).ptrs[pidx]
        return fs._block_of(fs._get_inode(ino), pidx)

    return device, fs, fd, ino, lba_of


@pytest.mark.parametrize("fs_name", HELD_ONCE_FS)
def test_clean_cached_page_is_the_flash_arrays_object(fs_name):
    device, fs, fd, ino, lba_of = held_once_file(fs_name)
    cache = fs.page_cache
    # after the fsync write-back: the image the device took is the page
    device.flush_all()
    for i in range(4):
        data = cache.lookup(ino, i).data
        assert type(data) is bytes
        assert data is flash_object(device, lba_of(i))
    # after a read miss: the image the device returned is the page
    cache.drop_all()
    for i in range(4):
        assert cache.lookup(ino, i) is None
        fs.pread(fd, i * P, P)
        assert cache.lookup(ino, i).data is flash_object(device, lba_of(i))
    # after an eviction write-back (the victims are pages 0..3, stored
    # into first so they leave dirty) and the read miss that follows
    for i in range(4):
        fs.pwrite(fd, i * P + 7, b"\xee")
    for i in range(4, 12):
        fs.pwrite(fd, i * P, bytes([i + 1]) * P)
    fs.fsync(fd)
    device.flush_all()
    for i in range(4):
        assert cache.lookup(ino, i) is None
        image = bytes([i + 1]) * 7 + b"\xee" + bytes([i + 1]) * (P - 8)
        assert fs.pread(fd, i * P, P) == image
        assert cache.lookup(ino, i).data is flash_object(device, lba_of(i))


@pytest.mark.parametrize("fs_name", HELD_ONCE_FS)
def test_a_read_hole_is_cached_as_the_shared_zero_page(fs_name):
    _clock, _stats, _device, fs = build_stack(
        fs_name, geometry=SMALL_GEOMETRY, page_cache_pages=8
    )
    fd = fs.open("/sparse", O_CREAT | O_RDWR)
    fs.write(fd, b"\x01" * P)
    fs.ftruncate(fd, 4 * P)  # pages 1..3: a hole, no block behind them
    ino = fs.stat("/sparse").ino
    assert fs.page_cache.lookup(ino, 2) is None
    assert fs.pread(fd, 2 * P + 5, 10) == bytes(10)
    assert fs.page_cache.lookup(ino, 2).data is filled(0, P)


@pytest.mark.parametrize("fs_name", ["bytefs", "ext4"])  # f2fs: no runs
def test_whole_page_write_caches_the_shared_fill(fs_name):
    _clock, _stats, _device, fs = build_stack(
        fs_name, geometry=SMALL_GEOMETRY, page_cache_pages=8
    )
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.write(fd, b"".join(bytes([i + 1]) * P for i in range(4)))
    ino = fs.stat("/f").ino
    for i in range(4):
        page = fs.page_cache.lookup(ino, i)
        assert page.dirty and page.data is filled(i + 1, P)
        if fs_name == "bytefs":  # the CoW duplicate: the zero page
            assert page.original is filled(0, P)


@pytest.mark.parametrize("how", ["pwrite", "mmap store"])
@pytest.mark.parametrize("fs_name", HELD_ONCE_FS)
def test_first_store_takes_the_one_private_copy(fs_name, how):
    if how == "mmap store" and fs_name == "f2fs":
        pytest.skip("f2fs has no mmap")
    device, fs, fd, ino, lba_of = held_once_file(fs_name)
    device.flush_all()
    old = flash_object(device, lba_of(1))
    assert fs.page_cache.lookup(ino, 1).data is old
    if how == "pwrite":
        fs.pwrite(fd, P + 100, b"zz")
    else:
        fs.mmap(fd, 0, 4 * P).store(P + 100, b"zz")
    page = fs.page_cache.lookup(ino, 1)
    assert type(page.data) is bytearray and page.dirty
    assert page.data == b"\x02" * 100 + b"zz" + b"\x02" * (P - 102)
    if fs_name == "bytefs":
        assert page.original is old  # the duplicate is the old image
    else:
        assert page.original is None
    assert flash_object(device, lba_of(1)) is old
    assert old == b"\x02" * P
    stored = bytes(page.data)
    fs.fsync(fd)
    assert not page.dirty and page.original is None
    if fs_name == "bytefs":
        # Two bytes leave through the byte interface: no page image was
        # made, the page keeps its buffer, and the next first store
        # duplicates a snapshot of it.
        assert type(page.data) is bytearray
        fs.pwrite(fd, P + 200, b"yy")
        assert type(page.original) is bytes and page.original == stored
    else:
        # Block write-back hands the device one ``bytes`` and keeps it.
        assert type(page.data) is bytes and page.data == stored


def test_o_direct_patch_of_a_clean_page_does_not_reach_the_flash_image():
    device, fs, fd, ino, lba_of = held_once_file("bytefs")
    device.flush_all()
    old = flash_object(device, lba_of(0))
    dfd = fs.open("/f", O_RDWR | O_DIRECT)
    fs.pwrite(dfd, 8, b"direct")  # byte interface; patches the cached page
    page = fs.page_cache.lookup(ino, 0)
    assert not page.dirty and type(page.data) is bytearray
    assert bytes(page.data[:16]) == b"\x01" * 8 + b"direct" + b"\x01" * 2
    assert old == b"\x01" * P


def mark_page_dirty_without_the_copy(self, page, cow):
    """Mutant: ``PageCache.mark_page_dirty`` leaving ``data`` shared."""
    if cow and page.original is None:
        page.original = bytes(page.data)
        self.cow_copies += 1
    if not page.dirty:
        page.dirty = True
        ino, index = page._key
        self._spaces[ino].dirty[index] = page


@pytest.mark.parametrize("fs_name", HELD_ONCE_FS)
def test_store_without_the_copy_is_a_type_error(fs_name):
    """The point of the representation: a store that skipped the copy
    cannot scribble over the device's image, it fails."""
    device, fs, fd, ino, lba_of = held_once_file(fs_name)
    device.flush_all()
    with mock.patch.object(
        PageCache, "mark_page_dirty", mark_page_dirty_without_the_copy
    ):
        with pytest.raises(TypeError):
            fs.pwrite(fd, 100, b"zz")
    assert flash_object(device, lba_of(0)) == b"\x01" * P


def make_cache(cache_cls=DeviceCache, frames=4, **config_kw):
    """``cache_cls`` over a real FTL on a tiny geometry."""
    geo = FlashGeometry(
        n_channels=2, ways_per_channel=1, blocks_per_way=16,
        pages_per_block=16, page_size=512,
    )
    clock, stats, timing = VirtualClock(1), TrafficStats(), TimingModel()
    ftl = FTL(
        geo, FlashArray(geo), ChannelArray(geo.n_channels), timing, clock,
        stats, FTLConfig(write_buffer_pages=4),
    )
    config = DevCacheConfig(cache_bytes=frames * 512, **config_kw)
    return cache_cls(ftl, config, timing, clock, stats), ftl


def frames_are_private(cache_cls) -> bool:
    """Whether a frame survives its caller scribbling over the buffer it
    was written from (install and overwrite, bytearray and memoryview)."""
    cache, _ftl = make_cache(cache_cls)
    page = bytes(range(256)) * 2  # not one fill: that would be shared
    buf = bytearray(page)
    cache.write_page(1, buf)
    cache.write_page(2, memoryview(buf))
    cache.write_page(3, b"\x00" * 512)
    cache.write_page(3, buf)  # a hit overwriting the frame
    buf[:] = b"\xff" * 512
    return all(cache.read_page(lpa) == page for lpa in (1, 2, 3))


def test_frame_does_not_alias_a_mutable_buffer():
    assert frames_are_private(DeviceCache)


def test_frame_shares_an_immutable_page():
    cache, ftl = make_cache()
    page = bytes(range(256)) * 2
    filled_page = b"\x07" * 512
    cache.write_page(4, page)
    cache.write_page(5, filled_page)
    # a same-filled page is the one shared image of its fill, everywhere
    shared = same_filled(filled_page)
    assert shared is filled(7, 512) and shared is not filled_page
    assert cache.read_page(4) is page
    assert cache.read_page(5) is shared
    cache.drain_write_buffer()
    assert ftl.read_page(4) is page
    assert ftl.read_page(5) is shared


# ---------------------------------------------------------------------- #
# (b) equivalence with the reference
# ---------------------------------------------------------------------- #

N_LPAS = 24

cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, N_LPAS - 1)),
        st.tuples(st.just("byte_read"), st.integers(0, N_LPAS - 1)),
        st.tuples(
            st.just("scan"), st.integers(0, N_LPAS - 1), st.integers(1, 3),
            st.integers(3, 8),
        ),
        st.tuples(
            st.just("read_many"),
            st.lists(st.integers(0, N_LPAS - 1), min_size=1, max_size=5),
        ),
        st.tuples(
            st.just("write"), st.integers(0, N_LPAS - 1), st.integers(0, 255)
        ),
        st.tuples(st.just("trim"), st.integers(0, N_LPAS - 1)),
        st.tuples(
            st.just("trim_many"), st.integers(0, N_LPAS - 4),
            st.integers(1, 4),
        ),
        st.tuples(st.just("drain")),
    ),
    max_size=60,
)


def drive_cache(cache, ftl, ops) -> List:
    """Apply ``ops``; return everything observable after each one."""
    for lpa in range(0, N_LPAS, 2):  # odd LPAs stay unmapped
        ftl.write_page(lpa, bytes([lpa]) * 512, OTHER)
    seen = []
    for op in ops:
        out = None
        if op[0] == "read":
            out = cache.read_page(op[1], OTHER, False, True)
        elif op[0] == "byte_read":
            out = cache.read_page(op[1])
        elif op[0] == "scan":
            out = [
                cache.read_page((op[1] + i * op[2]) % N_LPAS)
                for i in range(op[3])
            ]
        elif op[0] == "read_many":
            out = cache.read_pages(list(op[1]))
        elif op[0] == "write":
            cache.write_page(op[1], bytes([op[2]]) * 512)
        elif op[0] == "trim":
            cache.trim(op[1])
        elif op[0] == "trim_many":
            cache.trim_many(op[1], op[2])
        else:
            cache.drain_write_buffer()
        cache.check_invariants()
        seen.append((
            out, repr(cache.clock.now), cache.gauges(), list(cache._dirty),
            sorted(cache._frames),
        ))
    cache.drain_write_buffer()
    seen.append((
        repr(cache.clock.now), cache.stats.to_json(),
        [ftl.read_page(lpa) for lpa in range(N_LPAS)],
    ))
    return seen


def cache_matches_reference(cache_cls, ops, **config_kw) -> bool:
    return drive_cache(*make_cache(cache_cls, **config_kw), ops) == \
        drive_cache(*make_cache(ReferenceCache, **config_kw), ops)


@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize("policy", ["lru", "clock", "hotcold"])
@settings(max_examples=40, deadline=None)
@given(ops=cache_ops, frames=st.integers(1, 8))
def test_cache_matches_reference(policy, prefetch, ops, frames):
    assert cache_matches_reference(
        DeviceCache, ops, frames=frames, policy=policy, prefetch=prefetch
    )


N_FILES = 2
FILE_PAGES = 12

fs_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["pread", "mload"]), st.integers(0, N_FILES - 1),
            st.integers(0, FILE_PAGES * P - 1), st.integers(1, 3 * P),
        ),
        st.tuples(
            st.sampled_from(["pwrite", "mstore"]), st.integers(0, N_FILES - 1),
            st.integers(0, FILE_PAGES * P - 1), st.integers(1, 3 * P),
            st.integers(0, 255),
        ),
        # page-strided reads: what the stride prefetcher locks on to
        st.tuples(
            st.sampled_from(["pscan", "mscan"]), st.integers(0, N_FILES - 1),
            st.integers(0, FILE_PAGES - 1), st.integers(1, 3),
            st.integers(3, 8),
        ),
        st.tuples(
            st.sampled_from(["fsync", "msync", "unlink"]),
            st.integers(0, N_FILES - 1),
        ),
    ),
    max_size=30,
)


class Files:
    """``N_FILES`` files of ``FILE_PAGES`` synced pages, each mapped."""

    def __init__(self, fs):
        self.fs = fs
        self.fds: Dict[int, int] = {}
        self.maps: Dict[int, object] = {}
        for f in range(N_FILES):
            self.create(f)

    def create(self, f):
        fs = self.fs
        fd = fs.open(f"/f{f}", O_CREAT | O_RDWR)
        fs.write(fd, b"".join(bytes([16 * f + i]) * P
                              for i in range(FILE_PAGES)))
        fs.fsync(fd)
        self.fds[f] = fd
        self.maps[f] = fs.mmap(fd, 0, FILE_PAGES * P)

    def apply(self, op):
        fs, f = self.fs, op[1]
        fd, mapped = self.fds[f], self.maps[f]
        kind = op[0]
        if kind in ("pread", "mload"):
            n = min(op[3], FILE_PAGES * P - op[2])
            return fs.pread(fd, op[2], n) if kind == "pread" \
                else mapped.load(op[2], n)
        if kind in ("pwrite", "mstore"):
            n = min(op[3], FILE_PAGES * P - op[2])
            data = bytes([op[4]]) * n
            return fs.pwrite(fd, op[2], data) if kind == "pwrite" \
                else mapped.store(op[2], data)
        if kind in ("pscan", "mscan"):
            pages = [(op[2] + i * op[3]) % FILE_PAGES for i in range(op[4])]
            return [
                fs.pread(fd, p * P, P) if kind == "pscan"
                else mapped.load(p * P, P)
                for p in pages
            ]
        if kind == "fsync":
            return fs.fsync(fd)
        if kind == "msync":
            return mapped.msync()
        mapped.close()
        fs.close(fd)
        fs.unlink(f"/f{f}")
        self.create(f)


def drive_fs(stack, ops) -> List:
    clock, stats, device, fs = stack
    files = Files(fs)
    seen = []
    for op in ops:
        out = files.apply(op)
        seen.append((out, repr(clock.now), device.gauges()))
    if device.devcache is not None:
        device.devcache.check_invariants()
    contents = [
        fs.pread(files.fds[f], 0, FILE_PAGES * P) for f in range(N_FILES)
    ]
    fs.unmount()
    seen.append((
        contents, repr(clock.now), stats.to_json(), device.gauges(),
        (device.link.mmio_reads, device.link.mmio_writes,
         device.link.dma_transfers),
        {
            lpa: device.flash.read_page(device.ftl.page_map.lookup(lpa))
            for lpa in sorted(device.ftl.page_map.mapped_lpas())
        },
    ))
    return seen


FS_CONFIGS = [("bytefs", None), ("ext4", None)] + [
    ("bytefs", DevCacheConfig(cache_bytes=6 * P, policy=policy,
                              prefetch=prefetch))
    for policy in ("lru", "clock", "hotcold") for prefetch in (False, True)
]


@pytest.mark.parametrize(
    "fs_name, devcache", FS_CONFIGS,
    ids=[
        fs_name if dc is None
        else f"{fs_name}-{dc.policy}-{'prefetch' if dc.prefetch else 'demand'}"
        for fs_name, dc in FS_CONFIGS
    ],
)
@settings(max_examples=12, deadline=None)
@given(ops=fs_ops)
def test_op_stream_matches_reference(fs_name, devcache, ops):
    seen = [
        drive_fs(
            build(
                fs_name, devcache, reference,
                page_cache_pages=4,
                # no periodic journal commit flushing pages behind the ops
                fs_config=ExtFSConfig(commit_interval_ops=1 << 30),
            ),
            ops,
        )
        for reference in (False, True)
    ]
    assert seen[0] == seen[1]


def test_fixed_stream_exercises_every_fill_path():
    """The equivalence above is not vacuous: one stream with hits,
    evictions, useful and wasted prefetches, and merged block reads."""
    ops = [
        ("pscan", 0, 0, 1, 8), ("mscan", 1, 1, 2, 6),
        ("pwrite", 0, 3 * P + 100, 200, 0xAB), ("fsync", 0),
        ("mstore", 1, 5 * P + 64, 64, 0xCD), ("msync", 1),
        ("pscan", 0, 0, 1, 8), ("mscan", 1, 0, 1, 8),
        ("pwrite", 0, 6 * P, 2 * P, 0x11), ("fsync", 0),
        ("pscan", 0, 4, 1, 6), ("unlink", 1), ("mscan", 1, 0, 3, 4),
    ]
    dc = DevCacheConfig(cache_bytes=6 * P, policy="lru", prefetch=True)
    seen = []
    for reference in (False, True):
        stack = build(
            "bytefs", dc, reference, page_cache_pages=4,
            fs_config=ExtFSConfig(commit_interval_ops=1 << 30),
        )
        seen.append(drive_fs(stack, ops))
    assert seen[0] == seen[1]
    _clock, stats, device, _fs = stack
    gauges = device.gauges()
    for key in ("hits", "evictions_clean", "evictions_dirty", "writebacks",
                "prefetch_hits", "prefetch_wasted"):
        assert gauges[f"devcache_{key}"] > 0, key
    assert stats.counters["fw_block_read_merges"] > 0
    assert stats.counters["mmap_page_faults"] > 0


def test_reference_stack_is_the_reference():
    """The equivalence above is not vacuous: the reference stack runs
    the old frames and the old ``block_read`` wrapper."""
    dc = DevCacheConfig(cache_bytes=6 * P)
    _clock, _stats, device, _fs = build("bytefs", dc, True)
    assert type(device.devcache) is ReferenceCache
    assert device._fw_block_read.__func__ is reference_block_read
    _clock, _stats, device, _fs = build("bytefs", dc, False)
    assert type(device.devcache) is DeviceCache
    assert device._fw_block_read.__func__ is ByteFSFirmware.block_read


# ---------------------------------------------------------------------- #
# (c) trace spans and crash sites: goldens of the parent commit
# ---------------------------------------------------------------------- #

def golden_cases():
    """name -> (fs, workload factory, run_workload keywords)."""
    return {
        "mmap_stress+devcache": (
            "bytefs",
            lambda: MmapStress(n_ops=900, n_threads=2, file_pages=48, seed=7),
            {
                "page_cache_pages": 16,
                "devcache": DevCacheConfig(
                    cache_bytes=32 * P, policy="lru", prefetch=True
                ),
            },
        ),
        "webserver": (
            "bytefs", lambda: Webserver(ops_per_thread=6, seed=7), {},
        ),
        "oltp-ext4": (
            "ext4", lambda: OLTP(ops_per_thread=12, seed=7), {},
        ),
        "mmap_stress": (
            "bytefs",
            lambda: MmapStress(n_ops=900, n_threads=2, file_pages=48, seed=7),
            {"page_cache_pages": 16},
        ),
    }


def trace_sha256(name: str) -> str:
    """sha256 of the span-trace JSONL of a case (what ``repro trace
    --format jsonl`` writes)."""
    fs_name, make_workload, kw = golden_cases()[name]
    workload = make_workload()
    result = run_workload(
        fs_name, workload, geometry=SMALL_GEOMETRY, traced=True, **kw
    )
    text = to_jsonl(result.trace, {"fs": fs_name, "workload": workload.name})
    return hashlib.sha256(text.encode()).hexdigest()


def crash_sites_sha256(name: str) -> str:
    """sha256 of the numbered crash sites a counting injector records
    over a case's setup and op stream."""
    fs_name, make_workload, kw = golden_cases()[name]
    workload = make_workload()
    faults = FaultInjector()
    clock, _stats, _device, fs = build_stack(
        fs_name, geometry=SMALL_GEOMETRY, n_threads=workload.n_threads,
        faults=faults, log_bytes=1 << 20, device_cache_bytes=1 << 20,
        page_cache_pages=kw.get("page_cache_pages", 512),
        devcache=kw.get("devcache"),
    )
    faults.start_count()
    workload.setup(fs)
    threads = list(enumerate(workload.make_threads(fs)))
    while threads:
        for tid, gen in list(threads):
            clock.switch(tid)
            if next(gen, None) is None:
                threads.remove((tid, gen))
    fs.unmount()
    sites = [(s.index, s.label, s.nbytes, s.atom) for s in faults.trace]
    assert len(sites) > 100
    return hashlib.sha256(repr(sites).encode()).hexdigest()


#: taken on a484c12, the commit before the page fill became straight-line,
#: by calling the two functions above with that tree on ``sys.path``
GOLDEN_TRACE_SHA256 = {
    "mmap_stress+devcache":
        "fa3f67370e98644b588906110fb2a841b323048f46f4b271b007c76715029044",
    "webserver":
        "4f1c76ce5650f18225be532e6144f3e9e0c119728283707848ae337fb5f45695",
    "oltp-ext4":
        "0344559f09395e8e28fce737eca5c5037a1fc6a7ccaccd8fdb4f5305492f5248",
}
GOLDEN_CRASH_SITES_SHA256 = {
    "mmap_stress+devcache":
        "6d4337e194b5762777d19a35e46d174f84f028c33620d3a67f0b91c8dc52fb65",
    "webserver":
        "60698eb8c7198eb67d17b6f187f3df587c4d62f17fe6230a7f1dd5768fa8fdb7",
    "oltp-ext4":
        "8a7c6adab5a6a4a99a504ea63b0ddba5ca14854b14bab8d0c42cb70684c13cc9",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_SHA256))
def test_trace_jsonl_matches_parent_golden(name):
    assert trace_sha256(name) == GOLDEN_TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CRASH_SITES_SHA256))
def test_crash_sites_match_parent_golden(name):
    assert crash_sites_sha256(name) == GOLDEN_CRASH_SITES_SHA256[name]


#: taken on 32f83b4, the commit before a page-cache fill became one call:
#: mmap faults the firmware serves with no devcache, a 16-page host cache
#: that evicts on nearly every fault, and msync write-back cleaning pages
#: behind the faults — the fill shape the cases above leave out
MMAP_FAULT_SHA256 = {
    "trace":
        "dccfcb0552df66202cee95b8e088567964d63cfc64a519a88569864af84b865d",
    "run_result":
        "66494bc8ccd054ce04a4be7291fbafb8855ecda0b1e99463ef3a9bf9b0bb71c6",
    "crash_sites":
        "f90142189a423f1fe9fa52a0ea00365e0012b55f3092478b0d3360830efbb5d2",
}


def test_mmap_fault_fill_matches_parent_golden():
    fs_name, make_workload, kw = golden_cases()["mmap_stress"]
    cleaned = []
    msync = MappedRegion.msync

    def counting_msync(region):
        dirty = region.fs.page_cache.dirty_pages
        before = len(dirty(region.ino))
        msync(region)
        cleaned.append(before - len(dirty(region.ino)))

    caches = []

    def keep_cache(_phase, _clock, _stats, _device, fs):
        caches.append(fs.page_cache)

    with mock.patch.object(MappedRegion, "msync", counting_msync):
        result = run_workload(
            fs_name, make_workload(), geometry=SMALL_GEOMETRY,
            stack_probe=keep_cache, **kw,
        )
    doc = json.dumps(result.to_json(), sort_keys=True)
    assert {
        "trace": trace_sha256("mmap_stress"),
        "run_result": hashlib.sha256(doc.encode()).hexdigest(),
        "crash_sites": crash_sites_sha256("mmap_stress"),
    } == MMAP_FAULT_SHA256
    # not vacuous: the cache evicts, mmap faults fill it, msync cleans
    assert caches[-1].misses > kw["page_cache_pages"]
    assert result.counters["mmap_page_faults"] > 0
    assert sum(cleaned) > 0


# ---------------------------------------------------------------------- #
# (d) planted mutants
# ---------------------------------------------------------------------- #

class AliasingCache(DeviceCache):
    """Mutant: a frame is whatever buffer it was handed, mutable or not."""

    def _install(self, lpa, data):
        while len(self._frames) >= self.capacity_frames:
            self._evict_one()
        self._frames[lpa] = data
        self._policy.admit(lpa)


class StickyPrefetchCache(DeviceCache):
    """Mutant: a demand hit leaves the frame marked prefetched."""

    def _hit(self, lpa):
        self.hits += 1
        if lpa in self._prefetched:
            self.prefetch_hits += 1
        self._policy.touch(lpa)


def test_aliasing_mutant_is_caught():
    assert not frames_are_private(AliasingCache)


def test_sticky_prefetch_mutant_is_caught():
    # a scan the prefetcher locks on to, read twice: the second pass
    # hits frames whose prefetch was already counted useful
    ops = [("scan", 0, 2, 6), ("scan", 0, 2, 6)]
    kw = {"frames": 8, "prefetch": True}
    assert cache_matches_reference(DeviceCache, ops, **kw)
    assert not cache_matches_reference(StickyPrefetchCache, ops, **kw)
