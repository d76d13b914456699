"""Physical device state in flat arrays: same behaviour as the dicts.

``FlashArray``, ``PageMap`` and ``FTL`` keep their physical state in
lists and arrays indexed by PPA / LPA / block id, and ``write_pages`` /
GC allocate and invalidate inline.  The dict-backed, one-call-per-step
versions they replaced are kept *here* as the reference, and hypothesis
op streams must leave both in the same state, down to the clock.  The
reference array keeps every image it was ever handed; the real one holds
exactly the images a mapped read can reach, which is pinned here too,
slot by slot and without reading RSS.  The same goes for the host side
of an fsync: ``AddressSpace``'s dirty index against the full scan it
replaced, and JBD2's one-``struct.pack`` record against the piecewise
packing.
"""

from __future__ import annotations

import struct
from array import array
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import fssan
from repro.bench.harness import run_workload
from repro.devcache import DevCacheConfig
from repro.fs import jbd2 as jbd2_mod
from repro.fs.jbd2 import JBD2, JournalFullError
from repro.ftl.ftl import FTL, FTLConfig
from repro.ftl.mapping import PageMap
from repro.host.page_cache import PageCache
from repro.nand.chip import RELEASED, FlashArray, FlashError
from repro.nand.geometry import FlashGeometry
from repro.nand.image import filled
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.sim.resources import ChannelArray
from repro.stats.traffic import Direction, StructKind, TrafficStats
from repro.workloads import OLTP, Fileserver, Varmail
from tests.conftest import SMALL_GEOMETRY, make_device

PAGE = 64

GEOMETRIES = {
    "1ch": FlashGeometry(1, 1, 8, 4, PAGE),
    "4ch": FlashGeometry(4, 1, 5, 4, PAGE),
    "2ch-2way": FlashGeometry(2, 2, 3, 4, PAGE),
}


@pytest.fixture(autouse=True)
def _sanitizer_state():
    prev = fssan.ENABLED
    yield
    fssan.ENABLED = prev


# ---------------------------------------------------------------------- #
# the references: the dict-backed state and per-page call chain replaced
# ---------------------------------------------------------------------- #

class RefFlashArray:
    """Sparse pages in a dict, programmed-ness in a set."""

    def __init__(self, geometry):
        self.geometry = geometry
        self._pages = {}
        self._programmed = set()
        self.erase_counts = {}
        self.reads = self.writes = self.erases = 0
        self.erase_order = []

    def read_page(self, ppa):
        self._check_ppa(ppa)
        self.reads += 1
        data = self._pages.get(ppa)
        return bytes(self.geometry.page_size) if data is None else data

    def program_page(self, ppa, data):
        self._check_ppa(ppa)
        if ppa in self._programmed:
            raise FlashError(f"page {ppa} already programmed")
        if len(data) > self.geometry.page_size:
            raise FlashError("data exceeds page size")
        data = data + bytes(self.geometry.page_size - len(data))
        self._pages[ppa] = bytes(data)
        self._programmed.add(ppa)
        self.writes += 1

    def erase_block(self, block_id):
        base = self.geometry.block_base_ppa(block_id)
        for ppa in range(base, base + self.geometry.pages_per_block):
            self._pages.pop(ppa, None)
            self._programmed.discard(ppa)
        self.erase_counts[block_id] = self.erase_counts.get(block_id, 0) + 1
        self.erases += 1
        self.erase_order.append(block_id)

    def _check_ppa(self, ppa):
        if not 0 <= ppa < self.geometry.total_pages:
            raise FlashError(f"ppa {ppa} out of range")

    def image(self):
        return [
            self._pages.get(ppa)
            for ppa in range(self.geometry.total_pages)
        ]

    def programmed(self):
        return sorted(self._programmed)


class RefPageMap:
    """Both directions in dicts."""

    def __init__(self):
        self._l2p = {}
        self._p2l = {}

    def lookup(self, lpa):
        return self._l2p.get(lpa)

    def reverse(self, ppa):
        return self._p2l.get(ppa)

    def bind(self, lpa, ppa):
        old = self._l2p.get(lpa)
        if old is not None:
            self._p2l.pop(old, None)
        self._l2p[lpa] = ppa
        self._p2l[ppa] = lpa
        return old

    def unbind(self, lpa):
        ppa = self._l2p.pop(lpa, None)
        if ppa is not None:
            self._p2l.pop(ppa, None)
        return ppa

    def mapped_lpas(self):
        return self._l2p.keys()


class _RefBlock:
    def __init__(self, block_id):
        self.block_id = block_id
        self.next_page = 0
        self.valid = 0


class RefFTL:
    """The FTL with ``_blocks`` a dict walked whole per victim pick and
    one call per allocation / channel-serve / invalidation step."""

    def __init__(self, geometry, flash, channels, timing, clock, stats,
                 config):
        self.geometry = geometry
        self.flash = flash
        self.channels = channels
        self.timing = timing
        self.clock = clock
        self.stats = stats
        self.config = config
        self.page_map = RefPageMap()
        self._free_blocks = [[] for _ in range(len(channels))]
        self._active = [None] * len(channels)
        self._blocks = {}
        self._next_channel = 0
        for block_id in range(geometry.total_blocks):
            self._free_blocks[geometry.channel_of_block(block_id)].append(
                block_id
            )
        self._inflight = []
        self._inflight_max = 0.0
        self._in_gc = False
        self.gc_runs = 0
        self.gc_migrated_pages = 0

    def read_page(self, lpa, kind=StructKind.OTHER, background=False):
        ppa = self.page_map.lookup(lpa)
        self.stats.record_flash(kind, Direction.READ, self.geometry.page_size)
        if ppa is None:
            return bytes(self.geometry.page_size)
        end = self.channels.serve(
            self.geometry.channel_of(ppa), self.clock.now,
            self.timing.flash_read_ns,
        )
        if not background:
            self.clock.advance_to(end)
        return self.flash.read_page(ppa)

    def read_pages(self, lpas, kind=StructKind.OTHER, background=False):
        start = self.clock.now
        datas = []
        max_end = start
        for lpa in lpas:
            self.stats.record_flash(
                kind, Direction.READ, self.geometry.page_size
            )
            ppa = self.page_map.lookup(lpa)
            if ppa is None:
                datas.append(bytes(self.geometry.page_size))
                continue
            end = self.channels.serve(
                self.geometry.channel_of(ppa), start,
                self.timing.flash_read_ns,
            )
            max_end = max(max_end, end)
            datas.append(self.flash.read_page(ppa))
        if not background:
            self.clock.advance_to(max_end)
        return datas

    def write_page(self, lpa, data, kind=StructKind.OTHER, background=True):
        self.write_pages(((lpa, data),), kind, background)

    def write_pages(self, pages, kind=StructKind.OTHER, background=True):
        for lpa, data in pages:
            if len(self._inflight) >= self.config.write_buffer_pages:
                self._reserve_buffer_slot()
            ppa, ch = self._allocate_ppa()
            end = self.channels.occupy(
                ch, self.clock.now, self.timing.flash_write_ns
            )
            heappush(self._inflight, end)
            if end > self._inflight_max:
                self._inflight_max = end
            if not background:
                self.clock.advance_to(end)
            self.flash.program_page(ppa, data)
            old = self.page_map.bind(lpa, ppa)
            if old is not None:
                self._invalidate_ppa(old)
            self._blocks[self.geometry.block_id_of(ppa)].valid += 1
            self.stats.record_flash(
                kind, Direction.WRITE, self.geometry.page_size
            )

    def trim(self, lpa):
        ppa = self.page_map.unbind(lpa)
        if ppa is not None:
            self._invalidate_ppa(ppa)

    def trim_many(self, lpa, n_pages):
        for p in range(lpa, lpa + n_pages):
            self.trim(p)

    def _allocate_ppa(self):
        n_channels = len(self.channels)
        for _ in range(n_channels):
            ch = self._next_channel
            self._next_channel = (self._next_channel + 1) % n_channels
            ppa = self._alloc_on_channel(ch)
            if ppa is not None:
                return ppa, ch
        raise FlashError("device out of space: GC could not free any block")

    def _alloc_on_channel(self, ch):
        active = self._active[ch]
        if active is None or active.next_page >= self.geometry.pages_per_block:
            if (
                not self._in_gc
                and len(self._free_blocks[ch]) <= self.config.gc_free_block_low
            ):
                self._garbage_collect(ch)
            if not self._free_blocks[ch]:
                return None
            block_id = self._free_blocks[ch].pop(0)
            active = _RefBlock(block_id)
            self._active[ch] = active
            self._blocks[block_id] = active
        ppa = self.geometry.block_base_ppa(active.block_id) + active.next_page
        active.next_page += 1
        return ppa

    def _invalidate_ppa(self, ppa):
        state = self._blocks.get(self.geometry.block_id_of(ppa))
        if state is not None and state.valid > 0:
            state.valid -= 1

    def _garbage_collect(self, ch):
        victim = self._pick_victim(ch)
        if victim is None:
            return
        self._in_gc = True
        try:
            self._collect_block(ch, victim)
        finally:
            self._in_gc = False

    def _collect_block(self, ch, victim):
        self.gc_runs += 1
        base = self.geometry.block_base_ppa(victim.block_id)
        for ppa in range(base, base + self.geometry.pages_per_block):
            lpa = self.page_map.reverse(ppa)
            if lpa is None:
                continue
            self.channels.occupy(
                ch, self.clock.now, self.timing.flash_read_ns
            )
            data = self.flash.read_page(ppa)
            self.stats.record_flash(
                StructKind.OTHER, Direction.READ, self.geometry.page_size
            )
            self.stats.bump("gc_page_migrations")
            self.gc_migrated_pages += 1
            new_ppa, new_ch = self._allocate_ppa()
            self.channels.occupy(
                new_ch, self.clock.now, self.timing.flash_write_ns
            )
            self.flash.program_page(new_ppa, data)
            self.page_map.bind(lpa, new_ppa)
            self._blocks[self.geometry.block_id_of(new_ppa)].valid += 1
            self.stats.record_flash(
                StructKind.OTHER, Direction.WRITE, self.geometry.page_size
            )
        self.channels.occupy(ch, self.clock.now, self.timing.flash_erase_ns)
        self.flash.erase_block(victim.block_id)
        self._blocks.pop(victim.block_id, None)
        self._free_blocks[ch].append(victim.block_id)
        self.stats.bump("gc_runs")

    def _pick_victim(self, ch):
        best = None
        for block_id, state in self._blocks.items():
            if self.geometry.channel_of_block(block_id) != ch:
                continue
            if self._active[ch] is state:
                continue
            if state.next_page == 0:
                continue
            if best is None or state.valid < best.valid:
                best = state
        return best

    def _reserve_buffer_slot(self):
        inflight = self._inflight
        now = self.clock.now
        while inflight and inflight[0] <= now:
            heappop(inflight)
        if not inflight:
            self._inflight_max = 0.0
        while len(inflight) >= self.config.write_buffer_pages:
            self.clock.advance_to(inflight[0])
            self.stats.bump("write_buffer_stalls")
            now = self.clock.now
            while inflight and inflight[0] <= now:
                heappop(inflight)
            if not inflight:
                self._inflight_max = 0.0


class RecordingFlashArray(FlashArray):
    """The real array, noting the order blocks are erased in."""

    def __init__(self, geometry):
        super().__init__(geometry)
        self.erase_order = []

    def erase_block(self, block_id):
        super().erase_block(block_id)
        self.erase_order.append(block_id)

    def image(self):
        return list(self._pages)

    def programmed(self):
        return [
            ppa for ppa, slot in enumerate(self._pages) if slot is not None
        ]


class KeepingFlashArray(RecordingFlashArray):
    """The array before images followed the live set: an invalidated
    page keeps its bytes, so a stale read returns them."""

    def invalidate_page(self, ppa):
        pass


# ---------------------------------------------------------------------- #
# op streams
# ---------------------------------------------------------------------- #

def build(ftl_cls, flash_cls, geometry, map_cls=None):
    clock = VirtualClock(1)
    stats = TrafficStats()
    channels = ChannelArray(geometry.n_channels)
    ftl = ftl_cls(
        geometry, flash_cls(geometry), channels, TimingModel(), clock, stats,
        FTLConfig(write_buffer_pages=3, gc_free_block_low=1),
    )
    if map_cls is not None:
        ftl.page_map = map_cls(geometry.total_pages)
        ftl._pm_bind = ftl.page_map.bind
        ftl._l2p = ftl.page_map._l2p
    return ftl


def apply(ftl, ops):
    """Run ``ops``; returns what the reads returned and where the device
    ran out of space (both sides must agree on that too)."""
    seen = []
    stamp = 0
    for op in ops:
        try:
            if op[0] == "run":
                _, lpa, n, background = op
                pages = []
                for i in range(n):
                    stamp += 1
                    pages.append((lpa + i, struct.pack("<I", stamp) * 4))
                ftl.write_pages(pages, StructKind.DATA, background)
            elif op[0] == "write":
                stamp += 1
                ftl.write_page(op[1], struct.pack("<I", stamp), StructKind.INODE)
            elif op[0] == "trim":
                ftl.trim(op[1])
            elif op[0] == "trim_many":
                ftl.trim_many(op[1], op[2])
            elif op[0] == "read":
                seen.append(ftl.read_page(op[1]))
            elif op[0] == "read_pages":
                seen.append(ftl.read_pages(list(op[1]), StructKind.DATA))
            elif op[0] == "churn":
                # sustained overwrite of a few pages: wraps the device
                _, lpa, span, rounds = op
                for r in range(rounds):
                    stamp += 1
                    ftl.write_page(
                        lpa + r % span, struct.pack("<I", stamp),
                        StructKind.DATA,
                    )
        except FlashError as exc:
            if "out of space" not in str(exc):
                raise
            seen.append(("out of space", str(exc)))
            break
    return seen


def state(ftl, seen):
    """Everything the device can observe: of the flash array, the image
    of every mapped PPA and the programmed-ness of every slot."""
    clock = ftl.clock
    page_map = ftl.page_map
    p2l = {}
    for ppa in range(ftl.geometry.total_pages):
        lpa = page_map.reverse(ppa)
        if lpa is not None:
            p2l[ppa] = lpa
    image = ftl.flash.image()
    return {
        "seen": seen,
        "l2p": {lpa: page_map.lookup(lpa) for lpa in page_map.mapped_lpas()},
        "p2l": p2l,
        "flash": {ppa: image[ppa] for ppa in p2l},
        "programmed": ftl.flash.programmed(),
        "flash_counts": (ftl.flash.reads, ftl.flash.writes, ftl.flash.erases),
        "erase_counts": ftl.flash.erase_counts,
        "victims": ftl.flash.erase_order,
        "gc": (ftl.gc_runs, ftl.gc_migrated_pages),
        "traffic": (list(ftl.stats.flash.items()),
                    list(ftl.stats.counters.items())),
        "clock": repr((clock.now, clock._times, clock.elapsed_ns)),
        "channels": repr([
            (res.busy_until, res.total_busy_ns)
            for res in ftl.channels.channels
        ]),
        "inflight": repr((sorted(ftl._inflight), ftl._inflight_max)),
    }


def arrays_match_reference(geometry, ops, ftl_cls=FTL, map_cls=None):
    real = build(ftl_cls, RecordingFlashArray, geometry, map_cls)
    ref = build(RefFTL, RefFlashArray, geometry)
    return state(real, apply(real, ops)) == state(ref, apply(ref, ops))


def op_streams(geometry):
    # Half the device live keeps GC migrating without (often) running
    # out of space; a few far-out LPAs reach the last slots of the
    # forward map.
    n_lpas = geometry.total_pages // 2
    lpa = st.one_of(
        st.integers(0, n_lpas - 1),
        st.sampled_from([geometry.total_pages - 2, geometry.total_pages - 1]),
    )
    low = st.integers(0, n_lpas - 1)
    op = st.one_of(
        st.tuples(st.just("run"), low, st.integers(1, 6), st.booleans()),
        st.tuples(st.just("write"), lpa),
        st.tuples(st.just("trim"), lpa),
        st.tuples(st.just("trim_many"), low, st.integers(1, 4)),
        st.tuples(st.just("read"), lpa),
        st.tuples(st.just("read_pages"), st.lists(lpa, max_size=5)),
        st.tuples(st.just("churn"), low, st.integers(1, 5),
                  st.integers(1, 4 * geometry.total_pages)),
    )
    return st.lists(op, max_size=25)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_op_streams_match_dict_backed_reference(name, data):
    geometry = GEOMETRIES[name]
    ops = data.draw(op_streams(geometry))
    assert arrays_match_reference(geometry, ops)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_sustained_overwrite_collects_garbage_identically(name):
    geometry = GEOMETRIES[name]
    n = geometry.total_pages * 3 // 5
    # every other page stays cold, so every victim has pages to move
    ops = [("run", 0, n, True)]
    ops += [("write", 2 * i % n) for i in range(6 * geometry.total_pages)]
    ops += [("read_pages", tuple(range(8)))]
    real = build(FTL, RecordingFlashArray, geometry)
    apply(real, ops)
    assert real.gc_runs > 3 and real.gc_migrated_pages > 0
    assert arrays_match_reference(geometry, ops)
    with fssan.sanitized():
        assert arrays_match_reference(geometry, ops)


def test_out_of_space_raises_the_same_way():
    geometry = GEOMETRIES["1ch"]
    ops = [("run", 0, geometry.total_pages + 1, True)]
    real = build(FTL, RecordingFlashArray, geometry)
    assert apply(real, ops)[-1][0] == "out of space"
    assert arrays_match_reference(geometry, ops)


# ---------------------------------------------------------------------- #
# resident images follow the live set
# ---------------------------------------------------------------------- #

def mapped_ppas_holding_the_only_images(ftl):
    """Asserts the slots holding an image are exactly the mapped PPAs
    (every other slot is erased or holds the marker) and returns them."""
    slots = ftl.flash._pages
    page_map = ftl.page_map
    mapped = {page_map.lookup(lpa) for lpa in page_map.mapped_lpas()}
    assert all(type(slots[ppa]) is bytes for ppa in mapped)
    assert all(
        slot is None or slot is RELEASED
        for ppa, slot in enumerate(slots) if ppa not in mapped
    )
    return mapped


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_op_streams_leave_images_only_under_mapped_pages(
    name, sanitize, data
):
    # Which slots are programmed is the reference's to say (``state``);
    # with this, every programmed slot nothing maps holds the marker.
    geometry = GEOMETRIES[name]
    ftl = build(FTL, FlashArray, geometry)
    fssan.ENABLED = sanitize
    apply(ftl, data.draw(op_streams(geometry)))
    mapped_ppas_holding_the_only_images(ftl)


def test_released_slot_is_programmed_and_unreadable_until_erased():
    geometry = GEOMETRIES["1ch"]
    flash = FlashArray(geometry)
    flash.invalidate_page(1)            # erased: stays erased
    assert not flash.is_programmed(1)
    flash.program_page(1, b"live")
    flash.invalidate_page(1)
    assert flash.is_programmed(1)
    with pytest.raises(FlashError, match="read of invalidated page 1"):
        flash.read_page(1)
    with pytest.raises(FlashError, match="already programmed"):
        flash.program_page(1, b"again")
    flash.invalidate_page(1)            # twice is once
    assert flash._pages[1] is RELEASED
    flash.erase_block(0)
    assert not flash.is_programmed(1)
    assert flash.read_page(1) == bytes(PAGE)
    flash.program_page(1, b"again")
    assert flash.read_page(1)[:5] == b"again"
    assert (flash.reads, flash.writes, flash.erases) == (2, 2, 1)


def test_same_filled_pages_are_programmed_as_one_image():
    flash = FlashArray(GEOMETRIES["1ch"])
    flash.program_page(0, bytearray(b"\x05" * PAGE))
    flash.program_page(1, memoryview(b"\x05" * PAGE))
    flash.program_page(2, b"")  # padded: the zero page
    flash.program_page(3, b"\x05" * (PAGE - 1) + b"\x06")
    assert flash.read_page(0) is flash.read_page(1) is filled(5, PAGE)
    assert flash.read_page(2) is flash.read_page(4) is filled(0, PAGE)
    assert type(flash.read_page(3)) is bytes


@pytest.mark.parametrize("fs_name, workload, kwargs, min_gc", [
    # wraps the 32 MB device: GC in the hundreds
    ("ext4", OLTP(ops_per_thread=300), {}, 100),
    ("bytefs", Varmail(ops_per_thread=20), {}, 0),
    ("bytefs", Varmail(ops_per_thread=20),
     {"devcache": DevCacheConfig(cache_bytes=1 << 20)}, 0),
], ids=["ext4-oltp-gc", "bytefs-varmail", "bytefs-varmail-devcache"])
def test_whole_stack_run_holds_images_only_for_mapped_pages(
    fs_name, workload, kwargs, min_gc
):
    seen = {}

    def probe(phase, clock, stats, device, fs):
        if phase == "measure-end":
            seen["images"] = len(
                mapped_ppas_holding_the_only_images(device.ftl)
            )
            seen["gc_runs"] = device.ftl.gc_runs

    run_workload(
        fs_name, workload, geometry=SMALL_GEOMETRY, stack_probe=probe,
        **kwargs,
    )
    assert seen["images"] > 0 and seen["gc_runs"] >= min_gc


@pytest.mark.parametrize(
    "devcache", [None, DevCacheConfig(cache_bytes=1 << 20)],
    ids=["flash", "devcache"],
)
@pytest.mark.parametrize("workload", [
    Varmail(ops_per_thread=10), Fileserver(n_files=16, ops_per_thread=4),
], ids=["varmail", "fileserver"])
@pytest.mark.parametrize("fs_name", ["bytefs", "ext4", "f2fs"])
def test_whole_stack_run_holds_one_image_per_fill(fs_name, workload, devcache):
    """A same-filled page is the one shared image of its fill: the
    array holds at most one object per non-filled mapped page plus one
    per distinct fill."""
    seen = {}

    def probe(phase, clock, stats, device, fs):
        if phase == "measure-end":
            slots = device.ftl.flash._pages
            images = [slots[ppa] for ppa in
                      mapped_ppas_holding_the_only_images(device.ftl)]
            fills = [image for image in images
                     if image == image[:1] * len(image)]
            seen["objects"] = len({id(image) for image in images})
            seen["other"] = len(images) - len(fills)
            seen["filled"] = len(fills)
            seen["fills"] = len(set(fills))

    run_workload(
        fs_name, workload, geometry=SMALL_GEOMETRY, stack_probe=probe,
        devcache=devcache,
    )
    # (not vacuous: one image per page would break the bound)
    assert seen["filled"] > seen["fills"] > 0
    assert seen["objects"] <= seen["other"] + seen["fills"]


# ---------------------------------------------------------------------- #
# planted mutants
# ---------------------------------------------------------------------- #

#: ties between victims (blocks overwritten alike) and live pages to move
MUTANT_OPS = [("run", 0, 6, True), ("churn", 0, 6, 150), ("churn", 2, 3, 60)]


class LastMinimumFTL(FTL):
    """Mutant: greedy GC takes the last block with the fewest valid
    pages instead of the first in block-open order."""

    def _pick_victim(self, ch):
        best = None
        for state in self._ch_blocks[ch].values():
            if state is self._active[ch]:
                continue
            if best is None or state.valid <= best.valid:
                best = state
        return best


class LeakyReverseMap(PageMap):
    """Mutant: a rebind leaves the old PPA's reverse entry behind, so an
    erased block's slice of the reverse map still names owners."""

    def bind(self, lpa, ppa):
        old = self._l2p[lpa]
        self._l2p[lpa] = ppa
        self._p2l[ppa] = lpa
        return old if old >= 0 else None


def test_last_minimum_victim_mutant_is_caught():
    geometry = GEOMETRIES["4ch"]
    assert arrays_match_reference(geometry, MUTANT_OPS)
    assert not arrays_match_reference(geometry, MUTANT_OPS, LastMinimumFTL)


def test_leaky_reverse_slice_mutant_is_caught():
    geometry = GEOMETRIES["4ch"]
    fssan.disable()
    # The mutant's first GC migrates a page no LPA maps to any more:
    # the array has released its image and says so, sanitizer or not.
    ftl = build(FTL, RecordingFlashArray, geometry, LeakyReverseMap)
    with pytest.raises(FlashError, match=r"read of invalidated page \d+"):
        apply(ftl, MUTANT_OPS)
    assert ftl.gc_runs == 1 and ftl.flash.erases == 0
    # Over an array that hands back dead bytes the migration goes
    # through, and the sanitizer's one-slice victim test names the
    # mutant at the erase.
    ftl = build(FTL, KeepingFlashArray, geometry, LeakyReverseMap)
    with fssan.sanitized(), pytest.raises(fssan.SanitizerError) as exc:
        apply(ftl, MUTANT_OPS)
    assert exc.value.invariant == fssan.FTL
    assert "GC erasing block" in str(exc.value)


# ---------------------------------------------------------------------- #
# bounds: a list must not take a negative index from its far end
# ---------------------------------------------------------------------- #

def test_flash_array_rejects_out_of_range_addresses():
    geometry = GEOMETRIES["1ch"]
    flash = FlashArray(geometry)
    flash.program_page(geometry.total_pages - 1, b"last")
    for ppa in (-1, -geometry.total_pages, geometry.total_pages, 10**9):
        with pytest.raises(FlashError):
            flash.read_page(ppa)
        with pytest.raises(FlashError):
            flash.program_page(ppa, b"x")
        with pytest.raises(FlashError):
            flash.is_programmed(ppa)
        with pytest.raises(FlashError):
            flash.invalidate_page(ppa)
    for block_id in (-1, geometry.total_blocks):
        with pytest.raises(FlashError):
            flash.erase_block(block_id)
    assert flash.is_programmed(geometry.total_pages - 1)
    assert (flash.reads, flash.writes, flash.erases) == (0, 1, 0)
    assert flash.erase_counts == {}


def test_erase_is_confined_to_its_block():
    geometry = GEOMETRIES["1ch"]
    flash = FlashArray(geometry)
    n = geometry.pages_per_block
    for ppa in range(3 * n):
        flash.program_page(ppa, bytes([ppa]))
    flash.erase_block(1)
    assert [flash.is_programmed(p) for p in range(3 * n)] == (
        [True] * n + [False] * n + [True] * n
    )
    assert len(flash._pages) == geometry.total_pages
    flash.program_page(n, b"again")
    assert flash.read_page(n)[:5] == b"again"


def test_page_map_rejects_out_of_range_ppas():
    pm = PageMap(16)
    pm.bind(9, 15)              # the last PPA
    assert pm.reverse(15) == 9
    for ppa in (-1, -16, 16):
        with pytest.raises(FlashError):
            pm.reverse(ppa)
        with pytest.raises(FlashError):
            pm.bind(1, ppa)
    for lo, hi in ((-1, 4), (0, 17), (8, 4), (-4, -1)):
        with pytest.raises(FlashError):
            pm.reverse_range(lo, hi)
    assert 1 not in pm and len(pm) == 1
    assert list(pm.reverse_range(12, 16)) == [-1, -1, -1, 9]
    assert list(pm.reverse_range(16, 16)) == []


@pytest.mark.parametrize("sanitize", [False, True])
def test_page_map_refuses_out_of_range_lpas_and_touches_nothing(sanitize):
    geometry = GEOMETRIES["1ch"]
    n = geometry.total_pages
    fssan.ENABLED = sanitize
    ftl = build(FTL, RecordingFlashArray, geometry)
    apply(ftl, [("run", 0, 5, True), ("write", n - 1)])
    before = state(ftl, [])
    pm = ftl.page_map
    slots = (pm._l2p.tobytes(), pm._p2l.tobytes())
    for lpa in (-1, -n, n, 10**9):
        with pytest.raises(FlashError, match=f"lpa {lpa} out of range"):
            pm.bind(lpa, 7)
        assert pm.lookup(lpa) is None
        assert pm.unbind(lpa) is None
        assert lpa not in pm and not ftl.is_mapped(lpa)
        ftl.trim(lpa)
        ftl.trim_many(lpa, 1)
    assert (pm._l2p.tobytes(), pm._p2l.tobytes()) == slots
    assert state(ftl, []) == before
    # and a read of one is a read of an unwritten page
    assert ftl.read_pages([-1, n]) == [bytes(PAGE)] * 2
    assert ftl.read_page(-1) == ftl.read_page(10**9) == bytes(PAGE)


def test_reverse_range_is_a_copy():
    pm = PageMap(8)
    pm.bind(1, 2)
    owners = pm.reverse_range(0, 4)
    pm.bind(1, 3)
    assert list(owners) == [-1, -1, 1, -1]
    assert list(pm.reverse_range(0, 4)) == [-1, -1, -1, 1]


def test_sanitizer_checks_read_the_reverse_list():
    fssan.check_map_bind(array("i", [-1, 2]), array("i", [-1, -1, 1]), 1, 2)
    fssan.check_map_steal(array("i", [-1, -1, 1]), 1, 2)
    fssan.check_gc_victim_clear(array("i", [-1] * 4), 8, 2)
    fssan.check_gc_victim_clear(array("i"), 8, 2)
    with pytest.raises(fssan.SanitizerError, match="L2P/P2L disagree"):
        fssan.check_map_bind(
            array("i", [-1, 2]), array("i", [-1, -1, 7]), 1, 2
        )
    with pytest.raises(fssan.SanitizerError, match="still live under LPA 7"):
        fssan.check_map_steal(array("i", [-1, -1, 7]), 1, 2)
    with pytest.raises(fssan.SanitizerError, match="PPA 10 is still live") \
            as exc:
        fssan.check_gc_victim_clear(array("i", [-1, -1, 0, 5]), 8, 2)
    assert exc.value.invariant == fssan.FTL
    assert "LPA 0" in str(exc.value)  # LPA 0 is an owner, not "no owner"


# ---------------------------------------------------------------------- #
# the FTL object stays inside CPython's key-sharing limit
# ---------------------------------------------------------------------- #

def test_ftl_instance_attributes_stay_key_shared():
    ftl = make_device("baseline").ftl
    assert len(vars(ftl)) <= 29, (
        f"FTL has {len(vars(ftl))} instance attributes: CPython 3.11 "
        "stops sharing a class's instance-attribute keys past 29, and "
        "every self.x on the object (the write_pages and GC loops read "
        "several per page) gets slower -- measured on perfbench's "
        "oltp_gc.  Hoist into a local or drop a binding instead of "
        "adding one."
    )


# ---------------------------------------------------------------------- #
# host side: the dirty index is the full scan
# ---------------------------------------------------------------------- #

def full_scan(space):
    return sorted(
        [(index, page) for index, page in space.pages.items() if page.dirty]
    )


def index_is_the_scan(pc):
    return all(
        space.dirty_pages() == full_scan(space)
        for space in pc._spaces.values()
    ) and pc.all_dirty() == [
        (ino, index, page)
        for ino, space in pc._spaces.items()
        for index, page in full_scan(space)
    ]


def dirty_index_matches_full_scan(cache_cls, ops, capacity=6):
    pc = cache_cls(capacity, PAGE)
    ever = []
    ok = True

    def writeback(batch):
        # an evicted page is out of the file's index before anyone can
        # look: check at the moment the file system is called back
        nonlocal ok
        ok = ok and index_is_the_scan(pc)
        for _ino, _index, page in batch:
            page.clean()

    for op in ops:
        kind, ino, index = op[:3]
        if kind == "touch":            # read path: lookup, fill on a miss
            page = pc.lookup(ino, index) \
                or pc.install(ino, index, b"r", writeback)
            ever.append(page)
        elif kind == "write":          # buffered partial write
            page = pc.lookup(ino, index) \
                or pc.install(ino, index, b"", writeback)
            pc.mark_page_dirty(page, cow=op[3])
            ever.append(page)
        elif kind == "run":            # whole-page writes, a run at a time
            n = pc.install_dirty_run(
                ino, index, bytes(PAGE * op[3]), 0, True, writeback
            )
            ever.extend(pc.space(ino).pages[index + i] for i in range(n))
        elif kind == "reinstall":      # install over whatever is there
            ever.append(pc.install(ino, index, b"n", writeback))
        elif kind == "clean" and ever:  # any page ever seen, stale or not
            ever[index % len(ever)].clean()
        elif kind == "fsync":
            for _index, page in pc.dirty_pages(ino):
                page.clean()
        elif kind == "truncate":
            space = pc.space(ino)
            for pidx in [p for p in space.pages if p >= index]:
                space.drop(pidx)
        elif kind == "drop_inode":
            pc.drop_inode(ino)
        ok = ok and index_is_the_scan(pc)
    return ok


_CACHE_OP = st.one_of(
    st.tuples(st.sampled_from(["touch", "reinstall", "clean", "fsync",
                               "truncate", "drop_inode"]),
              st.integers(1, 3), st.integers(0, 9)),
    st.tuples(st.just("write"), st.integers(1, 3), st.integers(0, 9),
              st.booleans()),
    st.tuples(st.just("run"), st.integers(1, 3), st.integers(0, 9),
              st.integers(1, 8)),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_CACHE_OP, max_size=40))
def test_dirty_index_equals_full_scan(ops):
    assert dirty_index_matches_full_scan(PageCache, ops)


class ForgetfulEvictionCache(PageCache):
    """Mutant: eviction leaves a dirty victim in its file's dirty index
    (as seen by the write-back it is handed to)."""

    def _make_room(self, n, writeback):
        def relisting(batch):
            for ino, index, page in batch:
                self._spaces[ino].dirty[index] = page
            writeback(batch)

        super()._make_room(n, relisting)


def test_forgetful_eviction_mutant_is_caught():
    ops = [("write", 1, i, False) for i in range(6)] + [("touch", 2, 0)]
    assert dirty_index_matches_full_scan(PageCache, ops)
    assert not dirty_index_matches_full_scan(ForgetfulEvictionCache, ops)


def test_stale_page_cleaned_late_does_not_unlist_its_replacement():
    pc = PageCache(4, PAGE)
    old = pc.install(1, 0, b"", lambda batch: None)
    pc.mark_page_dirty(old, cow=False)
    pc.space(1).drop(0)                      # truncate
    new = pc.install(1, 0, b"", lambda batch: None)
    pc.mark_page_dirty(new, cow=False)
    old.clean()
    assert pc.dirty_pages(1) == [(0, new)]


def test_cached_page_refuses_the_unindexed_mark_dirty():
    pc = PageCache(4, PAGE)
    page = pc.install(1, 0, b"", lambda batch: None)
    with pytest.raises(RuntimeError, match="mark_page_dirty"):
        page.mark_dirty(cow=False)
    assert pc.dirty_pages(1) == []


# ---------------------------------------------------------------------- #
# JBD2: one struct.pack per record, byte for byte the piecewise record
# ---------------------------------------------------------------------- #

class _JournalDevice:
    page_size = 256

    def __init__(self):
        self.blocks = {}
        self.records = []

    def write_blocks(self, lba, data, kind):
        self.records.append((lba, data))
        for i in range(len(data) // self.page_size):
            self.blocks[lba + i] = data[
                i * self.page_size : (i + 1) * self.page_size
            ]

    def write_block_run(self, lba, pages, kind):
        assert all(len(page) == self.page_size for page in pages)
        self.write_blocks(lba, b"".join(pages), kind)

    def write_pages(self, pages, kind):
        for lba, data in pages:
            self.blocks[lba] = data

    def read_blocks(self, lba, n, kind):
        return b"".join(
            self.blocks.get(lba + i, bytes(self.page_size)) for i in range(n)
        )


class _JournalFS:
    def __init__(self):
        self.device = _JournalDevice()

    def _flush_ordered(self):
        pass

    def _snapshot_block(self, blkno):
        return bytes([blkno % 251]) * self.device.page_size


def piecewise_record(seq, blknos, images, page_size):
    desc = struct.pack("<IIQI", jbd2_mod.JMAGIC, jbd2_mod.TYPE_DESC, seq,
                       len(blknos))
    desc += b"".join(struct.pack("<Q", b) for b in blknos)
    desc += bytes(page_size - len(desc))
    commit = struct.pack("<IIQ", jbd2_mod.JMAGIC, jbd2_mod.TYPE_COMMIT, seq)
    commit += bytes(page_size - len(commit))
    return desc + b"".join(images[b] for b in blknos) + commit


def test_jbd2_commit_of_nothing_writes_nothing():
    fs = _JournalFS()
    JBD2(fs, 100, 64).commit()
    assert fs.device.records == []


@pytest.mark.parametrize("n_blocks", [1, 2, 7, 29])
def test_jbd2_record_bytes_match_piecewise_packing(n_blocks):
    fs = _JournalFS()
    journal = JBD2(fs, 100, 64)
    # 29 block numbers fill the 256 B descriptor to the last byte
    blknos = [2**40 + 977 * i for i in range(n_blocks)][::-1]
    for b in blknos:
        journal.mark_dirty(b, StructKind.INODE)
    journal.commit()
    images = {b: fs._snapshot_block(b) for b in blknos}
    [(lba, record)] = fs.device.records
    assert lba == 101
    assert record == piecewise_record(1, sorted(blknos), images, 256)
    assert len(record) == (n_blocks + 2) * 256

    # a crash now: a fresh journal over the same blocks replays it
    replayed = JBD2(fs, 100, 64)
    assert replayed.replay() == 1
    assert all(fs.device.blocks[b] == images[b] for b in blknos)
    assert replayed.seq == 2


def test_jbd2_descriptor_overflow_is_refused_not_misaligned():
    fs = _JournalFS()
    journal = JBD2(fs, 100, 64)
    for b in range(30):           # 20 + 30 * 8 > 256
        journal.mark_dirty(b, StructKind.INODE)
    with pytest.raises(JournalFullError):
        journal.commit()
    assert fs.device.records == []


def test_jbd2_replay_numbers_on_past_the_checkpoint_header():
    """A torn first record after a wrap leaves replay no record at all:
    the next sequence number comes from the header, so what the next
    mount commits is not skipped by the replay after it."""
    fs = _JournalFS()
    journal = JBD2(fs, 100, 64)
    for b in (7, 8):
        journal.mark_dirty(b, StructKind.INODE)
        journal.commit()
    journal.checkpoint()
    assert journal.checkpoint_seq == 2
    fs.device.blocks[101] = bytes(fs.device.page_size)  # torn descriptor

    mounted = JBD2(fs, 100, 64)
    assert mounted.replay() == 0
    assert mounted.seq == 3
    mounted.mark_dirty(9, StructKind.INODE)
    mounted.commit()

    again = JBD2(fs, 100, 64)
    assert again.replay() == 1
    assert again.seq == 4
