"""Tiered device-DRAM page-frame cache on the CXL.mem path (the
device-DRAM cache tier; SNIPPETS Snippet 1's ``CxlSSD`` frames — a tag
plus one valid and one dirty flag per page — and Snippet 3's three-tier
hierarchy with prefetch-on-predicted-access).

:class:`DeviceCache` interposes between the firmware and the FTL: it
exposes the exact FTL surface the firmware variants consume
(``geometry``/``channels``/``read_page``/``read_pages``/``write_page``/
``write_pages``/``trim``/``trim_many``/``drain_write_buffer``), so
:class:`~repro.ssd.device.MSSD` can slide it under either firmware
without the firmware knowing.  Reads hit device DRAM when the frame is
resident (one ``dram_access_ns`` instead of a flash read); writes are
absorbed as dirty frames and reach NAND only on eviction, watermark
write-back, or a drain barrier — repeated writes to the same page cost
one flash program instead of many (the write-amplification win the
bench cases measure).

A frame is the page itself: ``lpa -> bytes``, the immutable object the
cache was handed (the flash array's own page on a fill, the host's page
image on a write) or, for a page that is one byte repeated, the one
shared image of that fill (:mod:`repro.nand.image`), so installing a
frame and hitting it are a dict store and a dict load with no 4 KB
copy.  Residency is the valid flag, membership in the
insertion-ordered ``_dirty`` dict the dirty flag, and ``_prefetched``
holds the frames no demand access has touched yet.

Durability model: like the firmware write log and the FTL write buffer,
the cache lives in the SSD's battery-backed DRAM — frames survive
``power_fail()`` (the paper's §2.1 power-loss protection).  Dirty frames
therefore never lose acked data; the crash sites on eviction and
write-back (``devcache.evict`` / ``devcache.writeback`` /
``devcache.flush``) let the fault sweeps cut power *around* the NAND
programs and prove recovery is idempotent.

Determinism: no RNG, no wall clock; every dict iterates in insertion
order; eviction/prefetch decisions are pure functions of the op stream.
A run with the cache enabled is byte-identical across repeats and
worker counts, and with the cache disabled (``MSSDConfig.devcache is
None``) this module is never imported, keeping golden fixtures
byte-identical.  Its tunables live in :mod:`repro.devcache.config`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis import fssan
from repro.faults.injector import NULL_INJECTOR
from repro.ftl.ftl import FTL
from repro.nand.image import same_filled
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.stats.traffic import StructKind, TrafficStats
from repro.trace import tracer as trace

from repro.devcache.config import DevCacheConfig
from repro.devcache.policy import EvictionPolicy, make_policy

_OTHER = StructKind.OTHER


class _Stream:
    """One address region's stride-detector state."""

    __slots__ = ("last_lpa", "stride", "confidence")

    def __init__(self, lpa: int) -> None:
        self.last_lpa = lpa
        self.stride = 0
        self.confidence = 0


class StridePrefetcher:
    """The stride prefetcher's parameters and its table of streams
    (Snippet 3's prefetch-on-predicted-access, scoped to this simulator).

    Each stream covers one address region (``lpa >> stream_shift``); in
    the multi-tenant cluster every tenant's namespace occupies its own
    LPA range, so regions approximate per-tenant access streams without
    the device knowing about tenants.  The table is LRU-bounded to
    ``max_streams`` entries.  The detector that reads and updates it runs
    in :meth:`DeviceCache._maybe_prefetch`.
    """

    def __init__(
        self,
        degree: int = 2,
        min_confidence: int = 2,
        max_streams: int = 8,
        stream_shift: int = 8,
    ) -> None:
        self.degree = degree
        self.min_confidence = min_confidence
        self.max_streams = max_streams
        self.stream_shift = stream_shift
        self.streams: "OrderedDict[int, _Stream]" = OrderedDict()


class DeviceCache:
    """Write-back page-frame cache wrapping the FTL read/write surface."""

    def __init__(
        self,
        ftl: FTL,
        config: DevCacheConfig,
        timing: TimingModel,
        clock: VirtualClock,
        stats: TrafficStats,
    ) -> None:
        self.ftl = ftl
        self.config = config
        self.timing = timing
        self.clock = clock
        self.stats = stats
        # Firmware-visible FTL surface (pass-through attributes).
        self.geometry = ftl.geometry
        self.channels = ftl.channels
        self.page_size = ftl.geometry.page_size
        self.capacity_frames = max(1, config.cache_bytes // self.page_size)
        self._frames: Dict[int, bytes] = {}  # resident LPA -> its page
        self._dirty: Dict[int, None] = {}  # insertion-ordered dirty LPAs
        self._prefetched: Set[int] = set()  # prefetched, not yet demanded
        self._policy: EvictionPolicy = make_policy(
            config.policy,
            self.capacity_frames,
            config.hot_fraction,
            config.hot_distance,
        )
        self._prefetcher: Optional[StridePrefetcher] = (
            StridePrefetcher(degree=config.prefetch_degree)
            if config.prefetch
            else None
        )
        self._high_frames = config.dirty_high_watermark * self.capacity_frames
        self._low_frames = config.dirty_low_watermark * self.capacity_frames
        self._dram_ns = timing.dram_access_ns
        # Crash-site hooks; MSSD overwrites this with its own injector.
        self.faults = NULL_INJECTOR
        self.hits = 0
        self.misses = 0
        self.evictions_clean = 0
        self.evictions_dirty = 0
        self.writebacks = 0
        self.flushes = 0
        self.prefetch_issued = 0
        self.prefetch_hits = 0
        self.prefetch_wasted = 0

    # ------------------------------------------------------------------ #
    # small helpers
    # ------------------------------------------------------------------ #

    def _dram(self) -> None:
        """Charge the foreground for one device-DRAM access."""
        clock = self.clock
        clock.advance_to(clock.now + self._dram_ns)

    def _hit(self, lpa: int) -> None:
        self.hits += 1
        if lpa in self._prefetched:
            self._prefetched.remove(lpa)
            self.prefetch_hits += 1
        self._policy.touch(lpa)

    def _install(self, lpa: int, data: bytes) -> None:
        """Make ``lpa`` resident.  ``bytes(data)`` is ``data`` itself for
        an immutable page and a private copy of a mutable buffer, so a
        frame never aliases memory its caller can still write."""
        while len(self._frames) >= self.capacity_frames:
            self._evict_one()
        self._frames[lpa] = bytes(data)
        self._policy.admit(lpa)

    def _evict_one(self) -> None:
        lpa = self._policy.victim()
        data = self._frames.pop(lpa)
        if lpa in self._prefetched:
            self._prefetched.remove(lpa)
            self.prefetch_wasted += 1
        if lpa in self._dirty:
            del self._dirty[lpa]
            self.faults.point("devcache.evict")
            self.evictions_dirty += 1
            # Evictions are one-page-at-a-time by design (like the
            # baseline firmware's page cache).
            self.ftl.write_page(
                lpa, data, _OTHER, background=True)
        else:
            self.evictions_clean += 1

    def _writeback_if_needed(self) -> None:
        """Clean dirty frames (oldest-dirtied first) past the watermark."""
        if len(self._dirty) <= self._high_frames:
            return
        while len(self._dirty) > self._low_frames:
            lpa = next(iter(self._dirty))
            del self._dirty[lpa]
            self.faults.point("devcache.writeback")
            self.writebacks += 1
            self.ftl.write_page(  # repro: allow[PERF001]
                lpa, self._frames[lpa], _OTHER, background=True)

    def _maybe_prefetch(self, lpa: int, kind: StructKind) -> None:
        """Feed the demand read of ``lpa`` to the stride detector and
        fetch what it predicts, as far as that is mapped and not
        resident.  The caller checks that the prefetcher is on.

        The detector: ``lpa``'s region's stream tracks the last LPA and
        the last inter-access stride; when the same non-zero stride
        repeats ``min_confidence`` times (sequential scans are stride 1,
        strided scans stride k), the next ``degree`` LPAs on that stride
        are predicted.  A re-read of the same page keeps the stride.

        Non-blocking: the flash reads occupy channels (later demand
        reads queue behind them — mispredictions have a real cost) but
        the demand op does not wait for them.  The installs below are
        :meth:`_install`'s, in this frame.
        """
        prefetcher = self._prefetcher
        streams = prefetcher.streams
        region = lpa >> prefetcher.stream_shift
        stream = streams.get(region)
        if stream is None:
            if len(streams) >= prefetcher.max_streams:
                streams.popitem(last=False)
            streams[region] = _Stream(lpa)
            return
        streams.move_to_end(region)
        stride = lpa - stream.last_lpa
        stream.last_lpa = lpa
        if stride == 0:
            return
        if stride == stream.stride:
            stream.confidence += 1
        else:
            stream.stride = stride
            stream.confidence = 1
        if stream.confidence < prefetcher.min_confidence:
            return
        frames = self._frames
        ftl = self.ftl
        wanted = []
        p = lpa
        for _ in range(prefetcher.degree):
            p += stride
            if p >= 0 and p not in frames and ftl.is_mapped(p):
                wanted.append(p)
        if not wanted:
            return
        if len(wanted) == 1:
            datas = (ftl.read_page(wanted[0], kind, True, True),)
        else:
            datas = ftl.read_pages(wanted, kind, background=True)
        self.prefetch_issued += len(wanted)
        self._prefetched.update(wanted)
        capacity = self.capacity_frames
        admit = self._policy.admit
        for p, data in zip(wanted, datas):
            while len(frames) >= capacity:
                self._evict_one()
            frames[p] = bytes(data)
            admit(p)

    # ------------------------------------------------------------------ #
    # the FTL surface the firmware consumes
    # ------------------------------------------------------------------ #

    def read_page(
        self,
        lpa: int,
        kind: StructKind = _OTHER,
        background: bool = False,
        as_run: bool = False,
    ) -> bytes:
        """One page, in one frame: a hit is :meth:`_hit` and
        :meth:`_dram`, a miss the FTL read and :meth:`_install`, both
        written out here."""
        frames = self._frames
        data = frames.get(lpa)
        if data is not None:
            self.hits += 1
            prefetched = self._prefetched
            if lpa in prefetched:
                prefetched.remove(lpa)
                self.prefetch_hits += 1
            self._policy.touch(lpa)
            if not background:
                clock = self.clock
                clock.advance_to(clock.now + self._dram_ns)
        else:
            self.misses += 1
            data = self.ftl.read_page(lpa, kind, background, as_run)
            while len(frames) >= self.capacity_frames:
                self._evict_one()
            frames[lpa] = bytes(data)
            self._policy.admit(lpa)
        if self._prefetcher is not None:
            self._maybe_prefetch(lpa, kind)
        return data

    def read_pages(
        self,
        lpas: List[int],
        kind: StructKind = _OTHER,
        background: bool = False,
    ) -> List[bytes]:
        frames = self._frames
        out: List[Optional[bytes]] = []
        miss_at: List[int] = []
        miss_lpas: List[int] = []
        for i, lpa in enumerate(lpas):
            data = frames.get(lpa)
            if data is not None:
                self._hit(lpa)
            else:
                self.misses += 1
                miss_at.append(i)
                miss_lpas.append(lpa)
            out.append(data)
        if miss_lpas:
            # Misses keep the FTL's channel striping; the caller waits
            # only for the slowest flash read, and the DRAM hits pipeline
            # behind it for free.
            datas = self.ftl.read_pages(miss_lpas, kind, background)
            for i, lpa, data in zip(miss_at, miss_lpas, datas):
                out[i] = data
                self._install(lpa, data)
        elif lpas and not background:
            self._dram()
        if self._prefetcher is not None:
            for lpa in lpas:
                self._maybe_prefetch(lpa, kind)
        return out  # type: ignore[return-value]

    def write_page(
        self,
        lpa: int,
        data: bytes,
        kind: StructKind = _OTHER,
        background: bool = True,
    ) -> None:
        self.write_pages(((lpa, data),), kind, background)

    def write_pages(
        self,
        pages: Iterable[Tuple[int, bytes]],
        kind: StructKind = _OTHER,
        background: bool = True,
    ) -> None:
        """Absorb a run of page writes as dirty frames, pulling ``pages``
        one at a time like :meth:`FTL.write_pages` does.

        The layers above open their spans for a page inside the pull, so
        each page gets a ``devcache`` span of its own here, nested in
        theirs, rather than one span around the run."""
        frames = self._frames
        dirty = self._dirty
        for lpa, data in pages:
            _sp = trace.begin("devcache", "write_page", lpa=lpa) \
                if trace.ENABLED else None
            try:
                # A same-filled page is the one shared image of its fill.
                # (A fill needs no such step: the FTL hands out the flash
                # array's own objects, which programming already shared.)
                data = same_filled(data)
                if lpa in frames:
                    self._hit(lpa)
                    frames[lpa] = bytes(data)
                else:
                    self.misses += 1
                    self._install(lpa, data)
                # An already-dirty frame keeps its place in write-back
                # order.
                dirty[lpa] = None
                if not background:
                    self._dram()
                self._writeback_if_needed()
            finally:
                if _sp is not None:
                    trace.end(_sp)

    def trim(self, lpa: int) -> None:
        self._discard(lpa)
        self.ftl.trim(lpa)

    def trim_many(self, lpa: int, n_pages: int) -> None:
        for p in range(lpa, lpa + n_pages):
            self._discard(p)
        self.ftl.trim_many(lpa, n_pages)

    def _discard(self, lpa: int) -> None:
        """Drop a frame without write-back (the page was trimmed dead)."""
        if self._frames.pop(lpa, None) is None:
            return
        self._policy.forget(lpa)
        if lpa in self._prefetched:
            self._prefetched.remove(lpa)
            self.prefetch_wasted += 1
        self._dirty.pop(lpa, None)

    def drain_write_buffer(self) -> None:
        """Barrier: flush every dirty frame, then drain the FTL buffer.

        Both firmwares call this from ``force_clean`` (unmount/sync) and
        ``recover`` — after it returns, NAND holds every acked byte.  A
        crash mid-flush leaves already-programmed pages both on flash and
        dirty-in-DRAM; re-flushing them on recovery is idempotent.
        """
        if fssan.ENABLED:
            self.check_invariants()
        while self._dirty:
            lpa = next(iter(self._dirty))
            self.faults.point("devcache.flush")
            self.flushes += 1
            self.ftl.write_page(  # repro: allow[PERF001]
                lpa, self._frames[lpa], _OTHER, background=True)
            del self._dirty[lpa]
        self.ftl.drain_write_buffer()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def gauges(self) -> Dict[str, float]:
        """Telemetry gauges merged into :meth:`MSSD.gauges` when the
        cache is enabled (so ``repro.telemetry.series/v1`` and the
        Prometheus exposition pick them up with no extra wiring)."""
        return {
            "devcache_frames": len(self._frames),
            "devcache_dirty_frames": len(self._dirty),
            "devcache_hits": self.hits,
            "devcache_misses": self.misses,
            "devcache_evictions_clean": self.evictions_clean,
            "devcache_evictions_dirty": self.evictions_dirty,
            "devcache_writebacks": self.writebacks,
            "devcache_flushes": self.flushes,
            "devcache_prefetch_issued": self.prefetch_issued,
            "devcache_prefetch_hits": self.prefetch_hits,
            "devcache_prefetch_wasted": self.prefetch_wasted,
        }

    def check_invariants(self) -> None:
        """Structural invariants (FSSan's ``FSSAN-DEVCACHE``, checked at
        every drain barrier under ``REPRO_SANITIZE=1``): every dirty or
        prefetched LPA is resident and none is both, residency stays
        within capacity, and the policy tracks exactly the resident set."""
        fssan.check_devcache(self._frames, self._dirty, self._prefetched,
                             self.capacity_frames, len(self._policy))
