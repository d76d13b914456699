"""Baseline M-SSD firmware: page-granular battery-backed DRAM cache.

This is the device the evaluation mounts Ext4/F2FS/NOVA/PMFS on (§5.1):
no write log, no firmware transactions — just a 256 MB page cache in SSD
DRAM (scaled down here).  Byte-interface writes perform read-modify-write
at page granularity into the cache; dirty pages are flushed to flash by a
background writeback with high/low watermarks, and the cache is
battery-backed so acknowledged writes are durable.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.faults.injector import NULL_INJECTOR
from repro.ftl.ftl import FTL
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.sim.resources import Resource
from repro.ssd.firmware.config import BaselineFirmwareConfig
from repro.stats.traffic import StructKind, TrafficStats
from repro.trace import tracer as trace


class _CachedPage:
    """One cached page: the immutable ``bytes`` it was filled or block-
    written with, a private ``bytearray`` once a byte write lands."""

    __slots__ = ("data", "dirty")

    def __init__(self, data: Union[bytes, bytearray], dirty: bool) -> None:
        self.data = data
        self.dirty = dirty


class BaselineFirmware:
    """Unmodified-SSD firmware with an LRU page cache in device DRAM."""

    def __init__(
        self,
        ftl: FTL,
        timing: TimingModel,
        clock: VirtualClock,
        stats: TrafficStats,
        config: Optional[BaselineFirmwareConfig] = None,
    ) -> None:
        self.ftl = ftl
        self.timing = timing
        self.clock = clock
        self.stats = stats
        self.config = config or BaselineFirmwareConfig()
        self.page_size = ftl.geometry.page_size
        self.capacity_pages = self.config.cache_pages(self.page_size)
        self._cache: "OrderedDict[int, _CachedPage]" = OrderedDict()
        self._dirty_count = 0
        self.fw_core = Resource("fw-core")
        # Crash-site hooks; MSSD overwrites this with its own injector.
        self.faults = NULL_INJECTOR

    # ------------------------------------------------------------------ #

    def _fw(self, duration_ns: float) -> None:
        end = self.fw_core.serve(self.clock.now, duration_ns)
        self.clock.advance_to(end)

    def _touch(self, lpa: int) -> Optional[_CachedPage]:
        page = self._cache.get(lpa)
        if page is not None:
            self._cache.move_to_end(lpa)
        return page

    def _install(self, lpa: int, data: bytes, dirty: bool) -> _CachedPage:
        existing = self._cache.get(lpa)
        if existing is not None:
            if dirty and not existing.dirty:
                self._dirty_count += 1
            existing.data = data
            existing.dirty = existing.dirty or dirty
            self._cache.move_to_end(lpa)
            return existing
        self._evict_if_needed()
        page = _CachedPage(data, dirty)
        self._cache[lpa] = page
        if dirty:
            self._dirty_count += 1
        self._writeback_if_needed()
        return page

    def _evict_if_needed(self) -> None:
        while len(self._cache) >= self.capacity_pages:
            # Evict the least-recently-used page; flush it first if dirty.
            lpa, page = next(iter(self._cache.items()))
            if page.dirty:
                # Cache-pressure evictions happen on the read path too, so
                # they are a device-visible mutation in their own right
                # (found by `repro lint` CS001): crash between the flash
                # program and the cache drop must leave the page readable.
                self.faults.point("basefw.evict")
                # Eviction interleaves a crash point per page drained.
                self.ftl.write_page(  # repro: allow[PERF001]
                    lpa, bytes(page.data), StructKind.OTHER, background=True
                )
                self._dirty_count -= 1
                self.stats.bump("devcache_dirty_evictions")
            else:
                self.stats.bump("devcache_clean_evictions")
            del self._cache[lpa]

    def _writeback_if_needed(self) -> None:
        """Watermark-driven background flush of dirty pages (oldest first)."""
        high = int(self.capacity_pages * self.config.dirty_high_watermark)
        if self._dirty_count <= high:
            return
        low = int(self.capacity_pages * self.config.dirty_low_watermark)
        for lpa in list(self._cache):
            if self._dirty_count <= low:
                break
            page = self._cache[lpa]
            if not page.dirty:
                continue
            # Cache and flash are both device-retained, so a crash here
            # only changes *where* the bytes sit — still worth a site:
            # recovery must cope with half-drained watermark flushes.
            self.faults.point("basefw.writeback")
            # Watermark writeback interleaves a crash point per page.
            self.ftl.write_page(  # repro: allow[PERF001]
                lpa, bytes(page.data), StructKind.OTHER, background=True
            )
            page.dirty = False
            self._dirty_count -= 1
            self.stats.bump("devcache_writebacks")

    def _load_page(self, lpa: int, foreground: bool = True) -> _CachedPage:
        page = self._touch(lpa)
        if page is not None:
            self.stats.bump("devcache_hits")
            return page
        self.stats.bump("devcache_misses")
        if trace.ENABLED:
            trace.event("firmware", "devcache_miss", lpa=lpa)
        data = self.ftl.read_page(
            lpa, StructKind.OTHER, background=not foreground
        )
        return self._install(lpa, data, dirty=False)

    # ------------------------------------------------------------------ #
    # byte interface
    # ------------------------------------------------------------------ #

    def byte_read(self, lpa: int, offset: int, length: int) -> bytes:
        self._fw(self.timing.dram_access_ns)
        page = self._load_page(lpa)
        return bytes(page.data[offset : offset + length])

    def byte_write(
        self,
        lpa: int,
        offset: int,
        data: bytes,
        txid: Optional[int] = None,
    ) -> None:
        """Read-modify-write into the page cache (battery-backed)."""
        if offset + len(data) > self.page_size:
            raise ValueError("byte write crosses a page boundary")
        self._fw(self.timing.dram_access_ns)

        def _apply(k: int) -> None:
            if k == 0:
                return
            page = self._load_page(lpa)
            if type(page.data) is bytes:
                page.data = bytearray(page.data)
            page.data[offset : offset + k] = data[:k]
            if not page.dirty:
                page.dirty = True
                self._dirty_count += 1
            self._writeback_if_needed()

        self.faults.site("basefw.byte_write", _apply, len(data), atom=64)

    # ------------------------------------------------------------------ #
    # block interface
    # ------------------------------------------------------------------ #

    def block_read(self, lpa: int) -> bytes:
        self._fw(self.timing.dram_access_ns)
        page = self._load_page(lpa)
        return bytes(page.data)

    def block_read_many(self, lpas: List[int]) -> List[bytes]:
        """Multi-page NVMe read: cache misses stripe across channels."""
        self._fw(self.timing.dram_access_ns * len(lpas))
        missing = [lpa for lpa in lpas if self._touch(lpa) is None]
        if missing:
            self.stats.bump("devcache_misses", len(missing))
            datas = self.ftl.read_pages(
                missing, StructKind.OTHER, background=False
            )
            for lpa, data in zip(missing, datas):
                self._install(lpa, data, dirty=False)
        self.stats.bump("devcache_hits", len(lpas) - len(missing))
        out = []
        for lpa in lpas:
            page = self._touch(lpa)
            if page is None:
                # evicted while installing its siblings: re-read
                page = self._load_page(lpa)
            out.append(bytes(page.data))
        return out

    def block_write_many(
        self,
        pages: Iterable[Tuple[int, bytes]],
        kind: StructKind,
        n_pages: int = 1,
    ) -> None:
        """NVMe block writes: through the FTL write buffer to flash
        (FEMU-style).

        The foreground pays DMA plus write-buffer admission; sustained
        write streams therefore throttle at flash program bandwidth,
        which is what makes block-interface write amplification expensive
        (and what ByteFS's in-device log avoids).  The cached copy, if
        any, is updated for read coherence.

        One firmware entry for the whole run: ``pages`` is pulled one
        ``(lpa, data)`` at a time and handed on to the FTL's loop the
        same way, so the per-page sequence (DRAM charge, cache update,
        write-buffer admission) is preserved exactly.  ``n_pages`` > 1
        marks the pages of one multi-page command (one trace span);
        otherwise each page is a command of its own (see the ByteFS
        firmware counterpart).
        """
        self.ftl.write_pages(self._refreshing(pages, n_pages <= 1), kind)

    def _refreshing(
        self, pages: Iterable[Tuple[int, bytes]], span_each: bool
    ) -> Iterator[Tuple[int, bytes]]:
        """The firmware's share of each block write, ahead of the FTL's."""
        clock = self.clock
        serve = self.fw_core.serve
        dram_access_ns = self.timing.dram_access_ns
        cache = self._cache
        for lpa, data in pages:
            _sp = trace.begin("firmware", "block_write", lpa=lpa) \
                if span_each and trace.ENABLED else None
            clock.advance_to(serve(clock.now, dram_access_ns))
            cached = cache.get(lpa)
            if cached is not None:
                cache.move_to_end(lpa)
                if cached.dirty:
                    self._dirty_count -= 1
                cached.data = bytes(data)
                cached.dirty = False
            yield lpa, data
            if _sp is not None:
                trace.end(_sp)

    def trim(self, lpa: int) -> None:
        page = self._cache.pop(lpa, None)
        if page is not None and page.dirty:
            self._dirty_count -= 1
        self.ftl.trim(lpa)

    def trim_many(self, lpa: int, n_pages: int) -> None:
        """Batched trim: one firmware entry, one FTL map crossing."""
        cache_pop = self._cache.pop
        for p in range(lpa, lpa + n_pages):
            page = cache_pop(p, None)
            if page is not None and page.dirty:
                self._dirty_count -= 1
        self.ftl.trim_many(lpa, n_pages)

    def commit(self, txid: int) -> None:
        raise NotImplementedError(
            "baseline firmware has no transaction support"
        )

    # ------------------------------------------------------------------ #
    # power loss and recovery
    # ------------------------------------------------------------------ #

    def power_fail(self) -> None:
        self.stats.bump("fw_power_failures")

    def recover(self) -> Dict[str, float]:  # repro: allow[CS001]
        """Battery flush: write every dirty cached page back to flash.

        Recovery runs after the sweep driver disarms the injector, so its
        device writes are deliberately not crash sites (CS001 suppressed).
        """
        t0 = self.clock.now
        flushed = 0
        for lpa, page in list(self._cache.items()):
            if page.dirty:
                # Unmount flush drains the cache in insertion order; each
                # page may target a different lpa, so nothing coalesces.
                self.ftl.write_page(  # repro: allow[PERF001]
                    lpa, bytes(page.data), StructKind.OTHER, background=False
                )
                page.dirty = False
                flushed += 1
        self._dirty_count = 0
        self.ftl.drain_write_buffer()
        return {
            "scanned_entries": len(self._cache),
            "discarded_entries": 0,
            "flushed_pages": flushed,
            "duration_ns": self.clock.now - t0,
        }

    def force_clean(self) -> None:
        for lpa, page in list(self._cache.items()):
            if page.dirty:
                # Unmount/sync flushes run with power on, so each dirty
                # page drained is a numbered crash site (lint CS001).
                self.faults.point("basefw.flush")
                # Sync flush interleaves a crash point per dirty page.
                self.ftl.write_page(  # repro: allow[PERF001]
                    lpa, bytes(page.data), StructKind.OTHER, background=True
                )
                page.dirty = False
        self._dirty_count = 0
        self.ftl.drain_write_buffer()

    def log_utilization(self) -> float:
        return self._dirty_count / self.capacity_pages
